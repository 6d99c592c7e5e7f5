#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not run by ``run.py``).

Run from the root of a checkout; each run of ``run.py`` is its own
process, started and awaited one at a time, each for ``run_seconds``::

    python3 perfbench/check.py steadiness
    python3 perfbench/check.py sensitivity
    python3 perfbench/check.py trace

- ``steadiness``: two sets of 10 A/A runs per workload on distinct
  seeds.  The runs are interleaved -- round by round, every workload
  runs one seed of each set -- so slow drift in machine speed lands on
  both sets alike.  Per end-to-end metric: the quartiles, the spread
  ``(q3 - q1) / median`` against the metric's bound (target: below a
  third of it), and whether the two sets' medians differ by more than
  the bound, in either direction.
- ``sensitivity``: adds a fixed delay to one function at a time, sized
  so the expected shift is at least twice the bound.  Per seed, a
  baseline run is followed directly by the delayed runs, and the report
  gives each paired per-seed delta.  Exercise: every paired delta of the
  mapped metric must exceed its bound.  Bypass: the median paired delta
  of every timed metric must stay within its bound.
- ``trace``: one traced and one untraced run per workload on seed 1;
  reports the layer tables, calls on exercising vs bypass workloads, and
  the tracing overhead (traced vs untraced ``ops_per_s``).

Each writes a Markdown report to ``perfbench/results/`` and the raw run
results to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
OUT = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}

#: A/A runs per set in the steadiness check (two sets)
STEADY_RUNS = 10
#: paired seeds in the sensitivity check
SENSITIVITY_RUNS = 5

#: delay target -> (milliseconds, mapped metric, exercising workload,
#: bypass workload); see README.md for why each pairing
DELAYS = {
    "infer_axes": (1.0, "op_p50_ms", "compile-cold", "replan-drift"),
    "pack_lane": (6.0, "ops_per_s", "compile-cold", "compile-staged"),
    "simulate_cluster": (15.0, "op_p50_ms", "compile-staged", "compile-cold"),
    "request_key": (0.1, "op_p50_ms", "serve-fleet", "replan-drift"),
}

#: metrics a delay in the timed phase cannot move (set-up happens before
#: delays are installed; plan quality is computed after)
UNTIMED = ("setup_s", "plan_iter_ms", "exposed_a2a_ms", "predict_err_pct")


def run_once(workload, seed, trace=0, delays=()) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    for name, ms in delays:
        cmd += ["--delay", f"{name}={ms}"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["stdout"] = lines[:-1]
    result["seed"] = seed
    print(f"  {workload} seed={seed} trace={trace} delays={list(delays)} "
          f"wall={wall:.1f}s correct={result['correct']}", flush=True)
    return result


def value(result, metric) -> float:
    return result["metrics"][metric]["value"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(metric, new, old) -> float:
    """Relative worsening of ``new`` against ``old`` (negative = better)."""
    sign = 1.0 if BOUNDS[metric]["better"] == "lower" else -1.0
    return sign * (new - old) / old


def write_report(name, lines, raw) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}.md").write_text("\n".join(lines) + "\n")
    (OUT / f"{name}.json").write_text(json.dumps(raw, indent=1))
    print("\n".join(lines))


def steadiness() -> bool:
    # set 1 runs the odd seeds, set 2 the even ones; rounds alternate
    # which set goes first
    sets = [{w: [] for w in WORKLOADS} for _ in range(2)]
    for i in range(STEADY_RUNS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in WORKLOADS:
            for k in order:
                sets[k][w].append(run_once(w, 2 * i + 1 + k))
    ok = True
    lines = [
        f"# Steadiness: 2 sets of {STEADY_RUNS} A/A runs per workload",
        "",
        f"`--seconds {SECONDS}`; set 1 runs seeds 1, 3, .., "
        f"{2 * STEADY_RUNS - 1}, set 2 seeds 2, 4, .., {2 * STEADY_RUNS}, "
        "interleaved: in round i every workload runs seed 2i + 1 and "
        "seed 2i + 2, in alternating order.  Spread = (q3 - q1) / median "
        "over a set (`statistics.quantiles(n=4)`); target: spread < bound / 3 "
        "(setup_s exempt); the two sets' medians may differ by at most the "
        "bound, in either direction (drift = set 2 against set 1, "
        "positive = worse).",
        "",
        "| workload | metric | unit | bound | set | q1 | median | q3 | spread | spread/bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for w in WORKLOADS:
        for metric, spec in BOUNDS.items():
            medians = []
            for k, runs in enumerate(sets, start=1):
                values = [value(r, metric) for r in runs[w]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                good = metric == "setup_s" or spread < spec["bound"] / 3
                verdict = "ok" if good else (
                    "within bound" if spread <= spec["bound"] else "TOO NOISY")
                ok &= spread <= spec["bound"] or metric == "setup_s"
                lines.append(
                    f"| {w} | {metric} | {spec['unit']} | {spec['bound']} | {k} "
                    f"| {q1:.6g} | {med:.6g} | {q3:.6g} | {spread:.4f} "
                    f"| {spread / spec['bound']:.3f} | {verdict} |"
                )
            drift = worse_by(metric, medians[1], medians[0])
            good = abs(drift) <= spec["bound"]
            ok &= good
            lines.append(
                f"| {w} | {metric} | {spec['unit']} | {spec['bound']} | 2 vs 1 "
                f"| | {drift:+.4f} | | | {abs(drift) / spec['bound']:.3f} "
                f"| {'ok' if good else 'MEDIAN MOVED'} |"
            )
    correct = all(r["correct"] for s in sets for runs in s.values() for r in runs)
    walls = [r["wall_s"] for s in sets for runs in s.values() for r in runs]
    lines += [
        "",
        f"All runs correct: {correct}.  Run wall time: min {min(walls):.1f} s, "
        f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s.",
    ]
    lines += ["", "First run of each workload (op count, tail percentile):", ""]
    lines += [
        f"    {w}: {line}"
        for w in WORKLOADS
        for line in sets[0][w][0]["stdout"]
        if line.startswith("ops=")
    ]
    write_report("steadiness", lines, sets)
    return ok and correct


def sensitivity() -> bool:
    seeds = range(1, SENSITIVITY_RUNS + 1)
    # per workload, the delays it takes part in and in which role
    roles: dict[str, list] = {}
    for name, (ms, mapped, exercise, bypass) in DELAYS.items():
        roles.setdefault(exercise, []).append((name, "exercise"))
        roles.setdefault(bypass, []).append((name, "bypass"))
    raw: dict[str, list] = {}
    for seed in seeds:
        for w, members in roles.items():
            raw.setdefault(f"baseline:{w}", []).append(run_once(w, seed))
            for name, _ in members:
                ms = DELAYS[name][0]
                raw.setdefault(f"{name}:{w}", []).append(
                    run_once(w, seed, delays=[(name, ms)]))
    ok = True
    lines = [
        f"# Sensitivity self-check ({SENSITIVITY_RUNS} paired seeds, "
        f"`--seconds {SECONDS}`)",
        "",
        "Each delay busy-waits on entry to one function during the timed "
        "phase.  Per seed, the baseline run is directly followed by the "
        "delayed runs of that workload; a delta is the delayed run's "
        "worsening against the baseline on the same seed (positive = "
        "worse).  Exercise: every paired delta of the mapped metric must "
        "exceed its bound.  Bypass: the median paired delta of every timed "
        "metric must stay within its bound.",
        "",
        "| delay | ms/call | workload | role | metric | paired deltas (seeds "
        f"1..{SENSITIVITY_RUNS}) | median delta | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, (ms, mapped, exercise, bypass) in DELAYS.items():
        for workload, role in ((exercise, "exercise"), (bypass, "bypass")):
            base = raw[f"baseline:{workload}"]
            runs = raw[f"{name}:{workload}"]
            metrics = [mapped] if role == "exercise" else [
                m for m in BOUNDS if m not in UNTIMED]
            for metric in metrics:
                deltas = [
                    worse_by(metric, value(new, metric), value(old, metric))
                    for old, new in zip(base, runs)
                ]
                med = statistics.median(deltas)
                bound = BOUNDS[metric]["bound"]
                good = (min(deltas) > bound if role == "exercise"
                        else med <= bound)
                ok &= good
                lines.append(
                    f"| {name} | {ms} | {workload} | {role} | {metric} "
                    f"| {' '.join(f'{d:+.3f}' for d in deltas)} | {med:+.4f} "
                    f"| {bound} | {'ok' if good else 'FAIL'} |"
                )
    correct = all(r["correct"] for runs in raw.values() for r in runs)
    lines += ["", f"All runs correct: {correct}."]
    write_report("sensitivity", lines, raw)
    return ok and correct


def trace() -> bool:
    lines = [
        f"# Traced runs (seed 1, `--seconds {SECONDS}`)",
        "",
        "Per-layer calls and self time per op from `--trace 1`; tracing "
        "overhead is traced vs untraced `ops_per_s` on the same seed.",
        "",
    ]
    raw = {}
    calls = {}
    for w in WORKLOADS:
        plain = run_once(w, 1)
        traced = run_once(w, 1, trace=1)
        raw[w] = {"untraced": plain, "traced": traced}
        base = value(plain, "ops_per_s")
        slow = value(traced, "trace.ops_per_s")
        lines += [
            f"## {w}",
            "",
            f"ops/s untraced {base:.4g}, traced {slow:.4g}: tracing overhead "
            f"{(base / slow - 1) * 100:.1f}%",
            "",
            "```",
            *[line for line in traced["stdout"] if not line.startswith("chrome")],
            "```",
            "",
        ]
        calls[w] = {
            k[: -len(".calls")]: v["value"]
            for k, v in traced["metrics"].items() if k.endswith(".calls")
        }
    layers = list(calls[WORKLOADS[0]])
    lines += [
        "## Calls per op by workload",
        "",
        "| layer | " + " | ".join(WORKLOADS) + " |",
        "|---|" + "---|" * len(WORKLOADS),
    ]
    for layer in layers:
        lines.append(
            f"| {layer} | "
            + " | ".join(f"{calls[w][layer]:.4g}" for w in WORKLOADS)
            + " |"
        )
    write_report("trace", lines, raw)
    return all(r["correct"] for pair in raw.values() for r in pair.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("steadiness", "sensitivity", "trace"))
    check = parser.parse_args(argv).check
    ok = {"steadiness": steadiness, "sensitivity": sensitivity, "trace": trace}[
        check
    ]()
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
