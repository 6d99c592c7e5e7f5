#!/usr/bin/env python3
"""Benchmark of the Lancet reproduction's planner and plan server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

One process runs one workload: set-up (imports, fixture, warm-up
rounds), a timed closed loop over the workload's fixed op sequence, the
output checks, then the plan-quality metrics.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes a Chrome trace under ``perfbench/out/``).
The exit code is 0 when every output check passed and 1 when one failed
(``correct`` false; the JSON line is still printed).
``--delay NAME=MS`` busy-waits in one planner/server function during the
timed phase (the sensitivity self-check, see ``check.py``).

See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: thread caps: BLAS pools stay at one thread (set before numpy loads)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10

#: per-run counters every traced run reports (0 where a workload lacks them)
COUNTERS = (
    "serving.memory_hit_ratio",
    "serving.planner_runs",
    "api.store.hit_ratio",
    "core.cache.a2a_estimates.hit_ratio",
    "core.cache.planner_sim.hit_ratio",
    "core.cache.planner_range_ctx.hit_ratio",
    "core.cache.profiler.hit_ratio",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay",
        action="append",
        default=[],
        metavar="NAME=MS",
        help="busy-wait MS milliseconds on entry to NAME "
        "(infer_axes, pack_lane, simulate_cluster, request_key)",
    )
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, as
    ``(value, percentile)`` (nearest rank; the maximum for tiny runs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def load_repro():
    """Import ``repro`` from this checkout's ``src`` and time it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: import cost is set-up cost)
    import workloads  # noqa: F401

    elapsed = time.perf_counter() - t0
    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = load_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    delays = {}
    for item in args.delay:
        name, _, ms = item.partition("=")
        delays[name] = float(ms)

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    try:
        return measure(workload, args, import_s, delays)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, args, import_s, delays) -> int:
    # -- set-up ------------------------------------------------------------
    t0 = time.perf_counter()
    workload.fixture()
    fixture_s = time.perf_counter() - t0
    rounds = []
    for _ in range(workload.SETUP_ROUNDS):
        t0 = time.perf_counter()
        workload.setup_round()
        rounds.append(time.perf_counter() - t0)
    setup_s = import_s + fixture_s + statistics.median(rounds)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    delay_patches = spans.install_delays(delays)
    workload.start()
    gc.collect()
    gc.freeze()

    # -- timed closed loop -------------------------------------------------
    latencies = []
    failed = 0
    unchecked_s = 0.0
    start = time.perf_counter()
    for index, op in enumerate(workload.ops):
        workload.before(op)
        if tracer:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception:
            failed += 1
            if failed == 1:
                traceback.print_exc()
            continue
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op()
        latencies.append(t1 - t0)
        try:
            failed += workload.between(op, result)
        except Exception:
            failed += 1
            traceback.print_exc()
        unchecked_s += time.perf_counter() - t1
    wall_s = time.perf_counter() - start - unchecked_s

    delay_patches.undo()
    if tracer:
        tracer.uninstall()
    gc.unfreeze()

    # -- checks and plan quality (untimed) ---------------------------------
    correct = True
    try:
        failed += workload.finish()
        quality = workload.quality()
    except Exception:
        traceback.print_exc()
        correct, quality = False, {}
    attempted = len(workload.ops)
    correct = correct and failed == 0

    ops_per_s = len(latencies) / wall_s
    if tracer:
        metrics = traced_metrics(workload, tracer, attempted, ops_per_s, args)
    else:
        metrics = e2e_metrics(latencies, ops_per_s, setup_s, quality)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def e2e_metrics(latencies, ops_per_s, setup_s, quality) -> dict:
    tail_s, tail_pct = tail(latencies)
    p50_s = statistics.median(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"ops={len(latencies)} p50={p50_s * 1e3:.4f}ms "
        f"tail=p{tail_pct:.3f}={tail_s * 1e3:.4f}ms "
        f"({TAIL_BEYOND} of {len(latencies)} samples beyond) "
        f"ops/s={ops_per_s:.3f} setup={setup_s:.3f}s rss={rss_mb:.1f}MB"
    )
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50_s * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "plan_iter_ms": (quality.get("plan_iter_ms", 0.0), "ms"),
        "exposed_a2a_ms": (quality.get("exposed_a2a_ms", 0.0), "ms"),
        "predict_err_pct": (quality.get("predict_err_pct", 0.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_metrics(workload, tracer, ops, ops_per_s, args) -> dict:
    rows = tracer.layer_rows(ops)
    print(f"{'layer':<38} {'calls/op':>10} {'self ms/op':>11} {'share':>7}")
    for row in rows:
        print(
            f"{row['layer']:<38} {row['calls_per_op']:>10.2f} "
            f"{row['self_ms_per_op']:>11.4f} {row['share'] * 100:>6.2f}%"
        )
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(path, workload.PID, args.workload)
    print(f"chrome trace: {path.relative_to(ROOT)} "
          f"({len(tracer.events)} spans); traced ops/s={ops_per_s:.3f}")

    metrics = {}
    for row in rows:
        if row["layer"] != spans.OP:
            metrics[f"{row['layer']}.calls"] = {
                "value": row["calls_per_op"], "unit": "count/op"}
        metrics[f"{row['layer']}.self_ms"] = {
            "value": row["self_ms_per_op"], "unit": "ms/op"}
    metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    counters = workload.counters()
    for name in COUNTERS:
        unit = "count" if name.endswith("planner_runs") else "ratio"
        metrics[name] = {"value": float(counters.get(name, 0.0)), "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
