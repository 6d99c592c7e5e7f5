"""Headline claims (paper abstract / Sec. 1 and Sec. 7 summary).

* Lancet reduces non-overlapping communication time by as much as 77%.
* Lancet achieves up to 1.3x end-to-end speedup over state-of-the-art.

Also measures the plan-artifact story of :mod:`repro.api` on the
headline setting (GPT2-S-MoE / a100 x 16): cold ``compile()`` wall time
vs a ``PlanStore`` warm load, which must skip the planner entirely and
reproduce the cold plan's prediction bit-for-bit.
"""

from __future__ import annotations

import tempfile
import time

from ..formatting import format_table
from ..harness import Setting, run_setting
from .common import FigureResult


def plan_store_metrics(preset: str = "gpt2-s-moe/a100x16") -> dict:
    """Cold-compile vs PlanStore-warm-load comparison for one scenario.

    The warm path stands in for a second process: a fresh
    :class:`~repro.api.PlanStore` instance reading the directory the
    cold compile populated.
    """
    from ...api import PlanStore, Scenario, compile
    from ...core import lancet as core_lancet

    scenario = Scenario.preset(preset)
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        cold_plan = compile(scenario, store=PlanStore(tmp))
        cold_s = time.perf_counter() - t0

        # measure -- don't assume -- that the warm path never reaches
        # the planner: count optimizer constructions during the lookup
        constructions = []
        real_optimizer = core_lancet.LancetOptimizer

        def probing_optimizer(*args, **kwargs):
            opt = real_optimizer(*args, **kwargs)
            constructions.append(opt)
            return opt

        core_lancet.LancetOptimizer = probing_optimizer
        try:
            # best of 3: each round uses a fresh PlanStore instance (a
            # stand-in for a new process, always through the disk), and
            # the minimum filters one-off scheduler/page-cache noise so
            # the >= 50x gate does not flake on loaded CI runners
            warm_s = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                warm_plan = compile(scenario, store=PlanStore(tmp))
                warm_s = min(warm_s, time.perf_counter() - t0)
        finally:
            core_lancet.LancetOptimizer = real_optimizer

    # if the warm path did run a planner, report its real eval count so
    # the regression gate (baseline: 0) fails with the actual magnitude
    warm_cost_evals = (
        0
        if not constructions
        else warm_plan.planner.get("num_cost_evals", -1)
    )
    return {
        "plan_scenario": preset,
        "plan_cold_compile_s": cold_s,
        "plan_warm_load_s": warm_s,
        "plan_store_speedup": cold_s / warm_s,
        "plan_warm_from_store": warm_plan.from_store,
        # deterministic invariants (gated by check_regression.py):
        # a warm load runs zero planner cost evaluations and reproduces
        # the cold plan's prediction exactly
        "plan_warm_cost_evals": warm_cost_evals,
        "plan_warm_predicted_delta_ms": abs(
            warm_plan.predicted_iteration_ms - cold_plan.predicted_iteration_ms
        ),
        "plan_cold_cost_evals": cold_plan.planner.get("num_cost_evals", -1),
    }


def run(
    models=("GPT2-S-MoE", "GPT2-L-MoE"),
    clusters=("v100", "a100"),
    gpu_counts=(16, 32),
) -> FigureResult:
    speedups = []
    comm_reductions = []
    rows = []
    for model in models:
        for cluster in clusters:
            for gpus in gpu_counts:
                ms = {}
                for fw in ("raf", "tutel", "lancet"):
                    ms[fw] = run_setting(
                        Setting(
                            model=model,
                            cluster_kind=cluster,
                            num_gpus=gpus,
                            framework=fw,
                        )
                    )
                best = min(ms["raf"].iteration_ms, ms["tutel"].iteration_ms)
                speedup = best / ms["lancet"].iteration_ms
                red = 1.0 - ms["lancet"].comm_only_ms / max(
                    min(ms["raf"].comm_only_ms, ms["tutel"].comm_only_ms), 1e-9
                )
                speedups.append(speedup)
                comm_reductions.append(red)
                rows.append(
                    {
                        "model": model,
                        "cluster": cluster,
                        "gpus": gpus,
                        "speedup": speedup,
                        "comm_reduction_pct": 100 * red,
                        "lancet_ms": ms["lancet"].iteration_ms,
                    }
                )

    table = format_table(
        ["Model", "Cluster", "GPUs", "Speedup vs best baseline", "Non-ovl comm red. %"],
        [
            [r["model"], r["cluster"], r["gpus"], r["speedup"], r["comm_reduction_pct"]]
            for r in rows
        ],
        title="Headline claims",
    )
    notes = {
        "max_speedup": max(speedups),
        "max_comm_reduction_pct": 100 * max(comm_reductions),
        "paper": "up to 1.3x speedup; up to 77% non-overlapped comm reduction",
    }
    notes.update(plan_store_metrics())
    # lower-is-better metrics diffed against the checked-in baseline:
    # simulated lancet iteration times (deterministic) plus the plan
    # round-trip invariants (0 warm cost evals, 0 prediction delta)
    notes["regression_metrics"] = {
        **{
            "lancet_ms_{model}_{cluster}_g{gpus}".format(**r): r["lancet_ms"]
            for r in rows
        },
        "plan_warm_cost_evals": float(notes["plan_warm_cost_evals"]),
        "plan_warm_predicted_delta_ms": notes["plan_warm_predicted_delta_ms"],
    }
    return FigureResult("headline", "headline claims", rows, table, notes)
