"""Planner latency: cold plan vs warm re-plan (extension of Fig. 15).

PR 2's online re-optimization loop put the partition DP on the training
critical path: every routing-drift event re-plans.  This experiment
measures what a drift event actually costs -- a *cold* plan (fresh
optimizer, empty caches) vs a *warm* re-plan (same optimizer, new
routing signatures, persistent :class:`~repro.core.PlannerState`) --
across program sizes and device counts, and verifies on every grid
point that each warm re-plan is bit-identical to a cold plan handed the
same signatures.  ``benchmarks/bench_opt_time.py`` adds the check
against the naive reference DP, which lives with the test oracles.
"""

from __future__ import annotations

import time

from ...core import LancetOptimizer
from ...models import GPT2MoEConfig, build_training_graph
from ...runtime import ClusterSpec
from ...runtime.routing_model import SyntheticRoutingModel
from ..formatting import format_table
from .common import FigureResult

#: the grid: (label, num_layers, num_gpus, batch, seq).  The 12-layer /
#: 16-GPU point is the reference GPT2-S-MoE setting of the paper
#: (batch 24, seq 512 on A100); the others vary program size and device
#: count.
DEFAULT_GRID = (
    ("GPT2-S-MoE-4L", 4, 8, 8, 256),
    ("GPT2-S-MoE", 12, 16, 24, 512),
    ("GPT2-S-MoE", 12, 32, 24, 512),
)

#: hot-expert drift scenarios replayed against each grid point
DRIFTS = (
    dict(seed=1, concentration=0.5, hot_experts=1, hot_boost=0.7),
    dict(seed=2, concentration=0.5, hot_experts=2, hot_boost=0.5),
    dict(seed=3, concentration=1.0, hot_experts=1, hot_boost=0.45),
)


def _program_key(program):
    return [
        (ins.op, ins.partition, tuple(ins.inputs))
        for ins in program.instructions
    ]


def _rows_priced(report) -> int:
    """Prediction rows the optimizer has priced afresh so far."""
    return report.cache_stats["planner_warm_path"]["prediction_rows_priced"]


def run(grid=DEFAULT_GRID, cluster_kind: str = "a100") -> FigureResult:
    rows = []
    for label, layers, gpus, batch, seq in grid:
        cluster = ClusterSpec.for_gpus(cluster_kind, gpus)
        cfg = GPT2MoEConfig.gpt2_s_moe(num_layers=layers)
        graph = build_training_graph(cfg, batch=batch, seq=seq, num_gpus=gpus)

        # -- cold plan: fresh optimizer, empty caches.  Best-of-2 (each
        # on its own optimizer, so both are genuinely cold) to damp
        # scheduler noise; the final optimizer carries the warm state.
        cold_s = float("inf")
        for _rep in range(2):
            opt = LancetOptimizer(cluster)
            t0 = time.perf_counter()
            _, cold_report = opt.optimize(graph)
            cold_s = min(cold_s, time.perf_counter() - t0)

        # -- warm re-plans: one per drift event ---------------------------
        warm_s = []
        warm_sims = 0
        warm_identical = True
        priced = _rows_priced(cold_report)
        for drift in DRIFTS:
            routing = SyntheticRoutingModel(**drift)
            sigs = opt.observe_routing(graph, routing)
            t0 = time.perf_counter()
            warm_prog, warm_report = opt.optimize(graph)
            warm_s.append(time.perf_counter() - t0)
            warm_sims = warm_report.partition.num_pipeline_sims
            warm_priced = _rows_priced(warm_report) - priced
            priced += warm_priced
            assert warm_report.partition.warm_start
            # the warm plan must equal what a cold optimizer, handed the
            # same signatures, would have produced -- bit for bit
            check = LancetOptimizer(cluster)
            check.set_routing_signatures(sigs)
            check_prog, check_report = check.optimize(graph)
            warm_identical &= _program_key(check_prog) == _program_key(
                warm_prog
            ) and (
                check_report.predicted_iteration_ms
                == warm_report.predicted_iteration_ms
            )

        # best-of over drift events: every one is a true re-plan against
        # a changed signature, so the min is the honest latency with the
        # least scheduler noise
        warm_best = min(warm_s)
        rows.append(
            {
                "model": label,
                "layers": layers,
                "gpus": gpus,
                "instructions": len(graph.program.instructions),
                "groups": cold_report.partition.num_groups,
                "cold_plan_ms": cold_s * 1e3,
                "warm_replan_ms": warm_best * 1e3,
                "speedup": cold_s / warm_best,
                "cost_evals": cold_report.partition.num_cost_evals,
                "cold_pipeline_sims": cold_report.partition.num_pipeline_sims,
                "warm_pipeline_sims": warm_sims,
                "warm_rows_priced": warm_priced,
                "warm_bit_identical": warm_identical,
            }
        )

    table = format_table(
        [
            "Model",
            "Layers",
            "GPUs",
            "Instrs",
            "Cold plan (ms)",
            "Warm re-plan (ms)",
            "Speedup",
            "Warm = cold",
        ],
        [
            [
                r["model"],
                r["layers"],
                r["gpus"],
                r["instructions"],
                round(r["cold_plan_ms"], 1),
                round(r["warm_replan_ms"], 1),
                round(r["speedup"], 1),
                r["warm_bit_identical"],
            ]
            for r in rows
        ],
        title="Planner latency - cold plan vs warm re-plan",
    )

    reference = next(
        (r for r in rows if r["layers"] == 12 and r["gpus"] == 16), rows[-1]
    )
    worst_ratio = max(
        r["warm_replan_ms"] / r["cold_plan_ms"] for r in rows
    )
    notes = {
        "min_speedup": min(r["speedup"] for r in rows),
        "reference_speedup": reference["speedup"],
        "paper": (
            "extension of Fig. 15: re-planning on drift must be much "
            "cheaper than planning from scratch"
        ),
        # lower-is-better gates for check_regression.py.  The ratio is
        # wall-time based but machine-normalized; the eval/sim counts are
        # fully deterministic (the sims count the candidates that
        # survived the DP's lower bound).
        "regression_metrics": {
            "warm_over_cold_ratio_worst": worst_ratio,
            "cost_evals_reference": float(reference["cost_evals"]),
            "cold_pipeline_sims_reference": float(
                reference["cold_pipeline_sims"]
            ),
            "warm_pipeline_sims_reference": float(
                reference["warm_pipeline_sims"]
            ),
            # rows the last warm re-plan's prediction priced afresh: its
            # all-to-alls and the rows of ranges it rewrote, not replayed
            "warm_rows_priced_reference": float(
                reference["warm_rows_priced"]
            ),
        },
    }
    return FigureResult(
        "opt_time", "cold plan vs warm re-plan latency", rows, table, notes
    )
