"""Skew sweep: uniform-approximation plan vs skew-aware plan (extension).

Not a paper figure.  Lancet's cost model prices every irregular
all-to-all with the uniform static-shape approximation (paper Sec. 3);
the skew-aware extension conditions the estimate on the *observed*
routing distribution (`CommCostModel.a2a_skewed_ms`), pricing the
collective at the bottleneck device's realized bytes.  This sweep
quantifies what that buys: across hot-expert intensities, both plans
are produced for the same program, then simulated per-device
(`simulate_cluster`) under the same realized routing.

The uniform plan mis-budgets its overlap in both directions -- capacity
clipping makes realized traffic cheaper than the padded estimate, while
hot-expert bottlenecks make the collective's completion later than the
mean -- so the skew-aware plan overlaps dW computation and chooses
partition ranges against the schedule the cluster will actually run.
"""

from __future__ import annotations

import dataclasses
import time

from ...core import LancetOptimizer
from ...runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_cluster,
    simulate_cluster_batch,
)
from ..formatting import format_table
from ..harness import model_by_name, paper_batch
from .common import FigureResult


def run(
    model: str = "GPT2-S-MoE",
    cluster_kind: str = "a100",
    num_gpus: int = 16,
    num_layers: int | None = 4,
    hot_boosts=(0.0, 0.3, 0.5, 0.7),
    concentration: float = 0.5,
    hot_experts: int = 1,
    seed: int = 1,
) -> FigureResult:
    """Sweep hot-expert intensity; plan uniform vs skew-aware each time."""
    from ...models import build_training_graph

    cfg = model_by_name(model)
    if num_layers is not None:
        cfg = dataclasses.replace(cfg, num_layers=num_layers)
    batch = paper_batch(cluster_kind, model)
    graph = build_training_graph(
        cfg, batch=batch, seq=512, num_gpus=num_gpus
    )
    cluster = ClusterSpec.for_gpus(cluster_kind, num_gpus)

    # the uniform-approximation plan ignores routing: compute it once
    opt_uniform = LancetOptimizer(cluster)
    prog_uniform, rep_uniform = opt_uniform.optimize(graph)

    # one re-optimizing planner across the sweep: every point after the
    # first re-plans warm off the persistent PlannerState, exactly as the
    # online loop does (plans are bit-identical to a cold optimizer's)
    opt_skew = LancetOptimizer(cluster)

    def sim_config(routing) -> SimulationConfig:
        return SimulationConfig(
            cluster=cluster,
            framework=opt_uniform.framework,
            padded_a2a=False,
            routing=routing,
        )

    rows = []
    routings = []
    for boost in hot_boosts:
        # vary only the hot-expert intensity; background concentration
        # is held fixed so the sweep is single-variable
        routing = SyntheticRoutingModel(
            seed=seed,
            concentration=concentration,
            hot_experts=hot_experts if boost > 0 else 0,
            hot_boost=boost,
        )
        routings.append(routing)

        t0 = time.perf_counter()
        signatures = opt_skew.observe_routing(graph, routing)
        prog_skew, rep_skew = opt_skew.optimize(graph)
        reopt_seconds = time.perf_counter() - t0

        hotness = max(
            (s.bottleneck for s in signatures.values()), default=1.0
        )
        # each skew-aware plan is a distinct program: one sim each
        t_skew = simulate_cluster(
            prog_skew, config=sim_config(routing)
        ).makespan
        rows.append(
            {
                "hot_boost": boost,
                "hotness": hotness,
                "iter_skew_plan_ms": t_skew,
                "predicted_uniform_ms": rep_uniform.predicted_iteration_ms,
                "predicted_skew_ms": rep_skew.predicted_iteration_ms,
                "reopt_seconds": reopt_seconds,
                "warm_replan": rep_skew.warm_planned,
                "partitions_uniform": [
                    p.parts for p in rep_uniform.partition.plans
                ],
                "partitions_skew": [p.parts for p in rep_skew.partition.plans],
            }
        )

    # the uniform plan is ONE program under every realized routing: the
    # batchable shape.  Bit-identical to per-boost simulate_cluster calls.
    uniform_ms = simulate_cluster_batch(
        prog_uniform, configs=[sim_config(r) for r in routings]
    ).makespans
    for r, t_uniform in zip(rows, uniform_ms):
        r["iter_uniform_plan_ms"] = float(t_uniform)
        r["speedup"] = r["iter_uniform_plan_ms"] / r["iter_skew_plan_ms"]

    table = format_table(
        ["Hot boost", "Hotness", "Unif plan ms", "Skew plan ms", "Speedup",
         "Pred skew ms", "Reopt s"],
        [
            [
                r["hot_boost"],
                r["hotness"],
                r["iter_uniform_plan_ms"],
                r["iter_skew_plan_ms"],
                r["speedup"],
                r["predicted_skew_ms"],
                r["reopt_seconds"],
            ]
            for r in rows
        ],
        title=f"Skew sweep: uniform vs skew-aware plan ({model}, "
        f"{cluster_kind}, {num_gpus} GPUs)",
    )
    notes = {
        "max_hotness": max(r["hotness"] for r in rows),
        "max_speedup": max(r["speedup"] for r in rows),
        # planner-latency observability: how the re-planning optimizer's
        # caches behaved over the sweep (hits/misses/evictions)
        "planner_cache_stats": opt_skew.cache_stats(),
        # lower-is-better gates for the CI regression check
        "regression_metrics": {
            f"skew_plan_ms@boost={r['hot_boost']}": r["iter_skew_plan_ms"]
            for r in rows
        },
    }
    return FigureResult(
        "skew_sweep",
        "uniform-approximation vs skew-aware plan across hot-expert "
        "intensities",
        rows,
        table,
        notes,
    )
