"""Simulator throughput: per-scenario calls vs one vectorized batch.

Not a paper figure -- infrastructure validation for the batch simulation
core (:mod:`~repro.runtime.batch`).  The scenario-sweep figures
evaluate *many* routing / straggler scenarios against one fixed
program; this experiment measures exactly that shape: ``B`` scenarios
of one Lancet-optimized program, simulated once as ``B`` separate
:func:`~repro.runtime.simulate.simulate_cluster` calls (each a
one-scenario run of the engine, materializing its timeline) and once as
a single ``B``-wide pass
(:func:`~repro.runtime.simulate.simulate_cluster_batch`).  The row and
metric names keep ``scalar`` for the per-scenario side.

Both sides run against the *same* pre-warmed cost models -- the warm
re-plan regime, where durations are cached -- so the ratio measures
what batching scenarios saves over running them one by one.  Every run
also checks the two sides interval-for-interval: scenario ``b`` of the
batch must be bit-identical to its own one-scenario run.
"""

from __future__ import annotations

import time

from ...core import LancetOptimizer
from ...runtime import (
    ClusterSpec,
    GroundTruthCost,
    SimulationConfig,
    SyntheticRoutingModel,
    UniformRoutingModel,
    simulate_cluster,
    simulate_cluster_batch,
)
from ..formatting import format_table
from ..harness import model_by_name, paper_batch
from .common import FigureResult


def scenario_costs(
    cluster: ClusterSpec, framework, num_scenarios: int, seed: int
) -> list[GroundTruthCost]:
    """``B`` routing / straggler scenarios against one program.

    Mirrors what a drift-driven re-planning loop sweeps: the uniform
    approximation, a family of skewed routing realizations, and a
    straggler pattern.
    """
    scenarios: list[SimulationConfig] = []

    def cfg(**over) -> SimulationConfig:
        return SimulationConfig(
            cluster=cluster, framework=framework, padded_a2a=False, **over
        )

    scenarios.append(cfg(routing=UniformRoutingModel()))
    scenarios.append(
        cfg(
            routing=UniformRoutingModel(),
            straggler_slowdown={0: 1.0 / 0.7},
        )
    )
    k = 0
    while len(scenarios) < num_scenarios:
        k += 1
        scenarios.append(
            cfg(
                routing=SyntheticRoutingModel(
                    seed=seed + k,
                    concentration=0.5 if k % 2 else 2.0,
                    hot_experts=k % 3,
                    hot_boost=0.15 * (k % 4),
                )
            )
        )
    return [GroundTruthCost(c) for c in scenarios[:num_scenarios]]


def _bit_identical(program, costs, batch_result) -> bool:
    """Interval-for-interval comparison of each batched scenario with
    its own one-scenario :func:`simulate_cluster` run."""
    for b, cost in enumerate(costs):
        scalar = simulate_cluster(program, cost=cost)
        batch = batch_result.timeline(b)
        for dev_s, dev_b in zip(scalar.devices, batch.devices):
            if dev_s.intervals != dev_b.intervals:
                return False
    return True


def run(
    model: str = "GPT2-S-MoE",
    cluster_kind: str = "a100",
    num_gpus: int = 16,
    num_layers: int | None = 4,
    num_scenarios: int = 16,
    rounds: int = 3,
    seed: int = 1,
) -> FigureResult:
    """Time per-scenario vs batched simulation of ``B`` scenarios
    (best-of-N)."""
    import dataclasses

    from ...models import build_training_graph

    cfg = model_by_name(model)
    if num_layers is not None:
        cfg = dataclasses.replace(cfg, num_layers=num_layers)
    batch = paper_batch(cluster_kind, model)
    graph = build_training_graph(cfg, batch=batch, seq=512, num_gpus=num_gpus)
    cluster = ClusterSpec.for_gpus(cluster_kind, num_gpus)

    opt = LancetOptimizer(cluster)
    program, _report = opt.optimize(graph)

    costs = scenario_costs(cluster, opt.framework, num_scenarios, seed)

    # warm every cost model once (routing draws + duration caches) so the
    # timed comparison is the warm re-plan regime for both sides
    for cost in costs:
        simulate_cluster(program, cost=cost)
    batch_result = simulate_cluster_batch(program, costs=costs)
    bit_identical = _bit_identical(program, costs, batch_result)

    scalar_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        scalar_makespans = [
            simulate_cluster(program, cost=cost).makespan for cost in costs
        ]
        scalar_s = min(scalar_s, time.perf_counter() - t0)

    batch_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        batch_makespans = simulate_cluster_batch(
            program, costs=costs
        ).makespans
        batch_s = min(batch_s, time.perf_counter() - t0)

    makespans_equal = scalar_makespans == [float(m) for m in batch_makespans]
    b = len(costs)
    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    rows = [
        {
            "model": model,
            "gpus": num_gpus,
            "instructions": len(program.instructions),
            "scenarios": b,
            "scalar_ms": scalar_s * 1e3,
            "batch_ms": batch_s * 1e3,
            "scalar_sims_per_s": b / scalar_s,
            "batch_sims_per_s": b / batch_s,
            "speedup": speedup,
            "bit_identical": bit_identical,
            "makespans_equal": makespans_equal,
        }
    ]

    table = format_table(
        [
            "Model",
            "GPUs",
            "Instrs",
            "Scenarios",
            "Per-scenario ms",
            "Batch ms",
            "Per-scenario sims/s",
            "Batch sims/s",
            "Speedup",
            "Identical",
        ],
        [
            [
                r["model"],
                r["gpus"],
                r["instructions"],
                r["scenarios"],
                round(r["scalar_ms"], 2),
                round(r["batch_ms"], 2),
                round(r["scalar_sims_per_s"], 1),
                round(r["batch_sims_per_s"], 1),
                round(r["speedup"], 1),
                r["bit_identical"] and r["makespans_equal"],
            ]
            for r in rows
        ],
        title=f"Simulator throughput: per-scenario calls vs one batch "
        f"({model}, {cluster_kind}, {num_gpus} GPUs, B={b})",
    )
    mean_makespan = float(sum(scalar_makespans) / len(scalar_makespans))
    notes = {
        "bit_identical": bit_identical,
        "makespans_equal": makespans_equal,
        "speedup": speedup,
        "batch_sims_per_s": b / batch_s,
        # lower-is-better gates for check_regression.py: the time ratio
        # is wall-time based but machine-normalized (both sides run on
        # the same interpreter, same warm caches); the mean makespan is
        # a deterministic simulated quantity guarding semantic drift.
        "regression_metrics": {
            "batch_over_scalar_time_ratio": batch_s / scalar_s,
            "mean_scenario_makespan_ms": mean_makespan,
        },
    }
    return FigureResult(
        "sim_throughput",
        "per-scenario simulate_cluster calls vs one vectorized batch",
        rows,
        table,
        notes,
    )
