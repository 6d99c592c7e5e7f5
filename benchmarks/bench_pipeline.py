"""Pipeline-planner gate: differential agreement + staged-split wins.

Runs the seeded pipeline drills (``repro.bench.figures.pipeline``) plus
the differential drill against the event-replay test oracle
(``tests/oracles/pipeline_reference.py``), and asserts the documented
quality contracts directly, on top of the baseline-diffed regression
metrics:

1. **Differential agreement** -- on every staged simulation in the grid
   (real programs x staged clusters x routing realizations x both
   schedules), the scan scheduler's job times are bit-identical to the
   naive event-replay reference: zero mismatches, ever.
2. **Staged-split wins** -- on every multi-node hot-grid point the
   planner-chosen stage boundaries beat the naive even split's full
   pipelined iteration time by at least the documented target (mean
   over routing seeds), the "boundary placement is a planning decision"
   claim.
3. **Schedule ablation** -- on identical per-stage costs 1F1B never
   loses iteration time to GPipe, and never holds more microbatches in
   flight (the activation-memory high-water mark) on any stage.
"""

from conftest import run_figure
from generators import routing_models
from oracles.pipeline_reference import replay_reference

from repro.bench.figures import pipeline
from repro.models import GPT2MoEConfig, build_training_graph
from repro.pipeline import (
    SCHEDULES,
    StagedCluster,
    schedule_order,
    simulate_staged,
    split_stages,
    stage_costs,
)
from repro.runtime import ClusterSpec


def _differential_drill() -> dict:
    """Scan scheduler vs event replay on real staged simulations.  The
    two share the float64 max/add dependency contract, so every run's
    job times must be bit-identical."""
    configs = [
        ("a100x8-s2", ClusterSpec.for_gpus("a100", 8), 2, 4, 2),
        ("a100x8-s4", ClusterSpec.for_gpus("a100", 8), 4, 2, 4),
        ("p3dn2-s2", ClusterSpec.p3dn(2), 2, 3, 2),
    ]
    runs = mismatches = jobs = 0
    for _, cluster, stages, microbatches, layers in configs:
        graph = build_training_graph(
            GPT2MoEConfig.tiny(num_layers=layers),
            batch=4,
            seq=16,
            num_gpus=cluster.num_gpus // stages,
        )
        staged = StagedCluster.even(cluster, layers, stages)
        split = split_stages(graph, staged)
        for routing in routing_models(include_none=True):
            costs = stage_costs(
                split, routing=routing, padded_a2a=routing is None
            )
            for schedule in SCHEDULES:
                sim = simulate_staged(
                    split, microbatches, schedule=schedule, costs=costs
                )
                orders = schedule_order(schedule, stages, microbatches)
                oracle = replay_reference(costs, orders)
                runs += 1
                jobs += len(oracle)
                if sim.job_times != oracle:
                    mismatches += 1
    return {
        "configs": [name for name, *_ in configs],
        "runs": runs,
        "jobs_compared": jobs,
        "mismatches": mismatches,
    }


def _run_with_differential():
    """``pipeline.run`` plus the differential drill's notes and its
    regression metric (gated at exactly zero mismatches)."""
    result = pipeline.run()
    differential = _differential_drill()
    result.notes["differential"] = differential
    result.notes["regression_metrics"]["differential_mismatches"] = float(
        differential["mismatches"]
    )
    return result


def test_pipeline(benchmark):
    result = run_figure(benchmark, _run_with_differential)
    differential = result.notes["differential"]
    hot = result.notes["hot_grid"]
    schedule = result.notes["schedule"]

    # contract 1: bit-identity is a contract, not a tolerance
    assert differential["mismatches"] == 0
    assert differential["runs"] >= 24
    assert differential["jobs_compared"] >= 200

    # contract 2: every grid point clears the improvement target
    assert hot["min_improvement"] >= hot["target"], (
        f"worst grid point won only {hot['min_improvement'] * 100:.1f}% "
        f"over the even split (target {hot['target'] * 100:.0f}%)"
    )
    for point in hot["points"]:
        assert point["mean_improvement"] > 0
        assert point["chosen_split"] != point["even_split"], (
            f"{point['cluster']}: the planner found no better split than "
            "even, so the grid no longer exercises the search"
        )

    # contract 3: 1F1B never loses to GPipe on identical costs
    assert schedule["worst_1f1b_over_gpipe"] <= 1.0 + 1e-9
    assert schedule["peak_violations"] == 0
    for point in schedule["points"]:
        assert point["1f1b_peak_in_flight"] <= point["gpipe_peak_in_flight"]
