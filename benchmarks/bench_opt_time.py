"""Planner latency: cold plan vs warm re-plan (extension of Fig. 15).

Acceptance gates of the fast re-planning subsystem:

- on the reference GPT2-S-MoE config (12 layers, 16 GPUs), a warm
  re-plan after a routing-signature change is >= 5x faster than a cold
  ``LancetOptimizer.optimize``;
- for every benchmarked config the fast planner's plans and predicted
  iteration times are bit-identical to the reference (naive) DP's, both
  cold and warm;
- the DP's logical cost-evaluation count matches the reference exactly
  (caching may skip work, never search less).

The figure runner measures the latencies and the warm-vs-cold identity;
the reference-DP check runs here, on the same grid, because the naive
DP is a test oracle (``tests/oracles/dp_reference.py``).
"""

from conftest import run_figure
from oracles.dp_reference import plan_partitions_reference
from repro.bench.figures import opt_time
from repro.bench.figures.common import make_costs
from repro.core import plan_partitions
from repro.models import GPT2MoEConfig, build_training_graph
from repro.runtime import ClusterSpec


def _plan_fields(result):
    return [
        (p.start, p.end, p.parts, p.predicted_ms, p.sequential_ms)
        for p in result.plans
    ]


def _run_with_reference_dp():
    """``opt_time.run`` plus, per grid point, the fast DP vs the naive
    reference DP under the uniform approximation."""
    result = opt_time.run()
    for row, (_, layers, gpus, batch, seq) in zip(
        result.rows, opt_time.DEFAULT_GRID
    ):
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=layers),
            batch=batch,
            seq=seq,
            num_gpus=gpus,
        )
        fast_dp = plan_partitions(graph.program, make_costs(cluster))
        ref_dp = plan_partitions_reference(graph.program, make_costs(cluster))
        row["dp_bit_identical"] = (
            _plan_fields(fast_dp) == _plan_fields(ref_dp)
            and fast_dp.optimized_fwd_ms == ref_dp.optimized_fwd_ms
            and fast_dp.baseline_fwd_ms == ref_dp.baseline_fwd_ms
        )
        row["evals_equal_reference"] = (
            fast_dp.num_cost_evals == ref_dp.num_cost_evals
        )
    result.notes["all_bit_identical"] = all(
        r["dp_bit_identical"] and r["warm_bit_identical"] for r in result.rows
    )
    result.notes["all_evals_equal_reference"] = all(
        r["evals_equal_reference"] for r in result.rows
    )
    return result


def test_opt_time(benchmark):
    result = run_figure(benchmark, _run_with_reference_dp)

    # bit-identity everywhere: cold DP vs reference, warm plan vs a
    # fresh cold optimizer handed the same signatures
    assert result.notes["all_bit_identical"]
    assert result.notes["all_evals_equal_reference"]

    # the headline acceptance number: warm re-plan >= 5x faster than a
    # cold plan on the reference config
    assert result.notes["reference_speedup"] >= 5.0

    # every grid point must re-plan substantially faster than cold (a
    # loose floor: wall-clock on shared CI runners is noisy, and the
    # deterministic eval/sim counts above gate the algorithmic property)
    for row in result.rows:
        assert row["speedup"] >= 2.5, row
        # warm re-plans stay in the paper's optimization-time regime
        assert row["warm_replan_ms"] < 5_000.0
