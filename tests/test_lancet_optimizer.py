"""End-to-end tests for the LancetOptimizer."""

import numpy as np
import pytest

from generators import fresh_values
from repro import (
    GPT2MoEConfig,
    LancetOptimizer,
    PlanPolicy,
    build_training_graph,
    validate,
)
from repro.runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    run_program,
    simulate_program,
)


@pytest.fixture(scope="module")
def medium():
    """A mid-size setting where partitioning actually pays off."""
    graph = build_training_graph(
        GPT2MoEConfig.gpt2_s_moe(num_layers=4), batch=8, seq=256, num_gpus=16
    )
    cluster = ClusterSpec.p4de(2)
    return graph, cluster


class TestOptimize:
    def test_produces_valid_program(self, medium):
        graph, cluster = medium
        optimized, _ = LancetOptimizer(cluster).optimize(graph)
        validate(optimized)

    def test_input_untouched(self, medium):
        graph, cluster = medium
        before = list(graph.program.instructions)
        LancetOptimizer(cluster).optimize(graph)
        assert graph.program.instructions == before

    def test_simulated_speedup(self, medium):
        graph, cluster = medium
        optimized, _ = LancetOptimizer(cluster).optimize(graph)
        base = SimulationConfig(
            cluster=cluster, padded_a2a=True, routing=SyntheticRoutingModel(seed=1)
        )
        lan = SimulationConfig(
            cluster=cluster, padded_a2a=False, routing=SyntheticRoutingModel(seed=1)
        )
        t0 = simulate_program(graph.program, config=base).makespan
        t1 = simulate_program(optimized, config=lan).makespan
        assert t1 < t0

    def test_report_contents(self, medium):
        graph, cluster = medium
        _, report = LancetOptimizer(cluster).optimize(graph)
        assert report.dw_schedule is not None
        assert report.partition is not None
        assert report.optimization_seconds > 0
        assert report.predicted_iteration_ms > 0
        assert report.profiled_ops > 0
        assert [t.name for t in report.pass_timings] == [
            "weight-grad-schedule",
            "operator-partition",
        ]

    def test_ablation_flags(self, medium):
        graph, cluster = medium
        _, r_full = LancetOptimizer(cluster).optimize(graph)
        _, r_nodw = LancetOptimizer(
            cluster, policy=PlanPolicy(enable_dw_schedule=False)
        ).optimize(graph)
        _, r_nopart = LancetOptimizer(
            cluster, policy=PlanPolicy(enable_partition=False)
        ).optimize(graph)
        assert r_nodw.dw_schedule is None and r_nodw.partition is not None
        assert r_nopart.partition is None and r_nopart.dw_schedule is not None
        assert r_full.dw_schedule is not None and r_full.partition is not None

    def test_hyper_params_threaded(self, medium):
        graph, cluster = medium
        policy = PlanPolicy(max_partitions=2)
        opt = LancetOptimizer(cluster, policy=policy)
        assert opt.policy is policy
        _, report = opt.optimize(graph)
        assert all(p.parts <= 2 for p in report.partition.plans)

    def test_profiler_cache_reused_across_optimizations(self, medium):
        graph, cluster = medium
        opt = LancetOptimizer(cluster)
        opt.optimize(graph)
        n1 = opt.profiler.profile_count
        opt.optimize(graph)
        assert opt.profiler.profile_count == n1  # all cache hits

    def test_numeric_equivalence_tiny(self, tiny_graph, tiny_values, small_cluster):
        """Whatever the optimizer decides on the tiny model must keep the
        numerics bit-identical."""
        optimized, _ = LancetOptimizer(small_cluster).optimize(tiny_graph)
        base = run_program(tiny_graph.program, fresh_values(tiny_values))
        out = run_program(optimized, fresh_values(tiny_values))
        assert np.array_equal(
            base[0][tiny_graph.loss], out[0][tiny_graph.loss]
        )
        for pid, gid in tiny_graph.program.grads.items():
            assert np.allclose(
                base[0][gid], out[0][optimized.grads[pid]], atol=0, rtol=0
            )

    def test_predict_iteration(self, medium):
        graph, cluster = medium
        opt = LancetOptimizer(cluster)
        pred = opt.predict_iteration_ms(graph.program)
        actual = simulate_program(
            graph.program,
            config=SimulationConfig(
                cluster=cluster, padded_a2a=True,
                routing=SyntheticRoutingModel(seed=1),
            ),
        ).makespan
        assert abs(pred - actual) / actual < 0.25
