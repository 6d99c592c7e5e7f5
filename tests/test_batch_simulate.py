"""Differential testing of the vectorized cluster simulation engine.

The contract under test: for any program, cluster and scenario set,
:func:`simulate_cluster_batch` is **bit-identical** to running the
scalar reference loop (``tests/oracles/cluster_reference.py``) once per
scenario -- interval for interval, including ``a2a_algo`` annotations,
straggler, hot-expert and rank-loss knobs.  Bit-identity (not
approx-equality) is what lets the engine replace the scalar loop, and
:func:`simulate_cluster`, its one-scenario view, stand in for it.

Scenario generators and hypothesis strategies live in
``tests/generators.py``, shared with ``test_fast_replan`` and
``test_hierarchical_a2a``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cluster_reference import simulate_cluster_reference

from repro.core import LancetOptimizer, PlanPolicy
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RemappedRoutingModel,
)
from repro.runtime import (
    ClusterSpec,
    GroundTruthCost,
    SimulationConfig,
    SyntheticRoutingModel,
    UniformRoutingModel,
    simulate_cluster,
    simulate_cluster_batch,
    simulate_program,
)
from generators import (
    PROGRAM_GRID,
    build_grid_graph,
    cluster_grid,
    routing_models,
    st_simulation_scenario,
    straggler_scenarios,
)


def assert_bit_identical(batch_tl, scalar_tl):
    """Interval-for-interval equality of two cluster timelines."""
    assert batch_tl.num_devices == scalar_tl.num_devices
    for d, (a, b) in enumerate(zip(batch_tl.devices, scalar_tl.devices)):
        assert a.intervals == b.intervals, f"device {d} diverged"


def run_both(program, configs):
    """(batch result, reference timelines) for one scenario set."""
    costs = [GroundTruthCost(c) for c in configs]
    scalar = [
        simulate_cluster_reference(program, cost=GroundTruthCost(c))
        for c in configs
    ]
    return simulate_cluster_batch(program, costs=costs), scalar


class TestScenarioBatchDifferential:
    def test_small_grid_row_all_knobs(self):
        """Tier-1 smoke: smallest grid program, every scenario knob."""
        layers, gpus, batch, seq, gate = PROGRAM_GRID[0]
        program = build_grid_graph(layers, gpus, batch, seq, gate).program
        cluster = ClusterSpec.for_gpus("a100", gpus)
        configs = []
        for i, routing in enumerate(routing_models()):
            for straggler in straggler_scenarios(gpus):
                configs.append(
                    SimulationConfig(
                        cluster,
                        padded_a2a=(i % 2 == 0),
                        block_sparse_experts=(i % 2 == 1),
                        routing=routing,
                        straggler_slowdown=straggler,
                    )
                )
        result, scalar = run_both(program, configs)
        assert result.num_candidates == len(configs)
        for b, ref in enumerate(scalar):
            assert result.makespan(b) == ref.makespan
            assert_bit_identical(result.timeline(b), ref)

    @pytest.mark.slow
    @pytest.mark.parametrize("layers,gpus,batch,seq,gate", PROGRAM_GRID[1:])
    def test_remaining_grid_rows(self, layers, gpus, batch, seq, gate):
        """Full grid x clusters x drift sequence (the heavy sweep)."""
        program = build_grid_graph(layers, gpus, batch, seq, gate).program
        for cluster in cluster_grid(gpus):
            configs = [
                SimulationConfig(
                    cluster,
                    padded_a2a=False,
                    routing=routing,
                    straggler_slowdown=straggler,
                )
                for routing in routing_models()
                for straggler in straggler_scenarios(gpus)
            ]
            result, scalar = run_both(program, configs)
            for b, ref in enumerate(scalar):
                assert_bit_identical(result.timeline(b), ref)

    def test_optimized_program_with_a2a_algo_annotations(self):
        """A hierarchical-enabled plan pins ``a2a_algo`` attrs; the batch
        path must price them exactly like the scalar simulator."""
        cluster = ClusterSpec.p3dn(2)
        graph = build_grid_graph(2, 16, 8, 256)
        opt = LancetOptimizer(
            cluster, policy=PlanPolicy(enable_hierarchical_a2a=True)
        )
        routing = SyntheticRoutingModel(
            seed=1, concentration=0.3, hot_experts=1, hot_boost=0.7
        )
        opt.observe_routing(graph, routing)
        program, report = opt.optimize(graph)
        assert report.hierarchical_a2a_count > 0  # annotations present
        configs = [
            SimulationConfig(cluster, padded_a2a=False, routing=r)
            for r in routing_models()
        ]
        result, scalar = run_both(program, configs)
        for b, ref in enumerate(scalar):
            assert_bit_identical(result.timeline(b), ref)

    def test_fault_injector_rank_loss_configs(self):
        """Faulted configs -- a straggler, a rank loss folded into its
        buddy through ``RemappedRoutingModel``, both at once -- priced
        under irregular a2a, so the remapped pair bytes reach every
        collective.  The batch engine and ``simulate_cluster`` must both
        match the reference."""
        layers, gpus, batch, seq, gate = PROGRAM_GRID[0]
        program = build_grid_graph(layers, gpus, batch, seq, gate).program
        template = SimulationConfig(
            ClusterSpec.for_gpus("a100", gpus),
            padded_a2a=False,
            routing=SyntheticRoutingModel(
                seed=11, concentration=0.5, hot_experts=1, hot_boost=0.6
            ),
        )
        sched = FaultSchedule(
            (
                FaultSpec("straggler", 1, severity=2.0, start_step=1),
                FaultSpec("rank_loss", 3, start_step=2),
            )
        )
        injector = FaultInjector(template, sched)
        configs = [injector.config_at(step) for step in (0, 1, 2)]
        assert isinstance(configs[2].routing, RemappedRoutingModel)
        result, scalar = run_both(program, configs)
        for b, (cfg, ref) in enumerate(zip(configs, scalar)):
            assert_bit_identical(result.timeline(b), ref)
            assert_bit_identical(simulate_cluster(program, config=cfg), ref)

    def test_batch_of_one_equals_simulate_program_uniform(self):
        """Extends the PR 1 invariant to the batch path: under uniform
        routing and no stragglers, every device of the batch-of-1 result
        is bit-for-bit the representative-device timeline."""
        layers, gpus, batch, seq, gate = PROGRAM_GRID[0]
        program = build_grid_graph(layers, gpus, batch, seq, gate).program
        cluster = ClusterSpec.for_gpus("a100", gpus)
        for padded in (True, False):
            cfg = SimulationConfig(
                cluster, padded_a2a=padded, routing=UniformRoutingModel()
            )
            rep = simulate_program(program, config=cfg)
            result = simulate_cluster_batch(program, configs=[cfg])
            assert result.num_candidates == 1
            assert result.makespan(0) == rep.makespan
            for device_tl in result.timeline(0).devices:
                assert device_tl.intervals == rep.intervals

    def test_order_invariant_under_candidate_permutation(self):
        """Scenario b's result depends only on scenario b: permuting the
        batch permutes the outputs bit-for-bit."""
        layers, gpus, batch, seq, gate = PROGRAM_GRID[0]
        program = build_grid_graph(layers, gpus, batch, seq, gate).program
        cluster = ClusterSpec.for_gpus("a100", gpus)
        configs = [
            SimulationConfig(
                cluster,
                padded_a2a=False,
                routing=SyntheticRoutingModel(
                    seed=s, concentration=0.5, hot_experts=1, hot_boost=0.6
                ),
                straggler_slowdown=({0: 1.5} if s % 2 else None),
            )
            for s in range(6)
        ]
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(configs))
        fwd = simulate_cluster_batch(program, configs=configs)
        shuf = simulate_cluster_batch(
            program, configs=[configs[p] for p in perm]
        )
        assert np.array_equal(fwd.makespans[perm], shuf.makespans)
        assert np.array_equal(fwd.starts[:, perm, :], shuf.starts)
        assert np.array_equal(fwd.ends[:, perm, :], shuf.ends)

    def test_mixed_device_counts_rejected(self):
        program = build_grid_graph(*PROGRAM_GRID[0]).program
        configs = [
            SimulationConfig(ClusterSpec.for_gpus("a100", 4)),
            SimulationConfig(ClusterSpec.for_gpus("a100", 8)),
        ]
        with pytest.raises(ValueError, match="device count"):
            simulate_cluster_batch(program, configs=configs)

    def test_empty_batch_rejected(self):
        program = build_grid_graph(*PROGRAM_GRID[0]).program
        with pytest.raises(ValueError):
            simulate_cluster_batch(program, configs=[])

    @pytest.mark.slow
    @given(
        scenarios=st.lists(st_simulation_scenario(4), min_size=1, max_size=4)
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_scenarios_bit_identical(self, scenarios):
        """Hypothesis sweep: ANY mix of routing models, stragglers and
        protocol flags must agree with the scalar reference exactly."""
        program = build_grid_graph(*PROGRAM_GRID[0]).program
        cluster = ClusterSpec.for_gpus("a100", 4)
        configs = [SimulationConfig(cluster, **kw) for kw in scenarios]
        result, scalar = run_both(program, configs)
        for b, ref in enumerate(scalar):
            assert result.makespan(b) == ref.makespan
            assert_bit_identical(result.timeline(b), ref)


class TestTimelineReductionStability:
    def test_reductions_are_enumeration_order_invariant(self):
        """fsum-based reductions must not depend on interval order, so
        scalar- and batch-materialized timelines always reduce alike."""
        program = build_grid_graph(*PROGRAM_GRID[0]).program
        cfg = SimulationConfig(
            ClusterSpec.for_gpus("a100", 4),
            padded_a2a=False,
            routing=SyntheticRoutingModel(
                seed=3, concentration=0.5, hot_experts=1, hot_boost=0.7
            ),
        )
        tl = simulate_cluster(program, config=cfg).devices[0]
        rng = np.random.default_rng(1)
        perm = list(rng.permutation(len(tl.intervals)))
        shuffled = type(tl)([tl.intervals[p] for p in perm])
        assert shuffled.total_time_of() == tl.total_time_of()
        assert shuffled.per_op_totals() == tl.per_op_totals()
        assert (
            shuffled.total_time_of({"all_to_all"})
            == tl.total_time_of({"all_to_all"})
        )

