"""Tests for the per-device cluster simulator and parallel executor."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cluster_reference import simulate_cluster_reference

from repro.ir import Stream
from repro.runtime import (
    ClusterSpec,
    GroundTruthCost,
    NumericExecutor,
    SimulationConfig,
    SyntheticRoutingModel,
    UniformRoutingModel,
    device_byte_loads,
    imbalance_summary,
    render_cluster_timeline,
    simulate_cluster,
    simulate_program,
)
from generators import (
    PROGRAM_GRID,
    build_grid_graph,
    cluster_grid,
    fresh_values,
    st_routing_model,
)


def uniform_config(cluster, **kw):
    return SimulationConfig(
        cluster=cluster, routing=UniformRoutingModel(), **kw
    )


def skewed_config(cluster, **kw):
    return SimulationConfig(
        cluster=cluster,
        padded_a2a=False,
        routing=SyntheticRoutingModel(
            seed=7, concentration=0.3, hot_experts=1, hot_boost=0.5
        ),
        **kw,
    )


class TestUniformEquivalence:
    """Per-device simulation degenerates to the legacy single timeline,
    for the shipped engine and the scalar reference loop alike."""

    SIMULATORS = (simulate_cluster, simulate_cluster_reference)

    def test_padded_bitwise_equal(self, tiny_graph, small_cluster):
        cfg = uniform_config(small_cluster)
        legacy = simulate_program(tiny_graph.program, config=cfg)
        for sim in self.SIMULATORS:
            ctl = sim(tiny_graph.program, config=cfg)
            assert ctl.num_devices == small_cluster.num_gpus
            for tl in ctl.devices:
                assert tl.intervals == legacy.intervals
            assert ctl.makespan == legacy.makespan

    def test_irregular_uniform_bitwise_equal(self, tiny_graph, small_cluster):
        cfg = uniform_config(small_cluster, padded_a2a=False)
        legacy = simulate_program(tiny_graph.program, config=cfg)
        for sim in self.SIMULATORS:
            ctl = sim(tiny_graph.program, config=cfg)
            for tl in ctl.devices:
                assert tl.intervals == legacy.intervals

    def test_shared_cost_object(self, tiny_graph, small_cluster):
        cost = GroundTruthCost(uniform_config(small_cluster))
        legacy = simulate_program(tiny_graph.program, cost=cost)
        for sim in self.SIMULATORS:
            ctl = sim(tiny_graph.program, cost=cost)
            assert ctl.makespan == legacy.makespan

    def test_needs_cost_or_config(self, tiny_graph):
        with pytest.raises(ValueError):
            simulate_cluster(tiny_graph.program)


class TestSkewedRouting:
    def test_skew_increases_a2a_time(self, tiny_graph, small_cluster):
        """Skewed routing strictly slows the realized all-to-alls: the
        collective completes with the most loaded device, and hot-expert
        owners receive more than the uniform share."""
        uni = simulate_cluster(
            tiny_graph.program, config=uniform_config(small_cluster, padded_a2a=False)
        )
        skew = simulate_cluster(
            tiny_graph.program, config=skewed_config(small_cluster)
        )
        uni_a2a = max(uni.per_device_time_of({"all_to_all"}))
        skew_a2a = max(skew.per_device_time_of({"all_to_all"}))
        assert skew_a2a > uni_a2a

    def test_distinct_per_device_durations(self):
        """Under skew, devices see different all-to-all busy times.

        Needs more than 2 devices: with G=2 the loads are inherently
        symmetric (d0's send is d1's receive), so every device bottleneck
        is identical regardless of skew.
        """
        from repro import GPT2MoEConfig, build_training_graph

        graph = build_training_graph(
            GPT2MoEConfig.tiny(), batch=8, seq=16, num_gpus=4
        )
        cluster = ClusterSpec.for_gpus("a100", 4)
        ctl = simulate_cluster(graph.program, config=skewed_config(cluster))
        per = ctl.per_device_time_of({"all_to_all"})
        assert ctl.imbalance_ms({"all_to_all"}) > 0
        assert len(set(per)) > 1

    def test_collectives_complete_at_max(self, tiny_graph, small_cluster):
        """Each device's a2a interval ends no later than the common
        completion time, and downstream compute waits for it."""
        ctl = simulate_cluster(tiny_graph.program, config=skewed_config(small_cluster))
        for uid in {
            iv.uid
            for iv in ctl.device(0).intervals
            if iv.op == "all_to_all"
        }:
            ends = [
                next(iv.end for iv in tl.intervals if iv.uid == uid)
                for tl in ctl.devices
            ]
            starts = [
                next(iv.start for iv in tl.intervals if iv.uid == uid)
                for tl in ctl.devices
            ]
            assert len(set(starts)) == 1  # all participants start together
            complete = max(ends)
            # every later interval on any device starts >= completion of
            # the collective it depends on (spot-check: comm stream)
            for tl in ctl.devices:
                comm = [iv for iv in tl.intervals if iv.stream == Stream.COMM]
                idx = next(i for i, iv in enumerate(comm) if iv.uid == uid)
                for later in comm[idx + 1 :]:
                    assert later.start >= complete - 1e-12

    def test_makespan_at_least_legacy(self, tiny_graph, small_cluster):
        cfg = skewed_config(small_cluster)
        legacy = simulate_program(tiny_graph.program, config=cfg)
        cfg2 = skewed_config(small_cluster)
        ctl = simulate_cluster(tiny_graph.program, config=cfg2)
        assert ctl.makespan >= legacy.makespan - 1e-9


class TestStragglers:
    def test_straggler_stretches_compute(self, tiny_graph, small_cluster):
        base = simulate_cluster(
            tiny_graph.program, config=uniform_config(small_cluster)
        )
        slow = simulate_cluster(
            tiny_graph.program,
            config=uniform_config(small_cluster, straggler_slowdown={1: 1.5}),
        )
        assert slow.makespan > base.makespan
        assert slow.critical_device == 1
        # the healthy device's own compute is unchanged (ulp tolerance:
        # its ops start later behind the straggler's collectives, and
        # summing end-start at shifted offsets re-rounds the durations)
        assert np.isclose(
            slow.device(0).total_time_of(kind="forward"),
            base.device(0).total_time_of(kind="forward"),
            rtol=1e-12,
        )

    def test_sequence_form_and_validation(self, tiny_graph, small_cluster):
        cfg = uniform_config(small_cluster, straggler_slowdown=(1.0, 2.0))
        ctl = simulate_cluster(tiny_graph.program, config=cfg)
        assert ctl.critical_device == 1
        with pytest.raises(ValueError):
            uniform_config(
                small_cluster, straggler_slowdown=(1.0,)
            ).device_slowdowns()
        with pytest.raises(ValueError):
            uniform_config(
                small_cluster, straggler_slowdown={5: 2.0}
            ).device_slowdowns()
        with pytest.raises(ValueError):
            uniform_config(
                small_cluster, straggler_slowdown=(1.0, -1.0)
            ).device_slowdowns()


#: the differential grid plus one two-node width (hierarchical pricing)
MAKESPAN_GRID = PROGRAM_GRID + [(2, 16, 8, 128, "switch")]


@functools.lru_cache(maxsize=None)
def grid_program(row):
    return build_grid_graph(*row).program


def with_a2a_algo(program, algo):
    """A copy of ``program`` whose all-to-alls all run ``algo``."""
    out = program.clone()
    out.instructions = [
        i.with_(uid=i.uid, attrs={**i.attrs, "a2a_algo": algo})
        if i.op == "all_to_all"
        else i
        for i in program.instructions
    ]
    return out


class TestRepresentativeMakespan:
    """Without stragglers every device runs in lockstep: compute costs
    are equal, and each collective starts at the common arrival and
    releases its outputs at ``start + device_times.max()``, which is the
    representative :meth:`GroundTruthCost.duration_ms`.  So the cluster
    makespan equals :func:`simulate_program`'s bit for bit under any
    routing (what the staged planner's segment pricing relies on)."""

    @staticmethod
    def assert_same_makespan(program, config):
        rep = simulate_program(program, config=config).makespan
        assert simulate_cluster(program, config=config).makespan == rep

    def test_padded_skewed(self):
        program = grid_program(MAKESPAN_GRID[1])
        cluster = ClusterSpec.for_gpus("a100", 8)
        routing = skewed_config(cluster).routing
        self.assert_same_makespan(
            program, SimulationConfig(cluster, routing=routing)
        )

    def test_irregular_flat_skewed(self):
        program = grid_program(MAKESPAN_GRID[1])
        cluster = ClusterSpec.for_gpus("a100", 8)
        ctl = simulate_cluster(program, config=skewed_config(cluster))
        # the skew is real: devices' all-to-all busy times differ
        assert len(set(ctl.per_device_time_of({"all_to_all"}))) > 1
        self.assert_same_makespan(program, skewed_config(cluster))

    def test_hierarchical_skewed(self):
        cluster = ClusterSpec.p3dn(2)
        program = with_a2a_algo(grid_program(MAKESPAN_GRID[-1]), "hierarchical")
        assert cluster.multi_node
        self.assert_same_makespan(program, skewed_config(cluster))

    def test_stragglers_break_the_equality(self):
        """The precondition is real: a straggler's stretched compute
        shows up only in the device-resolved makespan."""
        program = grid_program(MAKESPAN_GRID[1])
        cluster = ClusterSpec.for_gpus("a100", 8)
        config = skewed_config(cluster, straggler_slowdown={0: 1.5})
        rep = simulate_program(program, config=config).makespan
        assert simulate_cluster(program, config=config).makespan > rep

    @pytest.mark.slow
    @given(
        row=st.sampled_from(MAKESPAN_GRID),
        pick=st.integers(0, 2),
        routing=st_routing_model(),
        padded=st.booleans(),
        block_sparse=st.booleans(),
        hierarchical=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_no_straggler_makespans_agree(
        self, row, pick, routing, padded, block_sparse, hierarchical
    ):
        clusters = cluster_grid(row[1])
        cluster = clusters[pick % len(clusters)]
        program = grid_program(row)
        if hierarchical and cluster.multi_node:
            program = with_a2a_algo(program, "hierarchical")
        config = SimulationConfig(
            cluster,
            routing=routing,
            padded_a2a=padded,
            block_sparse_experts=block_sparse,
        )
        self.assert_same_makespan(program, config)


class TestUnitConventions:
    """The alpha/beta unit conventions documented on ClusterSpec.

    Bandwidth fields are GB/s (1e9 *bytes* per second) despite the
    historical ``_gbps`` suffix; latency fields are microseconds; sizes
    are bytes; every returned time is milliseconds.
    """

    def test_nic_presets_are_line_rate_over_eight(self):
        # p4de: 4 x 100 Gbit/s EFA NICs; p3dn: one 100 Gbit/s NIC
        assert ClusterSpec.p4de(2).node_nic_gbps == 4 * 100 / 8
        assert ClusterSpec.p3dn(2).node_nic_gbps == 100 / 8
        # the per-GPU share divides the node aggregate evenly
        assert ClusterSpec.p4de(2).nic_per_gpu_gbps == 50.0 / 8

    def test_bandwidth_is_bytes_per_second(self):
        """Moving N bytes at B GB/s costs N / (B * 1e9) seconds: strip
        the latency floor and the uniform a2a transfer must match the
        hand-computed bottleneck-stream time."""
        cl = ClusterSpec.p4de(2)
        nbytes = 1e8
        g = cl.num_gpus
        t = cl.a2a_time_ms(nbytes) - cl.alpha_ms()
        frac_inter = (g - cl.gpus_per_node) / g
        expected_s = (nbytes * frac_inter) / (cl.nic_per_gpu_gbps * 1e9)
        assert np.isclose(t, expected_s * 1e3, rtol=1e-12)

    def test_alpha_is_microseconds(self):
        """A zero-byte collective costs exactly the latency floor,
        converted us -> ms."""
        single = ClusterSpec.for_gpus("a100", 8)
        assert single.a2a_time_ms(0.0) == single.alpha_intra_us * 1e-3
        multi = ClusterSpec.p4de(2)
        assert multi.alpha_ms() == multi.alpha_inter_us * 1e-3

    def test_irregular_completion_is_device_times_max(self):
        """a2a_time_ms_irregular is, by definition, the busiest device
        of a2a_device_times_ms -- for flat and hierarchical alike."""
        rng = np.random.default_rng(11)
        for cl in (ClusterSpec.for_gpus("a100", 8), ClusterSpec.p3dn(2)):
            pair = np.abs(rng.standard_normal((cl.num_gpus,) * 2)) * 1e6
            assert cl.a2a_time_ms_irregular(pair) == float(
                cl.a2a_device_times_ms(pair).max()
            )
            assert cl.hierarchical_a2a_time_ms_irregular(pair) == float(
                cl.hierarchical_a2a_device_times_ms(pair).max()
            )

    def test_topology_mirrors_cluster_spec(self):
        cl = ClusterSpec.p3dn(4)
        topo = cl.topology
        assert topo.num_gpus == cl.num_gpus
        assert topo.nic_per_gpu_gbps == cl.nic_per_gpu_gbps
        assert [topo.node_of(r) for r in range(cl.num_gpus)] == list(
            np.arange(cl.num_gpus) // cl.gpus_per_node
        )


class TestRoutingSkewKnobs:
    def test_hot_experts_off_reproduces_plain_draws(self):
        plain = SyntheticRoutingModel(seed=3)
        knobbed = SyntheticRoutingModel(seed=3, hot_experts=0, hot_boost=0.9)
        a = plain.counts_for("L", 4, 8, 256, 64)
        b = knobbed.counts_for("L", 4, 8, 256, 64)
        assert np.array_equal(a, b)

    def test_hot_experts_concentrate_load(self):
        m = SyntheticRoutingModel(
            seed=3, concentration=64.0, hot_experts=1, hot_boost=0.6
        )
        counts = m.counts_for("L", 4, 8, 256, 1_000_000)
        hot = counts.sum(axis=0).argmax()
        share = counts[:, hot].sum() / counts.sum()
        assert share > 0.5

    def test_device_byte_loads(self):
        pair = np.array([[1.0, 2.0], [3.0, 4.0]])
        send, recv = device_byte_loads(pair)
        assert send.tolist() == [2.0, 3.0]  # diagonal excluded
        assert recv.tolist() == [3.0, 2.0]


class TestClusterRendering:
    def test_render_and_summary(self, tiny_graph, small_cluster):
        ctl = simulate_cluster(tiny_graph.program, config=skewed_config(small_cluster))
        art = render_cluster_timeline(ctl, width=60)
        lines = art.splitlines()
        # header + 2 lanes per device + legend
        assert len(lines) == 1 + 2 * ctl.num_devices + 1
        assert "d0 comp |" in art and "comm |" in art
        summary = imbalance_summary(ctl)
        assert "spread" in summary and "critical device" in summary

    def test_device_subset(self, tiny_graph, small_cluster):
        ctl = simulate_cluster(
            tiny_graph.program, config=uniform_config(small_cluster)
        )
        art = render_cluster_timeline(ctl, width=40, devices=[1])
        assert "d1 comp |" in art and "d0" not in art


class TestParallelExecutor:
    def test_parallel_bit_identical(self, tiny_graph, tiny_values):
        serial = NumericExecutor(tiny_graph.program, 2, parallel=False)
        par = NumericExecutor(tiny_graph.program, 2, parallel=True)
        e1 = serial.run(serial.make_envs(fresh_values(tiny_values)))
        e2 = par.run(par.make_envs(fresh_values(tiny_values)))
        for d in range(2):
            assert set(e1[d].values) == set(e2[d].values)
            for vid, val in e1[d].values.items():
                other = e2[d][vid]
                if isinstance(val, np.ndarray):
                    assert np.array_equal(val, other, equal_nan=True), vid
                else:
                    assert val == other

    def test_segment_split_covers_program(self, tiny_graph):
        segments = NumericExecutor._split_segments(tiny_graph.program)
        total = sum(
            1 if tag == "collective" else len(instrs)
            for tag, instrs in segments
        )
        assert total == len(tiny_graph.program.instructions)
        tags = [tag for tag, _ in segments]
        assert "collective" in tags and "kernels" in tags

    def test_program_mutation_visible_on_next_run(self, tiny_graph, tiny_values):
        """The executor follows in-place program rewrites between runs
        (passes mutate programs; segments must not be stale)."""
        p = tiny_graph.program.clone()
        ex = NumericExecutor(p, 2, parallel=False)
        ex.run(ex.make_envs(fresh_values(tiny_values)))
        p.instructions[0] = p.instructions[0].with_(op="matmul_fused_bogus")
        with pytest.raises((NotImplementedError, KeyError)):
            ex.run(ex.make_envs(fresh_values(tiny_values)))

    def test_parallel_trainer_matches_serial(self, tiny_graph):
        from repro.train import Trainer

        t1 = Trainer(tiny_graph, seed=0, parallel=False)
        t2 = Trainer(tiny_graph, seed=0, parallel=True)
        r1 = t1.run(2)
        r2 = t2.run(2)
        assert [r.losses for r in r1] == [r.losses for r in r2]

    def test_parallel_error_propagates(self, tiny_graph, tiny_values):
        p = tiny_graph.program.clone()
        p.instructions[0] = p.instructions[0].with_(op="matmul_fused_bogus")
        ex = NumericExecutor(p, 2, parallel=True)
        with pytest.raises((NotImplementedError, KeyError)):
            ex.run(ex.make_envs(fresh_values(tiny_values)))
