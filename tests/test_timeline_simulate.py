"""Tests for timeline accounting and the two-stream timed simulator."""

import numpy as np
import pytest

from repro.ir import DType, Program, Stream, TensorType
from repro.runtime import (
    ClusterSpec,
    GroundTruthCost,
    SimulationConfig,
    SyntheticRoutingModel,
    Timeline,
    UniformRoutingModel,
    intersect_length,
    merge_intervals,
    simulate_program,
    total_length,
)
from repro.runtime.timeline import Interval


class TestIntervalMath:
    def test_merge(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_total_length(self):
        assert total_length([(0, 3), (5, 6)]) == 4

    def test_intersect(self):
        a = [(0, 4), (6, 8)]
        b = [(2, 7)]
        assert intersect_length(a, b) == 3  # [2,4) + [6,7)


def iv(uid, op, stream, start, end, kind="forward"):
    return Interval(uid=uid, op=op, kind=kind, stream=stream, start=start, end=end)


class TestTimeline:
    def test_breakdown_accounting(self):
        tl = Timeline(
            [
                iv(0, "matmul", Stream.COMPUTE, 0, 4),
                iv(1, "all_to_all", Stream.COMM, 2, 6),
            ]
        )
        bd = tl.breakdown()
        assert bd.makespan == 6
        assert bd.overlapped == 2
        assert bd.comp_only == 2
        assert bd.comm_only == 2
        assert bd.idle == 0
        assert bd.comm_total == 4 and bd.comp_total == 4

    def test_exposed_time(self):
        tl = Timeline(
            [
                iv(0, "matmul", Stream.COMPUTE, 0, 4),
                iv(1, "all_to_all", Stream.COMM, 2, 6),
            ]
        )
        assert tl.exposed_time_of({"all_to_all"}) == 2

    def test_per_op_totals(self):
        tl = Timeline(
            [
                iv(0, "matmul", Stream.COMPUTE, 0, 4),
                iv(1, "matmul", Stream.COMPUTE, 4, 5),
            ]
        )
        assert tl.per_op_totals() == {"matmul": 5}


def two_stream_program():
    """comm op independent of a following compute op -> they overlap."""
    p = Program("olap")
    a = p.add_input(TensorType((256, 256), DType.F16), "a")
    b = p.add_input(TensorType((256, 256), DType.F16), "b")
    (c,) = p.add("allreduce", [a.id])
    (d,) = p.add("gelu", [b.id])  # independent of the allreduce
    (e,) = p.add("add", [c.id, d.id])  # depends on both
    p.outputs.append(e.id)
    return p


class TestSimulator:
    @pytest.fixture()
    def config(self):
        return SimulationConfig(
            cluster=ClusterSpec.p4de(2), routing=UniformRoutingModel()
        )

    def test_independent_ops_overlap(self, config):
        tl = simulate_program(two_stream_program(), config=config)
        bd = tl.breakdown()
        assert bd.overlapped > 0

    def test_dependent_op_waits(self, config):
        tl = simulate_program(two_stream_program(), config=config)
        by_op = {ivl.op: ivl for ivl in tl.intervals}
        assert by_op["add"].start >= by_op["allreduce"].end
        assert by_op["add"].start >= by_op["gelu"].end

    def test_deterministic(self, config, tiny_graph):
        t1 = simulate_program(tiny_graph.program, config=config).makespan
        t2 = simulate_program(tiny_graph.program, config=config).makespan
        assert t1 == t2

    def test_irregular_beats_padded_at_bandwidth_scale(self):
        """For large buffers the irregular A2A moves fewer bytes than the
        padded one and wins; at tiny (latency-bound) sizes the two-phase
        size exchange makes it lose.  Both regimes are intentional."""
        cluster = ClusterSpec.p4de(2)
        g, e, c, h = cluster.num_gpus, 32, 480, 768
        m = SyntheticRoutingModel(seed=0)
        pair = m.pair_bytes_for("L", g, e, tokens_per_device=12288, capacity=c,
                                bytes_per_token=2 * h)
        padded_bytes = e * c * h * 2
        assert cluster.a2a_time_ms_irregular(pair) < cluster.a2a_time_ms(
            padded_bytes
        )
        # latency-bound regime: two-phase overhead dominates
        tiny_pair = np.full((g, g), 8.0)
        assert cluster.a2a_time_ms_irregular(tiny_pair) > cluster.a2a_time_ms(
            8.0 * g
        )

    def test_every_instruction_simulated(self, config, tiny_graph):
        tl = simulate_program(tiny_graph.program, config=config)
        assert len(tl.intervals) == len(tiny_graph.program.instructions)

    def test_compute_cache_hit(self, config, tiny_graph):
        cost = GroundTruthCost(config)
        simulate_program(tiny_graph.program, cost=cost)
        n = cost.profiler.cache_size()
        profiled = cost.profiler.profile_count
        simulate_program(tiny_graph.program, cost=cost)
        # second run fully cached
        assert cost.profiler.cache_size() == n
        assert cost.profiler.profile_count == profiled


class TestOneOpModel:
    """Ground truth prices compute with the profiler's op model, whose
    cache key pins every scalar attr: a price never depends on which
    rows were priced before it."""

    @pytest.fixture(scope="class")
    def config(self):
        return SimulationConfig(cluster=ClusterSpec.for_gpus("a100", 16))

    def test_split_degrees_of_one_tensor(self, config):
        p = Program("splits")
        x = p.add_input(TensorType((8, 512, 768), DType.F16), "x")
        chunks = {}
        for parts in (2, 8):
            p.add(
                "split_chunk",
                [x.id],
                attrs={"axis": 1, "parts": parts, "index": 0},
            )
            chunks[parts] = p.instructions[-1]
        fresh = {
            parts: GroundTruthCost(config).duration_ms(ins, p)
            for parts, ins in chunks.items()
        }
        assert fresh[2] != fresh[8]
        for order in ((2, 8), (8, 2)):
            cost = GroundTruthCost(config)
            for parts in order:
                assert cost.duration_ms(chunks[parts], p) == fresh[parts]

    def test_costs_of_one_gpu_share_a_profiler(self, config):
        profiler = GroundTruthCost(config).profiler
        a100x8 = SimulationConfig(cluster=ClusterSpec.for_gpus("a100", 8))
        assert GroundTruthCost(a100x8, profiler).profiler is profiler
        v100x8 = SimulationConfig(cluster=ClusterSpec.for_gpus("v100", 8))
        with pytest.raises(ValueError, match="GPU or framework"):
            GroundTruthCost(v100x8, profiler)

    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.api import Scenario, compile

        scenario = Scenario.preset("gpt2-s-moe/a100x16")
        plan = compile(scenario)
        return scenario, plan.program, plan.simulation_cluster()

    @pytest.mark.parametrize("block_sparse", [False, True])
    def test_compute_rows_equal_the_estimator(self, compiled, block_sparse):
        from repro.core import CachingOpProfiler, CommCostModel, CostEstimator
        from repro.runtime.simulate import EXPERT_BUF_OPS

        scenario, program, cluster = compiled
        rows = [i for i in program.instructions if not i.is_comm]
        degrees = {}
        for ins in rows:
            if ins.op == "split_chunk":
                shape = program.type_of(ins.inputs[0]).shape
                degrees.setdefault(shape, set()).add(ins.attrs["parts"])
        # the plan splits one shape at two degrees
        assert any(len(d) > 1 for d in degrees.values())

        config = SimulationConfig(
            cluster=cluster,
            padded_a2a=False,
            block_sparse_experts=block_sparse,
            routing=scenario.routing_model(),
        )
        cost = GroundTruthCost(config)
        costs = CostEstimator(
            CachingOpProfiler(gpu=cluster.gpu, framework=config.framework),
            CommCostModel(cluster),
        )
        sparse = 0
        for ins in rows:
            got = cost.duration_ms(ins, program)
            assert got == GroundTruthCost(config).duration_ms(ins, program)
            predicted = costs.duration_ms(ins, program)
            if block_sparse and ins.op in EXPERT_BUF_OPS:
                # a block-sparse kernel computes only the realized slots
                assert got <= predicted
                sparse += got < predicted
            else:
                assert got == predicted
        assert sparse > 0 if block_sparse else sparse == 0


class TestRoutingModels:
    def test_synthetic_counts_capped(self):
        m = SyntheticRoutingModel(seed=0, concentration=0.5)
        counts = m.counts_for("k", 4, 8, tokens_per_device=100, capacity=16)
        assert counts.shape == (4, 8)
        assert counts.max() <= 16

    def test_synthetic_cached_per_key(self):
        m = SyntheticRoutingModel(seed=0)
        a = m.counts_for("layer1", 4, 8, 100, 16)
        b = m.counts_for("layer1", 4, 8, 100, 16)
        assert np.array_equal(a, b)
        m.clear()
        c = m.counts_for("layer1", 4, 8, 100, 16)
        assert np.array_equal(a, c)  # deterministic in seed too

    def test_fraction_scales_bytes(self):
        m = SyntheticRoutingModel(seed=3)
        full = m.pair_bytes_for("x", 4, 8, 1000, 200, 64, fraction=1.0)
        half = m.pair_bytes_for("x", 4, 8, 1000, 200, 64, fraction=0.5)
        assert half.sum() < full.sum()

    def test_uniform_model(self):
        m = UniformRoutingModel()
        counts = m.counts_for("k", 2, 4, 64, 32)
        assert (counts == 16).all()
