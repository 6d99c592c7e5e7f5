"""Property-based tests for scheduling invariants (legalizer, pipeline
scheduler, chunk typing) using hypothesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.dp_reference import chunk_duration_ms, pipeline_cost_ms

from repro import GPT2MoEConfig, build_training_graph
from repro.core import CachingOpProfiler, CommCostModel, CostEstimator, legalize_order
from repro.core.partition import build_stages, chunk_type, infer_axes
from repro.ir import (
    AXIS_IRREGULAR,
    NOT_PARTITIONED,
    Dim,
    DType,
    TensorType,
    verify_schedulable,
)
from repro.runtime import COMPILED, ClusterSpec


@pytest.fixture(scope="module")
def tiny_training():
    return build_training_graph(GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2)


@pytest.fixture(scope="module")
def costs():
    cluster = ClusterSpec.p4de(2)
    return CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
        CommCostModel(cluster),
    )


class TestLegalizerProperties:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_any_shuffle_is_repaired(self, tiny_training, rnd):
        """legalize_order turns *any* permutation into a valid schedule
        containing exactly the same instructions."""
        p = tiny_training.program
        desired = list(p.instructions)
        rnd.shuffle(desired)
        order = legalize_order(p, desired)
        verify_schedulable(p, order)
        assert {i.uid for i in order} == {i.uid for i in p.instructions}

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_idempotent_on_legal_orders(self, tiny_training, rnd):
        """A legal order is a fixed point of the legalizer."""
        p = tiny_training.program
        desired = list(p.instructions)
        rnd.shuffle(desired)
        once = legalize_order(p, desired)
        twice = legalize_order(p, once)
        assert [i.uid for i in once] == [i.uid for i in twice]


class TestChunkTypeProperties:
    @given(
        st.integers(1, 6).flatmap(
            lambda rank: st.tuples(
                st.tuples(*[st.integers(1, 32)] * rank),
                st.integers(0, rank - 1),
                st.integers(1, 8),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_chunks_partition_the_axis(self, case):
        shape, axis, parts = case
        t = TensorType(shape, DType.F16)
        if parts > shape[axis]:
            return  # infeasible split; guarded by max_feasible_parts
        sizes = [chunk_type(t, axis, parts, i).shape[axis] for i in range(parts)]
        assert sum(sizes) == shape[axis]
        assert max(sizes) - min(sizes) <= 1  # array_split balance

    def test_irregular_chunk_never_grows(self):
        buf = TensorType((8, 13, 4), DType.F16, (Dim.EXPERT, Dim.CAPACITY, Dim.HIDDEN))
        for parts in (1, 2, 3, 4, 8):
            c = chunk_type(buf, AXIS_IRREGULAR, parts)
            assert c.shape[1] <= buf.shape[1]
            assert c.shape[0] == buf.shape[0]

    def test_np_identity(self):
        t = TensorType((3, 5), DType.F32)
        assert chunk_type(t, NOT_PARTITIONED, 4) is t


class TestPipelineSchedulerProperties:
    @pytest.fixture(scope="class")
    def moe_range(self):
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=2), batch=16, seq=512, num_gpus=16
        )
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        start = pos[ml.gate_matmul_uid] - 1
        end = pos[ml.combine_uid] + 1
        instrs = p.instructions[start:end]
        return p, instrs, infer_axes(instrs, p)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_pipeline_at_least_critical_path(self, moe_range, costs, k):
        """The pipelined time can never beat the larger of (total compute,
        total communication) of the chunked ops."""
        p, instrs, axes = moe_range
        comp = comm = 0.0
        for ins in instrs:
            d = chunk_duration_ms(ins, p, axes, k, costs) * k
            if ins.is_comm:
                comm += d
            else:
                comp += d
        cost = pipeline_cost_ms(p, instrs, axes, k, costs)
        assert cost.pipeline_ms >= max(comp, comm) - 1e-9

    @pytest.mark.parametrize("k", [2, 4])
    def test_pipeline_at_most_sequential_of_chunks(self, moe_range, costs, k):
        """Pipelining never exceeds running every chunk back to back."""
        p, instrs, axes = moe_range
        total = sum(
            chunk_duration_ms(ins, p, axes, k, costs) * k for ins in instrs
        )
        cost = pipeline_cost_ms(p, instrs, axes, k, costs)
        assert cost.pipeline_ms <= total + 1e-9

    def test_stage_structure_stable(self, moe_range):
        p, instrs, _ = moe_range
        stages = build_stages(instrs)
        # stage streams strictly alternate
        for a, b in zip(stages, stages[1:]):
            assert a.is_comm != b.is_comm
        # stages cover all instructions exactly once
        seen = [i for s in stages for i in s.indices]
        assert sorted(seen) == list(range(len(instrs)))


class TestDWGreedyProperties:
    def test_greedy_never_overshoots_wildly(self, tiny_training, costs):
        """Best-fit stops once the all-to-all is covered: assigned time
        exceeds the all-to-all by at most the largest single dW."""
        from repro.core import WeightGradSchedulePass

        p = tiny_training.program.clone()
        pas = WeightGradSchedulePass(costs)
        pas.run(p)
        for rec in pas.report.records:
            if not rec.assigned_uids:
                continue
            by_uid = {i.uid: i for i in p.instructions}
            largest = max(
                costs.duration_ms(by_uid[u], p) for u in rec.assigned_uids
            )
            assert rec.assigned_ms <= rec.a2a_ms + largest + 1e-9
