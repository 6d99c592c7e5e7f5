"""Tests for the pipeline scheduler, DP range selection and its knobs."""

import pytest

from repro import GPT2MoEConfig, build_training_graph
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    PlanPolicy,
    plan_partitions,
)
from repro.core.partition import (
    build_groups,
    build_stages,
    chunk_type,
    forward_length,
    infer_axes,
    pipeline_cost_ms,
    sequential_cost_ms,
)
from repro.core.partition.pipeline import max_feasible_parts
from repro.ir import AXIS_IRREGULAR as IRR
from repro.ir import NOT_PARTITIONED as NP
from repro.ir import Dim, DType, TensorType
from repro.runtime import COMPILED, ClusterSpec


@pytest.fixture(scope="module")
def env():
    cluster = ClusterSpec.p4de(2)
    costs = CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
        CommCostModel(cluster),
    )
    graph = build_training_graph(
        GPT2MoEConfig.gpt2_s_moe(num_layers=4), batch=16, seq=512, num_gpus=16
    )
    return cluster, costs, graph


class TestChunkType:
    def test_regular_axis(self):
        t = TensorType((8, 16, 32), DType.F16)
        assert chunk_type(t, 0, 4).shape == (2, 16, 32)

    def test_np_unchanged(self):
        t = TensorType((8, 16), DType.F16)
        assert chunk_type(t, NP, 4) == t

    def test_irregular_scales_capacity(self):
        t = TensorType((4, 12, 8), DType.F16, (Dim.EXPERT, Dim.CAPACITY, Dim.HIDDEN))
        assert chunk_type(t, IRR, 4).shape == (4, 3, 8)

    def test_irregular_scales_tokens(self):
        from repro.ir import route_type

        t = route_type(32)
        assert chunk_type(t, IRR, 4).shape == (8, 3)


class TestStages:
    def test_alternating_streams(self, env):
        _, _, graph = env
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        instrs = p.instructions[
            pos[ml.dispatch_uid] : pos[ml.combine_uid] + 1
        ]
        stages = build_stages(instrs)
        kinds = [s.is_comm for s in stages]
        # dispatch | a2a | experts | a2a | combine
        assert kinds == [False, True, False, True, False]


class TestPipelineCost:
    def test_pipelining_beats_sequential_for_comm_heavy_range(self, env):
        """A range with real non-MoE compute around the all-to-alls (the
        preceding self-attention block) pipelines profitably -- this is
        the kind of range the DP selects."""
        _, costs, graph = env
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        # include the whole self-attention block before the MoE layer and
        # the residual add after it
        start = pos[ml.gate_matmul_uid] - 1 - 9
        end = pos[ml.combine_uid] + 2
        instrs = p.instructions[start:end]
        axes = infer_axes(instrs, p)
        assert axes is not None
        seq = sequential_cost_ms(p, instrs, costs)
        piped = pipeline_cost_ms(p, instrs, axes, 4, costs)
        assert piped.pipeline_ms < seq

    def test_overhead_grows_with_parts(self, env):
        _, costs, graph = env
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        instrs = p.instructions[pos[ml.gate_matmul_uid] - 1 : pos[ml.combine_uid] + 1]
        axes = infer_axes(instrs, p)
        outside = set()
        for ins in p.instructions:
            outside.update(ins.inputs)
        o2 = pipeline_cost_ms(p, instrs, axes, 2, costs, outside).overhead_ms
        o8 = pipeline_cost_ms(p, instrs, axes, 8, costs, outside).overhead_ms
        assert o8 > o2

    def test_max_feasible_parts(self, env):
        _, _, graph = env
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        instrs = p.instructions[pos[ml.gate_matmul_uid] - 1 : pos[ml.combine_uid] + 1]
        axes = infer_axes(instrs, p)
        # the batch axis (16) is the binding constraint
        assert max_feasible_parts(instrs, p, axes) == 16


class TestGrouping:
    def test_structural_ops_isolated(self, env):
        _, costs, graph = env
        p = graph.program
        fwd = forward_length(p)
        groups = build_groups(p, fwd, costs, group_ms=0.5)
        for g in groups:
            ops = [p.instructions[i].op for i in range(g.start, g.end)]
            if any(op == "all_to_all" for op in ops):
                assert len(ops) == 1
                assert g.has_a2a

    def test_groups_cover_forward_exactly(self, env):
        _, costs, graph = env
        p = graph.program
        fwd = forward_length(p)
        groups = build_groups(p, fwd, costs, group_ms=0.5)
        assert groups[0].start == 0
        assert groups[-1].end == fwd
        for a, b in zip(groups, groups[1:]):
            assert a.end == b.start


class TestDP:
    def test_plans_one_pipeline_per_moe_layer(self, env):
        _, costs, graph = env
        res = plan_partitions(graph.program, costs)
        assert len(res.plans) == graph.cfg.num_moe_layers

    def test_plans_disjoint_and_in_forward(self, env):
        _, costs, graph = env
        res = plan_partitions(graph.program, costs)
        fwd = forward_length(graph.program)
        last_end = 0
        for plan in res.plans:
            assert plan.start >= last_end
            assert plan.end <= fwd
            last_end = plan.end

    def test_plans_contain_a2a(self, env):
        _, costs, graph = env
        res = plan_partitions(graph.program, costs)
        for plan in res.plans:
            ops = {
                i.op for i in graph.program.instructions[plan.start : plan.end]
            }
            assert "all_to_all" in ops

    def test_predicted_improvement(self, env):
        _, costs, graph = env
        res = plan_partitions(graph.program, costs)
        assert res.optimized_fwd_ms < res.baseline_fwd_ms

    def test_respects_max_partitions(self, env):
        _, costs, graph = env
        res = plan_partitions(
            graph.program, costs, PlanPolicy(max_partitions=2)
        )
        assert all(p.parts <= 2 for p in res.plans)

    def test_k_candidates(self):
        assert PlanPolicy(max_partitions=8).k_candidates == [2, 4, 8]
        assert PlanPolicy(max_partitions=4).k_candidates == [2, 4]
        assert PlanPolicy(max_partitions=1).k_candidates == []

    def test_bpr_plans_exclude_gate(self):
        cluster = ClusterSpec.p4de(2)
        costs = CostEstimator(
            CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
            CommCostModel(cluster),
        )
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=4, gate="bpr"),
            batch=16,
            seq=512,
            num_gpus=16,
        )
        res = plan_partitions(graph.program, costs)
        assert res.plans, "BPR should still allow post-gate pipelines"
        for plan in res.plans:
            ops = [
                i.op for i in graph.program.instructions[plan.start : plan.end]
            ]
            assert "routing" not in ops
