"""Tests for partition rules and the CSP axis inferencer (paper Sec. 5.2)."""

import pytest

from oracles.axis_inference_reference import infer_axes_reference
from repro import GPT2MoEConfig, build_training_graph
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    LancetHyperParams,
    PlannerState,
)
from repro.ir import AXIS_IRREGULAR as IRR
from repro.ir import NOT_PARTITIONED as NP
from repro.ir import Program, TensorType
from repro.core.partition import (
    RuleContext,
    forward_length,
    infer_axes,
    range_is_moe_only,
    rules_for,
)
from repro.models import build_forward
from repro.runtime import COMPILED, ClusterSpec


def moe_range(graph, from_op="layernorm", include_combine=True):
    """Slice the instruction range of the first MoE layer."""
    p = graph.program
    pos = p.instr_index()
    ml = graph.moe_layers[0]
    starts = {
        "layernorm": pos[ml.gate_matmul_uid] - 1,
        "gate": pos[ml.gate_matmul_uid],
        "dispatch": pos[ml.dispatch_uid],
        "a2a": pos[ml.a2a_first_uid],
    }
    start = starts[from_op]
    end = pos[ml.combine_uid] + 1 if include_combine else pos[ml.a2a_second_uid] + 1
    return p.instructions[start:end], p


@pytest.fixture(scope="module")
def switch_graph():
    return build_forward(GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2)


@pytest.fixture(scope="module")
def bpr_graph():
    return build_forward(GPT2MoEConfig.tiny(gate="bpr"), batch=4, seq=8, num_gpus=2)


class TestRules:
    def test_matmul_rules(self, switch_graph):
        p = switch_graph.program
        mm = next(i for i in p.instructions if i.op == "matmul")
        ins = [p.type_of(v) for v in mm.inputs]
        outs = [p.type_of(v) for v in mm.outputs]
        rules = rules_for(mm, ins, outs, RuleContext())
        assert ((0, NP), (0,)) in rules  # batch split
        assert ((NP, 1), (2,)) in rules  # weight column split

    def test_attention_batch_only(self, switch_graph):
        p = switch_graph.program
        att = next(i for i in p.instructions if i.op == "attention")
        ins = [p.type_of(v) for v in att.inputs]
        outs = [p.type_of(v) for v in att.outputs]
        rules = rules_for(att, ins, outs, RuleContext())
        assert rules == [((0, 0, 0), (0,))]

    def test_bpr_routing_has_no_rules(self, bpr_graph):
        p = bpr_graph.program
        r = next(i for i in p.instructions if i.op == "routing")
        assert rules_for(r, [p.type_of(v) for v in r.inputs],
                         [p.type_of(v) for v in r.outputs], RuleContext()) == []

    def test_capacity_axis_requires_moe_only(self, switch_graph):
        p = switch_graph.program
        a2a = next(i for i in p.instructions if i.op == "all_to_all")
        ins = [p.type_of(v) for v in a2a.inputs]
        outs = [p.type_of(v) for v in a2a.outputs]
        open_rules = rules_for(a2a, ins, outs, RuleContext(moe_only=False))
        moe_rules = rules_for(a2a, ins, outs, RuleContext(moe_only=True))
        assert ((1,), (1,)) not in open_rules
        assert ((1,), (1,)) in moe_rules

    def test_unknown_op_unpartitionable(self, switch_graph):
        p = switch_graph.program
        ce = next(i for i in p.instructions if i.op == "cross_entropy")
        assert rules_for(ce, [p.type_of(v) for v in ce.inputs],
                         [p.type_of(v) for v in ce.outputs], RuleContext()) == []


class TestInference:
    def test_switch_full_range_matches_paper_fig8a(self, switch_graph):
        instrs, p = moe_range(switch_graph, "layernorm")
        res = infer_axes(instrs, p)
        assert res is not None
        by_op = {i.op: i for i in instrs}
        assert res.axis_of(by_op["layernorm"].outputs[0]) == 0
        assert res.axis_of(by_op["routing"].outputs[0]) == IRR
        assert res.axis_of(by_op["expert_ffn"].outputs[0]) == IRR
        assert res.axis_of(by_op["moe_combine"].outputs[0]) == 0
        # weights replicated
        assert res.axis_of(by_op["expert_ffn"].inputs[1]) == NP

    def test_moe_only_range_uses_capacity_axis(self, switch_graph):
        instrs, p = moe_range(switch_graph, "a2a", include_combine=False)
        assert range_is_moe_only(instrs)
        res = infer_axes(instrs, p)
        assert res is not None
        for i in instrs:
            assert res.axis_of(i.outputs[0]) == 1

    def test_bpr_gate_in_range_infeasible(self, bpr_graph):
        instrs, p = moe_range(bpr_graph, "gate")
        assert infer_axes(instrs, p) is None

    def test_bpr_from_dispatch_feasible(self, bpr_graph):
        instrs, p = moe_range(bpr_graph, "dispatch")
        res = infer_axes(instrs, p)
        assert res is not None
        # the route enters the range irregularly (sliced by token chunk)
        route_vid = instrs[0].inputs[1]
        assert res.axis_of(route_vid) == IRR

    def test_empty_range(self, switch_graph):
        assert infer_axes([], switch_graph.program) is None

    def test_range_with_only_dense_compute(self, switch_graph):
        """A pure-compute range is partitionable at the batch axis."""
        p = switch_graph.program
        pos = p.instr_index()
        ml = switch_graph.moe_layers[0]
        # self-attention block before the MoE layer
        start = pos[ml.gate_matmul_uid] - 10
        instrs = p.instructions[max(start, 0) : pos[ml.gate_matmul_uid] - 1]
        res = infer_axes(instrs, p)
        assert res is not None
        for ins in instrs:
            assert all(res.axis_of(o) in (0,) for o in ins.outputs)

    def test_expert_choice_gate_infeasible(self):
        g = build_forward(
            GPT2MoEConfig.tiny(gate="expert_choice"), batch=4, seq=8, num_gpus=2
        )
        instrs, p = moe_range(g, "gate")
        assert infer_axes(instrs, p) is None


def _same(result, oracle) -> bool:
    """Same None-ness, same axes (key order included), same context."""
    if result is None or oracle is None:
        return result is None and oracle is None
    return (
        list(result.axes.items()) == list(oracle.axes.items())
        and result.moe_only == oracle.moe_only
    )


class TestIncrementalMatchesOracle:
    """The shipped solver, from scratch and grown group by group as the
    planner grows it, equals the sweep-to-fixpoint reference on every
    range ``[i, n)`` of the DP window."""

    @pytest.mark.parametrize(
        "graph,gpus",
        [
            (lambda: build_training_graph(
                GPT2MoEConfig.gpt2_s_moe(),
                batch=24, seq=512, num_gpus=16), 16),
            (lambda: build_training_graph(
                GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2), 2),
            (lambda: build_forward(
                GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2), 2),
            (lambda: build_forward(
                GPT2MoEConfig.tiny(gate="bpr"), batch=4, seq=8, num_gpus=2), 2),
        ],
        ids=["gpt2-s-moe", "tiny", "switch", "bpr"],
    )
    def test_every_window_range(self, graph, gpus):
        program = graph().program
        cluster = ClusterSpec.for_gpus("a100", gpus)
        costs = CostEstimator(
            CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
            CommCostModel(cluster),
        )
        state = PlannerState()
        state.prepare(
            program, costs, LancetHyperParams(), forward_length(program)
        )
        groups = state.groups
        seen = {"feasible": 0, "infeasible": 0, "moe_only": 0}
        for n in range(1, len(groups) + 1):
            lo = max(n - state.max_range, 0)
            state.prune_frontiers(groups[lo].start)
            n_pos = groups[n - 1].end
            for i in range(lo, n):
                i_pos = groups[i].start
                instrs = program.instructions[i_pos:n_pos]
                oracle = infer_axes_reference(instrs, program)
                assert _same(infer_axes(instrs, program), oracle), (i_pos, n_pos)
                grown = state.range_axes(program, i_pos, n_pos)
                assert _same(grown, oracle), (i_pos, n_pos)
                seen["infeasible" if oracle is None else "feasible"] += 1
                seen["moe_only"] += bool(oracle and oracle.moe_only)
        assert seen["feasible"] and seen["infeasible"], seen
        assert seen["moe_only"], seen
        stats = state.stats()["axis_inference"]
        assert 0 < stats["instructions"] and 0 < stats["propagation_steps"]

    def test_range_leaving_moe_only_is_rebuilt(self):
        """An all-to-all alone may split its buffer on the capacity axis;
        once a dense op joins the range that rule is gone, so the grown
        problem must be rebuilt, not extended."""
        program = Program()
        buf = program.add_input(TensorType((4, 8, 16)), "buf")
        (out,) = program.add("all_to_all", [buf.id])
        program.add("gelu", [out.id])
        state = PlannerState()
        for n_pos in (1, 2):
            instrs = program.instructions[:n_pos]
            oracle = infer_axes_reference(instrs, program)
            assert _same(state.range_axes(program, 0, n_pos), oracle)
        assert infer_axes_reference(program.instructions[:1], program).moe_only
        assert oracle is None

    def test_solve_leaves_the_problem_extendable(self):
        """Two independent elementwise ops leave both chains ambiguous, so
        solving branches to the batch axis; appending a positional
        embedding then forces the sequence axis.  Solving the short range
        must not have committed the grown range to its choice."""
        program = Program()
        x = program.add_input(TensorType((4, 8, 16)), "x")
        table = program.add_input(TensorType((8, 16)), "table")
        (y,) = program.add("gelu", [x.id])
        (t,) = program.add("gelu", [table.id])
        program.add("pos_embedding", [y.id, t.id])
        state = PlannerState()
        for n_pos in (2, 3):
            instrs = program.instructions[:n_pos]
            oracle = infer_axes_reference(instrs, program)
            assert _same(state.range_axes(program, 0, n_pos), oracle)
            assert _same(infer_axes(instrs, program), oracle)
        assert oracle.axes[y.id] == 1
