"""Tests for the Weight Gradient Computation Schedule Pass (Alg. 1)."""

import numpy as np
import pytest

from generators import fresh_values
from repro.ir import validate, verify_schedulable
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    WeightGradSchedulePass,
    legalize_order,
)
from repro.runtime import (
    COMPILED,
    SimulationConfig,
    UniformRoutingModel,
    run_program,
    simulate_program,
)


@pytest.fixture()
def costs(a100_16):
    return CostEstimator(
        CachingOpProfiler(gpu=a100_16.gpu, framework=COMPILED),
        CommCostModel(a100_16),
    )


@pytest.fixture()
def scheduled(tiny_graph, costs):
    p = tiny_graph.program.clone()
    pas = WeightGradSchedulePass(costs)
    p = pas.run(p)
    return p, pas


class TestScheduling:
    def test_result_is_valid_program(self, scheduled):
        p, _ = scheduled
        validate(p)

    def test_is_a_permutation(self, scheduled, tiny_graph):
        p, _ = scheduled
        assert {i.uid for i in p.instructions} == {
            i.uid for i in tiny_graph.program.instructions
        }

    def test_some_dw_moved(self, scheduled):
        _, pas = scheduled
        assert pas.report.num_dw_moved > 0
        assert pas.report.num_dw_moved <= pas.report.num_dw_total

    def test_assigned_dw_placed_after_their_a2a(self, scheduled):
        p, pas = scheduled
        pos = p.instr_index()
        for rec in pas.report.records:
            for dw_uid in rec.assigned_uids:
                assert pos[dw_uid] > pos[rec.a2a_uid]

    def test_forward_a2a_get_no_assignments(self, scheduled, tiny_graph):
        _, pas = scheduled
        fwd_uids = {
            i.uid
            for i in tiny_graph.program.instructions[: tiny_graph.forward_len]
            if i.op == "all_to_all"
        }
        for rec in pas.report.records:
            if rec.a2a_uid in fwd_uids:
                assert not rec.assigned_uids

    def test_each_dw_assigned_at_most_once(self, scheduled):
        _, pas = scheduled
        seen = []
        for rec in pas.report.records:
            seen.extend(rec.assigned_uids)
        assert len(seen) == len(set(seen))

    def test_planned_overlap_capped_by_a2a_time(self, scheduled):
        _, pas = scheduled
        for rec in pas.report.records:
            assert rec.planned_overlap_ms <= rec.a2a_ms + 1e-12

    def test_numeric_equivalence(self, scheduled, tiny_graph, tiny_values):
        """Reordering must not change any numeric result."""
        p, _ = scheduled
        base = run_program(tiny_graph.program, fresh_values(tiny_values))
        out = run_program(p, fresh_values(tiny_values))
        assert np.array_equal(base[0][tiny_graph.loss], out[0][tiny_graph.loss])
        for pid, gid in tiny_graph.program.grads.items():
            assert np.array_equal(base[0][gid], out[0][gid])

    def test_reduces_exposed_a2a_on_large_model(self, a100_16, costs):
        from repro import GPT2MoEConfig, build_training_graph

        g = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=8, seq=256, num_gpus=16
        )
        p = g.program.clone()
        pas = WeightGradSchedulePass(costs)
        p = pas.run(p)
        cfg = SimulationConfig(cluster=a100_16, routing=UniformRoutingModel())
        before = simulate_program(g.program, config=cfg)
        after = simulate_program(p, config=cfg)
        assert after.exposed_time_of({"all_to_all"}) < before.exposed_time_of(
            {"all_to_all"}
        )
        assert after.makespan < before.makespan

    def test_noop_without_dw(self, costs):
        from repro.ir import DType, Program, TensorType

        p = Program("nodw")
        x = p.add_input(TensorType((8, 8), DType.F16), "x")
        p.add("gelu", [x.id])
        out = WeightGradSchedulePass(costs).run(p)
        assert [i.op for i in out.instructions] == ["gelu"]


class TestLegalizeOrder:
    def test_keeps_desired_order_when_legal(self, tiny_graph):
        p = tiny_graph.program
        order = legalize_order(p, list(p.instructions))
        assert [i.uid for i in order] == [i.uid for i in p.instructions]

    def test_repairs_dependency_violations(self, tiny_graph):
        """Putting a consumer before its producer gets fixed."""
        p = tiny_graph.program
        desired = list(p.instructions)
        desired[1], desired[2] = desired[2], desired[1]
        order = legalize_order(p, desired)
        verify_schedulable(p, order)
