"""Integration: every transformation composed at once, still bit-exact.

The optimizer applies many partition plans plus the dW reorder (plus,
optionally, the gradient-sync yield pass) to one program.  These tests
force *all* of it onto the tiny model — both MoE layers pipelined at
different widths, dW rescheduling, all-reduce yielding — and assert the
numerics never move.
"""

import numpy as np
import pytest

from generators import fresh_values
from repro import GPT2MoEConfig, build_training_graph, validate
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    GradSyncDeferPass,
    WeightGradSchedulePass,
)
from repro.core.partition import RangePlan, apply_plans, infer_axes
from repro.models.init import init_device_values
from repro.runtime import COMPILED, ClusterSpec, run_program
from repro.train import Trainer


@pytest.fixture(scope="module")
def graph():
    # four blocks -> two MoE layers (1 and 3), so multiple plans coexist
    return build_training_graph(
        GPT2MoEConfig.tiny(num_layers=4), batch=8, seq=8, num_gpus=2
    )


@pytest.fixture(scope="module")
def costs():
    cluster = ClusterSpec.for_gpus("a100", 2)
    return CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
        CommCostModel(cluster),
    )


def plans_for_all_moe_layers(graph, parts_list):
    """A forced plan per MoE layer, with the given partition widths."""
    p = graph.program
    pos = p.instr_index()
    plans = []
    for ml, parts in zip(graph.moe_layers, parts_list):
        start = pos[ml.gate_matmul_uid] - 1
        end = pos[ml.combine_uid] + 2
        instrs = p.instructions[start:end]
        axes = infer_axes(instrs, p)
        assert axes is not None
        plans.append(
            RangePlan(start=start, end=end, parts=parts, axes=axes,
                      predicted_ms=0.0, sequential_ms=0.0)
        )
    return plans


def fully_transformed(graph, costs, parts_list=(4, 2), defer=True):
    program = graph.program.clone()
    apply_plans(program, plans_for_all_moe_layers(graph, parts_list))
    program = WeightGradSchedulePass(costs).run(program)
    if defer:
        program = GradSyncDeferPass().run(program)
    validate(program)
    return program


class TestFullComposition:
    def test_both_moe_layers_partitioned(self, graph, costs):
        program = fully_transformed(graph, costs, defer=False)
        counts = program.count_ops()
        # both gates became capacity-passing partials: 4 + 2 chunks
        assert counts.get("routing_partial", 0) == 6
        assert counts.get("routing", 0) == 0
        assert counts.get("capacity_init", 0) == 2

    def test_bit_exact_loss_and_grads(self, graph, costs):
        program = fully_transformed(graph, costs)
        vals = init_device_values(graph, seed=3)
        base = run_program(graph.program, fresh_values(vals))
        out = run_program(program, fresh_values(vals))
        for d in range(2):
            assert np.array_equal(base[d][graph.loss], out[d][graph.loss])
        for pid, gid in graph.program.grads.items():
            assert np.allclose(
                base[0][gid], out[0][program.grads[pid]], rtol=0, atol=0
            ), graph.program.values[pid].name

    def test_multi_step_training_identical(self, graph, costs):
        program = fully_transformed(graph, costs)
        base = Trainer(graph, seed=11)
        opt = Trainer(graph, program=program, seed=11)
        for _ in range(4):
            rb, ro = base.step(), opt.step()
            assert rb.losses == ro.losses

    def test_mixed_partition_widths(self, graph, costs):
        """Different k per MoE layer (what the DP actually produces)."""
        for parts_list in [(2, 4), (8, 2), (3, 5)]:
            program = graph.program.clone()
            apply_plans(program, plans_for_all_moe_layers(graph, parts_list))
            validate(program)
            vals = init_device_values(graph, seed=0)
            base = run_program(graph.program, fresh_values(vals))
            out = run_program(program, fresh_values(vals))
            assert np.array_equal(base[0][graph.loss], out[0][graph.loss]), (
                parts_list
            )

    def test_composition_with_bpr_gate(self, costs):
        """BPR: post-gate plans on both layers + dW + defer, bit-exact."""
        graph = build_training_graph(
            GPT2MoEConfig.tiny(num_layers=4, gate="bpr"), batch=8, seq=8,
            num_gpus=2,
        )
        p = graph.program
        pos = p.instr_index()
        plans = []
        for ml, parts in zip(graph.moe_layers, (4, 2)):
            start = pos[ml.dispatch_uid]
            end = pos[ml.combine_uid] + 2
            instrs = p.instructions[start:end]
            axes = infer_axes(instrs, p)
            assert axes is not None
            plans.append(
                RangePlan(start=start, end=end, parts=parts, axes=axes,
                          predicted_ms=0.0, sequential_ms=0.0)
            )
        program = p.clone()
        apply_plans(program, plans)
        program = WeightGradSchedulePass(costs).run(program)
        program = GradSyncDeferPass().run(program)
        validate(program)
        vals = init_device_values(graph, seed=0)
        base = run_program(p, fresh_values(vals))
        out = run_program(program, fresh_values(vals))
        assert np.array_equal(base[0][graph.loss], out[0][graph.loss])

    def test_shared_expert_full_composition(self, costs):
        graph = build_training_graph(
            GPT2MoEConfig.tiny(num_layers=4, shared_expert=True),
            batch=8, seq=8, num_gpus=2,
        )
        program = fully_transformed(graph, costs, parts_list=(2, 2))
        vals = init_device_values(graph, seed=0)
        base = run_program(graph.program, fresh_values(vals))
        out = run_program(program, fresh_values(vals))
        assert np.array_equal(base[0][graph.loss], out[0][graph.loss])
