"""Tests for the partition rewriter: the mathematical-equivalence core.

Every rewritten program must produce bit-identical losses and gradients
to the original -- the transformation is a pure performance optimization
(paper Sec. 1: "all transformations maintain mathematical equivalence").
"""

import numpy as np
import pytest

from generators import fresh_values
from repro import GPT2MoEConfig, build_training_graph, validate
from repro.core.partition import RangePlan, apply_plan, infer_axes
from repro.models.init import init_device_values
from repro.runtime import run_program


def partition_first_moe(graph, parts, from_op="layernorm", include_tail=True):
    """Force-partition the first MoE layer's range at the given width."""
    p = graph.program
    pos = p.instr_index()
    ml = graph.moe_layers[0]
    if from_op == "layernorm":
        start = pos[ml.gate_matmul_uid] - 1
    elif from_op == "dispatch":
        start = pos[ml.dispatch_uid]
    elif from_op == "a2a":
        start = pos[ml.a2a_first_uid]
    end = pos[ml.combine_uid] + (2 if include_tail else 1)
    if from_op == "a2a":
        end = pos[ml.a2a_second_uid] + 1
    instrs = p.instructions[start:end]
    axes = infer_axes(instrs, p)
    assert axes is not None
    opt = p.clone()
    plan = RangePlan(
        start=start, end=end, parts=parts, axes=axes,
        predicted_ms=0.0, sequential_ms=0.0,
    )
    apply_plan(opt, plan)
    validate(opt)
    return opt


def assert_equivalent(graph, optimized, seed=0):
    vals = init_device_values(graph, seed=seed)
    base = run_program(graph.program, fresh_values(vals))
    out = run_program(optimized, fresh_values(vals))
    assert np.array_equal(base[0][graph.loss], out[0][graph.loss])
    for pid, gid in graph.program.grads.items():
        a = base[0][gid]
        b = out[0][optimized.grads[pid]]
        assert np.allclose(a, b, rtol=0, atol=1e-12), graph.program.values[pid].name


@pytest.mark.parametrize("gate,parts", [
    ("switch", 2),
    ("switch", 4),
    ("topk", 4),
    ("random", 3),
])
def test_batch_pipeline_bit_exact(gate, parts):
    cfg = GPT2MoEConfig.tiny(gate=gate, top_k=2 if gate == "topk" else 1)
    graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, parts)
    assert_equivalent(graph, optimized)


def test_bpr_post_gate_pipeline_bit_exact():
    cfg = GPT2MoEConfig.tiny(gate="bpr")
    graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, 4, from_op="dispatch")
    assert_equivalent(graph, optimized)


def test_capacity_axis_pipeline_bit_exact():
    """Tutel-style capacity-dim partition of [a2a, experts, a2a]."""
    cfg = GPT2MoEConfig.tiny()
    graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, 2, from_op="a2a")
    assert_equivalent(graph, optimized)


def test_uneven_chunks_bit_exact():
    """Batch 6 split 4 ways -> uneven chunks (2,2,1,1) must still be exact."""
    cfg = GPT2MoEConfig.tiny()
    graph = build_training_graph(cfg, batch=6, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, 4)
    assert_equivalent(graph, optimized)


def test_scarce_capacity_dropping_preserved():
    """Equivalence must hold even when tokens are actually dropped."""
    cfg = GPT2MoEConfig.tiny(capacity_factor=0.5)
    graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, 4)
    assert_equivalent(graph, optimized)


def test_multiple_seeds():
    cfg = GPT2MoEConfig.tiny()
    graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
    optimized = partition_first_moe(graph, 4)
    for seed in range(3):
        assert_equivalent(graph, optimized, seed=seed)


def test_four_devices():
    cfg = GPT2MoEConfig.tiny()
    graph = build_training_graph(cfg, batch=4, seq=8, num_gpus=4)
    optimized = partition_first_moe(graph, 2)
    assert_equivalent(graph, optimized)


class TestRewriterStructure:
    def test_chunk_instructions_tagged(self):
        cfg = GPT2MoEConfig.tiny()
        graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
        optimized = partition_first_moe(graph, 4)
        chunks = [i for i in optimized.instructions if i.partition is not None]
        assert chunks
        assert all(i.partition[1] == 4 for i in chunks)
        origins = {i.origin for i in chunks if i.origin is not None}
        orig_uids = {i.uid for i in graph.program.instructions}
        assert origins <= orig_uids

    def test_routing_becomes_routing_partial(self):
        cfg = GPT2MoEConfig.tiny()
        graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
        optimized = partition_first_moe(graph, 4)
        counts = optimized.count_ops()
        assert counts.get("routing_partial", 0) == 4
        assert counts.get("capacity_init", 0) == 1
        # exactly one routing remains (the second, unpartitioned MoE layer)
        assert counts.get("routing", 0) == graph.cfg.num_moe_layers - 1

    def test_reconstruction_ops_emitted(self):
        cfg = GPT2MoEConfig.tiny()
        graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
        optimized = partition_first_moe(graph, 4)
        counts = optimized.count_ops()
        assert counts.get("accumulate", 0) > 0  # irregular buffers
        assert counts.get("concat", 0) > 0  # batch-split activations
        assert counts.get("route_concat", 0) == 1

    def test_chunked_a2a_marked_irregular(self):
        cfg = GPT2MoEConfig.tiny()
        graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
        optimized = partition_first_moe(graph, 4)
        for i in optimized.instructions:
            if i.op == "all_to_all" and i.partition is not None:
                assert i.attrs["irregular"]
                assert i.attrs.get("irr_parts") is None  # comm priced via partition

    def test_capacity_chunked_a2a_regular(self):
        cfg = GPT2MoEConfig.tiny()
        graph = build_training_graph(cfg, batch=8, seq=8, num_gpus=2)
        optimized = partition_first_moe(graph, 2, from_op="a2a")
        for i in optimized.instructions:
            if i.op == "all_to_all" and i.partition is not None:
                assert not i.attrs["irregular"]
