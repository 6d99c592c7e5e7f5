"""Tests for the paper-Sec.-8 extensions: shared experts, block-sparse
expert kernels, and all-to-all-over-all-reduce priority."""

import numpy as np
import pytest

from generators import fresh_values
from repro import GPT2MoEConfig, LancetOptimizer, build_training_graph, validate
from repro.core import GradSyncDeferPass, PlanPolicy
from repro.models.init import init_device_values
from repro.runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    UniformRoutingModel,
    run_program,
    simulate_program,
)


class TestSharedExpert:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_training_graph(
            GPT2MoEConfig.tiny(shared_expert=True), batch=8, seq=8, num_gpus=2
        )

    def test_valid_and_runs(self, graph):
        validate(graph.program)
        envs = run_program(graph.program, init_device_values(graph, seed=0))
        assert np.isfinite(envs[0][graph.loss])

    def test_shared_params_are_data_parallel(self, graph):
        p = graph.program
        shared = [
            v for v in p.params if ".shared." in p.values[v].name
        ]
        assert shared
        assert not (set(shared) & graph.expert_params)

    def test_shared_ffn_sits_between_dispatch_and_a2a(self, graph):
        """The shared expert must be issued before the all-to-all so the
        compute stream runs it while the A2A is in flight."""
        p = graph.program
        pos = p.instr_index()
        ml = graph.moe_layers[0]
        shared_pos = [
            i
            for i, ins in enumerate(p.instructions)
            if any(".shared." in p.values[o].name for o in ins.outputs)
        ]
        assert shared_pos
        assert min(shared_pos) > pos[ml.dispatch_uid]
        assert max(shared_pos) < pos[ml.a2a_first_uid]

    def test_shared_expert_overlaps_a2a(self):
        """At realistic scale, the shared expert's compute hides under the
        all-to-all: exposed a2a shrinks vs the plain model."""
        plain = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=16
        )
        shared = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(shared_expert=True),
            batch=24,
            seq=512,
            num_gpus=16,
        )
        cluster = ClusterSpec.p4de(2)
        cfg = SimulationConfig(cluster=cluster, routing=UniformRoutingModel())
        t_plain = simulate_program(plain.program, config=cfg)
        t_shared = simulate_program(shared.program, config=cfg)
        # the shared model does MORE work but exposes LESS all-to-all
        assert t_shared.exposed_time_of({"all_to_all"}) < t_plain.exposed_time_of(
            {"all_to_all"}
        )

    def test_lancet_still_optimizes_shared_model(self):
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=4, shared_expert=True),
            batch=16,
            seq=512,
            num_gpus=16,
        )
        cluster = ClusterSpec.p4de(2)
        optimized, report = LancetOptimizer(cluster).optimize(graph)
        validate(optimized)
        assert report.partition.plans

    def test_numeric_equivalence_under_optimization(self, graph, small_cluster):
        optimized, _ = LancetOptimizer(small_cluster).optimize(graph)
        vals = init_device_values(graph, seed=0)
        base = run_program(graph.program, fresh_values(vals))
        out = run_program(optimized, fresh_values(vals))
        assert np.array_equal(base[0][graph.loss], out[0][graph.loss])


class TestBlockSparseExperts:
    def test_cheaper_expert_computation(self):
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=16
        )
        cluster = ClusterSpec.p4de(2)
        dense = SimulationConfig(cluster=cluster, routing=UniformRoutingModel())
        sparse = SimulationConfig(
            cluster=cluster,
            block_sparse_experts=True,
            routing=UniformRoutingModel(),
        )
        t_dense = simulate_program(graph.program, config=dense)
        t_sparse = simulate_program(graph.program, config=sparse)
        expert_ops = {"expert_ffn", "expert_ffn_dx", "expert_ffn_dw"}
        assert t_sparse.total_time_of(expert_ops) < t_dense.total_time_of(
            expert_ops
        )
        # only expert ops changed
        assert t_sparse.total_time_of({"attention"}) == t_dense.total_time_of(
            {"attention"}
        )

    def test_savings_match_capacity_factor(self):
        """With cf=1.25, padding is ~20% of slots; block-sparse kernels
        should save roughly that fraction of expert time."""
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=16
        )
        cluster = ClusterSpec.p4de(2)
        expert_ops = {"expert_ffn"}
        t_dense = simulate_program(
            graph.program,
            config=SimulationConfig(cluster=cluster, routing=UniformRoutingModel()),
        ).total_time_of(expert_ops)
        t_sparse = simulate_program(
            graph.program,
            config=SimulationConfig(
                cluster=cluster,
                block_sparse_experts=True,
                routing=UniformRoutingModel(),
            ),
        ).total_time_of(expert_ops)
        ratio = t_sparse / t_dense
        assert 0.7 < ratio < 0.95


class TestGradSyncDefer:
    def test_valid_permutation(self, tiny_graph):
        p = tiny_graph.program.clone()
        out = GradSyncDeferPass().run(p)
        validate(out)
        assert {i.uid for i in out.instructions} == {
            i.uid for i in tiny_graph.program.instructions
        }

    def test_numeric_equivalence(self, tiny_graph, tiny_values):
        p = tiny_graph.program.clone()
        out = GradSyncDeferPass().run(p)
        base = run_program(tiny_graph.program, fresh_values(tiny_values))
        moved = run_program(out, fresh_values(tiny_values))
        assert np.array_equal(base[0][tiny_graph.loss], moved[0][tiny_graph.loss])

    def test_allreduces_yield_to_next_a2a(self, tiny_graph):
        """After the pass, no all-reduce sits between a gradient producer
        and the next all-to-all that used to follow it."""
        p = tiny_graph.program.clone()
        orig = list(p.instructions)
        out = GradSyncDeferPass().run(p)
        pos = {ins.uid: i for i, ins in enumerate(out.instructions)}
        n = len(orig)
        next_a2a = [None] * n
        nxt = None
        for i in range(n - 1, -1, -1):
            if orig[i].op == "all_to_all":
                nxt = orig[i].uid
            next_a2a[i] = nxt
        for i, ins in enumerate(orig):
            if ins.op == "allreduce" and next_a2a[i] is not None:
                consumer = next(
                    (
                        c
                        for c in orig
                        if ins.outputs[0] in c.inputs
                    ),
                    None,
                )
                target_ok = pos[ins.uid] > pos[next_a2a[i]]
                legal_block = (
                    consumer is not None
                    and pos[consumer.uid] <= pos[next_a2a[i]]
                )
                assert target_ok or legal_block

    def test_improves_interference_case(self):
        """On the V100/GPT2-L setting where the passes interfere, the
        yield pass recovers (and exceeds) the lost speedup."""
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_l_moe(num_layers=8), batch=8, seq=512, num_gpus=32
        )
        cluster = ClusterSpec.for_gpus("v100", 32)

        def measure(**flags):
            policy = PlanPolicy(**flags)
            opt, _ = LancetOptimizer(cluster, policy=policy).optimize(graph)
            sim = SimulationConfig(
                cluster=cluster,
                padded_a2a=False,
                routing=SyntheticRoutingModel(seed=1),
            )
            return simulate_program(opt, config=sim).makespan

        full = measure()
        yielded = measure(defer_allreduce=True)
        assert yielded < full

    def test_noop_without_allreduce(self, tiny_cfg):
        g = build_training_graph(tiny_cfg, batch=4, seq=8, num_gpus=1)
        p = g.program.clone()
        before = [i.uid for i in p.instructions]
        out = GradSyncDeferPass().run(p)
        assert [i.uid for i in out.instructions] == before
