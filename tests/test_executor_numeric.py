"""Tests for the numeric IR interpreter across simulated devices."""

import numpy as np
import pytest

from generators import fresh_values
from repro.runtime import NumericExecutor, run_program


class TestEndToEnd:
    def test_loss_finite_and_scalar(self, tiny_graph, tiny_values):
        envs = run_program(tiny_graph.program, fresh_values(tiny_values))
        for env in envs:
            loss = env[tiny_graph.loss]
            assert loss.shape == ()
            assert np.isfinite(loss)

    def test_deterministic(self, tiny_graph, tiny_values):
        e1 = run_program(tiny_graph.program, fresh_values(tiny_values))
        e2 = run_program(tiny_graph.program, fresh_values(tiny_values))
        assert np.array_equal(e1[0][tiny_graph.loss], e2[0][tiny_graph.loss])

    def test_replicated_params_stay_replicated(self, tiny_graph, tiny_values):
        """After allreduce(mean) + identical SGD, data-parallel parameters
        must remain identical across devices -- the DP invariant."""
        p = tiny_graph.program
        envs = run_program(p, fresh_values(tiny_values))
        updated = {}
        for instr in p.instructions:
            if instr.op == "sgd_update":
                updated[instr.inputs[0]] = instr.outputs[0]
        shared = set(p.params) - tiny_graph.expert_params
        assert shared
        for pid in shared:
            w0 = envs[0][updated[pid]]
            for env in envs[1:]:
                assert np.allclose(w0, env[updated[pid]], atol=1e-12), (
                    p.values[pid].name
                )

    def test_expert_params_diverge(self, tiny_graph, tiny_values):
        """Expert parameters are device-local and must not be synced."""
        p = tiny_graph.program
        envs = run_program(p, fresh_values(tiny_values))
        updated = {
            i.inputs[0]: i.outputs[0]
            for i in p.instructions
            if i.op == "sgd_update"
        }
        diverged = 0
        for pid in tiny_graph.expert_params:
            if not np.allclose(envs[0][updated[pid]], envs[1][updated[pid]]):
                diverged += 1
        assert diverged > 0

    def test_losses_differ_across_devices(self, tiny_graph, tiny_values):
        """Each device sees its own batch shard (data parallelism)."""
        envs = run_program(tiny_graph.program, fresh_values(tiny_values))
        assert not np.allclose(envs[0][tiny_graph.loss], envs[1][tiny_graph.loss])

    def test_sgd_actually_updates(self, tiny_graph, tiny_values):
        p = tiny_graph.program
        envs = run_program(p, fresh_values(tiny_values))
        moved = 0
        for instr in p.instructions:
            if instr.op == "sgd_update":
                w_old = envs[0][instr.inputs[0]]
                w_new = envs[0][instr.outputs[0]]
                if not np.allclose(w_old, w_new):
                    moved += 1
        assert moved > len(p.params) // 2


class TestExecutorAPI:
    def test_wrong_device_count(self, tiny_graph, tiny_values):
        ex = NumericExecutor(tiny_graph.program, 2)
        with pytest.raises(ValueError):
            ex.run(ex.make_envs(fresh_values(tiny_values)[:1]))

    def test_unknown_op_rejected(self, tiny_graph, tiny_values):
        p = tiny_graph.program.clone()
        bad = p.instructions[0].with_(op="matmul_fused_bogus")
        p.instructions[0] = bad
        with pytest.raises((NotImplementedError, KeyError)):
            run_program(p, fresh_values(tiny_values))
