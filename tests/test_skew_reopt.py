"""Skew-aware cost model + online re-optimization loop.

Covers the acceptance criteria of the skew-aware subsystem:

- routing signatures summarize realized dispatch distributions;
- under uniform routing the skew-aware machinery reduces to the legacy
  static-shape approximation *bit-for-bit* (plans and predictions);
- under hot-expert routing (bottleneck >= 2x) the skew-aware plan's
  per-device simulated iteration time beats the uniform plan's;
- prediction caches key on the routing signature, so stale
  uniform-routing entries are never reused after re-optimization;
- :class:`ReoptimizingTrainer` re-plans on drift, records wall time,
  and never perturbs the numeric training trajectory.
"""

import numpy as np
import pytest

from repro import GPT2MoEConfig, build_training_graph
from repro.core import LancetOptimizer
from repro.runtime import (
    GroundTruthCost,
    RoutingSignature,
    SimulationConfig,
    SyntheticRoutingModel,
    UniformRoutingModel,
    observed_routing_signatures,
    simulate_cluster,
)
from repro.train import ReoptimizingTrainer, Trainer

HOT = dict(concentration=0.5, hot_experts=1, hot_boost=0.7)


@pytest.fixture(scope="module")
def small_graph():
    cfg = GPT2MoEConfig.gpt2_s_moe(num_layers=4)
    return build_training_graph(cfg, batch=8, seq=256, num_gpus=16)


class TestRoutingSignature:
    def test_uniform_detection(self):
        sig = RoutingSignature.uniform(8)
        assert sig.is_uniform and sig.bottleneck == 1.0

    def test_from_balanced_pair_bytes_is_exactly_uniform(self):
        pair = np.full((4, 4), 100.0)
        sig = RoutingSignature.from_pair_bytes(pair)
        assert sig.load == (1.0, 1.0, 1.0, 1.0)

    def test_from_counts_hot_owner(self):
        # expert 0 (owned by device 0) receives double traffic
        counts = np.full((4, 4), 10)
        counts[:, 0] = 20
        sig = RoutingSignature.from_counts(counts, bytes_per_token=4)
        assert sig.bottleneck == max(sig.load) == sig.load[0]
        assert sig.load[0] > 1.0
        assert sig.mean_send_bytes == pytest.approx(50 * 4)

    def test_drift_and_key(self):
        a = RoutingSignature((1.0, 1.0), mean_send_bytes=1000.0)
        b = RoutingSignature((1.5, 0.5), mean_send_bytes=1000.0)
        assert a.drift_from(a) == 0.0
        assert a.drift_from(b) == pytest.approx(0.5)
        # volume changes count as drift even with identical shape
        c = RoutingSignature((1.0, 1.0), mean_send_bytes=500.0)
        assert a.drift_from(c) == pytest.approx(0.5)
        assert a.key() != b.key()
        assert a.key() == RoutingSignature(
            (1.0004, 0.9996), mean_send_bytes=1000.2
        ).key(digits=2)
        with pytest.raises(ValueError):
            a.drift_from(RoutingSignature.uniform(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            RoutingSignature(())
        with pytest.raises(ValueError):
            RoutingSignature((1.0, -1.0))

    def test_fully_starved_device_is_legal(self):
        """Extreme clipping can leave a device with zero accepted
        traffic; that must summarize, not crash the observation step."""
        pair = np.array([[100.0, 0.0], [0.0, 0.0]])
        sig = RoutingSignature.from_pair_bytes(pair)
        assert sig.load[1] == 0.0
        assert sig.bottleneck == sig.load[0] == 2.0
        assert sig.drift_from(RoutingSignature.uniform(2)) > 0


class TestUniformReduction:
    """Under uniform routing everything must match the legacy path."""

    def test_estimates_bit_for_bit(self, small_graph, a100_16):
        opt_plain = LancetOptimizer(a100_16)
        opt_unif = LancetOptimizer(a100_16)
        sigs = opt_unif.observe_routing(small_graph, UniformRoutingModel())
        assert sigs and all(s.is_uniform for s in sigs.values())
        p = small_graph.program
        for instr in p.instructions:
            assert opt_unif.costs.duration_ms(instr, p) == (
                opt_plain.costs.duration_ms(instr, p)
            )

    def test_plans_and_predictions_bit_for_bit(self, small_graph, a100_16):
        opt_plain = LancetOptimizer(a100_16)
        prog_plain, rep_plain = opt_plain.optimize(small_graph)
        opt_unif = LancetOptimizer(a100_16)
        opt_unif.observe_routing(small_graph, UniformRoutingModel())
        prog_unif, rep_unif = opt_unif.optimize(small_graph)

        key = lambda ins: (ins.op, ins.partition, tuple(ins.inputs))
        assert list(map(key, prog_plain.instructions)) == list(
            map(key, prog_unif.instructions)
        )
        assert (
            rep_plain.predicted_iteration_ms == rep_unif.predicted_iteration_ms
        )
        assert not rep_plain.skew_aware and rep_unif.skew_aware


class TestSkewAwareAccuracy:
    def test_signature_matches_ground_truth_realization(
        self, small_graph, a100_16
    ):
        """Signatures come from the exact realization the per-device
        simulator prices, so hotness must match the realized spread."""
        routing = SyntheticRoutingModel(seed=1, **HOT)
        config = SimulationConfig(
            cluster=a100_16, padded_a2a=False, routing=routing
        )
        sigs = observed_routing_signatures(small_graph.program, config)
        assert sigs
        assert max(s.bottleneck for s in sigs.values()) >= 2.0

    def test_skew_estimate_closer_to_cluster_ground_truth(
        self, small_graph, a100_16
    ):
        """Per collective: the skew-conditioned estimate lands nearer the
        device-resolved completion time than the uniform approximation."""
        routing = SyntheticRoutingModel(seed=1, **HOT)
        config = SimulationConfig(
            cluster=a100_16, padded_a2a=False, routing=routing
        )
        gt = GroundTruthCost(config)
        opt_unif = LancetOptimizer(a100_16)
        opt_skew = LancetOptimizer(a100_16)
        opt_skew.observe_routing(small_graph, routing)

        p = small_graph.program
        seen = set()
        for instr in p.instructions:
            if instr.op != "all_to_all":
                continue
            layer = instr.attrs.get("moe_layer")
            if layer in seen:
                continue
            seen.add(layer)
            real = float(gt.collective_device_times(instr, p).max())
            err_unif = abs(opt_unif.costs.duration_ms(instr, p) - real)
            err_skew = abs(opt_skew.costs.duration_ms(instr, p) - real)
            assert err_skew < err_unif
        assert seen


class TestSkewAwarePlanWins:
    def test_hot_routing_beats_uniform_plan(self, small_graph, a100_16):
        """Acceptance: at >= 2x hotness the skew-aware plan's simulated
        per-device iteration time beats the uniform-approximation plan."""
        routing = SyntheticRoutingModel(seed=1, **HOT)

        opt_unif = LancetOptimizer(a100_16)
        prog_unif, _ = opt_unif.optimize(small_graph)
        opt_skew = LancetOptimizer(a100_16)
        sigs = opt_skew.observe_routing(small_graph, routing)
        prog_skew, rep_skew = opt_skew.optimize(small_graph)

        assert max(s.bottleneck for s in sigs.values()) >= 2.0
        assert rep_skew.skew_aware
        assert rep_skew.dw_schedule.skew_aware
        assert rep_skew.partition.skew_aware

        def iter_ms(prog):
            sim = SimulationConfig(
                cluster=a100_16, padded_a2a=False, routing=routing
            )
            return simulate_cluster(prog, config=sim).makespan

        assert iter_ms(prog_skew) < iter_ms(prog_unif)


class TestSignatureKeyedCaches:
    def test_no_stale_entries_across_retargeting(self, small_graph, a100_16):
        """The same estimator, re-targeted uniform -> hot -> uniform,
        must never serve an estimate cached under another signature."""
        routing = SyntheticRoutingModel(seed=1, **HOT)
        opt = LancetOptimizer(a100_16)
        p = small_graph.program
        a2a = next(
            i
            for i in p.instructions
            if i.op == "all_to_all" and i.attrs.get("irregular")
        )
        t_uniform = opt.costs.duration_ms(a2a, p)  # caches uniform entry
        sigs = opt.observe_routing(small_graph, routing)
        t_hot = opt.costs.duration_ms(a2a, p)
        assert t_hot != t_uniform  # stale uniform entry not reused
        opt.set_routing_signatures(None)
        assert opt.costs.duration_ms(a2a, p) == t_uniform
        opt.set_routing_signatures(sigs)
        assert opt.costs.duration_ms(a2a, p) == t_hot


class TestReoptimizingTrainer:
    @pytest.fixture(scope="class")
    def tiny_setup(self, tiny_graph, small_cluster):
        return tiny_graph, small_cluster

    def test_reoptimizes_on_drift_and_records_wall_time(self, tiny_setup):
        graph, cluster = tiny_setup
        tr = ReoptimizingTrainer(
            graph,
            LancetOptimizer(cluster),
            drift_threshold=0.0,
            seed=0,
        )
        tr.run(3)
        assert tr.num_reoptimizations >= 1
        misses = [e for e in tr.events if e.source == "planned"]
        assert misses and all(e.wall_seconds > 0 for e in misses)
        assert all(e.drift > 0 for e in tr.events)
        assert tr.reoptimization_seconds == pytest.approx(
            sum(e.wall_seconds for e in tr.events)
        )

    def test_plan_cache_hits_are_free(self, tiny_setup, tmp_path):
        """A signature bucket already in the plan server's memory cache
        is answered from it: no planner run, and the trainer waits only
        for the server round trip."""
        from repro.api import PlanStore
        from repro.serving import PlanServer

        graph, cluster = tiny_setup

        def trainer(server):
            return ReoptimizingTrainer(
                graph,
                LancetOptimizer(cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )

        with PlanServer(PlanStore(tmp_path), max_distance=0) as server:
            first = trainer(server)
            first.run(3)
            assert [e.source for e in first.events] == ["planned"] * 3
            assert all(e.wall_seconds > 0 for e in first.events)
            runs = server.counters["planner_runs"]
            # a second trainer on the same trajectory asks for the same
            # keys
            second = trainer(server)
            second.run(3)
            assert server.counters["planner_runs"] == runs
        assert [e.source for e in second.events] == ["memory"] * 3
        assert all(
            e.wall_seconds > 0 and not e.warm_start and e.migrated
            for e in second.events
        )
        assert [e.key for e in second.events] == [e.key for e in first.events]
        assert second.reoptimization_seconds < first.reoptimization_seconds
        assert second.loss_curve() == first.loss_curve()

    def test_high_threshold_never_reoptimizes(self, tiny_setup):
        graph, cluster = tiny_setup
        tr = ReoptimizingTrainer(
            graph, LancetOptimizer(cluster), drift_threshold=1e9, seed=0
        )
        tr.run(3)
        assert tr.events == []

    def test_trajectory_bit_identical_to_static_schedule(self, tiny_setup):
        """Swapping re-optimized schedules mid-training must not change
        a single loss bit (Lancet's passes are numerically exact)."""
        graph, cluster = tiny_setup
        reopt = ReoptimizingTrainer(
            graph,
            LancetOptimizer(cluster),
            drift_threshold=0.0,
            seed=0,
        )
        results = reopt.run(4)
        assert reopt.num_reoptimizations >= 1  # schedules really swapped

        static_prog, _ = LancetOptimizer(cluster).optimize(graph)
        plain = Trainer(graph, program=static_prog, seed=0)
        baseline = plain.run(4)
        assert [r.losses for r in results] == [r.losses for r in baseline]
