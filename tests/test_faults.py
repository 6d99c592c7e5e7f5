"""Fault model, injector fidelity, detector, and trainer recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GPT2MoEConfig, LancetOptimizer, build_training_graph
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RemappedRoutingModel,
    StragglerDetector,
    derive_degraded,
)
from repro.runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_cluster,
)


@pytest.fixture(scope="module")
def cluster8() -> ClusterSpec:
    return ClusterSpec.for_gpus("a100", 8)


@pytest.fixture(scope="module")
def graph8():
    return build_training_graph(
        GPT2MoEConfig.tiny(), batch=8, seq=16, num_gpus=8
    )


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike", target=0)
        with pytest.raises(ValueError):
            FaultSpec("straggler", target=0, severity=0.5)  # must slow down
        with pytest.raises(ValueError):
            FaultSpec("nic_degrade", target=0, severity=1.5)  # a fraction
        with pytest.raises(ValueError):
            FaultSpec("straggler", target=0, start_step=5, end_step=5)

    def test_active_window_is_half_open(self):
        f = FaultSpec("straggler", target=1, start_step=3, end_step=7)
        assert not f.active_at(2)
        assert f.active_at(3) and f.active_at(6)
        assert not f.active_at(7)
        persistent = FaultSpec("straggler", target=1, start_step=3)
        assert persistent.active_at(10**9)

    def test_round_trip(self):
        f = FaultSpec("nic_degrade", target=2, severity=0.25, start_step=1)
        assert FaultSpec.from_dict(f.to_dict()) == f


class TestFaultSchedule:
    def test_round_trip_and_active_set(self):
        sched = FaultSchedule(
            (
                FaultSpec("straggler", 1, severity=2.0, start_step=0,
                          end_step=4),
                FaultSpec("rank_loss", 3, start_step=2),
            )
        )
        assert FaultSchedule.from_dict(sched.to_dict()) == sched
        assert [f.kind for f in sched.active_at(0)] == ["straggler"]
        assert {f.kind for f in sched.active_at(3)} == {
            "straggler", "rank_loss",
        }
        assert [f.kind for f in sched.active_at(9)] == ["rank_loss"]
        assert 0 in sched.transition_steps()
        assert {2, 4} <= set(sched.transition_steps())

    def test_random_is_seed_deterministic(self):
        a = FaultSchedule.random(8, 8, seed=7)
        b = FaultSchedule.random(8, 8, seed=7)
        c = FaultSchedule.random(8, 8, seed=8)
        assert a == b
        assert a != c
        assert all(f.kind in FAULT_KINDS for f in a)


class TestDeriveDegraded:
    def test_straggler_multiplies_slowdown(self, cluster8):
        deg = derive_degraded(
            cluster8,
            [
                FaultSpec("straggler", 2, severity=2.0),
                FaultSpec("straggler", 2, severity=1.5),
            ],
        )
        assert deg.slowdowns[2] == pytest.approx(3.0)
        assert deg.worst_slowdown == pytest.approx(3.0)
        assert deg.spec is cluster8  # no network fault: spec unchanged

    def test_nic_degrade_rescales_worst_node(self):
        cluster = ClusterSpec.for_gpus("a100", 16)  # 2 nodes
        deg = derive_degraded(
            cluster,
            [
                FaultSpec("nic_degrade", 0, severity=0.5),
                FaultSpec("nic_degrade", 1, severity=0.25),
            ],
        )
        # worst node dominates: every inter-node path prices at 1/4
        assert deg.spec.node_nic_gbps == pytest.approx(
            cluster.node_nic_gbps * 0.25
        )
        assert deg.spec.alpha_inter_us == pytest.approx(
            cluster.alpha_inter_us / 0.25
        )
        assert deg.spec.intra_bw_gbps == cluster.intra_bw_gbps

    def test_rank_loss_buddy_is_same_node_first(self):
        cluster = ClusterSpec.for_gpus("a100", 16)  # 2 nodes of 8
        deg = derive_degraded(cluster, [FaultSpec("rank_loss", 9)])
        assert deg.lost_ranks == (9,)
        ((lost, buddy),) = deg.buddy_of
        assert lost == 9 and buddy == 10  # same node, next rank
        assert deg.slowdowns[10] == pytest.approx(2.0)  # 1 + k shards
        assert deg.slowdowns[9] == 1.0  # ghost at nominal speed

    def test_plan_spec_folds_worst_slowdown_into_gpu(self, cluster8):
        deg = derive_degraded(cluster8, [FaultSpec("straggler", 0, 2.0)])
        assert deg.plan_spec.gpu.peak_tflops == pytest.approx(
            cluster8.gpu.peak_tflops / 2.0
        )
        assert deg.plan_spec.name != cluster8.name

    def test_invalid_targets(self, cluster8):
        with pytest.raises(ValueError):
            derive_degraded(cluster8, [FaultSpec("straggler", 8)])
        with pytest.raises(ValueError):
            derive_degraded(cluster8, [FaultSpec("nic_degrade", 1, 0.5)])
        with pytest.raises(ValueError):
            derive_degraded(
                cluster8,
                [FaultSpec("rank_loss", r) for r in range(8)],
            )


class TestRemappedRoutingModel:
    def test_folds_rows_and_columns(self):
        base = SyntheticRoutingModel(seed=3)
        remap = RemappedRoutingModel(base, ((1, 2),))
        args = ("layer0", 4, 8, 64, 1.25)
        counts = remap.counts_for(*args)
        raw = base.counts_for(*args)
        assert counts[1].sum() == 0
        assert counts[2].sum() == raw[1].sum() + raw[2].sum()
        pair = remap.pair_bytes_for(*args, 2.0)
        assert pair[1, :].sum() == 0 and pair[:, 1].sum() == 0
        raw_pair = np.asarray(base.pair_bytes_for(*args, 2.0))
        assert pair.sum() == pytest.approx(raw_pair.sum())


class TestFaultInjector:
    @pytest.fixture(scope="class")
    def template(self, cluster8):
        return SimulationConfig(
            cluster=cluster8, routing=SyntheticRoutingModel(seed=11)
        )

    def test_clean_step_returns_template_object(self, template):
        sched = FaultSchedule(
            (FaultSpec("straggler", 1, severity=2.0, start_step=5),)
        )
        injector = FaultInjector(template, sched)
        assert injector.config_at(0) is template  # bit-identical for free

    def test_faulted_timeline_matches_degraded_config(
        self, template, graph8
    ):
        sched = FaultSchedule(
            (
                FaultSpec("straggler", 1, severity=2.0, start_step=2),
                FaultSpec("rank_loss", 5, start_step=2),
            )
        )
        injector = FaultInjector(template, sched)
        via_injector = injector.simulate(graph8.program, step=3)
        direct = simulate_cluster(
            graph8.program, config=injector.config_at(3)
        )
        for a, b in zip(via_injector.devices, direct.devices):
            assert a.intervals == b.intervals
        # the straggler slows the cluster down
        clean = injector.simulate(graph8.program, step=0)
        assert via_injector.makespan > clean.makespan

    def test_batch_path_is_bit_identical(self, template, graph8):
        sched = FaultSchedule.random(8, 8, seed=5, horizon=20)
        injector = FaultInjector(template, sched)
        steps = sorted(set(sched.transition_steps()))
        batch = injector.simulate_batch(graph8.program, steps)
        for idx, step in enumerate(steps):
            scalar = injector.simulate(graph8.program, step)
            batched = batch.timeline(idx)
            for a, b in zip(scalar.devices, batched.devices):
                assert a.intervals == b.intervals

    def test_ghost_rank_has_zero_comm_traffic(self, template, graph8):
        sched = FaultSchedule((FaultSpec("rank_loss", 3, start_step=0),))
        injector = FaultInjector(template, sched)
        cfg = injector.config_at(0)
        sig = cfg.routing.pair_bytes_for("probe", 8, 8, 64, 1.25, 2.0)
        assert sig[3, :].sum() == 0 and sig[:, 3].sum() == 0


class TestStragglerDetector:
    def test_transient_blip_is_absorbed(self):
        det = StragglerDetector(4, patience=3)
        base = [10.0, 10.0, 10.0, 10.0]
        blip = [10.0, 25.0, 10.0, 10.0]
        faults, _ = det.observe(0, base)
        assert not faults
        faults, _ = det.observe(1, blip)  # one bad step: not persistent
        assert not faults
        for step in range(2, 6):
            faults, _ = det.observe(step, base)
            assert not faults
        assert det.flagged == ()

    def test_persistent_straggler_flagged_with_accurate_estimate(self):
        det = StragglerDetector(4)
        for step in range(3):
            det.observe(step, [10.0, 10.0, 10.0, 10.0])
        events = []
        for step in range(3, 12):
            faults, _ = det.observe(step, [10.0, 10.0, 30.0, 10.0])
            events.extend(faults)
        assert [e.device for e in events] == [2]
        assert events[0].ratio == pytest.approx(3.0, rel=0.01)
        assert det.slowdowns() == {2: pytest.approx(3.0, rel=0.01)}

    def test_recovery_event_fires_after_heal(self):
        det = StragglerDetector(4)
        for step in range(8):
            det.observe(step, [10.0, 10.0, 30.0, 10.0])
        assert det.flagged == (2,)
        recoveries = []
        for step in range(8, 20):
            _, recs = det.observe(step, [10.0, 10.0, 10.0, 10.0])
            recoveries.extend(recs)
        assert [r.device for r in recoveries] == [2]
        assert det.flagged == ()

    def test_needs_at_least_two_devices(self):
        with pytest.raises(ValueError):
            StragglerDetector(1)


class TestFailureAwareTrainer:
    @pytest.fixture(scope="class")
    def setting(self, tiny_graph, small_cluster):
        return tiny_graph, small_cluster

    def _run(self, graph, cluster, *, detector, steps, schedule, **kw):
        from repro.train import ReoptimizingTrainer

        optimizer = LancetOptimizer(cluster)
        trainer = ReoptimizingTrainer(
            graph,
            optimizer,
            drift_threshold=10.0,
            fault_detector=detector,
            seed=0,
            **kw,
        )
        injector = FaultInjector(
            SimulationConfig(cluster=cluster, framework=optimizer.framework),
            schedule,
        )
        for step in range(steps):
            trainer.step()
            tl = injector.simulate(trainer.program, step)
            trainer.observe_device_times(tl.per_device_compute_ms())
        return trainer, injector

    def test_detects_replans_and_recovers(self, setting):
        graph, cluster = setting
        fault = FaultSpec("straggler", 1, severity=2.0, start_step=3,
                          end_step=10)
        trainer, injector = self._run(
            graph, cluster,
            detector=StragglerDetector(cluster.num_gpus),
            steps=18,
            schedule=FaultSchedule((fault,)),
        )
        assert [e.device for e in trainer.fault_events] == [1]
        assert trainer.fault_events[0].ratio == pytest.approx(2.0, rel=0.02)
        assert [e.device for e in trainer.recovery_events] == [1]
        triggers = [e.trigger for e in trainer.events]
        assert triggers == ["fault", "recovery"]
        # while degraded, planning targeted the degraded spec...
        assert trainer.events[0].cluster != cluster.name
        # ...and after recovery planning targets the nominal cluster
        assert trainer.optimizer.cluster == cluster

    def test_post_replan_within_10pct_of_oracle(self, setting):
        graph, cluster = setting
        fault = FaultSpec("straggler", 1, severity=2.0, start_step=2)
        trainer, injector = self._run(
            graph, cluster,
            detector=StragglerDetector(cluster.num_gpus),
            steps=10,
            schedule=FaultSchedule((fault,)),
        )
        degraded = derive_degraded(cluster, [fault])
        oracle_program, _ = LancetOptimizer(degraded.plan_spec).optimize(
            graph
        )
        cfg = injector.config_at(5)
        post = simulate_cluster(trainer.program, config=cfg).makespan
        oracle = simulate_cluster(oracle_program, config=cfg).makespan
        assert post <= oracle * 1.10

    def test_migration_pricing_blocks_worthless_swaps(self, setting):
        graph, cluster = setting
        fault = FaultSpec("straggler", 1, severity=2.0, start_step=2)
        trainer, _ = self._run(
            graph, cluster,
            detector=StragglerDetector(cluster.num_gpus),
            steps=8,
            schedule=FaultSchedule((fault,)),
            migration_horizon_steps=0,  # no future to amortize over
        )
        assert trainer.events  # the re-plan still ran...
        assert not any(e.migrated for e in trainer.events)
        # ...but the schedule was never swapped: zero amortization
        # horizon means no win can beat a positive migration cost
        assert all(e.migration_cost_ms > 0 for e in trainer.events)

    def test_fault_free_run_matches_plain_trainer(self, setting):
        from repro.train import ReoptimizingTrainer

        graph, cluster = setting
        plain = ReoptimizingTrainer(
            graph, LancetOptimizer(cluster), drift_threshold=10.0, seed=0
        )
        with_detector, _ = self._run(
            graph, cluster,
            detector=StragglerDetector(cluster.num_gpus),
            steps=4,
            schedule=FaultSchedule(()),
        )
        plain.run(4)
        assert not with_detector.fault_events
        assert not with_detector.events
        # bit-identical trajectory: the fault path never engaged
        assert with_detector.loss_curve() == plain.loss_curve()

    def test_observe_requires_detector(self, setting):
        from repro.train import ReoptimizingTrainer

        graph, cluster = setting
        trainer = ReoptimizingTrainer(
            graph, LancetOptimizer(cluster), drift_threshold=10.0, seed=0
        )
        with pytest.raises(ValueError, match="fault_detector"):
            trainer.observe_device_times([1.0, 1.0])


class TestFaultContextTelemetry:
    def test_published_degraded_plan_records_fault_context(
        self, tiny_graph, small_cluster, monkeypatch
    ):
        from repro.train import ReoptimizingTrainer
        import repro.runtime.simulate as rsim

        optimizer = LancetOptimizer(small_cluster)
        trainer = ReoptimizingTrainer(
            tiny_graph,
            optimizer,
            drift_threshold=10.0,
            fault_detector=StragglerDetector(small_cluster.num_gpus),
            seed=0,
        )
        # the symmetric 2-GPU case re-plans to an identical schedule
        # (win_ms == 0), which migration pricing rightly rejects; inflate
        # the *stale* schedule's simulated cost so the swap prices in
        real_simulate = rsim.simulate_program

        def inflate_stale(program, *a, **kw):
            timeline = real_simulate(program, *a, **kw)
            if program is trainer.program:
                return type(
                    "T", (), {"makespan": timeline.makespan * 10}
                )()
            return timeline

        monkeypatch.setattr(rsim, "simulate_program", inflate_stale)
        injector = FaultInjector(
            SimulationConfig(
                cluster=small_cluster, framework=optimizer.framework
            ),
            FaultSchedule((FaultSpec("straggler", 1, 2.0, start_step=0),)),
        )
        for step in range(8):
            trainer.step()
            tl = injector.simulate(trainer.program, step)
            trainer.observe_device_times(tl.per_device_compute_ms())
        replan = trainer.events[0]
        assert replan.migrated
        ctx = replan.context
        assert ctx["trigger"] == "fault"
        assert ctx["cluster"] == trainer.optimizer.cluster.name
        assert ctx["slowdowns"]["1"] == pytest.approx(2.0, rel=0.02)


class _ScriptedDetector:
    """Stands in for :class:`StragglerDetector`: flags exactly the
    slowdowns a test hands it, on the next observation."""

    def __init__(self) -> None:
        self.pending: dict | None = None
        self.flagged: dict = {}

    def flag(self, slowdowns: dict) -> None:
        self.pending = dict(slowdowns)

    def observe(self, step, device_times_ms):
        if self.pending is None:
            return [], []
        self.flagged, self.pending = self.pending, None
        return [FaultEvent(step, d, r) for d, r in self.flagged.items()], []

    def slowdowns(self) -> dict:
        return dict(self.flagged)


class TestFaultReplanPath:
    """Fault re-plans share the drift path's lookup, keys and placement."""

    def _trainer(self, graph, cluster, optimizer=None, **kw):
        from repro.train import ReoptimizingTrainer

        detector = _ScriptedDetector()
        trainer = ReoptimizingTrainer(
            graph,
            optimizer or LancetOptimizer(cluster),
            drift_threshold=10.0,
            fault_detector=detector,
            seed=0,
            **kw,
        )
        trainer.step()
        return trainer, detector

    def _fault(self, trainer, detector, slowdowns):
        detector.flag(slowdowns)
        [event] = trainer.observe_device_times([1.0] * trainer.g)
        assert event.trigger == "fault"
        return event

    def test_fault_replan_keeps_installed_placement(
        self, tiny_graph, small_cluster, tiny_swapped_placement
    ):
        optimizer = LancetOptimizer(
            small_cluster, placement=tiny_swapped_placement
        )
        trainer, detector = self._trainer(
            tiny_graph, small_cluster, optimizer=optimizer
        )
        self._fault(trainer, detector, {1: 2.0})
        assert trainer.optimizer.cluster != small_cluster  # retargeted...
        # ...without dropping the expert layout plans assume
        assert trainer.optimizer.placement == tiny_swapped_placement

    def test_degraded_specs_with_equal_names_get_distinct_entries(
        self, tiny_graph, small_cluster
    ):
        trainer, detector = self._trainer(tiny_graph, small_cluster)
        a = self._fault(trainer, detector, {1: 2.001})
        b = self._fault(trainer, detector, {1: 2.004})
        assert a.cluster == b.cluster  # the spec names round equal...
        assert a.key != b.key  # ...the full specs key apart
        assert b.source == "planned"

    def test_fault_replan_answered_from_store(
        self, tiny_graph, small_cluster, tmp_path
    ):
        from repro.api import PlanStore
        from repro.serving import PlanServer

        store = PlanStore(tmp_path / "plans")
        with PlanServer(store) as server:
            first = self._fault(
                *self._trainer(tiny_graph, small_cluster, server=server),
                {1: 2.0},
            )
        assert first.source == "planned"
        # a second trainer, through its own server over the same store,
        # hits the same degraded spec and observation: the first
        # trainer's stored plan answers it
        with PlanServer(store) as server:
            second = self._fault(
                *self._trainer(tiny_graph, small_cluster, server=server),
                {1: 2.0},
            )
        assert second.source == "store"
        assert second.wall_seconds > 0  # the server round trip
        assert second.key == first.key

    def test_second_onset_plans_warm_through_the_server(
        self, tiny_graph, small_cluster, tmp_path
    ):
        """Each onset builds a fresh degraded-target twin, but the
        server's warm pool keeps the degraded spec's optimizer: a second
        onset with the same slowdowns re-plans warm."""
        from repro.api import PlanStore
        from repro.serving import PlanServer

        with PlanServer(PlanStore(tmp_path / "plans"), max_distance=0) as srv:
            trainer, detector = self._trainer(
                tiny_graph, small_cluster, server=srv
            )
            first = self._fault(trainer, detector, {1: 2.0})
            trainer.step()  # a new observation: a new signature bucket
            second = self._fault(trainer, detector, {1: 2.0})
        assert first.source == second.source == "planned"
        assert first.cluster == second.cluster and first.key != second.key
        assert not first.warm_start and second.warm_start
        assert second.context["slowdowns"] == {"1": 2.0}
