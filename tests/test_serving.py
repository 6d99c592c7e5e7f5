"""repro.serving: coalescing, nearest-signature hot swaps, trainer requests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import (
    PlanIdentity,
    PlanStore,
    Scenario,
    graph_fingerprint,
)
from repro.serving import (
    NEAREST_PREDICTED_GAP_BOUND,
    PlanServer,
    compile_many,
)

SC = Scenario.preset("tiny/a100x8")


@pytest.fixture()
def store(tmp_path):
    return PlanStore(tmp_path / "plans")


class TestCoalescing:
    def test_identical_burst_runs_planner_once(self, store):
        with PlanServer(store) as server:
            plans = server.compile_many([SC] * 16)
        assert len(plans) == 16
        assert len({p.fingerprint for p in plans}) == 1
        assert server.counters["planner_runs"] == 1
        assert server.counters["coalesced"] == 15
        assert server.counters["requests"] == 16

    def test_distinct_workloads_do_not_coalesce(self, store):
        other = SC.with_(num_gpus=16)
        with PlanServer(store) as server:
            plans = server.compile_many([SC, other])
        assert plans[0].fingerprint != plans[1].fingerprint
        assert server.counters["planner_runs"] == 2
        assert server.counters["coalesced"] == 0

    def test_repeat_hits_memory_then_disk(self, store):
        with PlanServer(store) as server:
            assert server.serve(SC).origin == "planned"
            assert server.serve(SC).origin == "memory"
        # a fresh server over the same directory is warm from disk
        with PlanServer(store) as other:
            result = other.serve(SC)
        assert result.origin == "store"
        assert result.plan.from_store

    def test_memory_hits_digest_the_request_key_once(self, store, monkeypatch):
        """A memory hit costs a dict lookup: 100 repeats of one scenario
        hash its request key at most once."""
        import repro.api.store as store_mod

        digests = []
        real = store_mod.canonical_digest

        def counting(payload):
            digests.append(payload)
            return real(payload)

        with PlanServer(store) as server:
            server.serve(SC)
            monkeypatch.setattr(store_mod, "canonical_digest", counting)
            results = [server.submit(SC).result() for _ in range(100)]
        assert {r.origin for r in results} == {"memory"}
        assert len(digests) <= 1

    def test_preset_memory_hits_digest_the_request_key_once(
        self, store, monkeypatch
    ):
        """A client that looks its scenario up by preset name on every
        request gets the one shared preset object, so the request key
        memo hits: 100 repeats hash the key at most once."""
        import repro.api.store as store_mod

        digests = []
        real = store_mod.canonical_digest

        def counting(payload):
            digests.append(payload)
            return real(payload)

        with PlanServer(store) as server:
            server.serve(Scenario.preset("tiny/a100x8"))
            monkeypatch.setattr(store_mod, "canonical_digest", counting)
            results = [
                server.serve(Scenario.preset("tiny/a100x8")) for _ in range(100)
            ]
        assert {r.origin for r in results} == {"memory"}
        assert len(digests) <= 1

    def test_memory_hits_build_no_future(self, store, monkeypatch):
        """A memory hit hands out the key's cached, finished answer:
        1000 hits construct no ``Future`` and all return the same one."""
        import repro.serving.server as server_mod

        built = []

        class CountingFuture(server_mod.Future):
            def __init__(self) -> None:
                super().__init__()
                built.append(self)

        monkeypatch.setattr(server_mod, "Future", CountingFuture)
        with PlanServer(store) as server:
            server.serve(SC)
            assert built  # the cold request and its memory answer
            built.clear()
            answers = [server.submit(SC) for _ in range(1000)]
            assert server.counters["memory_hits"] == 1000
        assert built == []
        assert all(answer is answers[0] for answer in answers)
        assert answers[0].done()
        result = answers[0].result()
        assert result.origin == "memory" and result.latency_s == 0.0

    def test_healthy_scenario_store_hit_reads_its_entry_once(
        self, store, monkeypatch
    ):
        with PlanServer(store) as server:
            server.serve(SC)
        fresh = PlanStore(store.root)
        loads = []
        real = fresh._load

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fresh, "_load", counting)
        with PlanServer(fresh) as server:
            assert server.serve(SC).origin == "store"
            assert server.serve(SC).origin == "memory"
        assert len(loads) == 1
        assert fresh.stats["hits"] == fresh.stats["scenario_hits"] == 1

    def test_closed_server_rejects_requests(self, store):
        server = PlanServer(store)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(SC)

    def test_worker_error_propagates_and_counts(self, store, monkeypatch):
        import repro.serving.server as server_mod

        def boom(*args, **kwargs):
            raise RuntimeError("planner exploded")

        monkeypatch.setattr(server_mod, "plan_resolved", boom)
        with PlanServer(store) as server:
            future = server.submit(SC)
            with pytest.raises(RuntimeError, match="planner exploded"):
                future.result()
            assert server.counters["errors"] == 1
            assert server.stats()["inflight"] == 0


class TestNearestServing:
    def test_nearest_answer_then_hot_swap(self, store):
        drifted = SC.with_(routing_seed=5)
        with PlanServer(store) as server:
            server.serve(SC)
            result = server.serve(drifted)
            assert result.origin == "nearest"
            assert 0 < result.distance <= server.max_distance

            server.drain()
            assert server.counters["hot_swaps"] == 1
            (event,) = server.events
            assert event.distance == result.distance
            assert event.seconds > 0
            assert event.predicted_gap <= NEAREST_PREDICTED_GAP_BOUND

            # the exact re-plan was swapped into the memory cache...
            after = server.serve(drifted)
            assert after.origin == "memory"
            assert (
                after.plan.predicted_iteration_ms == event.exact_predicted_ms
            )
        # ...and into the shared store (exact bucket, no nearest needed)
        with PlanServer(store, max_distance=0) as other:
            assert other.serve(drifted).origin == "store"

    def test_hot_swap_replaces_the_memory_answer(self, store):
        """The neighbor is cached as the key's memory answer before its
        exact run can land; once the run lands, every memory hit of the
        key carries the exact plan."""
        from repro.api.compiler import plan_resolved
        from repro.faults import FlakyPlanner

        drifted = SC.with_(routing_seed=5)
        planner = FlakyPlanner(plan_resolved, delay_s=0.2)
        with PlanServer(store, planner=planner) as server:
            server.serve(SC)
            served = server.serve(drifted)
            assert served.origin == "nearest"
            [run] = server._runs.values()  # the exact run, still stalled
            stale = server.submit(drifted).result()
            assert stale.origin == "memory" and stale.plan is served.plan
            server.drain()
            exact = run.future.result()
            first, second = server.submit(drifted), server.submit(drifted)
        assert first is second
        assert first.result().origin == "memory"
        assert first.result().plan is exact
        assert exact is not served.plan
        assert server.counters["hot_swaps"] == 1

    def test_identical_probes_share_one_background_replan(self, store):
        drifted = SC.with_(routing_seed=5)
        with PlanServer(store, memory_cache_size=0) as server:
            server.serve(SC)
            runs_before = server.counters["planner_runs"]
            first = server.serve(drifted)
            second = server.serve(drifted)
            assert {first.origin, second.origin} <= {"nearest", "store"}
            server.drain()
            # one exact re-plan serves every probe of the same bucket
            assert server.counters["planner_runs"] == runs_before + 1
            assert server.counters["hot_swaps"] == 1

    def test_run_landing_mid_lookup_is_not_planned_twice(
        self, store, monkeypatch
    ):
        """A request whose exact lookup missed just before the key's run
        landed looks again: it neither starts a second run nor caches
        its neighbor over the exact plan."""
        from repro.api.compiler import plan_resolved
        from repro.faults import FlakyPlanner

        drifted = SC.with_(routing_seed=5)
        planner = FlakyPlanner(plan_resolved, delay_s=0.3)
        with PlanServer(store, planner=planner, memory_cache_size=0) as server:
            server.serve(SC)
            assert server.serve(drifted).origin == "nearest"
            [run] = server._runs.values()  # the exact run, still stalled
            real_nearest = store.nearest

            def nearest_after_landing(*args, **kwargs):
                run.future.result()  # lands between the miss and here
                return real_nearest(*args, **kwargs)

            monkeypatch.setattr(store, "nearest", nearest_after_landing)
            assert server.serve(drifted).origin == "store"
            server.drain()
        assert server.counters["planner_runs"] == 2
        assert server.counters["hot_swaps"] == 1

    def test_hot_swap_events_keep_the_last_few(self, store, monkeypatch):
        import repro.serving.server as server_mod

        monkeypatch.setattr(server_mod, "HOT_SWAP_EVENTS", 2)
        drifted = [SC.with_(routing_seed=seed) for seed in (5, 6, 7)]
        with PlanServer(store) as server:
            server.serve(SC)
            for sc in drifted:
                assert server.serve(sc).origin == "nearest"
                server.drain()
            keys = [server.request_key(sc) for sc in drifted]
            assert server.counters["hot_swaps"] == 3
            assert [e.key for e in server.events] == keys[1:]
            assert len(server.stats()["hot_swap_events"]) == 2

    def test_out_of_radius_plans_cold(self, store):
        with PlanServer(store, max_distance=1e-9) as server:
            server.serve(SC)
            result = server.serve(SC.with_(routing_seed=5))
        assert result.origin == "planned"
        assert server.counters["hot_swaps"] == 0

    def test_nearest_disabled_plans_cold(self, store, monkeypatch):
        """``max_distance=0`` serves exact answers only: the nearest
        store lookup is skipped altogether."""
        calls = []
        real_nearest = store.nearest

        def counting(*args, **kwargs):
            calls.append(args)
            return real_nearest(*args, **kwargs)

        monkeypatch.setattr(store, "nearest", counting)
        with PlanServer(store, max_distance=0) as server:
            server.serve(SC)
            result = server.serve(SC.with_(routing_seed=5))
        assert result.origin == "planned"
        assert server.counters["nearest_hits"] == 0
        assert calls == []


class TestWarmPool:
    def test_concurrent_runs_never_share_an_optimizer(self, store):
        """More planner threads than cores race for the warm optimizers
        of one base identity: every answer still equals a cold compile
        (the predictions differ per bucket, so a run priced under another
        run's signatures shows), and the pool stays bounded."""
        import sys

        from repro import GPT2MoEConfig, LancetOptimizer, build_training_graph
        from repro.api import compile
        from repro.runtime import ClusterSpec, SyntheticRoutingModel
        from repro.serving.server import WARM_OPTIMIZERS

        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=2), batch=8, seq=64,
            num_gpus=4,
        )
        cluster = ClusterSpec.for_gpus("a100", 4)
        probe = LancetOptimizer(cluster)
        buckets = [
            probe.observe_routing(
                graph,
                SyntheticRoutingModel(
                    seed=s, concentration=0.3, hot_experts=1, hot_boost=0.5
                ),
            )
            for s in range(1, 9)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PlanServer(store, max_distance=0, max_workers=4) as server:
                keys = {
                    server.request_key(graph, cluster, signatures=b)
                    for b in buckets
                }
                assert len(keys) == len(buckets)
                futures = [
                    server.submit(graph, cluster, signatures=b)
                    for b in buckets
                ]
                answers = [f.result(timeout=120) for f in futures]
                assert len(server._warm) <= WARM_OPTIMIZERS
        finally:
            sys.setswitchinterval(interval)
        predicted = {a.plan.predicted_iteration_ms for a in answers}
        assert len(predicted) == len(buckets)
        for sigs, answer in zip(buckets, answers):
            cold = compile(graph, cluster, signatures=sigs)
            assert answer.origin == "planned"
            assert (
                answer.plan.predicted_iteration_ms
                == cold.predicted_iteration_ms
            )
            assert [
                (i.op, i.partition, tuple(i.inputs))
                for i in answer.plan.program.instructions
            ] == [
                (i.op, i.partition, tuple(i.inputs))
                for i in cold.program.instructions
            ]


class TestCompileMany:
    def test_requires_store(self):
        with pytest.raises(TypeError, match="requires a PlanStore"):
            compile_many([SC])

    def test_returns_plans_in_input_order(self, store):
        drifted = SC.with_(routing_seed=7)
        # nearest serving off: had SC's plan reached the store first,
        # the drifted request could be answered from SC's bucket (and
        # carry SC's scenario); TestNearestServing pins that path
        plans = compile_many([SC, drifted, SC], store=store, max_distance=0)
        assert len(plans) == 3
        assert plans[0].scenario == SC
        assert plans[1].scenario == drifted
        assert plans[2].fingerprint == plans[0].fingerprint
        # both buckets persisted for the next caller
        assert len(store) == 2

    def test_stats_snapshot_is_json_friendly(self, store):
        import json

        with PlanServer(store) as server:
            server.compile_many([SC] * 3)
            snapshot = server.stats()
        assert snapshot["server"]["requests"] == 3
        assert snapshot["store_entries"] == 1
        json.dumps(snapshot)  # must not raise


class TestTrainerIntegration:
    def test_replans_publish_through_server(
        self, tiny_graph, small_cluster, tmp_path
    ):
        from repro import LancetOptimizer, ReoptimizingTrainer

        store = PlanStore(tmp_path / "plans")
        with PlanServer(store) as server:
            trainer = ReoptimizingTrainer(
                tiny_graph,
                LancetOptimizer(small_cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            trainer.run(3)
            assert trainer.num_reoptimizations >= 1
            assert server.counters["planner_runs"] >= 1
        assert len(store) >= 1

        # a second trainer, through a fresh server over the same store,
        # reuses the stored re-plans instead of re-running the planner
        with PlanServer(store, max_distance=0) as fresh:
            other = ReoptimizingTrainer(
                tiny_graph,
                LancetOptimizer(small_cluster),
                drift_threshold=0.0,
                seed=0,
                server=fresh,
            )
            other.run(3)
        assert any(e.source == "store" for e in other.events)

    def test_published_replan_is_served_warm(
        self, tiny_graph, small_cluster, tmp_path
    ):
        from repro import LancetOptimizer, ReoptimizingTrainer

        store = PlanStore(tmp_path / "plans")
        with PlanServer(store, max_distance=0) as server:
            trainer = ReoptimizingTrainer(
                tiny_graph,
                LancetOptimizer(small_cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            trainer.run(2)
            planned = [e for e in trainer.events if e.source == "planned"]
            assert planned
            # the planner run landed in the server's memory cache under
            # the canonical store key of the trainer's request
            key = PlanIdentity(
                graph_fingerprint(tiny_graph.program),
                small_cluster,
                replace(trainer.optimizer.policy, skew_aware=True),
                trainer.optimizer.framework,
                trainer.plan_signatures,
            ).key(store.digits)
            assert planned[-1].key == key
            assert server._memory.get(key) is not None
            again = server.serve(
                tiny_graph,
                small_cluster,
                policy=replace(trainer.optimizer.policy, skew_aware=True),
                signatures=trainer.plan_signatures,
            )
        assert again.origin == "memory" and again.key == key

    def test_server_replan_fingerprints_the_graph_once(
        self, tiny_graph, small_cluster, store, monkeypatch
    ):
        """The trainer resolves its request once and hands the resolved
        workload to the server, which keys on it without fingerprinting
        the graph a second time."""
        import repro.api.compiler as compiler_mod
        import repro.serving.server as server_mod
        import repro.train.loop as loop_mod
        from repro import LancetOptimizer, ReoptimizingTrainer

        calls = []
        real = compiler_mod.graph_fingerprint

        def counting(graph_or_program):
            calls.append(graph_or_program)
            return real(graph_or_program)

        for module in (compiler_mod, server_mod, loop_mod):
            monkeypatch.setattr(module, "graph_fingerprint", counting)
        with PlanServer(store, max_distance=0) as server:
            trainer = ReoptimizingTrainer(
                tiny_graph,
                LancetOptimizer(small_cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            calls.clear()
            trainer.run(3)
        planned = [e for e in trainer.events if e.source == "planned"]
        assert planned
        assert len(calls) == trainer.num_reoptimizations

    def test_placed_requests_are_filed_under_their_placed_key(
        self, tiny_graph, small_cluster, store, tiny_swapped_placement
    ):
        """A plan compiled under an expert placement must not answer a
        placement-free request from the server's memory: the placement
        is part of the request key, which is the key ``put`` files the
        plan under."""
        with PlanServer(store) as server:
            placed = server.serve(
                tiny_graph.program,
                small_cluster,
                placement=tiny_swapped_placement,
            )
            assert placed.origin == "planned"
            assert placed.plan.placement == tiny_swapped_placement
            assert PlanIdentity.of(placed.plan).key(store.digits) == placed.key
            assert server._memory.get(placed.key).result().plan is placed.plan
            result = server.serve(tiny_graph.program, small_cluster)
            assert result.key != placed.key
            with pytest.raises(TypeError, match="placement"):
                server.serve(SC, placement=tiny_swapped_placement)
        assert result.origin == "planned"
        assert result.plan.placement is None
