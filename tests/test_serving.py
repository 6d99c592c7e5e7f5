"""repro.serving: coalescing, nearest-signature hot swaps, publishing."""

from __future__ import annotations

import pytest

from repro.api import PlanPolicy, PlanStore, Scenario, graph_fingerprint
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
        with PlanServer(store, nearest=False) as other:
            assert other.serve(drifted).origin == "store"

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

    def test_out_of_radius_plans_cold(self, store):
        with PlanServer(store, max_distance=1e-9) as server:
            server.serve(SC)
            result = server.serve(SC.with_(routing_seed=5))
        assert result.origin == "planned"
        assert server.counters["hot_swaps"] == 0

    def test_nearest_disabled_plans_cold(self, store):
        with PlanServer(store, nearest=False) as server:
            server.serve(SC)
            result = server.serve(SC.with_(routing_seed=5))
        assert result.origin == "planned"
        assert server.counters["nearest_hits"] == 0


class TestCompileMany:
    def test_requires_store(self):
        with pytest.raises(TypeError, match="requires a PlanStore"):
            compile_many([SC])

    def test_returns_plans_in_input_order(self, store):
        drifted = SC.with_(routing_seed=7)
        # nearest serving off: had SC's plan reached the store first,
        # the drifted request could be answered from SC's bucket (and
        # carry SC's scenario); TestNearestServing pins that path
        plans = compile_many([SC, drifted, SC], store=store, nearest=False)
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
            assert trainer.store is store  # implied by server=
            trainer.run(3)
            assert trainer.num_reoptimizations >= 1
            assert server.counters["published"] >= 1
        assert len(store) >= 1

        # a second trainer over the same store reuses the published
        # re-plans instead of re-running the planner
        other = ReoptimizingTrainer(
            tiny_graph,
            LancetOptimizer(small_cluster),
            drift_threshold=0.0,
            seed=0,
            store=store,
        )
        other.run(3)
        assert any(e.source == "store" for e in other.events)

    def test_published_replan_is_served_warm(
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
            trainer.run(2)
            published = server.counters["published"]
            if not published:
                pytest.skip("no drift on this realization")
            # the publish path installs the plan in the server's memory
            # cache under its canonical store key
            key = store.key_for(
                graph_fingerprint(tiny_graph.program),
                small_cluster,
                PlanPolicy.from_optimizer(trainer.optimizer),
                trainer.optimizer.framework,
                trainer.plan_signatures,
            )
            assert server._memory.get(key) is not None

    def test_publish_files_placed_plans_under_their_placed_key(
        self, tiny_graph, small_cluster, store, tiny_swapped_placement
    ):
        """A plan compiled under an expert placement must not answer a
        placement-free request from the server's memory: ``publish``
        keys it the way ``store.put`` does, placement included."""
        from repro.api import Plan, compile

        unplaced = compile(tiny_graph.program, small_cluster)
        placed = Plan(
            program=unplaced.program,
            cluster=unplaced.cluster,
            policy=unplaced.policy,
            fingerprint=unplaced.fingerprint,
            predicted_iteration_ms=unplaced.predicted_iteration_ms,
            framework=unplaced.framework,
            signatures=unplaced.signatures,
            placement=tiny_swapped_placement,
        )
        with PlanServer(store) as server:
            server.publish(placed)
            assert server._memory.get(store.key_of(placed)) is placed
            result = server.serve(tiny_graph.program, small_cluster)
        assert result.origin == "planned"
        assert result.plan.placement is None
