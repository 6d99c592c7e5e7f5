"""Graceful degradation: breaker, deadlines, retries, fallback tiers."""

from __future__ import annotations

import json
import math
import pathlib
import threading
import time
import warnings

import pytest

from repro.api import (
    PlanError,
    PlanIdentity,
    PlanStore,
    Scenario,
    compile,
    load_plan,
)
from repro.api.compiler import plan_resolved, resolve_workload
from repro.api.store import bucket_distance, signature_bucket
from repro.faults import FlakyPlanner, FlakyStore
from repro.serving import PlanServer

SC = Scenario.preset("tiny/a100x8")


@pytest.fixture()
def store(tmp_path):
    return PlanStore(tmp_path / "plans")


def _wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("timed out waiting for condition")
        time.sleep(0.005)


class TestCircuitBreaker:
    def test_opens_after_threshold_failures(self):
        from repro.serving import CircuitBreaker

        breaker = CircuitBreaker(threshold=3, cooldown_s=3600.0)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        from repro.serving import CircuitBreaker

        breaker = CircuitBreaker(threshold=2, cooldown_s=3600.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_trial_closes_or_reopens(self):
        from repro.serving import CircuitBreaker

        breaker = CircuitBreaker(threshold=1, cooldown_s=3600.0)
        breaker.record_failure()
        assert not breaker.allow()  # cooling down
        breaker.cooldown_s = 0.0  # runtime-mutable: heal immediately
        assert breaker.allow()  # the single half-open trial
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one trial at a time
        breaker.cooldown_s = 3600.0  # a failed trial must cool down again
        breaker.record_failure()
        assert breaker.state == "open"
        # trips counts closed -> open transitions only; a failed trial
        # re-opens the already-tripped breaker
        assert breaker.trips == 1
        assert not breaker.allow()
        breaker.cooldown_s = 0.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()


class TestDeadlines:
    def test_blown_deadline_on_cold_store_serves_baseline(self, store):
        with PlanServer(store) as server:
            result = server.serve(SC, deadline_s=0.0)
            assert result.origin == "baseline"
            assert result.reason == "deadline"
            assert result.plan.meta["baseline"] is True
            assert server.counters["deadline_hits"] == 1
            assert server.counters["baseline_plans"] == 1
            # the planner was healthy, so the miss heals in the
            # background and the next request is warm -- with a *real*
            # plan, never the cached baseline
            server.drain()
            healed = server.serve(SC)
            assert healed.origin == "memory"
            assert not healed.plan.meta.get("baseline")

    def test_blown_deadline_with_warm_store_serves_stale(self, store):
        with PlanServer(store) as server:
            server.serve(SC)  # warm the bucket
        # far-drifted request: outside the nearest radius, so only the
        # stale tier (unbounded distance) can answer without a planner
        drifted = SC.with_(concentration=0.05, hot_experts=2, hot_boost=0.9)
        with PlanServer(store, max_distance=1e-9) as server:
            result = server.serve(drifted, deadline_s=0.0)
            assert result.origin == "stale"
            assert result.reason == "deadline"
            assert result.distance > 0
            assert server.counters["stale_hits"] == 1
            server.drain()

    def test_degraded_answers_do_not_poison_the_cache(self, store):
        # hot-swap healing suppressed by an open breaker: a baseline
        # answer must not be served as "memory"
        with PlanServer(store, breaker_threshold=1) as server:
            server.breaker.record_failure()  # force the breaker open
            first = server.serve(SC, deadline_s=0.0)
            second = server.serve(SC, deadline_s=0.0)
        assert first.origin == second.origin == "baseline"


class TestPlannerTimeouts:
    def test_timeout_falls_back_then_lands_late(self, store):
        planner = FlakyPlanner(plan_resolved, delay_s=0.2)
        with PlanServer(
            store, planner=planner, planner_timeout_s=0.01
        ) as server:
            result = server.serve(SC)
            assert result.origin == "baseline"
            assert result.reason == "planner_timeout"
            assert server.counters["planner_timeouts"] == 1
            # the abandoned run keeps going and heals the cache
            _wait_for(lambda: server.counters["late_plans"] >= 1)
            assert server.serve(SC).origin == "memory"

    def test_drain_stops_at_its_timeout(self, store):
        """``drain(timeout=...)`` gives up at the deadline with a
        ``TimeoutError`` instead of waiting out the stalled run."""
        planner = FlakyPlanner(plan_resolved, delay_s=1.5)
        with PlanServer(store, planner=planner) as server:
            assert server.serve(SC, deadline_s=0.0).origin == "baseline"
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                server.drain(timeout=0.1)
            assert time.monotonic() - t0 < 0.5
            server.drain()  # without a timeout it waits the run out
            assert server.counters["late_plans"] == 1

    def test_timeouts_trip_the_breaker_without_raising(self, store):
        planner = FlakyPlanner(plan_resolved, delay_s=0.2)
        with PlanServer(
            store,
            planner=planner,
            planner_timeout_s=0.01,
            breaker_threshold=2,
            breaker_cooldown_s=3600.0,
            memory_cache_size=0,
        ) as server:
            probes = [SC.with_(routing_seed=s) for s in range(4)]
            results = [server.serve(p, deadline_s=None) for p in probes]
            assert all(r.origin in ("baseline", "stale") for r in results)
            assert server.breaker.state == "open"
            assert server.counters["planner_timeouts"] == 2
            assert server.counters["breaker_short_circuits"] >= 1
            assert server.counters["errors"] == 0
            _wait_for(lambda: server.counters["late_plans"] >= 2)


class TestOneRunPerKey:
    """Cold requests, late publishes and heals of one key share its one
    in-flight planner run."""

    def test_back_to_back_timeouts_share_one_run(self, store):
        planner = FlakyPlanner(plan_resolved, delay_s=0.5)
        with PlanServer(
            store, planner=planner, planner_timeout_s=0.01
        ) as server:
            first = server.serve(SC)
            second = server.serve(SC)
            assert first.reason == second.reason == "planner_timeout"
            server.drain()
            assert planner.calls == server.counters["planner_runs"] == 1
            assert server.counters["late_plans"] == 1

    def test_deadline_request_joins_the_timed_out_run(self, store):
        planner = FlakyPlanner(plan_resolved, delay_s=0.5)
        with PlanServer(
            store, planner=planner, planner_timeout_s=0.01
        ) as server:
            assert server.serve(SC).origin == "baseline"
            assert server.serve(SC, deadline_s=0.0).origin == "baseline"
            server.drain()
            assert planner.calls == server.counters["planner_runs"] == 1

    def test_client_deadlines_do_not_open_the_breaker(self, store):
        """A request that stops waiting because of its own deadline says
        nothing about the planner: the breaker stays closed."""
        planner = FlakyPlanner(plan_resolved, delay_s=0.3)
        probes = [SC.with_(routing_seed=s) for s in range(3)]
        with PlanServer(store, planner=planner, breaker_threshold=3) as server:
            results = [server.serve(p, deadline_s=0.05) for p in probes]
            assert [r.reason for r in results] == ["deadline"] * 3
            assert server.breaker.state == "closed"
            assert server.counters["planner_timeouts"] == 0
            assert server.counters["deadline_hits"] == 3
            later = server.serve(probes[0])
            assert later.origin in ("planned", "memory")
            server.drain()
        assert server.breaker.snapshot()["consecutive_failures"] == 0

    def test_failed_heal_counts_as_an_error(self, store):
        """A run that fails with no request waiting on it is counted in
        ``errors``: nobody else will see its exception."""
        planner = FlakyPlanner(plan_resolved, outage=(1, 10**9))
        with PlanServer(store, planner=planner) as server:
            assert server.serve(SC).origin == "planned"
            assert server.serve(SC.with_(routing_seed=5)).origin == "nearest"
            server.drain()
            assert server.counters["errors"] == 1
            assert server.counters["hot_swaps"] == 0
            assert server.stats()["inflight"] == 0

    def test_single_worker_server_answers_cold_requests(self, store):
        """No deadlock at max_workers=1: a request never waits on a pool
        task queued behind it, and no thread is started per request --
        every run goes to the one pooled planner thread."""
        threads = []

        def planner(resolved, check=True, optimizer=None):
            threads.append(threading.current_thread())
            return plan_resolved(resolved, check=check, optimizer=optimizer)

        with PlanServer(
            store,
            planner=planner,
            max_workers=1,
            planner_timeout_s=60.0,
            max_distance=0,
        ) as server:
            results = [
                server.serve(SC.with_(routing_seed=s)) for s in range(3)
            ]
        assert [r.origin for r in results] == ["planned"] * 3
        assert len(threads) == 3 and len(set(threads)) == 1


class TestBreakerServing:
    def test_failures_raise_while_closed_then_degrade_when_open(
        self, store
    ):
        planner = FlakyPlanner(plan_resolved, outage=(0, 10**9))
        with PlanServer(
            store,
            planner=planner,
            breaker_threshold=2,
            breaker_cooldown_s=3600.0,
            memory_cache_size=0,
        ) as server:
            # pre-ISSUE-8 semantics: failures raise while the breaker
            # stays closed...
            with pytest.raises(RuntimeError, match="injected planner"):
                server.serve(SC.with_(routing_seed=0))
            # ...but the failure that trips it degrades instead (the
            # breaker opens before the would-raise check)
            tripping = server.serve(SC.with_(routing_seed=1))
            assert tripping.origin == "baseline"
            assert tripping.reason == "planner_error"
            assert server.breaker.state == "open"
            # the breaker is open: requests short-circuit to the tiers
            result = server.serve(SC.with_(routing_seed=2))
            assert result.origin == "baseline"
            assert result.reason == "breaker_open"
            assert server.counters["breaker_short_circuits"] == 1

            # heal the planner, let the cooldown lapse: the half-open
            # trial runs cold and closes the breaker again
            planner.outage = None
            server.breaker.cooldown_s = 0.0
            healed = server.serve(SC.with_(routing_seed=3))
            assert healed.origin == "planned"
            assert server.breaker.state == "closed"

    def test_stats_expose_breaker_state(self, store):
        with PlanServer(store) as server:
            stats = server.stats()
        breaker = stats["breaker"]
        assert breaker["state"] == "closed"
        assert breaker["trips"] == 0
        assert set(stats["server"]) >= {
            "deadline_hits",
            "planner_timeouts",
            "late_plans",
            "store_retries",
            "breaker_short_circuits",
            "stale_hits",
            "baseline_plans",
        }


class TestStoreFaults:
    def test_transient_store_errors_are_retried_to_success(self, tmp_path):
        inner = PlanStore(tmp_path / "plans")
        flaky = FlakyStore(inner, seed=3, error_rate=0.5, max_consecutive=2)
        with PlanServer(
            flaky, store_retries=3, retry_backoff_s=0.001
        ) as server:
            plans = [
                server.serve(SC.with_(routing_seed=s)).plan for s in range(6)
            ]
        assert all(p is not None for p in plans)
        assert flaky.injected_errors > 0
        assert server.counters["store_retries"] > 0
        assert server.counters["errors"] == 0

    def test_exhausted_retries_degrade_to_a_miss(self, tmp_path):
        inner = PlanStore(tmp_path / "plans")
        # every call fails until max_consecutive, which exceeds the
        # retry budget: lookups degrade to misses, the planner answers
        flaky = FlakyStore(inner, seed=0, error_rate=0.99, max_consecutive=50)
        with PlanServer(
            flaky, store_retries=1, retry_backoff_s=0.001
        ) as server:
            result = server.serve(SC)
        assert result.origin == "planned"
        assert server.counters["store_errors"] > 0
        assert server.counters["errors"] == 0

    def test_compile_survives_store_io_errors(
        self, tmp_path, tiny_graph, small_cluster
    ):
        """compile() degrades a store I/O error to a warned re-plan
        (and a skipped put) instead of raising it."""
        from repro.api import compile

        flaky = FlakyStore(
            PlanStore(tmp_path / "plans"),
            seed=0,
            error_rate=0.99,
            max_consecutive=50,
        )
        with pytest.warns(UserWarning, match="plan store unavailable"):
            plan = compile(tiny_graph.program, small_cluster, store=flaky)
        assert plan is not None and not plan.from_store
        assert flaky.injected_errors == 2  # the lookup and the put

    def test_trainer_survives_store_io_errors(self, tmp_path, small_cluster):
        """A re-planning trainer served over a flaky shared store
        finishes its steps: store I/O errors are misses and skipped
        puts."""
        from repro import GPT2MoEConfig, build_training_graph
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        flaky = FlakyStore(PlanStore(tmp_path / "plans"), seed=1, error_rate=0.5)
        graph = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        with PlanServer(flaky, store_retries=0) as server:
            trainer = ReoptimizingTrainer(
                graph,
                LancetOptimizer(small_cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            with pytest.warns(UserWarning, match="plan store unavailable"):
                results = trainer.run(3)
        assert len(results) == 3
        assert flaky.injected_errors > 0

    def test_flock_failure_degrades_to_lockless_with_one_warning(
        self, tmp_path, monkeypatch
    ):
        import fcntl

        def broken_flock(fd, op):
            raise OSError("flock not supported here")

        monkeypatch.setattr(fcntl, "flock", broken_flock)
        store = PlanStore(tmp_path / "plans")
        plan = plan_resolved(resolve_workload(SC))
        with pytest.warns(RuntimeWarning, match="lockless"):
            store.put(plan)
        # the warning fires once; later writes stay quiet and work
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            store.put(plan)
        assert store.get(PlanIdentity.of(plan)) is not None


class TestCorruptEntryHealing:
    def _corrupt_all_entries(self, store: PlanStore) -> int:
        paths = store.entries()
        for path in paths:
            path.write_bytes(b"{ this is not a plan }")
        return len(paths)

    @staticmethod
    def _corrupt_first_ops(root) -> None:
        """Break one instruction op per entry: the JSON and the plan
        envelope still parse, only the program fails to decode (say, an
        entry written by a newer build)."""
        for path in PlanStore(root).entries():
            doc = json.loads(path.read_text())
            doc["program"]["instructions"][0]["op"] = "no_such_op"
            path.write_text(json.dumps(doc))

    @staticmethod
    def _entry_reads(monkeypatch) -> list:
        """Paths of the entry files opened for reading from now on."""
        reads = []
        real_open = pathlib.Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)  # missing: no read
            if path.name.endswith(".plan.json") and "r" in mode:
                reads.append(path)
            return f

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        return reads

    def test_undecodable_program_is_a_miss_not_a_client_error(
        self, tmp_path, tiny_graph, small_cluster
    ):
        """An entry whose program does not decode is re-planned by the
        server; a client such as the trainer never gets it."""
        root = tmp_path / "plans"
        with PlanServer(PlanStore(root)) as server:
            server.serve(tiny_graph.program, small_cluster)
        self._corrupt_first_ops(root)
        with PlanServer(PlanStore(root)) as server:
            with pytest.warns(UserWarning, match="re-planning"):
                result = server.serve(tiny_graph.program, small_cluster)
        assert result.origin == "planned"
        [path] = PlanStore(root).entries()
        assert load_plan(path).program is not None  # the put healed it

    def test_undecodable_program_on_the_scenario_fast_path(self, tmp_path):
        """``compile()`` keeps its warm hit lazy (its speed is gated), so
        an undecodable program raises at the caller's first
        ``.program``; a server over the same entry re-plans instead."""
        root = tmp_path / "plans"
        compile(SC, store=PlanStore(root))
        self._corrupt_first_ops(root)
        plan = compile(SC, store=PlanStore(root))
        assert plan.from_store and not plan.materialized
        with pytest.raises(PlanError, match="failed to reconstruct"):
            plan.program
        with PlanServer(PlanStore(root)) as server:
            with pytest.warns(UserWarning, match="re-planning"):
                result = server.serve(SC)
            assert result.origin == "planned"
            assert result.plan.program is not None
        with PlanServer(PlanStore(root)) as server:
            assert server.serve(SC).origin == "store"

    @pytest.mark.parametrize("corrupt", ["program", "json"])
    def test_unusable_entry_is_read_and_warned_about_once(
        self, tmp_path, corrupt, monkeypatch
    ):
        """One unusable entry costs one read, one warning and one store
        miss per request: the scenario fast path's read removes it, so
        the exact and nearest tiers find nothing to read."""
        root = tmp_path / "plans"
        with PlanServer(PlanStore(root)) as server:
            server.serve(SC)
        if corrupt == "program":
            self._corrupt_first_ops(root)
        else:
            self._corrupt_all_entries(PlanStore(root))
        store = PlanStore(root)
        reads = self._entry_reads(monkeypatch)
        with PlanServer(store) as server:
            with pytest.warns(UserWarning, match="re-planning") as caught:
                result = server.serve(SC)
        assert result.origin == "planned"
        assert len([w for w in caught if "re-planning" in str(w.message)]) == 1
        assert len(reads) == 1
        assert store.stats["hits"] == store.stats["nearest_hits"] == 0
        assert store.stats["misses"] == 1
        with PlanServer(PlanStore(root)) as server:
            assert server.serve(SC).origin == "store"

    def test_corrupt_neighbor_is_read_once_across_servers(
        self, tmp_path, monkeypatch
    ):
        """The read that finds a neighbor unusable removes it, and the
        nearest tier goes on to the next-closest healthy neighbor; the
        next request whose closest neighbor it was, on another server,
        is answered by a healthy neighbor, with no warning."""
        root = tmp_path / "plans"
        healthy, corrupt = SC.with_(routing_seed=1), SC.with_(routing_seed=2)
        first, second = SC.with_(routing_seed=103), SC.with_(routing_seed=105)
        with PlanServer(PlanStore(root), max_distance=0) as server:
            server.serve(healthy)
            server.serve(corrupt)
        buckets = {
            sc: signature_bucket(resolve_workload(sc).signatures)
            for sc in (healthy, corrupt, first, second)
        }

        def dist(a, b):
            return bucket_distance(buckets[a], buckets[b])

        # the corrupt entry is the closest neighbor of both requests,
        # also once the first request's plan is stored
        assert dist(first, corrupt) < dist(first, healthy)
        assert dist(second, corrupt) < min(
            dist(second, healthy), dist(second, first)
        )
        path = PlanStore(root).path_for(
            resolve_workload(corrupt).identity.key()
        )
        path.write_bytes(b"{ this is not a plan }")
        reads = self._entry_reads(monkeypatch)
        with PlanServer(PlanStore(root)) as server:
            with pytest.warns(UserWarning, match="re-planning"):
                assert server.serve(first).origin == "nearest"
        assert not path.exists()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with PlanServer(PlanStore(root)) as server:
                result = server.serve(second)
                server.drain()
        assert result.origin == "nearest"
        assert not [w for w in caught if "re-planning" in str(w.message)]
        assert reads.count(path) == 1

    def test_compile_over_a_corrupt_entry_warns_and_misses_once(
        self, tmp_path
    ):
        root = tmp_path / "plans"
        compile(SC, store=PlanStore(root))
        self._corrupt_all_entries(PlanStore(root))
        store = PlanStore(root)
        with pytest.warns(UserWarning, match="re-planning") as caught:
            plan = compile(SC, store=store)
        assert not plan.from_store
        assert len([w for w in caught if "re-planning" in str(w.message)]) == 1
        assert store.stats["misses"] == 1 and store.stats["hits"] == 0
        assert compile(SC, store=PlanStore(root)).from_store

    @pytest.mark.parametrize("rewritten", [False, True])
    def test_discard_spares_an_entry_replaced_after_the_read(
        self, tmp_path, monkeypatch, rewritten
    ):
        """An unusable entry is removed with its index records, unless a
        writer replaced it between the read and the discard."""
        import repro.api.store as store_mod

        root = tmp_path / "plans"
        plan = compile(SC, store=PlanStore(root))
        self._corrupt_all_entries(PlanStore(root))
        store = PlanStore(root)
        identity = PlanIdentity.of(plan)
        real_parse = store_mod._parse_entry

        def parse_after_a_put(raw, path):
            if rewritten:
                store.put(plan)  # a writer heals the entry mid-read
            return real_parse(raw, path)

        monkeypatch.setattr(store_mod, "_parse_entry", parse_after_a_put)
        with pytest.raises(PlanError, match="not valid JSON"):
            store.get(identity)
        monkeypatch.undo()
        assert len(store) == int(rewritten)
        assert bool(store.neighbors(identity)) == rewritten
        assert (store.get(identity) is not None) == rewritten

    def test_every_store_tier_answers_a_decoded_plan(
        self, tmp_path, tiny_graph, small_cluster
    ):
        root = tmp_path / "plans"
        with PlanServer(PlanStore(root)) as server:
            server.serve(SC)
            server.serve(tiny_graph.program, small_cluster)
        answers = {}
        with PlanServer(PlanStore(root)) as server:
            answers["scenario"] = server.serve(SC)
            answers["graph"] = server.serve(tiny_graph.program, small_cluster)
        with PlanServer(PlanStore(root), max_distance=math.inf) as server:
            answers["nearest"] = server.serve(SC.with_(routing_seed=5))
            server.drain()
        # outside the nearest radius with the planner out of time: only
        # the stale tier can answer
        drifted = SC.with_(concentration=0.05, hot_experts=2, hot_boost=0.9)
        with PlanServer(PlanStore(root), max_distance=1e-9) as server:
            answers["stale"] = server.serve(drifted, deadline_s=0.0)
            server.drain()
        assert {name: r.origin for name, r in answers.items()} == {
            "scenario": "store", "graph": "store",
            "nearest": "nearest", "stale": "stale",
        }
        for result in answers.values():
            assert result.plan.from_store and result.plan.materialized

    def test_corrupt_entry_degrades_then_heals(self, tmp_path):
        root = tmp_path / "plans"
        with PlanServer(PlanStore(root)) as server:
            server.serve(SC)
        assert self._corrupt_all_entries(PlanStore(root)) >= 1
        # a fresh server (cold caches) over the corrupted store: the
        # PlanError degrades to a warned miss (as in compile()), the
        # planner re-plans, and the put replaces the corrupted entry
        with PlanServer(PlanStore(root)) as server:
            with pytest.warns(UserWarning, match="re-planning"):
                result = server.serve(SC)
            assert result.origin == "planned"
            assert server.counters["errors"] == 0
        # the heal is durable: yet another cold server reads it warm
        with PlanServer(PlanStore(root)) as server:
            assert server.serve(SC).origin == "store"

    def test_concurrent_readers_on_corrupt_entry_one_replan(self, tmp_path):
        """Satellite (c): two readers hit a corrupted entry while the
        writer heals it -- nobody crashes, and coalescing guarantees
        exactly one re-plan."""
        root = tmp_path / "plans"
        with PlanServer(PlanStore(root)) as server:
            server.serve(SC)
        self._corrupt_all_entries(PlanStore(root))

        with PlanServer(PlanStore(root)) as server:
            barrier = threading.Barrier(2)
            results, failures = [], []

            def read() -> None:
                try:
                    barrier.wait(timeout=5.0)
                    results.append(server.serve(SC))
                except BaseException as err:  # pragma: no cover
                    failures.append(err)

            readers = [threading.Thread(target=read) for _ in range(2)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=30.0)
            assert not failures
            assert len(results) == 2
            assert all(r.plan is not None for r in results)
            # exactly one re-plan healed the entry for both readers
            assert server.counters["planner_runs"] == 1
            assert server.counters["errors"] == 0
        with PlanServer(PlanStore(root)) as server:
            assert server.serve(SC).origin == "store"


class TestServeStatsCLI:
    def test_missing_store_yields_empty_report(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "never-created"
        out = tmp_path / "stats.json"
        assert main(
            ["serve", "stats", "--store", str(missing), "--out", str(out)]
        ) == 0
        assert "entries: 0" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["exists"] is False
        assert payload["entries"] == 0
        assert payload["bytes"] == 0
        # read-only: the probe must not create the directory
        assert not missing.exists()

    def test_file_path_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main

        bogus = tmp_path / "a-file"
        bogus.write_text("not a directory")
        assert main(["serve", "stats", "--store", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert "not a directory" in err
        assert bogus.read_text() == "not a directory"
