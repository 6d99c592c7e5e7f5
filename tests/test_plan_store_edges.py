"""PlanStore edge cases: races, eviction, corruption, staleness.

The store is the shared substrate of the serving layer: several server
workers (threads) and several fleet processes write one directory.
These tests pin the behaviors that make that safe -- atomic entry
writes, locked index updates, bounded eviction that prunes its indexes,
corrupt-entry degradation, and the content-fingerprint memory cache
that stays correct even when an external writer lands within the
filesystem's mtime granularity.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading

import pytest

from repro.api import (
    PlanError,
    PlanStore,
    Scenario,
    compile,
    signature_bucket,
)
from repro.api.store import SCENARIO_INDEX, SIGNATURE_INDEX

SC = Scenario.preset("tiny/a100x8")


@pytest.fixture(scope="module")
def plans():
    """Three compiled plans of one base identity, distinct signature
    buckets (routing seeds)."""
    return tuple(
        compile(SC.with_(routing_seed=seed)) for seed in (1, 5, 9)
    )


def _get(store, plan):
    return store.get(
        plan.fingerprint,
        plan.cluster,
        plan.policy,
        plan.framework,
        plan.signatures,
    )


class TestConcurrentWriters:
    def test_writers_racing_one_key(self, tmp_path, plans):
        """Many store instances hammering the same entry concurrently
        must leave exactly one readable entry and a consistent index."""
        plan = plans[0]
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                # separate instance per thread: separate memory caches,
                # shared directory -- the cross-process topology
                mine = PlanStore(tmp_path)
                barrier.wait()
                for _ in range(5):
                    mine.put(plan)
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        store = PlanStore(tmp_path)
        assert len(store) == 1
        loaded = _get(store, plan)
        assert loaded is not None
        assert loaded.program.instructions  # decodes cleanly
        family = store.neighbors(
            plan.fingerprint, plan.cluster, plan.policy, plan.framework
        )
        assert len(family) == 1

    def test_concurrent_writers_distinct_keys_keep_all_entries(
        self, tmp_path, plans
    ):
        def writer(plan):
            PlanStore(tmp_path).put(plan)

        threads = [
            threading.Thread(target=writer, args=(p,)) for p in plans
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        store = PlanStore(tmp_path)
        assert len(store) == 3
        # the locked index updates must not lose each other's buckets
        family = store.neighbors(
            plans[0].fingerprint,
            plans[0].cluster,
            plans[0].policy,
            plans[0].framework,
        )
        assert len(family) == 3


def _drill_worker(root, plans, seed, crash) -> None:
    """One drill process: random puts and gets on the shared store,
    decoding every hit.  The crashing worker dies between its first
    temp write and the rename, holding the store lock."""
    if crash:
        os.replace = lambda src, dst: os._exit(3)
    store = PlanStore(root, max_entries=2)
    rng = random.Random(seed)
    for _ in range(30):
        store.put(rng.choice(plans))
        hit = _get(store, rng.choice(plans))
        if hit is not None:
            assert hit.program.instructions  # decodes: no torn read
    os._exit(0)


@pytest.mark.chaos
class TestMultiProcessDrill:
    def test_processes_share_one_bounded_store(self, tmp_path, plans):
        """Real processes racing puts, gets and evictions on one root,
        one of them killed mid-write: the indexes still match the
        directory, reads decode or miss, the bound holds, and
        ``clear()`` removes the dead writer's temp-file orphan."""
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(
                target=_drill_worker, args=(tmp_path, plans, seed, seed == 0)
            )
            for seed in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert [w.exitcode for w in workers] == [3, 0, 0, 0]

        store = PlanStore(tmp_path, max_entries=2)
        live = {p.name for p in store.entries()}
        assert 1 <= len(live) <= 2
        indexed = {
            store.path_for(key).name
            for family in store._read_sidecar(SIGNATURE_INDEX).values()
            for key in family
        }
        assert indexed == live
        assert {
            store.path_for(key).name
            for key in store._read_sidecar(SCENARIO_INDEX).values()
        } <= live
        for plan in plans:
            hit = _get(store, plan)
            assert hit is None or hit.program.instructions
        assert list(tmp_path.glob("*.plan.json*.tmp"))  # the crashed write
        store.clear()
        assert {p.name for p in tmp_path.iterdir()} <= {".lock"}


class TestEviction:
    def test_max_entries_evicts_lru_and_prunes_indexes(
        self, tmp_path, plans
    ):
        store = PlanStore(tmp_path, max_entries=2)
        paths = [store.put(p) for p in plans]
        assert len(store) == 2
        assert store.stats["evictions"] == 1
        # oldest-used entry went; the latest put is protected
        assert not paths[0].exists()
        assert _get(store, plans[0]) is None
        assert _get(store, plans[2]) is not None
        # no index entry may point at the evicted file
        live = {p.name for p in store.entries()}
        for family in store._read_sidecar(SIGNATURE_INDEX).values():
            for key in family:
                assert f"{key[:32]}.plan.json" in live

    def test_get_refreshes_lru_order(self, tmp_path, plans):
        store = PlanStore(tmp_path, max_entries=2)
        store.put(plans[0])
        store.put(plans[1])
        # using entry 0 makes entry 1 the eviction candidate
        assert _get(store, plans[0]) is not None
        store.put(plans[2])
        assert _get(store, plans[0]) is not None
        assert _get(store, plans[1]) is None

    def test_max_bytes_pressure_keeps_only_newest(self, tmp_path, plans):
        store = PlanStore(tmp_path, max_bytes=1)
        for plan in plans:
            store.put(plan)
            # over budget, but the entry just written is protected
            assert len(store) == 1
        assert store.stats["evictions"] == 2
        assert _get(store, plans[2]) is not None

    def test_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError):
            PlanStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            PlanStore(tmp_path, max_bytes=0)


class TestCorruption:
    def test_corrupt_entry_raises_plan_error(self, tmp_path, plans):
        store = PlanStore(tmp_path)
        path = store.put(plans[0])
        path.write_text("{ this is not json")
        with pytest.raises(PlanError, match="corrupt"):
            _get(store, plans[0])

    def test_compile_degrades_to_replan_and_heals_entry(
        self, tmp_path, plans
    ):
        store = PlanStore(tmp_path)
        scenario = SC.with_(routing_seed=1)
        path = store.put(plans[0])
        path.write_text("{ this is not json")
        with pytest.warns(UserWarning, match="re-planning"):
            plan = compile(scenario, store=store)
        assert plan.predicted_iteration_ms == pytest.approx(
            plans[0].predicted_iteration_ms
        )
        # the fresh put replaced the corrupt entry: next get is clean
        healed = _get(store, plans[0])
        assert healed is not None
        assert healed.from_store


class TestPlacementKeys:
    def test_keys_distinguish_plans_differing_only_in_placement(
        self, tmp_path, plans
    ):
        """Two plans identical in every respect except their expert
        placement must land on distinct store entries -- and the
        placement-free key must stay byte-identical to what a
        pre-placement store would compute (old entries keep resolving)."""
        from repro.api.plan import Plan
        from repro.placement import ExpertPlacement

        base = plans[0]
        placement = ExpertPlacement(
            16,
            8,
            tuple(((e % 8, 1.0),) for e in range(16)),  # scrambled layout
        )
        placed = Plan(
            cluster=base.cluster,
            policy=base.policy,
            fingerprint=base.fingerprint,
            predicted_iteration_ms=base.predicted_iteration_ms,
            program=base.program,
            signatures=base.signatures,
            placement=placement,
        )
        store = PlanStore(tmp_path)
        args = (base.fingerprint, base.cluster, base.policy, base.framework)
        assert store.key_for(
            *args, base.signatures
        ) != store.key_for(*args, base.signatures, placed.placement)
        assert store.base_key_for(*args) != store.base_key_for(
            *args, placed.placement
        )

        store.put(base)
        store.put(placed)
        assert len(store) == 2  # no collision
        unplaced_hit = store.get(*args, base.signatures)
        placed_hit = store.get(*args, base.signatures, placed.placement)
        assert unplaced_hit is not None and unplaced_hit.placement is None
        assert placed_hit is not None
        assert placed_hit.placement == {None: placement}


class TestMemoryCacheStaleness:
    def test_unchanged_content_is_served_from_memory(self, tmp_path, plans):
        store = PlanStore(tmp_path)
        store.put(plans[0])
        first = _get(store, plans[0])
        second = _get(store, plans[0])
        assert second is first  # one decode, not two
        assert store.stats["memory_hits"] == 1

    def test_external_overwrite_within_mtime_granularity_is_detected(
        self, tmp_path, plans
    ):
        """An external writer replacing an entry without advancing its
        mtime (same-timestamp rename -- the hot-swap race) must still
        invalidate the memory cache: validation is by content digest."""
        a, b = plans[0], plans[1]
        store = PlanStore(tmp_path)
        path = store.put(a)
        cached = _get(store, a)
        assert signature_bucket(cached.signatures) == signature_bucket(
            a.signatures
        )
        assert _get(store, a) is cached  # memory cache is warm now
        assert store.stats["memory_hits"] == 1

        stat = path.stat()
        b.save(path)  # external overwrite, same path = same store key
        # force the overwrite back to the original timestamps, which is
        # what a coarse-mtime filesystem would report anyway
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))

        reloaded = store._load(
            store.key_for(
                a.fingerprint, a.cluster, a.policy, a.framework, a.signatures
            )
        )
        assert signature_bucket(reloaded.signatures) == signature_bucket(
            b.signatures
        )
        assert store.stats["memory_hits"] == 1  # no stale second hit

    def test_put_invalidates_memory_for_that_key(self, tmp_path, plans):
        store = PlanStore(tmp_path)
        store.put(plans[0])
        first = _get(store, plans[0])
        store.put(plans[0])  # re-publish (e.g. a hot swap)
        second = _get(store, plans[0])
        assert second is not first  # re-read, not the stale object
