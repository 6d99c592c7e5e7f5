"""The repro.api facade: Scenario, compile, Plan artifacts, PlanStore.

Covers the ISSUE 5 acceptance criteria:

- ``Plan.save`` / ``Plan.load`` round-trip reconstructs the program
  bit-identically (same simulated timeline);
- a ``PlanStore`` warm load skips the planner entirely (no
  ``LancetOptimizer`` is even constructed -- zero cost evaluations);
- store entries are invalidated by any key component: graph
  fingerprint, cluster spec, policy, signature bucket;
- corrupted or old-schema plan files raise clear errors instead of
  deserializing garbage;
- all pre-existing entry points keep working unchanged.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    PLAN_SCHEMA_VERSION,
    Plan,
    PlanError,
    PlanIdentity,
    PlanPolicy,
    PlanSchemaError,
    PlanStore,
    Scenario,
    available_presets,
    compile,
    graph_fingerprint,
    load_plan,
)
from repro.runtime import ClusterSpec
from repro.serving import PlanServer


@pytest.fixture(scope="module")
def scenario():
    return Scenario(model="tiny", cluster="a100", num_gpus=8)


@pytest.fixture(scope="module")
def compiled(scenario):
    return compile(scenario)


@pytest.fixture(scope="module")
def hot_doc():
    """A skew-aware plan document (it carries routing signatures)."""
    plan = compile(Scenario.preset("tiny/a100x8-hot"))
    return json.loads(json.dumps(plan.to_dict()))


@pytest.fixture(scope="module", params=["flat", "staged", "placed"])
def plan_doc(request, hot_doc, tiny_graph, small_cluster, tiny_swapped_placement):
    """Plan documents of every shape decoding must survive: the flat
    skew-aware plan, a staged plan (``pipeline`` section) and a plan
    carrying a non-identity expert placement (``placement`` section)."""
    if request.param == "flat":
        return hot_doc
    if request.param == "staged":
        plan = compile(Scenario.preset("tiny/a100x8-pp2x4"))
    else:
        unplaced = compile(tiny_graph.program, small_cluster)
        plan = Plan(
            program=unplaced.program,
            cluster=unplaced.cluster,
            policy=unplaced.policy,
            fingerprint=unplaced.fingerprint,
            predicted_iteration_ms=unplaced.predicted_iteration_ms,
            placement=tiny_swapped_placement,
        )
    return json.loads(json.dumps(plan.to_dict()))


#: what a mutation may plant anywhere in a plan document
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def mutate(doc, data) -> None:
    """Walk ``doc`` down a drawn path and delete or replace one node."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        return


class TestScenario:
    def test_presets_cover_benchmark_workloads(self):
        presets = available_presets()
        assert "gpt2-s-moe/a100x16" in presets
        assert "gpt2-l-moe/v100x64" in presets
        assert "gpt2-s-moe/v100x32-hot" in presets
        assert "tiny/a100x8" in presets

    def test_preset_resolves_paper_settings(self):
        sc = Scenario.preset("gpt2-s-moe/a100x16")
        assert sc.resolved_batch() == 24  # paper Sec. 7 batch
        assert sc.resolved_seq() == 512
        assert sc.build_cluster().num_gpus == 16

    def test_preset_is_built_once_and_shared(self):
        assert Scenario.preset("tiny/a100x8") is Scenario.preset("tiny/a100x8")

    def test_unknown_preset_and_model_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            Scenario.preset("gpt3/tpu")
        with pytest.raises(ValueError, match="unknown model"):
            Scenario(model="not-a-model")

    def test_dict_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_model_name_normalized(self):
        assert Scenario(model="gpt2-s-moe").model == "GPT2-S-MoE"

    def test_hot_variant_routing(self):
        sc = Scenario.preset("tiny/a100x8-hot")
        routing = sc.routing_model()
        assert routing.hot_experts > 0 and routing.hot_boost > 0


class TestFingerprint:
    def test_stable_across_builds(self, scenario):
        a = graph_fingerprint(scenario.build_graph())
        b = graph_fingerprint(scenario.build_graph())
        assert a == b and a.startswith("sha256:")

    def test_differs_for_different_workloads(self, scenario):
        a = graph_fingerprint(scenario.build_graph())
        b = graph_fingerprint(scenario.with_(batch=8).build_graph())
        assert a != b

    def test_rejects_non_programs(self):
        with pytest.raises(TypeError):
            graph_fingerprint(42)


class TestCompile:
    def test_scenario_compile_produces_plan(self, compiled, scenario):
        assert compiled.predicted_iteration_ms > 0
        assert compiled.fingerprint == graph_fingerprint(scenario.build_graph())
        assert compiled.planner["num_cost_evals"] > 0
        assert compiled.report is not None  # fresh compiles keep the report
        assert not compiled.from_store

    def test_skew_aware_by_default(self, compiled):
        assert compiled.policy.skew_aware
        assert compiled.signatures  # conditioned on observed routing

    def test_uniform_policy_drops_signatures(self, scenario):
        plan = compile(scenario, policy=PlanPolicy(skew_aware=False))
        assert plan.signatures is None

    def test_graph_workload_requires_cluster(self, scenario):
        graph = scenario.build_graph()
        with pytest.raises(TypeError, match="cluster"):
            compile(graph)
        plan = compile(graph, ClusterSpec.for_gpus("a100", 8))
        assert plan.scenario is None
        assert plan.predicted_iteration_ms > 0

    def test_bad_workload_rejected(self):
        with pytest.raises(TypeError, match="workload"):
            compile("gpt2-s-moe/a100x16")

    def test_legacy_entry_points_unchanged(self, scenario):
        """The facade composes, never replaces, the original surface."""
        from repro import (  # noqa: F401
            LancetOptimizer,
            SimulationConfig,
            Trainer,
            simulate_program,
        )

        graph = scenario.build_graph()
        cluster = scenario.build_cluster()
        optimized, report = LancetOptimizer(cluster).optimize(graph)
        tl = simulate_program(
            optimized,
            config=SimulationConfig(
                cluster=cluster,
                padded_a2a=False,
                routing=scenario.routing_model(),
            ),
        )
        assert tl.makespan > 0 and report.predicted_iteration_ms > 0


class TestPlanRoundTrip:
    def test_save_load_simulates_bit_identically(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        reloaded = load_plan(path)
        t1, t2 = compiled.simulate(), reloaded.simulate()
        assert t1.makespan == t2.makespan
        assert [(iv.uid, iv.start, iv.end) for iv in t1.intervals] == [
            (iv.uid, iv.start, iv.end) for iv in t2.intervals
        ]

    def test_envelope_fields_preserved(self, compiled, tmp_path):
        reloaded = load_plan(compiled.save(tmp_path / "t.plan.json"))
        assert reloaded.fingerprint == compiled.fingerprint
        assert reloaded.predicted_iteration_ms == compiled.predicted_iteration_ms
        assert reloaded.cluster == compiled.cluster
        assert reloaded.policy == compiled.policy
        assert reloaded.framework == compiled.framework
        assert reloaded.scenario == compiled.scenario
        assert reloaded.signatures == compiled.signatures
        assert reloaded.planner == compiled.planner
        assert reloaded.report is None  # live report is not serialized

    def test_serialized_form_is_stable(self, compiled, tmp_path):
        """save(load(save(x))) produces the same document."""
        p1 = compiled.save(tmp_path / "a.plan.json")
        reloaded = load_plan(p1)
        p2 = reloaded.save(tmp_path / "b.plan.json")
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        assert d1 == d2

    def test_lazy_load_materializes_on_access(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        lazy = load_plan(path, materialize=False)
        assert not lazy.materialized
        assert lazy.predicted_iteration_ms == compiled.predicted_iteration_ms
        assert len(lazy.program) == len(compiled.program)  # decodes here
        assert lazy.materialized

    def test_annotations_views(self, compiled):
        annotations = compiled.annotations()
        assert annotations, "an optimized plan has schedule annotations"
        algos = compiled.a2a_algorithms()
        assert sum(algos.values()) > 0


class TestPlanErrors:
    def test_not_json_raises_clear_error(self, tmp_path):
        bad = tmp_path / "bad.plan.json"
        bad.write_text("{definitely not json")
        with pytest.raises(PlanError, match="not valid JSON"):
            load_plan(bad)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PlanError, match="cannot read"):
            load_plan(tmp_path / "nope.plan.json")

    def test_wrong_document_type_rejected(self, tmp_path):
        doc = tmp_path / "other.json"
        doc.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(PlanError, match="not a plan document"):
            load_plan(doc)

    def test_old_schema_major_refused(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        obj = json.loads(path.read_text())
        obj["schema_version"] = "0.9"
        path.write_text(json.dumps(obj))
        with pytest.raises(PlanSchemaError, match="0.9"):
            load_plan(path)

    def test_future_schema_major_refused(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        obj = json.loads(path.read_text())
        major = int(PLAN_SCHEMA_VERSION.split(".")[0])
        obj["schema_version"] = f"{major + 1}.0"
        path.write_text(json.dumps(obj))
        with pytest.raises(PlanSchemaError, match="incompatible"):
            load_plan(path)

    def test_corrupted_program_section_rejected(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        obj = json.loads(path.read_text())
        obj["program"]["instructions"][0]["op"] = "no_such_op"
        path.write_text(json.dumps(obj))
        with pytest.raises(PlanError, match="reconstruct"):
            load_plan(path)  # materializes (and validates) eagerly

    def test_truncated_envelope_rejected(self, compiled, tmp_path):
        path = compiled.save(tmp_path / "t.plan.json")
        obj = json.loads(path.read_text())
        del obj["cluster"]
        path.write_text(json.dumps(obj))
        with pytest.raises(PlanError, match="malformed"):
            load_plan(path)


    @pytest.mark.parametrize(
        "path,value",
        [
            (("scenario", "model"), 1.5),
            (("signatures", 0, 1), None),
            (("program", "values", 0, 2), 10**6),
            # -1 would index the last type, which value 1 validates under
            (("program", "values", 1, 2), -1),
            (("program", "types", 0, "shape", 0), float("inf")),
        ],
    )
    def test_ill_typed_fields_rejected(self, hot_doc, path, value):
        doc = copy.deepcopy(hot_doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(PlanError):
            Plan.from_dict(doc)
        with pytest.raises(PlanError):  # the lazy path decodes later
            Plan.from_dict(doc, materialize=False).program

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_raise_only_plan_errors(self, plan_doc, data):
        """Any single deleted or replaced node either decodes or raises
        PlanError (PlanSchemaError included) -- never anything else."""
        doc = copy.deepcopy(plan_doc)
        mutate(doc, data)
        try:
            Plan.from_dict(doc)
        except PlanError:
            pass


class TestPlanStore:
    def test_put_get_round_trip(self, compiled, tmp_path):
        store = PlanStore(tmp_path)
        store.put(compiled)
        hit = store.get(PlanIdentity.of(compiled))
        assert hit is not None and hit.from_store
        assert hit.predicted_iteration_ms == compiled.predicted_iteration_ms
        assert store.stats["hits"] == 1

    def test_cross_process_hit(self, compiled, tmp_path):
        """A fresh PlanStore instance (stand-in for another process)
        sees entries written by the first."""
        PlanStore(tmp_path).put(compiled)
        other = PlanStore(tmp_path)
        hit = other.get(PlanIdentity.of(compiled))
        assert hit is not None
        # and it simulates identically to the in-process plan
        assert hit.simulate().makespan == compiled.simulate().makespan

    @pytest.mark.parametrize(
        "mutate",
        [
            "fingerprint",
            "cluster",
            "policy",
            "signatures",
            "framework",
        ],
    )
    def test_any_key_component_invalidates(self, compiled, tmp_path, mutate):
        """A hit must become a miss when any part of the identity moves."""
        from repro.runtime import RoutingSignature
        from repro.runtime.device import TUTEL

        store = PlanStore(tmp_path)
        store.put(compiled)
        changed = {
            "fingerprint": "sha256:" + "0" * 64,
            "cluster": ClusterSpec.for_gpus("v100", 8),
            "policy": PlanPolicy(enable_hierarchical_a2a=True),
            "signatures": {0: RoutingSignature(load=(9.0,) * 8)},
            "framework": TUTEL,
        }
        query = replace(PlanIdentity.of(compiled), **{mutate: changed[mutate]})
        assert store.get(query) is None
        assert store.stats["misses"] == 1

    def test_nearby_signatures_share_a_bucket(self, compiled, tmp_path):
        """Quantization: realizations that round to the same loads reuse
        the entry (same semantics as the trainer's plan cache)."""
        from repro.runtime import RoutingSignature

        store = PlanStore(tmp_path)
        base = {0: RoutingSignature(load=(1.0,) * 7 + (1.5,))}
        near = {0: RoutingSignature(load=(1.0,) * 7 + (1.5004,))}
        far = {0: RoutingSignature(load=(1.0,) * 7 + (1.52,))}
        plan = compile(
            Scenario(model="tiny", cluster="a100", num_gpus=8),
            signatures=base,
            store=store,
        )
        ident = PlanIdentity.of(plan)
        assert store.get(replace(ident, signatures=base)) is not None
        assert store.get(replace(ident, signatures=near)) is not None
        assert store.get(replace(ident, signatures=far)) is None

    def test_compile_degrades_corrupt_entry_to_replan(
        self, compiled, scenario, tmp_path
    ):
        """compile() must stay usable when a fleet member corrupts (or
        schema-bumps) a store entry: warn, re-plan, and overwrite."""
        store = PlanStore(tmp_path)
        cold = compile(scenario, store=store)
        for path in store.entries():
            path.write_text("{broken")
        with pytest.warns(UserWarning, match="re-planning"):
            again = compile(scenario, store=PlanStore(tmp_path))
        assert not again.from_store
        assert again.predicted_iteration_ms == cold.predicted_iteration_ms
        # the bad entry was replaced; the next lookup is warm again
        healed = compile(scenario, store=PlanStore(tmp_path))
        assert healed.from_store

    def test_ill_typed_entry_degrades_to_replan(self, tmp_path):
        """A stored entry whose JSON parses but holds a wrongly typed
        field is corrupt too: compile() warns and re-plans."""
        hot = Scenario.preset("tiny/a100x8-hot")
        cold = compile(hot, store=PlanStore(tmp_path))
        (path,) = PlanStore(tmp_path).entries()
        obj = json.loads(path.read_text())
        obj["scenario"]["model"] = 1.5
        path.write_text(json.dumps(obj))
        with pytest.warns(UserWarning, match="re-planning"):
            again = compile(hot, store=PlanStore(tmp_path))
        assert not again.from_store
        assert again.predicted_iteration_ms == cold.predicted_iteration_ms

    def test_corrupt_entry_raises_not_garbage(self, compiled, tmp_path):
        store = PlanStore(tmp_path)
        path = store.put(compiled)
        path.write_text('{"schema": "repro.api/plan", "schema_version"')
        fresh = PlanStore(tmp_path)
        with pytest.raises(PlanError, match="corrupt"):
            fresh.get(PlanIdentity.of(compiled))

    def test_clear_and_len(self, compiled, tmp_path):
        store = PlanStore(tmp_path)
        store.put(compiled)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0


class TestPlanIdentity:
    """Every caller looks a plan up under the key ``put`` files it
    under: ``PlanIdentity.of(plan).key(store.digits)``."""

    @pytest.mark.parametrize("preset", ["tiny/a100x8-hot", "tiny/a100x8-pp2x4"])
    def test_compile_looks_up_where_put_files(self, tmp_path, preset):
        from repro.api.compiler import resolve_workload

        store = PlanStore(tmp_path)
        plan = compile(Scenario.preset(preset), store=store)
        lookup = resolve_workload(Scenario.preset(preset)).identity
        key = PlanIdentity.of(plan).key(store.digits)
        assert lookup.key(store.digits) == key
        assert store.path_for(key).exists()
        assert store.get(lookup) is not None

    def test_trainer_replan_key_is_the_published_key(
        self, tmp_path, tiny_graph, small_cluster, tiny_swapped_placement
    ):
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        optimizer = LancetOptimizer(small_cluster)
        optimizer.set_placement(tiny_swapped_placement)
        store = PlanStore(tmp_path)
        with PlanServer(store) as server:
            trainer = ReoptimizingTrainer(
                tiny_graph, optimizer, drift_threshold=0.0, seed=0,
                server=server,
            )
            trainer.run(2)
        planned = [e for e in trainer.events if e.source == "planned"]
        assert planned and all(e.trigger == "drift" for e in planned)
        for event in planned:
            published = Plan.load(store.path_for(event.key))
            assert published.placement == trainer.optimizer.placement
            assert PlanIdentity.of(published).key(store.digits) == event.key

    def test_digests_are_computed_once_per_identity(self, monkeypatch):
        """A resolved workload builds its identity once, and the identity
        hashes each digest once; a fresh identity still hashes to the
        same keys."""
        import repro.api.store as store_mod
        from repro.api.compiler import resolve_workload

        resolved = resolve_workload(Scenario.preset("tiny/a100x8-hot"))
        assert resolved.signatures
        identity = resolved.identity
        assert resolved.identity is identity
        hashed = []
        real = store_mod.canonical_digest
        monkeypatch.setattr(
            store_mod,
            "canonical_digest",
            lambda payload: hashed.append(payload) or real(payload),
        )
        keys = [identity.key(), identity.key(2), identity.key(3)]
        bases = [identity.base_key(), identity.base_key()]
        assert len(hashed) == 3  # digits 2, digits 3, base
        assert keys[0] == keys[1] != keys[2] and bases[0] == bases[1]
        fresh = replace(identity)
        assert (fresh.key(), fresh.key(3), fresh.base_key()) == (
            keys[0],
            keys[2],
            bases[0],
        )


#: ``(field, values, digests)``: two ``tiny/a100x8`` variants that compare
#: equal but serialize apart, with their pinned scenario keys (the first
#: case only keys: ``hot_boost=1`` is outside ``[0, 1)`` and never compiles)
EQUAL_BUT_DISTINCT = [
    pytest.param(
        "hot_boost",
        (1, 1.0),
        (
            "321232af7b34effffb0e69d6967d463c14ae7a1255ff30cd12591756d3b5ea2f",
            "75f4dd00339f013a496b521a2810c4a34cdfac26406381ebb519a86a2cb149c7",
        ),
        id="hot_boost-int-vs-float",
    ),
    pytest.param(
        "hot_boost",
        (0.0, -0.0),
        (
            "07fa5ebc697f19d5a67132a281ef7d4728314e687d03aa72a54553af72b7363a",
            "e894cb64431a4f1864391fc39c847515741a34ff292cb283ab574b935c7d9399",
        ),
        id="hot_boost-signed-zero",
    ),
    pytest.param(
        "concentration",
        (16, 16.0),
        (
            "f9a943514234626f22a7b7029934288f2d01780964457846d1082c4fd764bb83",
            "07fa5ebc697f19d5a67132a281ef7d4728314e687d03aa72a54553af72b7363a",
        ),
        id="concentration-int-vs-float",
    ),
]


class TestWarmCompileSkipsPlanner:
    def test_store_hit_never_constructs_an_optimizer(
        self, scenario, tmp_path, monkeypatch
    ):
        """The acceptance criterion behind `num_cost_evals == 0`: a warm
        compile must not even instantiate LancetOptimizer."""
        store = PlanStore(tmp_path)
        cold = compile(scenario, store=store)
        assert not cold.from_store

        import repro.core.lancet as lancet_mod

        def boom(*a, **k):  # pragma: no cover - would mean a planner run
            raise AssertionError("planner ran on a warm store lookup")

        # PlanPolicy.make_optimizer resolves the class here at call time
        monkeypatch.setattr(lancet_mod, "LancetOptimizer", boom)
        warm = compile(scenario, store=PlanStore(tmp_path))
        assert warm.from_store
        assert warm.predicted_iteration_ms == cold.predicted_iteration_ms
        assert warm.simulate().makespan == cold.simulate().makespan

    def test_override_compiles_never_enter_the_scenario_index(
        self, scenario, tmp_path
    ):
        """A plan compiled with a cluster (or signature) override is not
        what a plain scenario compile means: it must not be served from
        the scenario index."""
        store = PlanStore(tmp_path)
        other_cluster = ClusterSpec.for_gpus("v100", 8)
        overridden = compile(scenario, other_cluster, store=store)
        assert overridden.cluster == other_cluster

        plain = compile(scenario, store=store)
        assert not plain.from_store
        assert plain.cluster == scenario.build_cluster()
        # and the pure compile does get indexed for next time
        warm = compile(scenario, store=PlanStore(tmp_path))
        assert warm.from_store
        assert warm.cluster == scenario.build_cluster()

    def test_scenario_index_key_is_pinned(self, tmp_path):
        """Stores already on disk keep hitting: the scenario index key a
        pure scenario compile writes never changes."""
        from repro.api.store import SCENARIO_INDEX, scenario_key

        sc = Scenario.preset("tiny/a100x8")
        plan = compile(sc, store=PlanStore(tmp_path))
        index = json.loads((tmp_path / SCENARIO_INDEX).read_text())
        pinned = "07fa5ebc697f19d5a67132a281ef7d4728314e687d03aa72a54553af72b7363a"
        assert list(index) == [pinned]
        assert scenario_key(sc, PlanPolicy(), plan.framework) == pinned

    @pytest.mark.parametrize("field, values, digests", EQUAL_BUT_DISTINCT)
    def test_equal_scenarios_keep_their_own_keys(self, field, values, digests):
        """Scenarios that compare equal but serialize differently keep
        their pinned, distinct scenario keys however the key is cached."""
        from repro.api.store import scenario_key
        from repro.runtime.device import COMPILED

        scenarios = [
            Scenario.preset("tiny/a100x8").with_(**{field: v}) for v in values
        ]
        assert scenarios[0] == scenarios[1] and digests[0] != digests[1]
        for sc, digest in zip(scenarios, digests):
            assert scenario_key(sc, PlanPolicy(), COMPILED) == digest

    def test_scenario_key_memo_is_bounded_and_thread_safe(self):
        """Threads keying more scenarios than the memo holds, with a
        short switch interval, each get every scenario's own digest."""
        import sys
        import threading
        from dataclasses import asdict

        import repro.api.store as store_mod
        from repro.api.fingerprint import canonical_digest
        from repro.runtime.device import COMPILED

        policy = PlanPolicy()
        base = Scenario.preset("tiny/a100x8")
        per_thread = store_mod._SCENARIO_DIGESTS_MAX // 2
        work = [
            [base.with_(routing_seed=t * per_thread + i) for i in range(per_thread)]
            for t in range(4)
        ]
        wrong = []

        def key_all(scenarios):
            for sc in scenarios * 2:
                expected = canonical_digest({
                    "scenario": asdict(sc),
                    "policy": asdict(policy),
                    "framework": asdict(COMPILED),
                })
                if store_mod.scenario_key(sc, policy, COMPILED) != expected:
                    wrong.append(sc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=key_all, args=(w,)) for w in work]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(store_mod._SCENARIO_DIGESTS) <= store_mod._SCENARIO_DIGESTS_MAX

    @pytest.mark.parametrize("field, values, digests", EQUAL_BUT_DISTINCT[1:])
    def test_equal_scenarios_find_their_own_entries(
        self, tmp_path, field, values, digests
    ):
        """Each of two equal-but-distinct scenarios compiled into a store
        files and then finds its own scenario-index entry."""
        from repro.api.store import SCENARIO_INDEX

        for i, (value, digest) in enumerate(zip(values, digests)):
            sc = Scenario.preset("tiny/a100x8").with_(**{field: value})
            store = PlanStore(tmp_path / str(i))
            plan = compile(sc, store=store)
            index = json.loads((store.root / SCENARIO_INDEX).read_text())
            assert list(index) == [digest]
            found = store.lookup_scenario(sc, plan.policy, plan.framework)
            assert found is not None
            assert repr(getattr(found.scenario, field)) == repr(value)

    @pytest.mark.parametrize(
        "preset, entry, base",
        [
            (
                "tiny/a100x8",
                "17b3ac9fb7cdc7e6b91ddfbf9682416980ceaf2bcb29adcd612723527a5dbd8e",
                "3518995bc7da8de143aa87eeeaf07ea2798896c83286b9ca3d1591b8561cd7bf",
            ),
            (
                "tiny/a100x8-pp2x4",
                "35129da81c0385bac5728fd59e59e75123e19055f201a1d792f9bf4f45bc970f",
                "f3425c527bf06754e3861cc7c7e1eed3e8552dc1da11b5ba1a137e73faa9648b",
            ),
        ],
    )
    def test_entry_and_base_keys_are_pinned(self, tmp_path, preset, entry, base):
        """Stores already on disk keep hitting: the entry key and the
        signature-free base key a scenario compile files its plan under
        never change (flat and staged)."""
        from repro.api.store import SIGNATURE_INDEX

        store = PlanStore(tmp_path)
        plan = compile(Scenario.preset(preset), store=store)
        index = json.loads((tmp_path / SIGNATURE_INDEX).read_text())
        assert {b: list(family) for b, family in index.items()} == {base: [entry]}
        assert store.path_for(entry).exists()
        ident = PlanIdentity.of(plan)
        assert (ident.key(store.digits), ident.base_key()) == (entry, base)

    def test_fingerprint_path_also_warm(self, scenario, tmp_path, monkeypatch):
        """Graph workloads (no scenario index) still hit via the
        canonical (fingerprint, cluster, policy, signatures) key."""
        store = PlanStore(tmp_path)
        graph = scenario.build_graph()
        cluster = scenario.build_cluster()
        cold = compile(graph, cluster, store=store)

        import repro.core.lancet as lancet_mod

        monkeypatch.setattr(
            lancet_mod,
            "LancetOptimizer",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("planner ran")),
        )
        warm = compile(scenario.build_graph(), cluster, store=PlanStore(tmp_path))
        assert warm.from_store
        assert warm.predicted_iteration_ms == cold.predicted_iteration_ms


class TestTrainerIntegration:
    def test_trainer_accepts_plan(self, compiled):
        from repro import Trainer

        graph = compiled.scenario.build_graph()
        direct = Trainer(graph, program=compiled.program, seed=0)
        via_plan = Trainer(graph, program=compiled, seed=0)
        a = direct.step().losses
        b = via_plan.step().losses
        assert a == b

    def test_mismatched_plan_rejected(self, compiled, scenario):
        """A plan compiled for a different graph (or cluster) must be
        refused up front, not silently installed."""
        from repro import Trainer
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        other_graph = scenario.with_(batch=8).build_graph()
        with pytest.raises(ValueError, match="different graph"):
            Trainer(other_graph, program=compiled)
        with pytest.raises(ValueError, match="different graph"):
            ReoptimizingTrainer(
                other_graph,
                LancetOptimizer(scenario.build_cluster()),
                plan=compiled,
            )
        with pytest.raises(ValueError, match="cluster"):
            ReoptimizingTrainer(
                scenario.build_graph(),
                LancetOptimizer(ClusterSpec.for_gpus("v100", 8)),
                plan=compiled,
            )

    def test_reoptimizing_trainer_starts_from_plan(self, compiled):
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        graph = compiled.scenario.build_graph()
        cluster = compiled.scenario.build_cluster()
        tr = ReoptimizingTrainer(
            graph,
            LancetOptimizer(cluster),
            plan=compiled,
            drift_threshold=10.0,  # never re-plan in this test
            seed=0,
        )
        assert tr.program is compiled.program
        assert tr.predicted_ms == compiled.predicted_iteration_ms
        assert tr.plan_signatures == (compiled.signatures or {})
        tr.step()
        assert tr.num_reoptimizations == 0

    def test_corrupt_store_entry_degrades_to_replan(self, tmp_path):
        """A shared-cache read failure must never abort training: the
        trainer treats a corrupt entry as a miss and re-plans (which
        also overwrites the bad entry)."""
        from repro import GPT2MoEConfig, build_training_graph
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        cluster = ClusterSpec.for_gpus("a100", 2)
        store = PlanStore(tmp_path)
        graph = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        with PlanServer(store) as server:
            a = ReoptimizingTrainer(
                graph,
                LancetOptimizer(cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            a.run(2)
        assert len(store) >= 1
        for path in store.entries():
            path.write_text("garbage, not a plan")

        graph_b = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        with PlanServer(PlanStore(tmp_path)) as server:
            b = ReoptimizingTrainer(
                graph_b,
                LancetOptimizer(cluster),
                drift_threshold=0.0,
                seed=0,
                server=server,
            )
            with pytest.warns(UserWarning, match="re-planning"):
                b.run(2)  # must not raise
        assert not any(e.source == "store" for e in b.events)
        assert a.loss_curve() == b.loss_curve()

    def test_fleet_shares_plans_through_store(self, tmp_path):
        """Trainer A's server plans and stores its re-plans; trainer B,
        through its own server over the same store, re-uses A's plans
        (source "store") instead of running a planner."""
        from repro import GPT2MoEConfig, build_training_graph
        from repro.core import LancetOptimizer
        from repro.train import ReoptimizingTrainer

        cluster = ClusterSpec.for_gpus("a100", 2)
        store = PlanStore(tmp_path)

        def run_trainer():
            graph = build_training_graph(
                GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
            )
            with PlanServer(store) as server:
                trainer = ReoptimizingTrainer(
                    graph,
                    LancetOptimizer(cluster),
                    drift_threshold=0.0,  # re-plan every step
                    seed=0,
                    server=server,
                )
                trainer.run(2)
            return trainer

        a = run_trainer()
        planned = [e for e in a.events if e.source == "planned"]
        assert planned, "trainer A must have planned at least once"
        assert len(store) >= 1

        b = run_trainer()
        hits = [e for e in b.events if e.source == "store"]
        assert hits, "trainer B must reuse trainer A's published plans"
        # the trainer still waited for each answer: the store read
        assert all(e.wall_seconds > 0 for e in hits)
        # identical trajectory regardless of where the plan came from
        assert a.loss_curve() == b.loss_curve()


#: every ``PlanPolicy`` field is off its default in at least one case
ONE_POLICY_CASES = {
    "no-dw-rho2": PlanPolicy(enable_dw_schedule=False, max_partitions=2),
    "no-partition-deferred": PlanPolicy(
        enable_partition=False, defer_allreduce=True
    ),
    "hier-uniform-gamma-iota": PlanPolicy(
        enable_hierarchical_a2a=True,
        skew_aware=False,
        group_ms=0.05,
        max_range_groups=4,
    ),
}


class TestOnePolicy:
    """One ``PlanPolicy`` value reaches every planner front end: the
    facade, the Lancet baseline and the re-optimizing trainer."""

    @pytest.mark.parametrize(
        "policy", ONE_POLICY_CASES.values(), ids=ONE_POLICY_CASES.keys()
    )
    def test_policy_reaches_every_planner(
        self, policy, tiny_graph, small_cluster
    ):
        from repro.baselines import LancetFramework
        from repro.ir import program_to_json
        from repro.train import ReoptimizingTrainer

        plan = compile(tiny_graph, small_cluster, policy=policy)
        assert plan.policy == policy

        baseline = LancetFramework(policy).prepare(tiny_graph, small_cluster)
        assert program_to_json(baseline.program) == program_to_json(
            plan.program
        )

        optimizer = policy.make_optimizer(small_cluster)
        assert optimizer.policy is policy
        trainer = ReoptimizingTrainer(
            tiny_graph, optimizer, drift_threshold=0.0, seed=0
        )
        trainer.run(1)
        [event] = trainer.events
        # the trainer plans against what it observed, so its request
        # is the skew-aware twin of the optimizer's policy
        assert event.key == PlanIdentity(
            graph_fingerprint(tiny_graph.program),
            small_cluster,
            replace(policy, skew_aware=True),
            optimizer.framework,
            trainer.plan_signatures,
        ).key()
