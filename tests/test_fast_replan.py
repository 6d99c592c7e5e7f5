"""Fast re-planning: incremental DP, warm-start state, bounded caches.

Acceptance coverage of the planner-performance subsystem:

- the fast partition DP (:func:`plan_partitions`) produces *bit-identical*
  plans and predicted times to the retained naive reference
  (:func:`plan_partitions_reference`), across randomized programs and
  routing signatures, cold and warm;
- the warm-start :class:`PlannerState` self-validates: a different
  program falls back to a cold rebuild, never a wrong plan;
- the logical cost-evaluation budget (``DPResult.num_cost_evals``) does
  not regress on the standard GPT2-MoE config;
- the signature-keyed caches (a2a estimates, op profiles) are
  LRU-bounded with observable counters, surfaced in
  :class:`LancetReport`;
- a trainer re-plans warm through its own optimizer or through a
  :class:`~repro.serving.PlanServer`, whose warm planner runs equal
  cold compiles.
"""

from dataclasses import replace

import pytest
from generators import PROGRAM_GRID, build_grid_graph, routing_models
from oracles.dp_reference import plan_partitions_reference

from repro import GPT2MoEConfig, build_training_graph
from repro.api import PlanIdentity, PlanPolicy, graph_fingerprint
from repro.api.store import signature_bucket
from repro.bench.figures.opt_time import DRIFTS
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    LancetOptimizer,
    LRUCache,
    PlannerState,
    plan_partitions,
)
from repro.core.partition import ConsumerIndex, forward_length
from repro.runtime import COMPILED, ClusterSpec
from repro.runtime.routing_model import SyntheticRoutingModel
from repro.train import ReoptimizingTrainer


def fresh_costs(cluster):
    return CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
        CommCostModel(cluster),
    )


def plan_fields(result):
    return [
        (p.start, p.end, p.parts, p.predicted_ms, p.sequential_ms)
        for p in result.plans
    ]


def assert_identical(fast, ref):
    assert plan_fields(fast) == plan_fields(ref)
    assert fast.optimized_fwd_ms == ref.optimized_fwd_ms
    assert fast.baseline_fwd_ms == ref.baseline_fwd_ms
    assert fast.num_groups == ref.num_groups
    assert fast.num_cost_evals == ref.num_cost_evals


#: routing realizations to re-plan against (None = uniform approximation);
#: shared with the batch-simulation differential harness
ROUTINGS = routing_models(include_none=True)


class TestEquivalence:
    @pytest.mark.parametrize("layers,gpus,batch,seq,gate", PROGRAM_GRID)
    def test_cold_plans_bit_identical(self, layers, gpus, batch, seq, gate):
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_grid_graph(layers, gpus, batch, seq, gate)
        fast = plan_partitions(graph.program, fresh_costs(cluster))
        ref = plan_partitions_reference(graph.program, fresh_costs(cluster))
        assert_identical(fast, ref)

    @pytest.mark.parametrize("routing_idx", range(len(ROUTINGS)))
    def test_signatures_bit_identical(self, routing_idx):
        """Across routing signatures: same program, drifting realizations;
        fast warm re-plans must equal the naive reference exactly."""
        routing = ROUTINGS[routing_idx]
        gpus = 8
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=3),
            batch=8,
            seq=128,
            num_gpus=gpus,
        )
        opt = LancetOptimizer(cluster)
        if routing is not None:
            sigs = opt.observe_routing(graph, routing)
        else:
            sigs = None

        costs_ref = fresh_costs(cluster)
        if sigs:
            costs_ref.set_signatures(sigs)
        fast = plan_partitions(
            graph.program, opt.costs, state=opt.planner_state
        )
        ref = plan_partitions_reference(graph.program, costs_ref)
        assert_identical(fast, ref)

    def test_warm_replans_bit_identical_across_drift(self):
        """The same PlannerState re-used across a drift sequence must
        reproduce what a cold reference computes at every step."""
        gpus = 8
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=3),
            batch=8,
            seq=128,
            num_gpus=gpus,
        )
        opt = LancetOptimizer(cluster)
        state = opt.planner_state
        # cold first
        fast = plan_partitions(graph.program, opt.costs, state=state)
        assert not fast.warm_start
        for routing in ROUTINGS[2:]:
            sigs = opt.observe_routing(graph, routing)
            fast = plan_partitions(graph.program, opt.costs, state=state)
            assert fast.warm_start

            costs_ref = fresh_costs(cluster)
            costs_ref.set_signatures(sigs)
            ref = plan_partitions_reference(graph.program, costs_ref)
            assert_identical(fast, ref)
        assert state.warm_plans >= 3 and state.cold_plans == 1

    def test_optimize_level_warm_equals_cold(self):
        """Full optimizer runs: a warm re-plan must emit the same
        program, instruction for instruction, as a cold optimizer handed
        the same signatures."""
        gpus = 8
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=3),
            batch=8,
            seq=128,
            num_gpus=gpus,
        )
        warm_opt = LancetOptimizer(cluster)
        warm_opt.optimize(graph)  # cold: charges the warm-start state
        routing = SyntheticRoutingModel(
            seed=5, concentration=0.5, hot_experts=1, hot_boost=0.6
        )
        sigs = warm_opt.observe_routing(graph, routing)
        warm_prog, warm_rep = warm_opt.optimize(graph)
        assert warm_rep.warm_planned

        cold_opt = LancetOptimizer(cluster)
        cold_opt.set_routing_signatures(sigs)
        cold_prog, cold_rep = cold_opt.optimize(graph)
        assert not cold_rep.warm_planned

        def key(prog):
            return [
                (i.op, i.partition, tuple(i.inputs))
                for i in prog.instructions
            ]

        assert key(cold_prog) == key(warm_prog)
        assert (
            cold_rep.predicted_iteration_ms == warm_rep.predicted_iteration_ms
        )

    def test_hyperparams_respected_with_state(self):
        gpus = 8
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=3),
            batch=8,
            seq=128,
            num_gpus=gpus,
        )
        state = PlannerState()
        costs = fresh_costs(cluster)
        plan_partitions(graph.program, costs, state=state)
        policy = PlanPolicy(max_partitions=2)
        fast = plan_partitions(graph.program, costs, policy, state=state)
        ref = plan_partitions_reference(graph.program, fresh_costs(cluster), policy)
        assert_identical(fast, ref)
        assert all(p.parts <= 2 for p in fast.plans)


class TestPlannerState:
    def test_program_change_invalidates(self, small_cluster):
        """A state charged on one program must rebuild (not mis-plan)
        when handed a structurally different one."""
        costs = fresh_costs(small_cluster)
        state = PlannerState()
        g1 = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        g2 = build_training_graph(
            GPT2MoEConfig.tiny(num_layers=4), batch=4, seq=8, num_gpus=2
        )
        r1 = plan_partitions(g1.program, costs, state=state)
        r2 = plan_partitions(g2.program, costs, state=state)
        assert not r1.warm_start and not r2.warm_start
        assert state.cold_plans == 2
        ref2 = plan_partitions_reference(g2.program, fresh_costs(small_cluster))
        assert_identical(r2, ref2)
        # going back is another structure change -> cold again, and right
        r1b = plan_partitions(g1.program, costs, state=state)
        assert not r1b.warm_start
        assert_identical(
            r1b, plan_partitions_reference(g1.program, fresh_costs(small_cluster))
        )

    def test_reset_forces_cold(self, small_cluster):
        costs = fresh_costs(small_cluster)
        state = PlannerState()
        g = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        plan_partitions(g.program, costs, state=state)
        assert plan_partitions(g.program, costs, state=state).warm_start
        state.reset()
        assert not plan_partitions(g.program, costs, state=state).warm_start

    def test_consumer_index_matches_naive_scan(self, small_cluster):
        """The O(1) membership index answers exactly like the reference's
        per-range program rescan."""
        g = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        program = g.program
        index = ConsumerIndex(program)
        fwd = forward_length(program)
        vids = list(program.values)
        for i_pos, n_pos in [(0, 3), (2, fwd // 2), (fwd // 3, fwd), (5, 9)]:
            naive = set(program.outputs) | set(program.grads.values())
            for pos, ins in enumerate(program.instructions):
                if pos < i_pos or pos >= n_pos:
                    naive.update(ins.inputs)
            view = index.view(i_pos, n_pos)
            for vid in vids:
                assert (vid in view) == (vid in naive), (i_pos, n_pos, vid)

    def test_stats_exposed(self, small_cluster):
        costs = fresh_costs(small_cluster)
        state = PlannerState()
        g = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        plan_partitions(g.program, costs, state=state)
        plan_partitions(g.program, costs, state=state)
        stats = state.stats()
        assert stats["cold_plans"] == 1 and stats["warm_plans"] == 1
        for cache in ("range_ctx", "chunk", "overhead", "sim"):
            assert set(stats[cache]) >= {"hits", "misses", "evictions", "size"}
        # the warm plan reuses every range context
        assert stats["range_ctx"]["hits"] > 0


class TestPerfBudget:
    def test_num_cost_evals_does_not_regress_standard_config(self):
        """Standard GPT2-MoE config (paper setting: 12 layers, batch 24,
        seq 512, 16 GPUs): the fast DP must consider exactly the
        reference's candidate set -- caching may skip work, never search
        less -- and stay within the historical budget."""
        gpus = 16
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=gpus
        )
        fast = plan_partitions(graph.program, fresh_costs(cluster))
        ref = plan_partitions_reference(graph.program, fresh_costs(cluster))
        assert fast.num_cost_evals == ref.num_cost_evals
        # the historical budget of this config (PR 2): do not regress
        assert fast.num_cost_evals <= 1140
        assert fast.num_groups == ref.num_groups == 68
        assert_identical(fast, ref)

    def test_axis_inference_extends_ranges_standard_config(self):
        """A cold plan grows each range start's axis problem instead of
        re-solving every candidate range: it adds fewer instructions than
        the from-scratch sum of range lengths (13177 on this config), and
        stays within the budget measured when incremental inference
        landed.  A warm re-plan adds none."""
        gpus = 16
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=gpus
        )
        state = PlannerState()
        plan_partitions(graph.program, fresh_costs(cluster), state=state)
        cold = state.stats()["axis_inference"]
        from_scratch = sum(n - i for i, n in state.contexts._data)
        assert from_scratch == 13177
        assert cold["instructions"] <= 1802 < from_scratch
        assert cold["propagation_steps"] <= 1833
        assert not state.frontiers
        plan_partitions(graph.program, fresh_costs(cluster), state=state)
        assert state.stats()["axis_inference"] == cold

    def test_warm_replan_prices_only_the_drift(self):
        """A warm re-plan with unchanged signatures re-simulates nothing;
        after drift it re-simulates only a2a-bearing candidates.  Every
        candidate is either simulated or skipped by the DP's lower bound
        (on this program some survive the bound)."""
        gpus = 16
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=3),
            batch=8,
            seq=256,
            num_gpus=gpus,
        )
        opt = LancetOptimizer(cluster)
        state = opt.planner_state
        cold = plan_partitions(graph.program, opt.costs, state=state)
        assert cold.num_pipeline_sims > 0
        assert (
            cold.num_pipeline_sims + cold.num_bounded == cold.num_cost_evals
        )
        # same signatures again: every simulation is a cache hit
        again = plan_partitions(graph.program, opt.costs, state=state)
        assert again.warm_start and again.num_pipeline_sims == 0
        assert again.num_cost_evals == cold.num_cost_evals
        # drift: the changed a2a prices invalidate their simulations
        opt.observe_routing(
            graph,
            SyntheticRoutingModel(
                seed=9, concentration=0.5, hot_experts=1, hot_boost=0.6
            ),
        )
        drifted = plan_partitions(graph.program, opt.costs, state=state)
        assert drifted.warm_start
        assert 0 < drifted.num_pipeline_sims <= cold.num_pipeline_sims


    def test_warm_path_counts_reference_config(self):
        """After the DP, a warm re-plan replays every range it rewrote
        before, re-prices only all-to-all rows and freshly rewritten
        rows in the prediction, and keeps its dW labelling.  Pinned on
        the opt-time figure's drift sequence: a cold plan (6 ranges
        rewritten, all 1501 rows priced), then three drifts."""
        gpus = 16
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(), batch=24, seq=512, num_gpus=gpus
        )
        opt = LancetOptimizer(cluster)
        opt.optimize(graph)
        counts = [dict(opt.cache_stats()["planner_warm_path"])]
        for drift in DRIFTS:
            opt.observe_routing(graph, SyntheticRoutingModel(**drift))
            opt.optimize(graph)
            counts.append(dict(opt.cache_stats()["planner_warm_path"]))
        assert [
            (c["ranges_replayed"], c["ranges_rewritten"]) for c in counts
        ] == [(0, 6), (0, 12), (3, 15), (8, 16)]
        assert [c["prediction_rows_priced"] for c in counts] == [
            1501, 2176, 2487, 2733
        ]
        assert {c["dw_labellings"] for c in counts} == {1}


class TestLRUCache:
    def test_hit_miss_eviction_counters(self):
        c = LRUCache(2, name="t")
        assert c.get("a") is None
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1
        c.put("c", 3)  # evicts b (a was refreshed)
        assert "b" not in c and "a" in c and "c" in c
        assert c.get("b") is None
        assert c.stats() == {
            "hits": 1,
            "misses": 2,
            "evictions": 1,
            "size": 2,
            "maxsize": 2,
        }
        assert len(c) == 2
        c.clear()
        assert len(c) == 0 and c.stats()["evictions"] == 1

    def test_unbounded_mode(self):
        c = LRUCache(None)
        for i in range(100):
            c.put(i, i)
        assert len(c) == 100 and c.evictions == 0
        assert c.maxsize is None

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_a2a_cache_bounded(self, small_cluster):
        costs = fresh_costs(small_cluster)
        assert costs._a2a_cache.maxsize is not None
        # overflowable on demand
        costs._a2a_cache = LRUCache(2)
        for nbytes in (1e3, 2e3, 3e3, 4e3):
            costs._a2a_irregular_ms(nbytes, 1, None)
        assert len(costs._a2a_cache) == 2
        assert costs._a2a_cache.evictions == 2
        # evicted entries recompute to the same value
        first = costs.comm.a2a_skewed_ms(1e3, 1, None)
        assert costs._a2a_irregular_ms(1e3, 1, None) == first

    def test_profiler_cache_bounded(self, small_cluster):
        profiler = CachingOpProfiler(
            gpu=small_cluster.gpu, framework=COMPILED
        )
        assert profiler._cache.maxsize is not None

    def test_sim_cache_bounded_across_drifting_signatures(self):
        """The pipeline-simulation cache keys on realized a2a durations,
        an unbounded stream under drift -- it must be LRU-bounded so a
        long re-optimizing run cannot leak planner memory.  A bound small
        enough to evict inside every plan must not change any plan.  The
        program is one where more than 8 candidates per plan survive the
        DP's lower bound, so the simulations overflow the cache."""
        from repro.core.partition import PlanCaches

        assert PlanCaches().sim.maxsize is not None

        gpus = 16
        cluster = ClusterSpec.for_gpus("a100", gpus)
        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=2),
            batch=8,
            seq=256,
            num_gpus=gpus,
        )
        opt = LancetOptimizer(cluster)
        state = opt.planner_state
        state.caches.sim = LRUCache(8, name="planner-pipe-sim")
        for seed in range(6):
            sigs = opt.observe_routing(
                graph,
                SyntheticRoutingModel(
                    seed=seed, concentration=0.5, hot_experts=1, hot_boost=0.5
                ),
            )
            evictions = state.caches.sim.evictions
            fast = plan_partitions(graph.program, opt.costs, state=state)
            assert len(state.caches.sim) <= 8
            # the bound engages within this one plan
            assert state.caches.sim.evictions > evictions

            costs_ref = fresh_costs(cluster)
            costs_ref.set_signatures(sigs)
            ref = plan_partitions_reference(graph.program, costs_ref)
            assert plan_fields(fast) == plan_fields(ref)
            assert fast.optimized_fwd_ms == ref.optimized_fwd_ms

    def test_cost_estimator_cache_size_param(self, small_cluster):
        costs = CostEstimator(
            CachingOpProfiler(gpu=small_cluster.gpu, framework=COMPILED),
            CommCostModel(small_cluster),
            a2a_cache_size=2,
        )
        for nbytes in (1e3, 2e3, 3e3):
            costs._a2a_irregular_ms(nbytes, 1, None)
        assert costs._a2a_cache.maxsize == 2
        assert costs._a2a_cache.evictions == 1
        opt = LancetOptimizer(small_cluster, a2a_cache_size=8)
        assert opt.costs._a2a_cache.maxsize == 8

    def test_report_surfaces_cache_stats(self, small_cluster):
        g = build_training_graph(
            GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
        )
        opt = LancetOptimizer(small_cluster)
        _, report = opt.optimize(g)
        stats = report.cache_stats
        for key in (
            "profiler",
            "a2a_estimates",
            "planner_range_ctx",
            "planner_chunk",
            "planner_sim",
        ):
            assert "hits" in stats[key] and "misses" in stats[key], key
        assert stats["planner_cold_plans"] == 1
        assert stats["planner_axis_inference"]["instructions"] > 0


class TestTrainerIntegration:
    def test_own_replans_are_warm_and_timed(self, tiny_graph, small_cluster):
        tr = ReoptimizingTrainer(
            tiny_graph,
            LancetOptimizer(small_cluster),
            drift_threshold=0.0,
            seed=0,
        )
        tr.run(3)
        # every optimizer run after the constructor's cold plan is warm
        assert [e.source for e in tr.events] == ["planned"] * 3
        assert all(e.warm_start and e.wall_seconds > 0 for e in tr.events)
        # the event key is the store entry key of the installed plan
        opt = tr.optimizer
        assert tr.events[-1].key == PlanIdentity(
            graph_fingerprint(tiny_graph.program),
            opt.cluster,
            replace(opt.policy, skew_aware=True),
            opt.framework,
            tr.plan_signatures,
        ).key()

    @pytest.mark.parametrize("with_plan", [False, True])
    def test_graph_fingerprinted_once(
        self, tiny_graph, small_cluster, monkeypatch, with_plan
    ):
        """The graph never changes, so N re-plans (and the constructor's
        check of a handed-in plan) fingerprint it at most once."""
        import repro.api.compiler
        import repro.train.loop
        from repro.api import compile

        plan = None
        if with_plan:
            plan = compile(tiny_graph, small_cluster)
        real = graph_fingerprint
        calls = []

        def counting(program):
            calls.append(program)
            return real(program)

        for module in (repro.api.compiler, repro.train.loop):
            monkeypatch.setattr(module, "graph_fingerprint", counting)
        tr = ReoptimizingTrainer(
            tiny_graph,
            LancetOptimizer(small_cluster),
            drift_threshold=0.0,
            seed=0,
            plan=plan,
        )
        tr.run(4)
        assert len(tr.events) == 4
        assert len(calls) == 1
        assert tr.events[-1].key == PlanIdentity(
            real(tiny_graph.program),
            tr.optimizer.cluster,
            replace(tr.optimizer.policy, skew_aware=True),
            tr.optimizer.framework,
            tr.plan_signatures,
        ).key()

    def test_trajectory_unchanged_by_warm_replanning(
        self, tiny_graph, small_cluster
    ):
        """Warm re-plans swap schedules mid-training without moving a
        single loss bit (they are bit-identical to cold plans, which
        PR 2 already proved safe)."""
        from repro.train import Trainer

        reopt = ReoptimizingTrainer(
            tiny_graph,
            LancetOptimizer(small_cluster),
            drift_threshold=0.0,
            seed=0,
        )
        results = reopt.run(3)
        assert any(e.warm_start for e in reopt.events)
        static_prog, _ = LancetOptimizer(small_cluster).optimize(tiny_graph)
        baseline = Trainer(tiny_graph, program=static_prog, seed=0).run(3)
        assert [r.losses for r in results] == [r.losses for r in baseline]


def _program_key(program) -> list:
    return [
        (ins.op, ins.partition, tuple(ins.inputs), tuple(ins.outputs))
        for ins in program.instructions
    ]


class TestTrainerViaServer:
    """The trainer asks a :class:`PlanServer` for every re-plan."""

    @pytest.fixture()
    def server(self, tmp_path):
        from repro.api import PlanStore
        from repro.serving import PlanServer

        with PlanServer(PlanStore(tmp_path / "plans"), max_distance=0) as srv:
            yield srv

    def _trainer(self, graph, cluster, server, **kw):
        return ReoptimizingTrainer(
            graph,
            LancetOptimizer(cluster),
            drift_threshold=0.0,
            seed=0,
            server=server,
            **kw,
        )

    def test_server_runs_are_warm_and_match_cold_compiles(self, server):
        """Differential check of the warm pool: each server answer for a
        new signature bucket equals a fresh cold ``compile``; every run
        after the first re-plans warm."""
        from repro.api import compile

        graph = build_training_graph(
            GPT2MoEConfig.gpt2_s_moe(num_layers=2), batch=8, seq=64,
            num_gpus=4,
        )
        cluster = ClusterSpec.for_gpus("a100", 4)
        routings = [
            SyntheticRoutingModel(
                seed=s, concentration=0.3, hot_experts=1, hot_boost=b
            )
            for s, b in ((1, 0.2), (2, 0.4), (3, 0.6), (4, 0.8))
        ]
        probe = LancetOptimizer(cluster)
        answers = []
        for routing in routings:
            sigs = probe.observe_routing(graph, routing)
            answer = server.serve(graph, cluster, signatures=sigs)
            cold = compile(graph, cluster, signatures=sigs)
            assert answer.origin == "planned"
            assert _program_key(answer.plan.program) == _program_key(
                cold.program
            )
            assert (
                answer.plan.predicted_iteration_ms
                == cold.predicted_iteration_ms
            )
            answers.append(answer)
        assert len({a.key for a in answers}) == len(routings)
        # the buckets price apart, so the comparison above has teeth
        predicted = {a.plan.predicted_iteration_ms for a in answers}
        assert len(predicted) == len(routings)
        warm = [a.plan.planner["warm_planned"] for a in answers]
        assert warm == [False] + [True] * (len(routings) - 1)

    def test_nearest_answer_is_installed_until_the_exact_plan_lands(
        self, tiny_graph, small_cluster, tmp_path
    ):
        from repro.api import PlanStore
        from repro.serving import PlanServer

        store = PlanStore(tmp_path / "plans")
        with PlanServer(store, max_distance=float("inf")) as srv:
            first = self._trainer(tiny_graph, small_cluster, srv)
            first.run(1)
            srv.drain()
            # same graph, another routing realization: every bucket it
            # observes is near one of the first trainer's
            second = self._trainer(
                tiny_graph, small_cluster, srv, lr_corpus_alpha=1.5
            )
            second.run(1)
            srv.drain()
        [event] = second.events
        assert event.source == "nearest" and event.migrated
        assert event.wall_seconds > 0  # the server round trip
        # drift is measured against the neighbor's own signatures, so
        # the next observation re-plans (and finds the swapped-in plan)
        assert signature_bucket(second.plan_signatures) == signature_bucket(
            first.plan_signatures
        )
        assert srv.counters["hot_swaps"] == 1

    def test_degraded_answers_are_never_installed(
        self, tiny_graph, small_cluster, tmp_path
    ):
        from repro.api import PlanStore
        from repro.api.compiler import plan_resolved
        from repro.faults import FlakyPlanner
        from repro.serving import PlanServer

        planner = FlakyPlanner(plan_resolved, outage=(0, 10**9))
        with PlanServer(
            PlanStore(tmp_path / "plans"),
            planner=planner,
            breaker_threshold=1,
            breaker_cooldown_s=3600.0,
        ) as srv:
            tr = self._trainer(tiny_graph, small_cluster, srv)
            installed = tr.program
            tr.run(2)
        assert [e.source for e in tr.events] == ["baseline"] * 2
        assert not any(e.migrated for e in tr.events)
        assert tr.program is installed and tr.plan_signatures == {}
