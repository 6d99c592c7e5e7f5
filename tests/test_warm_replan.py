"""A warm re-plan redoes only what drift changed, bit for bit.

After the partition DP, a warm :class:`LancetOptimizer` reuses every
routing-independent result of the re-plan before it:

- a range it rewrote before is replayed from its recorded segment
  (:func:`repro.core.partition.apply_plans` with the
  :class:`PlannerState`) -- checked here against a fresh, stateless
  rewrite of the same plans over seeded drift sequences on
  ``gpt2-s-moe/a100x16`` (uniform and ``-hot``), a hierarchical-a2a
  2-node cluster, and a ``-pp2x4`` stage segment (on ``v100x32``);
- the iteration prediction keeps its compute prices by instruction uid
  -- checked against ``simulate_program(duration_fn=...)`` bit for bit,
  including programs decoded from JSON whose uids collide with local
  ones;
- the dW pass keeps its labelling (:class:`DWLabelling`);
- a different program resets both the segment cache and the labelling.
"""

import json
import random

import pytest

from repro import Scenario
from repro.core import (
    DWLabelling,
    LancetOptimizer,
    PlannerState,
    PlanPolicy,
    WeightGradSchedulePass,
    plan_partitions,
)
from repro.core.partition import apply_plans
from repro.ir import Program, validate
from repro.pipeline import StagedCluster
from repro.pipeline.partition import split_stages
from repro.runtime import simulate_program
from repro.runtime.routing_model import SyntheticRoutingModel

HIER = PlanPolicy(enable_hierarchical_a2a=True)


def drift(index: int, rng: random.Random) -> SyntheticRoutingModel:
    """A drift stream like the benchmark's: the hot boost follows a
    triangle wave, concentration and hot-expert count step."""
    phase = index % 8
    tri = phase / 4 if phase < 4 else (8 - phase) / 4
    return SyntheticRoutingModel(
        seed=rng.randrange(1, 2**31),
        concentration=(0.5, 1.0, 4.0, 16.0)[index % 4],
        hot_experts=1 + (index // 4) % 2,
        hot_boost=round(0.3 + 0.5 * tri, 4),
    )


def normalized(program: Program) -> dict:
    """Program JSON with each uid replaced by its position (a replay keeps
    the uids of the segment it replays, a fresh rewrite mints new ones;
    ``origin`` names the unpartitioned instruction and is kept)."""
    doc = program.to_json()
    pos = {ins["uid"]: i for i, ins in enumerate(doc["instructions"])}
    for ins in doc["instructions"]:
        ins["uid"] = pos[ins["uid"]]
    return doc


def fresh_rewrite(program: Program, opt: LancetOptimizer, report) -> Program:
    """What a stateless optimizer makes of the warm run's own plans: a
    cold dW labelling and a rewrite of every range."""
    fresh = program.clone()
    if opt.policy.enable_dw_schedule:
        WeightGradSchedulePass(opt.costs).run(fresh)
    apply_plans(fresh, report.partition.plans)
    validate(fresh)
    if opt.policy.enable_hierarchical_a2a:
        opt._annotate_a2a_algorithms(fresh)
    return fresh


def warm_path(opt: LancetOptimizer) -> dict:
    return opt.cache_stats()["planner_warm_path"]


def drift_replans(program, cluster, policy, steps, seed):
    """Yield ``(optimizer, routing, warm program, report)`` per drift step
    of one warm optimizer."""
    rng = random.Random(seed)
    opt = LancetOptimizer(cluster, policy=policy)
    for i in range(steps):
        routing = drift(i, rng)
        opt.observe_routing(program, routing)
        warm, report = opt.optimize(program)
        yield opt, routing, warm, report


@pytest.fixture(scope="module")
def s_moe():
    scenario = Scenario.preset("gpt2-s-moe/a100x16")
    return scenario.build_graph(), scenario.build_cluster()


@pytest.fixture(scope="module")
def stage_segment():
    """Stage 0's forward segment of ``gpt2-s-moe/a100x16-pp2x4`` moved to
    ``v100x32``, with its stage subgroup cluster.  On ``a100x16`` a stage
    is one NVLink node and the DP partitions nothing; a ``v100x32`` stage
    spans two nodes, so drift picks partitioned ranges."""
    scenario = Scenario.preset("gpt2-s-moe/a100x16-pp2x4").with_(
        cluster="v100", num_gpus=32
    )
    graph = scenario.build_graph()
    staged = StagedCluster.even(
        scenario.build_cluster(), graph.cfg.num_layers, 2
    )
    split = split_stages(graph, staged)
    return split.segment(0, "forward").program, staged.stages[0].cluster


class TestReplayEqualsFreshRewrite:
    @pytest.mark.parametrize(
        "name,policy,first",
        [
            ("uniform", PlanPolicy(), None),
            ("hot", PlanPolicy(), dict(hot_experts=2, hot_boost=0.7)),
            ("hierarchical", HIER, None),
        ],
    )
    def test_gpt2_s_moe_drift(self, s_moe, name, policy, first):
        graph, cluster = s_moe
        opt = LancetOptimizer(cluster, policy=policy)
        if first is not None:
            opt.observe_routing(graph, SyntheticRoutingModel(seed=7, **first))
        opt.optimize(graph)
        rng = random.Random(name)
        for i in range(6):
            opt.observe_routing(graph, drift(i, rng))
            warm, report = opt.optimize(graph)
            assert normalized(warm) == normalized(
                fresh_rewrite(graph.program, opt, report)
            )
        counts = warm_path(opt)
        assert counts["ranges_replayed"] > 0 and counts["ranges_rewritten"] > 0
        assert counts["dw_labellings"] == 1

    def test_pp2x4_stage_segment_drift(self, stage_segment):
        program, cluster = stage_segment
        for opt, _, warm, report in drift_replans(
            program, cluster, PlanPolicy(), steps=6, seed=3
        ):
            assert normalized(warm) == normalized(
                fresh_rewrite(program, opt, report)
            )
        assert warm_path(opt)["ranges_replayed"] > 0

    def test_segment_survives_a_different_backward_order(self, s_moe):
        """The dW pass reorders only the backward half, so a range's
        exports -- its values read after it -- do not change, and a
        segment recorded under one backward order replays exactly under
        another."""
        graph, cluster = s_moe
        opt = LancetOptimizer(cluster)
        opt.observe_routing(graph, SyntheticRoutingModel(seed=5))
        costs = opt.costs
        state = PlannerState()

        unordered = graph.program.clone()
        first = plan_partitions(unordered, costs, state=state)
        apply_plans(unordered, first.plans, state)

        reordered = graph.program.clone()
        WeightGradSchedulePass(costs).run(reordered)
        assert [i.uid for i in reordered.instructions] != [
            i.uid for i in graph.program.instructions
        ]
        again = plan_partitions(reordered, costs, state=state)
        assert again.warm_start
        fresh = reordered.clone()
        apply_plans(fresh, again.plans)
        replayed = state.segments.hits
        apply_plans(reordered, again.plans, state)
        assert state.segments.hits - replayed == len(again.plans) > 0
        validate(reordered)
        assert normalized(reordered) == normalized(fresh)


class TestPredictionPricesOnce:
    def test_equals_simulate_program_over_drift(self, s_moe):
        graph, cluster = s_moe
        priced = []
        for opt, _, warm, report in drift_replans(
            graph, cluster, HIER, steps=5, seed=11
        ):
            exact = simulate_program(
                warm, duration_fn=opt.costs.duration_ms
            ).makespan
            assert report.predicted_iteration_ms == exact
            assert opt.costs.predict_iteration_ms(warm) == exact
            priced.append(warm_path(opt)["prediction_rows_priced"])
        # a warm prediction prices far fewer rows than the program holds
        assert priced[-1] - priced[-2] < len(warm.instructions) // 2

    def test_decoded_program_with_colliding_uids(self, s_moe):
        """A decoded program keeps its uids, which may name other
        instructions in this process: the memo must not hand it a
        local instruction's price."""
        graph, cluster = s_moe
        opt = LancetOptimizer(cluster)
        program, _ = opt.optimize(graph)
        costs = opt.costs
        costs.predict_iteration_ms(program)  # prime the memo
        doc = json.loads(json.dumps(program.to_json()))
        # swap the uids of a compute row and a memoized communication row
        rows = doc["instructions"]
        a = next(i for i, r in enumerate(rows) if r["op"] == "allreduce")
        b = next(i for i, r in enumerate(rows) if r["op"] == "expert_ffn")
        rows[a]["uid"], rows[b]["uid"] = rows[b]["uid"], rows[a]["uid"]
        decoded = Program.from_json(doc)
        exact = simulate_program(decoded, duration_fn=costs.duration_ms)
        assert costs.predict_iteration_ms(decoded) == exact.makespan


class TestDifferentProgramResets:
    def test_segments_and_dw_labelling_reset(self, s_moe, stage_segment):
        graph, cluster = s_moe
        other, _ = stage_segment
        opt = LancetOptimizer(cluster)
        state = opt.planner_state
        opt.optimize(graph)
        opt.optimize(graph)
        counts = warm_path(opt)
        assert counts["dw_labellings"] == 1 and counts["ranges_replayed"] > 0
        assert len(state.segments) > 0

        _, other_report = opt.optimize(other)
        assert warm_path(opt)["dw_labellings"] == 2
        # only the ranges just rewritten for the other program are kept
        assert len(state.segments) == len(other_report.partition.plans)

        # back on the first program: nothing recorded for it survives
        replayed = warm_path(opt)["ranges_replayed"]
        warm, report = opt.optimize(graph)
        assert warm_path(opt)["ranges_replayed"] == replayed
        assert warm_path(opt)["dw_labellings"] == 3
        assert normalized(warm) == normalized(
            fresh_rewrite(graph.program, opt, report)
        )

    def test_labelling_rebuilds_on_mismatch(self, s_moe):
        graph, cluster = s_moe
        costs = LancetOptimizer(cluster).costs
        labels = DWLabelling()
        assert not labels.prepare(graph.program.clone(), costs)
        assert labels.prepare(graph.program.clone(), costs)
        reordered = graph.program.clone()
        WeightGradSchedulePass(costs).run(reordered)
        assert not labels.prepare(reordered, costs)
        assert labels.rebuilds == 2
