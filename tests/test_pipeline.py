"""The repro.pipeline subsystem: hybrid pipeline x expert parallelism.

Covers the ISSUE 10 acceptance criteria:

- the stage model (:class:`~repro.pipeline.StagedCluster` /
  :class:`~repro.pipeline.StageMap`) validates its topology and
  round-trips through dicts;
- GPipe and 1F1B staged simulations are **bit-identical** to the naive
  event-replay reference across real programs x staged clusters x
  routing realizations (the differential grid);
- the stage-partitioner splits a layer-stamped program into valid
  per-stage segments and reassembles them losslessly;
- the stage planner never picks a split that simulates worse than the
  naive even split, and per-stage Lancet optimization reports ride
  along;
- staged scenarios thread through ``compile`` / ``Plan`` / ``PlanStore``
  (the pipeline request folds into store keys) and the CLI.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from generators import routing_models
from oracles.pipeline_reference import replay_reference

from repro import GPT2MoEConfig, LancetOptimizer, build_training_graph
from repro.__main__ import main
from repro.api import PlanPolicy, Scenario, available_presets, compile, load_plan
from repro.pipeline import (
    SCHEDULES,
    Job,
    P2PCostModel,
    StageCosts,
    StagedCluster,
    StageMap,
    StageSpec,
    enumerate_layer_counts,
    gpipe_order,
    layer_costs,
    one_f_one_b_order,
    peak_in_flight,
    pipeline_bound_ms,
    plan_stages,
    reassemble,
    schedule_order,
    simulate_staged,
    split_stages,
    stage_costs,
)
import repro.pipeline.simulate as pipeline_simulate
from repro.api.fingerprint import graph_fingerprint
from repro.pipeline.stage import _subcluster
from repro.runtime import ClusterSpec, GroundTruthCost, SimulationConfig, simulate_cluster

A100x8 = ClusterSpec.for_gpus("a100", 8)


def staged_graph(layers: int, subgroup: int, batch: int = 4, seq: int = 16):
    """A tiny layer-stamped training graph at stage-subgroup width."""
    return build_training_graph(
        GPT2MoEConfig.tiny(num_layers=layers),
        batch=batch,
        seq=seq,
        num_gpus=subgroup,
    )


def ground_truth(cluster, routing=None):
    """Simulation config on ``cluster``: padded all-to-alls under the
    default routing, or irregular ones under ``routing``."""
    if routing is None:
        return SimulationConfig(cluster)
    return SimulationConfig(cluster, padded_a2a=False, routing=routing)


@pytest.fixture(scope="module")
def graph2():
    """Two layers at the subgroup width of (a100x8, 2 stages)."""
    return staged_graph(layers=2, subgroup=4)


@pytest.fixture(scope="module")
def split2(graph2):
    return split_stages(graph2, StagedCluster.even(A100x8, 2, 2))


class TestStageModel:
    def test_from_layer_counts(self):
        staged = StagedCluster.from_layer_counts(A100x8, (3, 1))
        assert staged.num_stages == 2
        assert staged.num_layers == 4
        assert staged.layer_counts == (3, 1)
        assert staged.stages[0].layers == (0, 1, 2)
        assert staged.stages[1].layers == (3,)
        assert list(staged.stages[1].devices) == [4, 5, 6, 7]
        assert staged.stage_of_layer(2) == 0
        assert staged.stage_of_layer(3) == 1
        with pytest.raises(KeyError):
            staged.stage_of_layer(4)

    def test_even_split_gives_remainder_to_early_stages(self):
        assert StagedCluster.even(A100x8, 5, 2).layer_counts == (3, 2)
        assert StagedCluster.even(A100x8, 6, 4).layer_counts == (2, 2, 1, 1)

    def test_subnode_stage_becomes_single_node_group(self):
        staged = StagedCluster.even(A100x8, 2, 2)
        sub = staged.stages[0].cluster
        assert sub.num_gpus == 4
        assert sub.num_nodes == 1
        assert not staged.boundary_inter_node(0)

    def test_whole_node_stage_keeps_topology(self):
        base = ClusterSpec.p3dn(2)
        staged = StagedCluster.even(base, 2, 2)
        sub = staged.stages[0].cluster
        assert sub.num_gpus == base.gpus_per_node
        assert sub.gpus_per_node == base.gpus_per_node
        assert staged.boundary_inter_node(0)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            StagedCluster.from_layer_counts(A100x8, (1, 1, 1))  # 3 !| 8
        with pytest.raises(ValueError, match=">=1 layer"):
            StagedCluster.from_layer_counts(A100x8, (2, 0))
        with pytest.raises(ValueError, match="stages <= layers"):
            StagedCluster.even(A100x8, 1, 2)
        base = ClusterSpec.p3dn(2)
        with pytest.raises(ValueError, match="multiple of"):
            _subcluster(base, 0, 12)
        with pytest.raises(ValueError, match="divide"):
            _subcluster(base, 0, 3)

    def test_stage_spec_layers_must_be_contiguous(self):
        sub = _subcluster(A100x8, 0, 4)
        with pytest.raises(ValueError, match="contiguous"):
            StageSpec(index=0, layers=(0, 2), first_device=0, cluster=sub)
        with pytest.raises(ValueError, match="no layers"):
            StageSpec(index=0, layers=(), first_device=0, cluster=sub)

    def test_stages_must_tile_the_cluster(self):
        sub = _subcluster(A100x8, 0, 4)
        s0 = StageSpec(index=0, layers=(0,), first_device=0, cluster=sub)
        s1 = StageSpec(index=1, layers=(1,), first_device=4, cluster=sub)
        with pytest.raises(ValueError, match="at least one stage"):
            StagedCluster(base=A100x8, stages=())
        with pytest.raises(ValueError, match="expected 0"):
            StagedCluster(base=A100x8, stages=(s1,))
        with pytest.raises(ValueError, match="stages cover"):
            StagedCluster(base=A100x8, stages=(s0,))
        bad = StageSpec(index=1, layers=(2,), first_device=4, cluster=sub)
        with pytest.raises(ValueError, match="do not tile"):
            StagedCluster(base=A100x8, stages=(s0, bad))

    def test_stage_map_round_trip_and_describe(self):
        sm = StageMap(
            num_stages=2,
            microbatches=4,
            schedule="gpipe",
            layer_counts=(3, 1),
            predicted_pipeline_ms=12.5,
        )
        assert StageMap.from_dict(sm.to_dict()) == sm
        assert sm.request_dict() == {
            "num_stages": 2,
            "microbatches": 4,
            "schedule": "gpipe",
        }
        assert list(sm.layers_of(1)) == [3]
        assert "2 stages (layers 3+1)" in sm.describe()
        assert "gpipe" in sm.describe()

    def test_stage_map_validates(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            StageMap(2, 4, "interleaved", (1, 1))
        with pytest.raises(ValueError, match="layer counts"):
            StageMap(2, 4, "1f1b", (1, 1, 1))
        with pytest.raises(ValueError, match="microbatches"):
            StageMap(2, 0, "1f1b", (1, 1))


class TestP2PModel:
    def test_zero_bytes_is_free(self):
        assert P2PCostModel(A100x8).time_ms(0.0, inter_node=False) == 0.0

    def test_inter_node_link_is_slower(self):
        model = P2PCostModel(ClusterSpec.p3dn(2))
        nbytes = 16 * 2**20
        assert model.time_ms(nbytes, True) > model.time_ms(nbytes, False)

    def test_boundary_times_use_boundary_link_class(self):
        base = ClusterSpec.p3dn(2)
        staged = StagedCluster.even(base, 2, 2)  # boundary crosses nodes
        model = P2PCostModel(base)
        nbytes = 4 * 2**20
        times = model.boundary_times_ms(staged, [nbytes])
        assert times == (model.time_ms(nbytes, True),)

    def test_boundary_count_validated(self):
        staged = StagedCluster.even(A100x8, 2, 2)
        with pytest.raises(ValueError, match="boundary sizes"):
            P2PCostModel(A100x8).boundary_times_ms(staged, [1.0, 2.0])


class TestSchedules:
    def test_gpipe_all_forwards_then_backwards(self):
        orders = gpipe_order(3, 4)
        assert len(orders) == 3
        for s, order in enumerate(orders):
            kinds = [j.kind for j in order]
            assert kinds == ["F"] * 4 + ["B"] * 4
            assert [j.microbatch for j in order[:4]] == [0, 1, 2, 3]
            assert [j.microbatch for j in order[4:]] == [3, 2, 1, 0]
            assert all(j.stage == s for j in order)

    def test_1f1b_warmup_depth_decreases_downstream(self):
        orders = one_f_one_b_order(4, 8)
        for s, order in enumerate(orders):
            warmup = 0
            for job in order:
                if job.kind != "F":
                    break
                warmup += 1
            assert warmup == min(8, 4 - 1 - s) + 1  # +1: first steady F

    def test_schedules_are_permutations_of_the_same_jobs(self):
        for name in SCHEDULES:
            orders = schedule_order(name, 3, 5)
            jobs = [j.key for order in orders for j in order]
            assert len(jobs) == len(set(jobs)) == 3 * 5 * 2

    def test_peak_in_flight(self):
        assert peak_in_flight(gpipe_order(4, 6)[0]) == 6
        assert peak_in_flight(one_f_one_b_order(4, 6)[0]) == 4

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            schedule_order("dualpipe", 2, 2)
        with pytest.raises(ValueError, match=">= 1 stage"):
            gpipe_order(0, 2)
        with pytest.raises(ValueError, match=">= 1 microbatch"):
            one_f_one_b_order(2, 0)
        with pytest.raises(ValueError, match="kind"):
            Job(0, 0, "X")

    def test_invalid_order_deadlocks_in_both_schedulers(self, split2):
        costs = stage_costs(split2)
        # stage 0 retires its backward before issuing the forward it
        # depends on: no scheduler can make progress
        bad = [
            [Job(0, 0, "B"), Job(0, 0, "F")],
            [Job(1, 0, "F"), Job(1, 0, "B")],
        ]
        from repro.pipeline.simulate import schedule_jobs

        with pytest.raises(RuntimeError, match="deadlock"):
            schedule_jobs(costs, bad)
        with pytest.raises(RuntimeError, match="deadlock"):
            replay_reference(costs, bad)
        with pytest.raises(ValueError, match="job orders"):
            schedule_jobs(costs, bad[:1])
        with pytest.raises(ValueError, match="job orders"):
            replay_reference(costs, bad[:1])


class TestPartition:
    def test_split_produces_valid_segments(self, split2):
        assert len(split2.segments) == 3 * 2
        assert len(split2.execution_order()) == 3 * 2
        for s in range(2):
            fwd = split2.segment(s, "forward").program
            assert fwd.instructions, "every stage owns forward work"
            assert split2.segment(s, "tail").program.instructions

    def test_boundary_bytes_positive(self, split2):
        assert len(split2.fwd_boundary_bytes) == 1
        assert split2.fwd_boundary_bytes[0] > 0
        assert split2.bwd_boundary_bytes[0] > 0

    def test_reassemble_is_lossless(self, graph2, split2):
        out = reassemble(split2)  # validates internally
        src = graph2.program
        assert sorted(i.uid for i in out.instructions) == sorted(
            i.uid for i in src.instructions
        )
        assert out.outputs == src.outputs
        assert out.grads == src.grads

    def test_unstamped_program_rejected(self):
        graph = staged_graph(layers=2, subgroup=4, batch=2, seq=8)
        for instr in graph.program.instructions:
            instr.attrs.pop("layer", None)
        staged = StagedCluster.even(A100x8, 2, 2)
        with pytest.raises(ValueError, match="layer"):
            split_stages(graph, staged)
        with pytest.raises(ValueError, match="layer"):
            layer_costs(
                graph.program,
                GroundTruthCost(SimulationConfig(staged.stages[0].cluster)),
            )

    def test_reassemble_rejects_changed_output_arity(self, graph2):
        split = split_stages(graph2, StagedCluster.even(A100x8, 2, 2))
        seg = split.segment(0, "forward")
        seg.program.outputs = seg.program.outputs[:-1]
        with pytest.raises(ValueError, match="arity"):
            reassemble(split)

    def test_split_accepts_bare_program(self, graph2):
        # forward/backward boundary inferred from the first dX/dW instr
        split = split_stages(
            graph2.program, StagedCluster.even(A100x8, 2, 2)
        )
        for s in range(2):
            assert split.segment(s, "forward").program.instructions
            assert split.segment(s, "backward").program.instructions
        reassemble(split)

    @staticmethod
    def _alpha_rename(program, old: int, new: int) -> None:
        """Rename one value id throughout a segment program, the way a
        per-stage optimizer pass renames the values it recreates."""
        from repro.ir import Value

        val = program.values.pop(old)
        program.values[new] = Value(new, val.type, val.name)
        program.instructions = [
            i.with_(
                uid=i.uid,
                inputs=tuple(new if v == old else v for v in i.inputs),
                outputs=tuple(new if v == old else v for v in i.outputs),
            )
            for i in program.instructions
        ]
        program.outputs = [new if v == old else v for v in program.outputs]

    def test_reassemble_renumbers_optimizer_created_values(self, graph2):
        split = split_stages(graph2, StagedCluster.even(A100x8, 2, 2))
        seg = split.segment(0, "forward")
        # a boundary activation stage 1 consumes, recreated under a
        # segment-local id (unique only within the segment)
        consumed = set(split.segment(1, "forward").program.inputs)
        old = next(o for o in seg.program.outputs if o in consumed)
        self._alpha_rename(seg.program, old, max(seg.program.values) + 1)
        out = reassemble(split)  # validates; downstream uses follow
        assert len(out.instructions) == len(graph2.program.instructions)

    def test_reassemble_rejects_unknown_value_reads(self, graph2):
        split = split_stages(graph2, StagedCluster.even(A100x8, 2, 2))
        p = split.segment(1, "forward").program
        instr = p.instructions[0]
        p.instructions[0] = instr.with_(
            uid=instr.uid, inputs=(10**6,) + instr.inputs[1:]
        )
        with pytest.raises(ValueError, match="neither original"):
            reassemble(split)


#: differential grid: (cluster, stages, microbatches, layers) spanning
#: sub-node and whole-node (inter-node boundary) stage shapes
DIFF_GRID = [
    (A100x8, 2, 4, 2),
    (A100x8, 4, 2, 4),
    (ClusterSpec.p3dn(2), 2, 3, 2),
]


def cluster_priced_costs(split, routing, padded_a2a):
    """Oracle for :func:`stage_costs`: every segment's makespan from
    :func:`simulate_cluster` on its stage's subgroup."""
    ms = {}
    for stage in split.staged.stages:
        kwargs = dict(cluster=stage.cluster, padded_a2a=padded_a2a)
        if routing is not None:
            kwargs["routing"] = routing
        config = SimulationConfig(**kwargs)
        for phase in ("forward", "backward", "tail"):
            seg = split.segment(stage.index, phase).program
            ms[stage.index, phase] = (
                simulate_cluster(seg, config=config).makespan
                if seg.instructions
                else 0.0
            )
    p2p = P2PCostModel(split.staged.base)
    stages = range(split.staged.num_stages)
    return StageCosts(
        forward_ms=tuple(ms[s, "forward"] for s in stages),
        backward_ms=tuple(ms[s, "backward"] for s in stages),
        tail_ms=tuple(ms[s, "tail"] for s in stages),
        fwd_p2p_ms=p2p.boundary_times_ms(
            split.staged, list(split.fwd_boundary_bytes)
        ),
        bwd_p2p_ms=p2p.boundary_times_ms(
            split.staged, list(split.bwd_boundary_bytes)
        ),
    )


class TestDifferentialGrid:
    @pytest.mark.parametrize(
        "cluster,stages,microbatches,layers", DIFF_GRID
    )
    def test_simulator_bit_identical_to_event_replay(
        self, cluster, stages, microbatches, layers
    ):
        graph = staged_graph(layers, cluster.num_gpus // stages)
        staged = StagedCluster.even(cluster, layers, stages)
        split = split_stages(graph, staged)
        for routing in routing_models(include_none=True):
            costs = stage_costs(split, ground_truth(cluster, routing))
            assert all(f > 0 for f in costs.forward_ms)
            assert all(b > 0 for b in costs.backward_ms)
            for schedule in SCHEDULES:
                sim = simulate_staged(
                    split, microbatches, costs, schedule=schedule
                )
                orders = schedule_order(schedule, stages, microbatches)
                assert sim.job_times == replay_reference(costs, orders)

    @pytest.mark.parametrize(
        "cluster,stages,microbatches,layers", DIFF_GRID
    )
    def test_stage_costs_match_device_resolved_pricing(
        self, cluster, stages, microbatches, layers
    ):
        """Segments priced on the representative-device recurrence cost
        exactly what the device-resolved simulator says they cost."""
        graph = staged_graph(layers, cluster.num_gpus // stages)
        split = split_stages(graph, StagedCluster.even(cluster, layers, stages))
        for routing in routing_models(include_none=True):
            costs = stage_costs(split, ground_truth(cluster, routing))
            assert costs == cluster_priced_costs(split, routing, routing is None)

    def test_makespan_covers_jobs_and_tails(self, split2):
        sim = simulate_staged(split2, 4, stage_costs(split2), schedule="1f1b")
        last_job_end = max(end for _, end in sim.job_times.values())
        assert sim.makespan >= last_job_end
        for s, (t_start, t_end) in enumerate(sim.tail_times):
            assert t_end == t_start + sim.costs.tail_ms[s]
            assert sim.makespan >= t_end

    def test_gpipe_never_beats_1f1b_here(self, split2):
        costs = stage_costs(split2)
        ofob = simulate_staged(split2, 4, costs, schedule="1f1b")
        gpipe = simulate_staged(split2, 4, costs, schedule="gpipe")
        # identical per-job costs and both retire all jobs: with 2
        # stages the two schedules pipeline equally well
        assert ofob.makespan <= gpipe.makespan + 1e-9

    def test_stage_costing_rejects_stragglers(self, split2):
        """Segments are priced on the representative-device recurrence,
        which has no per-device clock a straggler could slow."""
        config = SimulationConfig(A100x8, straggler_slowdown={0: 1.5})
        with pytest.raises(ValueError, match="stragglers"):
            stage_costs(split2, config)

    def test_stages_price_compute_with_one_profiler(self, split2):
        pricer = pipeline_simulate.SegmentPricer(SimulationConfig(A100x8))
        first, second = (s.cluster for s in split2.staged.stages)
        assert first != second  # the stage clusters differ by name
        assert pricer.cost(first).profiler is pricer.profiler
        assert pricer.cost(second).profiler is pricer.profiler
        assert pricer.cost(first).config.cluster == first


class TestPlanner:
    def test_enumerate_exhaustive_compositions(self):
        counts = enumerate_layer_counts(5, 3)
        assert len(counts) == 6  # C(4, 2)
        assert all(sum(c) == 5 and min(c) >= 1 for c in counts)
        assert len(set(counts)) == len(counts)

    def test_enumerate_falls_back_to_even_neighborhood(self):
        counts = enumerate_layer_counts(12, 3, limit=4)
        assert all(sum(c) == 12 and min(c) >= 1 for c in counts)
        assert (4, 4, 4) in counts  # the even split survives
        assert len(counts) <= 3 ** 2

    def test_pipeline_bound(self):
        assert pipeline_bound_ms([2.0, 3.0], 1) == 5.0
        assert pipeline_bound_ms([2.0, 3.0], 4) == 5.0 + 3 * 3.0

    def test_search_never_loses_to_even_split(self):
        graph = staged_graph(layers=3, subgroup=4)
        result = plan_stages(graph, SimulationConfig(A100x8), 2, 3)
        assert sum(result.stage_map.layer_counts) == 3
        assert result.stage_map.predicted_pipeline_ms == result.makespan_ms
        by_counts = {
            tuple(c["layer_counts"]): c["simulated_ms"]
            for c in result.candidates
        }
        even = StagedCluster.even(A100x8, 3, 2).layer_counts
        assert even in by_counts
        assert result.makespan_ms <= by_counts[even]
        assert result.makespan_ms == min(by_counts.values())

    def test_top_k_zero_still_simulates_the_even_split(self):
        graph = staged_graph(layers=2, subgroup=4)
        result = plan_stages(graph, SimulationConfig(A100x8), 2, 2, top_k=0)
        assert [c["layer_counts"] for c in result.candidates] == [(1, 1)]
        assert result.stage_map.layer_counts == (1, 1)

    def test_forced_layer_counts_skip_search(self):
        graph = staged_graph(layers=3, subgroup=4)
        result = plan_stages(graph, SimulationConfig(A100x8), 2, 2, layer_counts=(1, 2))
        assert result.candidates == []
        assert result.stage_map.layer_counts == (1, 2)

    def test_per_stage_optimizer_reports(self):
        graph = staged_graph(layers=2, subgroup=4)
        result = plan_stages(
            graph,
            SimulationConfig(A100x8),
            2,
            2,
            layer_counts=(1, 1),
            optimizer_factory=lambda c: LancetOptimizer(c),
            check=True,
        )
        assert len(result.stage_reports) == 2
        for report in result.stage_reports:
            assert "forward" in report and "backward" in report
        # the reassembled program still validates and simulates
        assert result.program.instructions

    def test_partitions_follow_the_subgroup_topology(self):
        """Stages on one NVLink node pick no partitions, as a flat plan
        on one node does: the all-to-all they could hide is too short
        to pay for the split.  Stages that span nodes partition."""
        s_moe = Scenario.preset("gpt2-s-moe/a100x16")
        flat = compile(s_moe.with_(num_gpus=8))
        assert not flat.simulation_cluster().multi_node
        assert flat.partition_degrees() == []
        for staged, multi_node, forward in (
            (Scenario.preset("gpt2-s-moe/a100x16-pp2x4"), False, []),
            (
                Scenario.preset("gpt2-s-moe/v100x32").with_(
                    pipeline_stages=2, microbatches=4
                ),
                True,
                [2, 2, 2],
            ),
        ):
            plan = compile(staged)
            assert plan.simulation_cluster().multi_node is multi_node
            reports = plan.planner["stage_reports"]
            assert [r["forward"]["partition_degrees"] for r in reports] == [
                forward,
                forward,
            ]
            # each stage's forward then backward pipelines, stage order
            expect = [
                d
                for r in reports
                for phase in ("forward", "backward")
                for d in r[phase]["partition_degrees"]
            ]
            assert plan.partition_degrees() == expect
            assert expect == (forward * 2 if forward else [])

    def test_stage_count_validated(self):
        graph = staged_graph(layers=2, subgroup=4)
        with pytest.raises(ValueError, match="stages"):
            plan_stages(graph, SimulationConfig(A100x8), 4, 2)

    def test_memoized_costs_equal_fresh_pricing(self):
        """The planner's final costs -- memoized tails and unchanged
        segments, re-priced rewritten ones -- equal pricing the
        optimized split from scratch."""
        graph = staged_graph(layers=3, subgroup=4)
        for routing in routing_models(include_none=True):
            config = ground_truth(A100x8, routing)
            result = plan_stages(
                graph,
                config,
                2,
                3,
                optimizer_factory=lambda c: LancetOptimizer(c),
            )
            fresh = stage_costs(result.split, config)
            assert result.simulation.costs == fresh


PP2X4 = Scenario(
    model="GPT2-S-MoE", cluster="a100", num_gpus=16,
    pipeline_stages=2, microbatches=4,
)

#: tiny at 2 stages and the ``compile-staged`` benchmark shapes, with
#: segment pricings per compile.  Pricing every segment of every
#: shortlisted split plus the final split took 12, 30, 30, 72 and 30;
#: each distinct segment is now priced once, and an optimized one again
#: only if the optimizer rewrote it.
STAGED_CASES = {
    "tiny-2": (
        Scenario(
            model="tiny", cluster="a100", num_gpus=8,
            pipeline_stages=2, microbatches=4,
        ),
        7,
    ),
    "a100x16-pp2x4": (PP2X4, 26),
    "a100x16-pp2x4-gpipe": (PP2X4.with_(pipeline_schedule="gpipe"), 26),
    "a100x32-pp4x4": (PP2X4.with_(num_gpus=32, pipeline_stages=4), 49),
    "v100x32-pp2x4": (PP2X4.with_(cluster="v100", num_gpus=32), 28),
}

#: plans of :data:`STAGED_CASES` as they were when every segment was
#: priced on the device-resolved simulator
STAGED_PINS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "staged_plan_pins.json")
    .read_text()
)


class TestStagedPlanPins:
    @pytest.mark.parametrize("case", sorted(STAGED_CASES))
    def test_plan_and_pricing_count_are_pinned(self, case, monkeypatch):
        scenario, pricings = STAGED_CASES[case]
        pin = STAGED_PINS[case]
        calls = []
        real = pipeline_simulate.simulate_program

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_simulate, "simulate_program", counting)
        plan = compile(scenario.with_(routing_seed=pin["routing_seed"]))
        assert plan.planner["stage_candidates"] == pin["stage_candidates"]
        assert plan.stage_map.to_dict() == pin["stage_map"]
        assert plan.predicted_iteration_ms == pin["predicted_iteration_ms"]
        assert graph_fingerprint(plan.program) == pin["program_fingerprint"]
        assert len(calls) == pricings


class TestStagedAPI:
    @pytest.fixture(scope="class")
    def scenario(self):
        return Scenario(
            model="tiny", cluster="a100", num_gpus=8,
            pipeline_stages=2, microbatches=2,
        )

    @pytest.fixture(scope="class")
    def plan(self, scenario):
        return compile(scenario)

    def test_staged_presets_registered(self):
        presets = available_presets()
        assert "tiny/a100x8-pp2x4" in presets
        assert "gpt2-s-moe/a100x16-pp2x4" in presets
        assert Scenario.preset("tiny/a100x8-pp2x4").staged

    def test_scenario_name_and_validation(self, scenario):
        assert scenario.name == "tiny/a100x8-pp2x2"
        gp = scenario.with_(pipeline_schedule="gpipe")
        assert gp.name.endswith("-gpipe")
        with pytest.raises(ValueError, match="divide"):
            scenario.with_(pipeline_stages=3)
        with pytest.raises(ValueError, match="pipeline_stages"):
            Scenario(model="tiny", microbatches=2)
        with pytest.raises(ValueError, match="schedule"):
            scenario.with_(pipeline_schedule="interleaved")
        with pytest.raises(ValueError, match="microbatches"):
            scenario.with_(batch=6, microbatches=4).build_graph()

    def test_staged_build_graph_is_per_microbatch(self, scenario):
        graph = scenario.build_graph()
        # batch 4 split over 2 microbatches on a 4-GPU subgroup
        assert graph.program.instructions
        assert scenario.resolved_batch() == 4

    def test_plan_carries_stage_map(self, scenario, plan):
        assert plan.stage_map is not None
        assert plan.stage_map.num_stages == 2
        assert plan.stage_map.microbatches == 2
        assert plan.stage_map.schedule == "1f1b"
        assert (
            plan.predicted_iteration_ms
            == plan.stage_map.predicted_pipeline_ms
        )
        assert "pipeline:" in plan.summary()
        assert plan.planner["stage_candidates"]
        assert plan.planner["stage_reports"]

    def test_staged_plan_simulates_on_subgroup(self, plan):
        assert plan.cluster.num_gpus == 8
        assert plan.simulation_cluster().num_gpus == 4
        assert plan.simulate().makespan > 0

    def test_round_trip_is_byte_stable(self, plan):
        doc = plan.to_dict()
        assert doc["pipeline"] == plan.stage_map.to_dict()
        from repro.api import Plan

        clone = Plan.from_dict(json.loads(json.dumps(doc)))
        assert clone.to_dict() == doc
        assert clone.stage_map == plan.stage_map

    def test_store_folds_pipeline_request_into_keys(
        self, scenario, plan, tmp_path
    ):
        from dataclasses import replace

        from repro.api import PlanIdentity, PlanStore

        store = PlanStore(tmp_path / "store")
        store.put(plan)
        ident = replace(PlanIdentity.of(plan), policy=PlanPolicy())
        assert ident.pipeline == plan.stage_map.request_dict()
        warm = store.get(ident)
        assert warm is not None and warm.from_store
        assert warm.stage_map == plan.stage_map
        # same fingerprint/cluster/policy, no pipeline request: miss
        assert store.get(replace(ident, pipeline=None)) is None
        # a different schedule is a different key
        other = dict(plan.stage_map.request_dict(), schedule="gpipe")
        assert store.get(replace(ident, pipeline=other)) is None

    def test_compile_through_store_warm_hit(self, scenario, tmp_path):
        from repro.api import PlanStore

        store = PlanStore(tmp_path / "store")
        cold = compile(scenario, store=store)
        assert not cold.from_store
        warm = compile(scenario, store=store)
        assert warm.from_store
        assert warm.stage_map == cold.stage_map


class TestCLI:
    def test_plan_run_inspect_staged(self, tmp_path, capsys):
        out = tmp_path / "staged.plan.json"
        assert main(
            [
                "plan", "--preset", "tiny/a100x8",
                "--stages", "2", "--microbatches", "2",
                "--store", str(tmp_path / "store"), "--out", str(out),
            ]
        ) == 0
        assert "pipeline:" in capsys.readouterr().out
        plan = load_plan(out)
        assert plan.stage_map is not None
        assert plan.stage_map.num_stages == 2

        assert main(["inspect", str(out)]) == 0
        assert "pipeline:" in capsys.readouterr().out

        assert main(["run", "--plan", str(out)]) == 0
        run_out = capsys.readouterr().out
        assert "simulated microbatch" in run_out
        assert "microbatch speedup" in run_out
