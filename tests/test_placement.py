"""Differential placement-testing harness (ISSUE 9).

The placement package's contracts, pinned deterministically:

- **Bit-identity**: :meth:`ExpertPlacement.pair_bytes` matches the
  pure-Python reference remap bit for bit, and the identity placement is
  a bit-identical no-op against the pre-placement owner-summed pipeline
  (``RoutingSignature.from_counts``, the routing models, the simulator).
- **Differential optimality**: on exhaustively enumerable configs the
  greedy :class:`PlacementOptimizer` matches
  :func:`brute_force_placement` or stays within the documented
  :data:`GREEDY_BOUND`; it is *never* worse than the identity placement.
- **Priced migration**: :func:`migration_cost_ms` follows the
  hierarchical network model (intra-node pulls are cheaper), and both
  the trace-replay drill and the live
  :class:`~repro.train.ReoptimizingTrainer` only migrate when
  ``win x horizon > cost`` -- replayed over the recorded drift trace in
  ``tests/fixtures/routing_trace.json``.
- **Stack threading**: signatures remap, plans serialize their
  placement, and the batch simulator prices placements through
  :class:`PlacedRoutingModel` with an identity fall-through.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from generators import build_grid_graph
from oracles.placement_reference import (
    brute_force_placement,
    remap_pair_bytes_reference,
)

from repro.api import Plan, Scenario, compile
from repro.api.codec import signature_from_json, signature_to_json
from repro.core import LancetOptimizer
from repro.placement import (
    GREEDY_BOUND,
    ExpertPlacement,
    PlacedRoutingModel,
    PlacementOptimizer,
    make_drift_trace,
    migration_cost_ms,
    normalize_placement,
    placement_for,
    placement_map_fingerprint,
    placement_map_from_json,
    placement_map_is_identity,
    placement_map_to_json,
    replay_trace,
)
from repro.runtime import (
    ClusterSpec,
    RoutingSignature,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_cluster,
)
from repro.train import ReoptimizingTrainer


def tiny_multi_node() -> ClusterSpec:
    """A 2x2 multi-node cluster small enough to brute-force against."""
    return ClusterSpec(
        name="tiny-2x2",
        gpu=ClusterSpec.p3dn(2).gpu,
        num_nodes=2,
        gpus_per_node=2,
        intra_bw_gbps=110.0,
        node_nic_gbps=12.5,
        alpha_intra_us=10.0,
        alpha_inter_us=28.0,
    )


def skewed_counts(rng, g: int, e: int, hot: int = 1, boost: int = 400):
    """A skewed dispatch-count matrix with ``hot`` hot expert columns."""
    counts = rng.integers(1, 120, size=(g, e))
    for h in rng.choice(e, size=hot, replace=False):
        counts[:, h] += boost
    return counts


def random_placement(rng, e: int, g: int, max_replicas: int = 3):
    assignments = []
    for _ in range(e):
        r = int(rng.integers(1, min(max_replicas, g) + 1))
        devices = rng.choice(g, size=r, replace=False)
        weights = rng.random(r) + 0.05
        fractions = weights / weights.sum()
        assignments.append(
            tuple((int(d), float(f)) for d, f in zip(devices, fractions))
        )
    return ExpertPlacement(e, g, tuple(assignments))


# -- artifact validation -----------------------------------------------------


class TestExpertPlacement:
    def test_validation_rejects_bad_placements(self):
        with pytest.raises(ValueError, match="no replica"):
            ExpertPlacement(2, 2, (((0, 1.0),), ()))
        with pytest.raises(ValueError, match="duplicate replica"):
            ExpertPlacement(1, 2, (((0, 0.5), (0, 0.5)),))
        with pytest.raises(ValueError, match="outside"):
            ExpertPlacement(1, 2, (((3, 1.0),),))
        with pytest.raises(ValueError, match="non-positive"):
            ExpertPlacement(1, 2, (((0, 0.0), (1, 1.0)),))
        with pytest.raises(ValueError, match="sum to"):
            ExpertPlacement(1, 2, (((0, 0.3), (1, 0.3)),))
        with pytest.raises(ValueError, match="covers 1 experts"):
            ExpertPlacement(2, 2, (((0, 1.0),),))

    def test_identity_layout_and_predicates(self):
        p = ExpertPlacement.identity(8, 4)
        assert p.is_identity
        assert p.devices_of(5) == (2,)  # expert e on device e // (E/G)
        assert p.owner_of(5) == 2
        assert p.replicated_experts == ()
        with pytest.raises(ValueError, match="divide evenly"):
            ExpertPlacement.identity(6, 4)

    def test_replicas_canonicalized_and_owner_by_fraction(self):
        a = ExpertPlacement(1, 4, (((3, 0.25), (1, 0.75)),))
        b = ExpertPlacement(1, 4, (((1, 0.75), (3, 0.25)),))
        assert a == b  # ascending-device canonical form
        assert a.fingerprint() == b.fingerprint()
        assert a.owner_of(0) == 1  # largest fraction wins
        assert a.replicated_experts == (0,)
        assert not a.is_identity

    def test_moved_experts_is_device_set_diff(self):
        identity = ExpertPlacement.identity(4, 2)
        moved = ExpertPlacement(
            4, 2, (((1, 1.0),), ((1, 1.0),), ((0, 1.0),), ((1, 1.0),))
        )
        assert moved.moved_experts(identity) == (0, 1, 2)
        assert identity.moved_experts(identity) == ()

    def test_fraction_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = random_placement(rng, 6, 3)
        mat = p.fraction_matrix()
        assert mat.shape == (6, 3)
        assert np.allclose(mat.sum(axis=1), 1.0)

    def test_json_roundtrip_and_fingerprint(self):
        rng = np.random.default_rng(5)
        p = random_placement(rng, 8, 4)
        assert ExpertPlacement.from_json(p.to_json()) == p
        assert ExpertPlacement.from_json(p.to_json()).fingerprint() == (
            p.fingerprint()
        )
        q = ExpertPlacement.identity(8, 4)
        assert p.fingerprint() != q.fingerprint()

    def test_placement_map_helpers(self):
        p = ExpertPlacement.identity(8, 4)
        q = random_placement(np.random.default_rng(0), 8, 4)
        assert normalize_placement(None) is None
        assert normalize_placement(q) == {None: q}
        assert normalize_placement({}) is None
        pm = {1: q, None: p}
        assert placement_for(pm, 1) is q
        assert placement_for(pm, 3) is p  # None key = default
        assert placement_for(None, 3) is None
        assert placement_map_is_identity(None)
        assert placement_map_is_identity({None: p})
        assert not placement_map_is_identity(pm)
        assert placement_map_from_json(placement_map_to_json(pm)) == pm
        assert placement_map_fingerprint(None) is None
        assert placement_map_fingerprint(pm) != placement_map_fingerprint(
            {None: p}
        )


# -- bit-identity of the remap ----------------------------------------------


class TestRemapBitIdentity:
    def test_identity_matches_owner_summed_reduction(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 300, size=(4, 8))
        bpt = 192.0
        pair = ExpertPlacement.identity(8, 4).pair_bytes(counts, bpt)
        expected = counts.reshape(4, 4, 2).sum(axis=2).astype(np.float64) * bpt
        assert np.array_equal(pair, expected)
        assert np.array_equal(
            pair,
            remap_pair_bytes_reference(
                ExpertPlacement.identity(8, 4), counts, bpt
            ),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_remap_matches_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        g, e = 4, 8
        placement = random_placement(rng, e, g)
        counts = rng.integers(0, 500, size=(g, e))
        bpt = float(rng.integers(1, 4096))
        assert np.array_equal(
            placement.pair_bytes(counts, bpt),
            remap_pair_bytes_reference(placement, counts, bpt),
        )

    def test_totals_conserved(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 200, size=(4, 8))
        placement = random_placement(rng, 8, 4)
        pair = placement.pair_bytes(counts, 64.0)
        assert pair.sum() == pytest.approx(counts.sum() * 64.0, rel=1e-12)
        # send loads are placement-invariant: every token goes somewhere
        assert np.allclose(pair.sum(axis=1), counts.sum(axis=1) * 64.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must be"):
            ExpertPlacement.identity(8, 4).pair_bytes(np.zeros((4, 6)), 1.0)


# -- differential vs brute force ---------------------------------------------

DIFFERENTIAL_CONFIGS = [
    # (cluster factory, experts, seeds) -- all exhaustively enumerable
    (lambda: ClusterSpec.for_gpus("a100", 2), 4, range(6)),
    (lambda: ClusterSpec.for_gpus("a100", 2), 8, range(4)),
    (lambda: ClusterSpec.for_gpus("a100", 4), 4, range(6)),
    (tiny_multi_node, 4, range(6)),
    (tiny_multi_node, 8, range(3)),
]


class TestOptimizerDifferential:
    @pytest.mark.parametrize(
        "factory,e,seeds",
        # the last config's brute force takes ~17 s: it runs under -m slow
        DIFFERENTIAL_CONFIGS[:-1]
        + [pytest.param(*DIFFERENTIAL_CONFIGS[-1], marks=pytest.mark.slow)],
        ids=["a100x2-e4", "a100x2-e8", "a100x4-e4", "2x2-e4", "2x2-e8"],
    )
    def test_greedy_within_bound_of_brute_force(self, factory, e, seeds):
        cluster = factory()
        opt = PlacementOptimizer(cluster)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            counts = skewed_counts(rng, cluster.num_gpus, e)
            result = opt.optimize(counts, 64.0)
            _, best_ms = brute_force_placement(counts, 64.0, cluster)
            # greedy may also replicate, so it can even beat the
            # single-replica brute-force optimum
            assert result.bottleneck_ms <= best_ms * GREEDY_BOUND + 1e-9, (
                f"seed {seed}: greedy {result.bottleneck_ms} vs "
                f"brute force {best_ms}"
            )
            assert best_ms <= result.identity_ms + 1e-9

    def test_exact_agreement_on_single_node_pairs(self):
        """On the smallest config (2 devices, 4 experts) the two-basin
        descent lands on the exhaustive optimum exactly."""
        cluster = ClusterSpec.for_gpus("a100", 2)
        opt = PlacementOptimizer(cluster)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            counts = skewed_counts(rng, 2, 4)
            result = opt.optimize(counts, 64.0)
            _, best_ms = brute_force_placement(counts, 64.0, cluster)
            assert result.bottleneck_ms <= best_ms + 1e-9, f"seed {seed}"

    def test_never_worse_than_identity(self):
        for factory, e, seeds in DIFFERENTIAL_CONFIGS:
            cluster = factory()
            opt = PlacementOptimizer(cluster)
            for seed in seeds:
                rng = np.random.default_rng(100 + seed)
                counts = skewed_counts(rng, cluster.num_gpus, e, hot=2)
                result = opt.optimize(counts, 128.0)
                assert result.bottleneck_ms <= result.identity_ms + 1e-9
                assert result.improvement >= -1e-12

    def test_balanced_traffic_is_a_fixed_point(self):
        """Perfectly balanced counts leave the identity placement alone."""
        cluster = ClusterSpec.for_gpus("a100", 4)
        counts = np.full((4, 8), 37, dtype=np.int64)
        result = PlacementOptimizer(cluster).optimize(counts, 64.0)
        assert result.placement.is_identity
        assert result.moves == ()
        assert result.improvement_ms == 0.0

    def test_hot_expert_triggers_replication_or_move(self):
        """A single hot expert's receive stream gets flattened: the
        optimizer moves or shadows it for a strict bottleneck win."""
        cluster = ClusterSpec.for_gpus("a100", 4)
        rng = np.random.default_rng(2)
        counts = rng.integers(1, 40, size=(4, 8))
        counts[:, 1] += 900  # expert 1 is hot, device 0 overloaded
        result = PlacementOptimizer(cluster).optimize(counts, 256.0)
        assert result.improvement > 0.05
        assert result.moves
        touched = {m.expert for m in result.moves}
        assert 1 in touched
        assert result.placement.moved_experts(
            ExpertPlacement.identity(8, 4)
        ) or result.placement.replicated_experts

    def test_search_telemetry_is_consistent(self):
        cluster = tiny_multi_node()
        rng = np.random.default_rng(4)
        counts = skewed_counts(rng, 4, 8)
        result = PlacementOptimizer(cluster).optimize(counts, 64.0)
        assert result.evaluations > 0
        for move in result.moves:
            assert move.win_ms > 0  # every accepted step strictly improved
        if result.moves:
            assert result.moves[0].cost_before_ms == pytest.approx(
                result.identity_ms
            )

    def test_brute_force_refuses_large_configs(self):
        cluster = ClusterSpec.for_gpus("a100", 4)
        with pytest.raises(ValueError, match="enumerate"):
            brute_force_placement(
                np.ones((4, 16)), 1.0, cluster, max_assignments=1000
            )

    def test_counts_free_signature_rejected(self):
        cluster = ClusterSpec.for_gpus("a100", 2)
        sig = RoutingSignature.uniform(2)
        with pytest.raises(ValueError, match="provenance"):
            PlacementOptimizer(cluster).optimize(sig)

    def test_signature_counts_are_accepted(self):
        """Optimizing a counts-carrying signature equals optimizing the
        raw counts it was summarized from."""
        cluster = ClusterSpec.for_gpus("a100", 4)
        rng = np.random.default_rng(8)
        counts = skewed_counts(rng, 4, 8)
        sig = RoutingSignature.from_counts(counts, bytes_per_token=64.0)
        opt = PlacementOptimizer(cluster)
        from_sig = opt.optimize(sig)
        from_raw = opt.optimize(counts, 64.0)
        assert from_sig.placement == from_raw.placement
        assert from_sig.bottleneck_ms == from_raw.bottleneck_ms


# -- migration pricing -------------------------------------------------------


class TestMigrationPricing:
    def test_no_move_costs_nothing(self):
        cluster = tiny_multi_node()
        p = ExpertPlacement.identity(8, 4)
        assert migration_cost_ms(p, p, cluster, 1e9) == 0.0
        # dropping a replica frees a device: nothing to transfer either
        split = ExpertPlacement(
            8,
            4,
            (((0, 0.5), (1, 0.5)),) + p.assignments[1:],
        )
        assert migration_cost_ms(split, p, cluster, 1e9) == 0.0

    def test_intra_node_pull_cheaper_than_inter_node(self):
        cluster = tiny_multi_node()  # devices 0,1 node 0; 2,3 node 1
        identity = ExpertPlacement.identity(4, 4)

        def moved_to(target):
            rows = list(identity.assignments)
            rows[0] = ((target, 1.0),)
            return ExpertPlacement(4, 4, tuple(rows))

        nbytes = 64 * 2**20
        intra = migration_cost_ms(identity, moved_to(1), cluster, nbytes)
        inter = migration_cost_ms(identity, moved_to(2), cluster, nbytes)
        assert 0.0 < intra < inter

    def test_cost_scales_with_weight_bytes(self):
        cluster = ClusterSpec.for_gpus("a100", 4)
        identity = ExpertPlacement.identity(4, 4)
        rows = list(identity.assignments)
        rows[0] = ((3, 1.0),)
        moved = ExpertPlacement(4, 4, tuple(rows))
        small = migration_cost_ms(identity, moved, cluster, 2**20)
        large = migration_cost_ms(identity, moved, cluster, 2**30)
        assert small < large

    def test_mismatched_placements_rejected(self):
        cluster = ClusterSpec.for_gpus("a100", 4)
        with pytest.raises(ValueError, match="different expert counts"):
            migration_cost_ms(
                ExpertPlacement.identity(4, 4),
                ExpertPlacement.identity(8, 4),
                cluster,
                1.0,
            )


# -- RoutingSignature.remap --------------------------------------------------


class TestSignatureRemap:
    def _sig(self, seed=21, g=4, e=8, bpt=128.0):
        rng = np.random.default_rng(seed)
        counts = skewed_counts(rng, g, e)
        return counts, RoutingSignature.from_counts(counts, bytes_per_token=bpt)

    def test_identity_and_none_are_noops(self):
        _, sig = self._sig()
        assert sig.remap(None) is sig
        assert sig.remap(ExpertPlacement.identity(8, 4)) is sig

    def test_counts_free_signature_cannot_remap(self):
        rng = np.random.default_rng(0)
        sig = RoutingSignature.from_pair_bytes(
            np.abs(rng.standard_normal((4, 4))) * 1e6
        )
        with pytest.raises(ValueError, match="provenance"):
            sig.remap(random_placement(rng, 8, 4))

    def test_remap_matches_from_pair_bytes_of_the_remap(self):
        counts, sig = self._sig()
        placement = random_placement(np.random.default_rng(3), 8, 4)
        remapped = sig.remap(placement)
        expected = RoutingSignature.from_pair_bytes(
            placement.pair_bytes(counts, 128.0)
        )
        assert remapped.load == expected.load
        assert remapped.mean_send_bytes == expected.mean_send_bytes
        # provenance carries over: the remapped signature stays remappable
        assert remapped.expert_counts == sig.expert_counts
        assert remapped.bytes_per_token == sig.bytes_per_token

    def test_optimized_placement_reduces_signature_bottleneck(self):
        counts, sig = self._sig(seed=7)
        cluster = ClusterSpec.for_gpus("a100", 4)
        result = PlacementOptimizer(cluster).optimize(counts, 128.0)
        remapped = sig.remap(result.placement)
        before = sig.bottleneck * sig.mean_send_bytes
        after = remapped.bottleneck * (remapped.mean_send_bytes or before)
        assert after <= before + 1e-9

    def test_expert_count_mismatch_rejected(self):
        _, sig = self._sig()
        swapped = ExpertPlacement(
            4, 4, (((1, 1.0),), ((0, 1.0),), ((2, 1.0),), ((3, 1.0),))
        )
        with pytest.raises(ValueError, match="experts"):
            sig.remap(swapped)

    def test_codec_roundtrips_count_provenance(self):
        _, sig = self._sig()
        assert signature_from_json(signature_to_json(sig)) == sig
        remapped = sig.remap(random_placement(np.random.default_rng(9), 8, 4))
        assert signature_from_json(signature_to_json(remapped)) == remapped


# -- simulator threading -----------------------------------------------------


class TestPlacedRoutingModel:
    def test_identity_fall_through_is_bit_identical(self):
        base = SyntheticRoutingModel(seed=5, concentration=0.5)
        placed = PlacedRoutingModel(
            SyntheticRoutingModel(seed=5, concentration=0.5),
            ExpertPlacement.identity(8, 4),
        )
        args = ("layer0", 4, 8, 64, 16, 2.0)
        assert np.array_equal(
            placed.pair_bytes_for(*args), base.pair_bytes_for(*args)
        )
        assert np.array_equal(
            placed.counts_for("layer0", 4, 8, 64, 16),
            base.counts_for("layer0", 4, 8, 64, 16),
        )

    def test_placement_reroutes_bytes_but_not_tokens(self):
        placement = random_placement(np.random.default_rng(1), 8, 4)
        base = SyntheticRoutingModel(seed=5, concentration=0.5)
        placed = PlacedRoutingModel(
            SyntheticRoutingModel(seed=5, concentration=0.5), placement
        )
        counts = placed.counts_for("layer0", 4, 8, 64, 16)
        assert np.array_equal(counts, base.counts_for("layer0", 4, 8, 64, 16))
        pair = placed.pair_bytes_for("layer0", 4, 8, 64, 16, 2.0)
        assert np.array_equal(pair, placement.pair_bytes(counts, 2.0))
        placed.clear()  # clears the shared base cache
        assert not placed.base._cache

    def test_identity_placement_simulates_bit_identically(self):
        """Pricing a candidate placement through the batch simulator:
        the identity candidate reproduces the unplaced makespan exactly,
        and simulate_cluster agrees with the batch path."""
        graph = build_grid_graph(2, 4, 4, 64)
        cluster = ClusterSpec.for_gpus("a100", 4)
        program, _ = LancetOptimizer(cluster).optimize(graph)
        config = SimulationConfig(
            cluster,
            padded_a2a=False,
            routing=SyntheticRoutingModel(seed=3, concentration=0.5),
        )
        e = graph.cfg.num_experts(4)
        opt = PlacementOptimizer(cluster)
        identity = ExpertPlacement.identity(e, 4)
        shadow = random_placement(np.random.default_rng(2), e, 4)
        makespans = opt.evaluate_with_simulation(
            program, config, [identity, shadow]
        )
        baseline = simulate_cluster(
            program,
            cost=None,
            config=dataclasses.replace(
                config, routing=SyntheticRoutingModel(seed=3, concentration=0.5)
            ),
        ).makespan
        assert makespans[0] == baseline
        assert makespans[1] != makespans[0]


# -- plan / store serialization ---------------------------------------------


class TestPlanSerialization:
    @pytest.fixture(scope="class")
    def base_plan(self):
        return compile(Scenario.preset("tiny/a100x8"))

    def test_placement_free_documents_unchanged(self, base_plan):
        doc = base_plan.to_dict()
        assert "placement" not in doc
        assert Plan.from_dict(doc).placement is None

    def test_plan_roundtrips_placement(self, base_plan):
        placement = {
            1: random_placement(np.random.default_rng(4), 16, 8),
            None: ExpertPlacement.identity(16, 8),
        }
        plan = Plan(
            cluster=base_plan.cluster,
            policy=base_plan.policy,
            fingerprint=base_plan.fingerprint,
            predicted_iteration_ms=base_plan.predicted_iteration_ms,
            program=base_plan.program,
            signatures=base_plan.signatures,
            placement=placement,
        )
        doc = plan.to_dict()
        assert "placement" in doc
        loaded = Plan.from_dict(doc)
        assert loaded.placement == plan.placement
        assert placement_map_fingerprint(loaded.placement) == (
            placement_map_fingerprint(plan.placement)
        )
        assert "placement" in plan.summary()

    def test_save_load_roundtrip(self, base_plan, tmp_path):
        placement = random_placement(np.random.default_rng(6), 16, 8)
        plan = Plan(
            cluster=base_plan.cluster,
            policy=base_plan.policy,
            fingerprint=base_plan.fingerprint,
            predicted_iteration_ms=base_plan.predicted_iteration_ms,
            program=base_plan.program,
            placement=placement,
        )
        path = tmp_path / "placed.plan.json"
        plan.save(path)
        loaded = Plan.load(path)
        assert loaded.placement == {None: placement}
        assert loaded.program.instructions == plan.program.instructions


# -- trace replay drill ------------------------------------------------------


class TestReplayDrill:
    def test_replay_migrates_and_improves_on_recorded_trace(
        self, routing_trace
    ):
        cluster = ClusterSpec.for_gpus("a100", routing_trace["num_devices"])
        report = replay_trace(
            routing_trace["steps"],
            cluster,
            bytes_per_token=routing_trace["bytes_per_token"],
            expert_weight_bytes=8 * 2**20,
            horizon_steps=20,
        )
        assert len(report.identity_ms) == len(routing_trace["steps"])
        assert len(report.adaptive_ms) == len(routing_trace["steps"])
        assert report.migrations  # the hot episodes price in
        assert report.improvement_ms > 0
        assert 0 < report.improvement < 1
        assert report.final_placement is not None
        for ev in report.events:
            # pricing rule is the recorded one, bit for bit
            assert ev.migrated == (
                ev.win_ms * ev.horizon_steps > ev.migration_cost_ms
            )
            assert ev.to_dict()["migrated"] == ev.migrated

    def test_unpayable_migrations_are_rejected(self):
        """With absurdly expensive expert weights no switch prices in:
        the adaptive trajectory equals the identity trajectory."""
        trace = make_drift_trace(4, 8, steps=6, seed=3)
        cluster = ClusterSpec.for_gpus("a100", 4)
        report = replay_trace(
            trace,
            cluster,
            bytes_per_token=64.0,
            expert_weight_bytes=1e15,
            horizon_steps=2,
        )
        assert not report.migrations
        assert report.adaptive_ms == report.identity_ms
        assert report.final_placement.is_identity

    def test_replay_validates_knobs(self):
        cluster = ClusterSpec.for_gpus("a100", 4)
        with pytest.raises(ValueError, match="horizon_steps"):
            replay_trace([], cluster, expert_weight_bytes=1.0, horizon_steps=0)
        with pytest.raises(ValueError, match="replan_every"):
            replay_trace(
                [], cluster, expert_weight_bytes=1.0, replan_every=0
            )


# -- the live trainer --------------------------------------------------------


class TestTrainerMigration:
    @pytest.fixture(scope="class")
    def placed_setup(self, routing_trace):
        g = routing_trace["num_devices"]
        graph = build_training_graph_for(g)
        cluster = ClusterSpec.for_gpus("a100", g)
        return graph, cluster

    def _trainer(self, graph, cluster, with_placement: bool):
        popt = PlacementOptimizer(cluster) if with_placement else None
        return ReoptimizingTrainer(
            graph,
            LancetOptimizer(cluster),
            drift_threshold=0.01,
            seed=0,
            placement_optimizer=popt,
            migration_horizon_steps=200,
        )

    def test_replayed_drift_triggers_priced_migration(
        self, placed_setup, routing_trace
    ):
        graph, cluster = placed_setup
        layer = graph.moe_layers[0].layer
        trainer = self._trainer(graph, cluster, with_placement=True)
        plain = self._trainer(graph, cluster, with_placement=False)
        for counts in routing_trace["steps"]:
            obs = {layer: counts}
            trainer.replay_observation(
                obs, bytes_per_token=routing_trace["bytes_per_token"]
            )
            plain.replay_observation(
                obs, bytes_per_token=routing_trace["bytes_per_token"]
            )
        assert trainer.migration_events
        migrated = [ev for ev in trainer.migration_events if ev.migrated]
        assert migrated
        ev = migrated[0]
        assert ev.layer is None  # aggregate decision across layers
        assert ev.win_ms * ev.horizon_steps > ev.migration_cost_ms
        assert all(lay == layer for lay, _ in ev.moved_experts)
        # the accepted placement is installed end to end
        assert trainer.optimizer.placement is not None
        assert not placement_map_is_identity(trainer.optimizer.placement)
        # migration improves the modeled iteration time vs. the same
        # trace replayed without a placement optimizer
        assert trainer.predicted_ms <= plain.predicted_ms + 1e-9
        assert plain.migration_events == []

    def test_numeric_step_still_runs_after_migration(
        self, placed_setup, routing_trace
    ):
        graph, cluster = placed_setup
        layer = graph.moe_layers[0].layer
        trainer = self._trainer(graph, cluster, with_placement=True)
        hot = routing_trace["steps"][10]  # inside the first hot episode
        for counts in (routing_trace["steps"][0], hot, hot):
            trainer.replay_observation(
                {layer: counts},
                bytes_per_token=routing_trace["bytes_per_token"],
            )
        result = trainer.step()
        assert np.isfinite(result.mean_loss)

    def test_placement_qualifies_plan_cache_keys(self, placed_setup):
        """A placement switch must not alias the pre-switch plan cache
        entries: the re-plan's request key embeds the placement
        fingerprint."""
        from repro.api import PlanIdentity, graph_fingerprint

        graph, cluster = placed_setup
        trainer = self._trainer(graph, cluster, with_placement=True)
        layer = graph.moe_layers[0].layer
        rng = np.random.default_rng(0)
        counts = skewed_counts(rng, cluster.num_gpus, 8, boost=800)
        trainer.replay_observation({layer: counts}, bytes_per_token=1024.0)
        placement = trainer.optimizer.placement
        assert placement is not None  # the skewed counts migrate
        opt = trainer.optimizer
        placed = PlanIdentity(
            graph_fingerprint(graph.program),
            opt.cluster,
            dataclasses.replace(opt.policy, skew_aware=True),
            opt.framework,
            trainer.plan_signatures,
            placement,
        )
        key = trainer.events[-1].key
        assert key == placed.key()
        assert key != dataclasses.replace(placed, placement=None).key()


def build_training_graph_for(num_gpus: int):
    """The tiny training graph at the fixture's device count."""
    from repro import GPT2MoEConfig, build_training_graph

    return build_training_graph(
        GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=num_gpus
    )
