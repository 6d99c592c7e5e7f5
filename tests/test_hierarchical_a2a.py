"""Hierarchical (2-hop) all-to-all: numerics, timing model, planner choice.

The load-bearing invariants:

- ``hierarchical_all_to_all`` is **bit-identical** to
  ``all_to_all_irregular`` under randomized counts and skew (it moves
  exactly the same rows, just via relays);
- its realized per-phase traffic matches the analytic decomposition
  (``Topology.decompose_pair_bytes``) the network model prices with;
- on a single node the hierarchical timing and pricing reduce to the
  flat model exactly;
- the optimizer's per-a2a choice never makes a plan worse, and the
  ground-truth simulator honors the annotation.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import CommCostModel, LancetOptimizer
from repro.runtime import (
    ClusterSpec,
    RoutingSignature,
    Topology,
    all_to_all_irregular,
    hierarchical_all_to_all,
)
from generators import (
    random_pair_bytes,
    routed_buffers,
    st_exchange_params,
)


class TestBitIdentity:
    @pytest.mark.parametrize("direction", ["scatter", "gather"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_flat_irregular(self, direction, seed):
        """Randomized counts/skew: same received buffers, bit for bit."""
        rng = np.random.default_rng(seed)
        g = int(rng.choice([4, 8, 16]))
        el = int(rng.choice([1, 2]))
        c, h, t = int(rng.integers(4, 10)), 4, int(rng.integers(8, 40))
        bufs, counts = routed_buffers(
            rng, g, el, c, h, t, temperature=rng.uniform(0.5, 4.0)
        )
        if direction == "gather":
            bufs, _ = all_to_all_irregular(bufs, counts, "scatter")
        gpn = 4 if g >= 8 else 2
        topo = Topology(
            num_nodes=g // gpn,
            gpus_per_node=gpn,
            intra_bw_gbps=200.0,
            node_nic_gbps=50.0,
        )
        flat, pair_flat = all_to_all_irregular(bufs, counts, direction)
        hier, pair_hier, traffic = hierarchical_all_to_all(
            bufs, counts, direction, topo
        )
        for a, b in zip(flat, hier):
            assert np.array_equal(a, b)
        assert np.array_equal(pair_flat, pair_hier)
        # realized per-phase traffic == analytic decomposition
        ref = topo.decompose_pair_bytes(pair_flat)
        assert np.allclose(ref.intra_gather, traffic.intra_gather)
        assert np.allclose(ref.inter_node, traffic.inter_node)
        assert np.allclose(ref.intra_scatter, traffic.intra_scatter)

    @given(params=st_exchange_params())
    @settings(max_examples=40, deadline=None)
    def test_property_bit_identical(self, params):
        """Hypothesis form of the invariant: for ANY realized routing
        (any skew, any clipping), the 2-hop exchange delivers the exact
        buffers of the flat irregular exchange.  The scenario strategy is
        shared with the batch-simulation differential harness
        (``tests/generators.py``)."""
        g = params["g"]
        rng = np.random.default_rng(params["seed"])
        bufs, counts = routed_buffers(
            rng, g, params["el"], params["c"], 4, params["t"],
            params["temperature"],
        )
        if params["direction"] == "gather":
            bufs, _ = all_to_all_irregular(bufs, counts, "scatter")
        topo = Topology(
            num_nodes=2,
            gpus_per_node=g // 2,
            intra_bw_gbps=200.0,
            node_nic_gbps=50.0,
        )
        flat, _ = all_to_all_irregular(bufs, counts, params["direction"])
        hier, _, _ = hierarchical_all_to_all(
            bufs, counts, params["direction"], topo
        )
        for a, b in zip(flat, hier):
            assert np.array_equal(a, b)

    def test_topology_size_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        bufs, counts = routed_buffers(rng, 4, 1, 6, 4, 16)
        topo = Topology(
            num_nodes=2, gpus_per_node=4, intra_bw_gbps=200, node_nic_gbps=50
        )
        with pytest.raises(ValueError):
            hierarchical_all_to_all(bufs, counts, "scatter", topo)


class TestDecomposition:
    def test_byte_conservation(self):
        """Every cross-node byte crosses once; intra legs cover the
        forwarding paths (gather: source->relay, scatter: relay->dest)."""
        rng = np.random.default_rng(1)
        topo = ClusterSpec.p4de(2).topology
        pair = random_pair_bytes(rng, topo.num_gpus, skew=8.0)
        tr = topo.decompose_pair_bytes(pair)
        node_of = topo.node_of_ranks()
        cross = np.where(node_of[:, None] != node_of[None, :], pair, 0.0)
        same = np.where(
            (node_of[:, None] == node_of[None, :])
            & ~np.eye(topo.num_gpus, dtype=bool),
            pair,
            0.0,
        )
        assert np.isclose(tr.inter_node.sum(), cross.sum())
        # gather = direct same-node traffic + cross traffic not already
        # sitting on its send relay; scatter = cross traffic not already
        # addressed to its receive relay
        assert tr.intra_gather.sum() <= same.sum() + cross.sum()
        assert tr.intra_gather.sum() >= same.sum()
        assert tr.intra_scatter.sum() <= cross.sum()
        # no phase matrix moves bytes device-to-itself
        assert np.all(np.diag(tr.intra_gather) == 0)
        assert np.all(np.diag(tr.intra_scatter) == 0)

    def test_relay_round_robin(self):
        topo = Topology(
            num_nodes=4, gpus_per_node=8, intra_bw_gbps=200, node_nic_gbps=50
        )
        # destination nodes spread over distinct local ranks of the source
        relays = {topo.send_relay(0, n) for n in range(1, 4)}
        assert len(relays) == 3
        for n in range(1, 4):
            assert topo.node_of(topo.send_relay(0, n)) == 0
            assert topo.node_of(topo.recv_relay(0, n)) == n


class TestTimingModel:
    def test_single_node_reduces_to_flat_exactly(self):
        rng = np.random.default_rng(2)
        cl = ClusterSpec.for_gpus("a100", 8)
        pair = random_pair_bytes(rng, 8, skew=4.0)
        assert np.array_equal(
            cl.hierarchical_a2a_device_times_ms(pair),
            cl.a2a_device_times_ms(pair),
        )
        assert cl.hierarchical_a2a_time_ms_irregular(
            pair
        ) == cl.a2a_time_ms_irregular(pair)

    def test_device_times_max_is_completion(self):
        rng = np.random.default_rng(3)
        for cl in (ClusterSpec.p4de(2), ClusterSpec.p3dn(4)):
            pair = random_pair_bytes(rng, cl.num_gpus, skew=16.0)
            times = cl.hierarchical_a2a_device_times_ms(pair)
            assert times.shape == (cl.num_gpus,)
            assert float(times.max()) == cl.hierarchical_a2a_time_ms_irregular(
                pair
            )

    def test_hierarchical_wins_under_concentrated_cross_skew(self):
        """A single hot receiver bottlenecks the flat exchange on its NIC
        share; node-aggregation spreads it over the whole node NIC."""
        cl = ClusterSpec.p4de(2)
        g = cl.num_gpus
        pair = np.full((g, g), 1e5)
        pair[:, 3] = 4e7
        assert cl.hierarchical_a2a_time_ms_irregular(
            pair
        ) < cl.a2a_time_ms_irregular(pair)

    def test_flat_wins_under_uniform_traffic(self):
        cl = ClusterSpec.p4de(2)
        pair = np.full((cl.num_gpus, cl.num_gpus), 1e6)
        assert cl.a2a_time_ms_irregular(
            pair
        ) < cl.hierarchical_a2a_time_ms_irregular(pair)


class TestHierarchicalPricing:
    def test_single_node_pricing_reduces_to_flat(self):
        """Property: hierarchical pricing == flat pricing, bit for bit,
        for single-node clusters -- at any size, parts, signature."""
        rng = np.random.default_rng(4)
        comm = CommCostModel(ClusterSpec.for_gpus("a100", 8))
        for _ in range(20):
            nbytes = float(rng.uniform(1e3, 1e9))
            parts = int(rng.choice([1, 2, 4, 8]))
            sig = RoutingSignature.from_pair_bytes(
                random_pair_bytes(rng, 8, skew=rng.uniform(1, 10))
            )
            assert comm.a2a_hierarchical_ms(
                nbytes, parts, sig
            ) == comm.a2a_skewed_ms(nbytes, parts, sig)
            assert comm.a2a_best_ms(nbytes, parts, sig)[1] == "flat"

    def test_bandwidth_symmetric_cluster_reduces_to_flat(self):
        """No NVLink advantage -> the 2-hop detour can never pay off."""
        import dataclasses

        cl = ClusterSpec.p4de(2)
        flat_fabric = dataclasses.replace(
            cl, intra_bw_gbps=cl.nic_per_gpu_gbps
        )
        comm = CommCostModel(flat_fabric)
        assert not comm.hierarchy_helps
        assert comm.a2a_hierarchical_ms(1e7, 2) == comm.a2a_skewed_ms(1e7, 2)

    def test_pricing_matches_ground_truth_completion(self):
        """With a signature summarizing the realized pair bytes, the
        hierarchical price reconstructs the simulator's completion time."""
        rng = np.random.default_rng(5)
        cl = ClusterSpec.p3dn(2)
        pair = random_pair_bytes(rng, cl.num_gpus, skew=12.0)
        sig = RoutingSignature.from_pair_bytes(pair, topology=cl.topology)
        assert sig.hier_load is not None
        priced = CommCostModel(cl).a2a_hierarchical_ms(0.0, 1, sig)
        truth = cl.hierarchical_a2a_time_ms_irregular(pair)
        assert np.isclose(priced, truth, rtol=1e-12)

    def test_skewed_signature_without_topology_stays_flat(self):
        """Regression: a *skewed* signature summarized without a topology
        carries no phase loads, so the 2-hop price would be a guess --
        the choice must stay flat rather than act on a guessed win, and
        the guess itself must at least scale with the bottleneck."""
        cl = ClusterSpec.p3dn(2)
        g = cl.num_gpus
        # cross traffic concentrated into node 0: node-aggregation does
        # NOT help here, uniform coefficients grossly underprice it
        pair = np.full((g, g), 1e4)
        pair[:, :8] = 3e6
        blind = RoutingSignature.from_pair_bytes(pair)  # no topology
        assert blind.hier_load is None and not blind.is_uniform
        comm = CommCostModel(cl)
        assert comm.a2a_best_ms(1e7, 1, blind)[1] == "flat"
        # the conservative estimate is bottleneck-scaled, not uniform
        # (same volume base: a signature without absolute scale)
        shape_only = RoutingSignature(load=blind.load)
        latency = cl.topology.latency_ms()
        assert np.isclose(
            comm.a2a_hierarchical_ms(1e7, 1, shape_only) - latency,
            (comm.a2a_hierarchical_ms(1e7, 1, None) - latency)
            * blind.bottleneck,
            rtol=1e-12,
        )
        # with the measured phase loads the choice is trustworthy again
        aware = RoutingSignature.from_pair_bytes(pair, topology=cl.topology)
        best_ms, algo = comm.a2a_best_ms(1e7, 1, aware)
        truth = cl.hierarchical_a2a_time_ms_irregular(pair)
        if algo == "hierarchical":
            assert np.isclose(best_ms, truth, rtol=1e-12)
        else:
            assert best_ms <= truth

    def test_signature_keys_distinguish_hierarchy(self):
        rng = np.random.default_rng(6)
        pair = random_pair_bytes(rng, 16, skew=6.0)
        plain = RoutingSignature.from_pair_bytes(pair)
        topo = ClusterSpec.p4de(2).topology
        aware = RoutingSignature.from_pair_bytes(pair, topology=topo)
        assert plain.load == aware.load
        assert plain.key() != aware.key()
        # single-node topology carries no hierarchy info
        single = RoutingSignature.from_pair_bytes(
            pair,
            topology=Topology(
                num_nodes=1,
                gpus_per_node=16,
                intra_bw_gbps=220.0,
                node_nic_gbps=50.0,
            ),
        )
        assert single.hier_load is None
        assert single.key() == plain.key()


class TestOptimizerChoice:
    @pytest.fixture(scope="class")
    def planned(self):
        import dataclasses

        from repro.models import GPT2MoEConfig, build_training_graph
        from repro.runtime import (
            SimulationConfig,
            SyntheticRoutingModel,
            simulate_cluster,
        )

        # large enough that a2a transfer time dwarfs the 2-hop latency
        # overhead (tiny buffers legitimately keep choosing flat)
        cfg = dataclasses.replace(GPT2MoEConfig.gpt2_s_moe(), num_layers=2)
        graph = build_training_graph(cfg, batch=8, seq=256, num_gpus=16)
        cluster = ClusterSpec.p3dn(2)
        routing = SyntheticRoutingModel(
            seed=1, concentration=0.3, hot_experts=1, hot_boost=0.7
        )

        opt_flat = LancetOptimizer(cluster)
        signatures = opt_flat.observe_routing(graph, routing)
        prog_flat, rep_flat = opt_flat.optimize(graph)

        opt_hier = LancetOptimizer(cluster, enable_hierarchical_a2a=True)
        opt_hier.set_routing_signatures(signatures or None)
        prog_hier, rep_hier = opt_hier.optimize(graph)

        def iter_ms(program):
            cfg = SimulationConfig(
                cluster=cluster, padded_a2a=False, routing=routing
            )
            return simulate_cluster(program, config=cfg).makespan

        return prog_flat, rep_flat, prog_hier, rep_hier, iter_ms

    def test_choice_recorded_and_annotated(self, planned):
        _, rep_flat, prog_hier, rep_hier, _ = planned
        assert rep_flat.a2a_algorithms is None
        assert rep_hier.a2a_algorithms is not None
        assert rep_hier.hierarchical_a2a_count > 0
        annotated = [
            ins.attrs.get("a2a_algo")
            for ins in prog_hier.instructions
            if ins.op == "all_to_all" and ins.attrs.get("irregular")
        ]
        assert all(a in ("flat", "hierarchical") for a in annotated)
        assert (
            annotated.count("hierarchical") == rep_hier.hierarchical_a2a_count
        )

    def test_hierarchical_plan_not_slower(self, planned):
        prog_flat, _, prog_hier, _, iter_ms = planned
        assert iter_ms(prog_hier) <= iter_ms(prog_flat) * 1.001

    def test_flat_only_programs_unannotated(self, planned):
        prog_flat, _, _, _, _ = planned
        assert not any(
            "a2a_algo" in ins.attrs for ins in prog_flat.instructions
        )


class TestTrainerIntegration:
    def test_hierarchical_trainer_trains_bit_identically(self):
        """The a2a algorithm annotation is a *timing* decision: numeric
        training under a hierarchical-enabled optimizer produces exactly
        the losses of the flat-only optimizer, re-plans included."""
        from repro.models import GPT2MoEConfig, build_training_graph
        from repro.train import ReoptimizingTrainer

        graph = build_training_graph(
            GPT2MoEConfig.tiny(), batch=8, seq=16, num_gpus=16
        )
        cluster = ClusterSpec.p3dn(2)

        def run(**kw):
            trainer = ReoptimizingTrainer(
                graph,
                LancetOptimizer(cluster, **kw),
                drift_threshold=0.02,
            )
            trainer.run(3)
            return trainer

        flat = run()
        hier = run(enable_hierarchical_a2a=True)
        assert [r.losses for r in flat.history] == [
            r.losses for r in hier.history
        ]
        # observed signatures carry the 2-hop phase loads for re-plans
        assert all(
            s.hier_load is not None or s.is_uniform
            for s in hier._observed.values()
        )
