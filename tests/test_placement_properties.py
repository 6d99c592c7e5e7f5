"""Property-based tests (hypothesis) for placement invariants.

Quantified over the full placement artifact space
(:func:`generators.st_expert_placement`) and the skewed traffic
regime placement targets (:func:`generators.st_dispatch_counts`):

- the vectorized remap is **bit-identical** to the pure-Python
  reference, for any placement and any counts;
- structural invariants hold by construction (every expert placed,
  fractions normalized) and survive serialization;
- the remap conserves traffic: total bytes and per-source send loads
  are placement-invariant (placement moves experts, not tokens);
- the identity placement is a bit-identical no-op against the
  owner-summed reduction the rest of the stack uses;
- the optimizer never returns a placement worse than the identity, and
  on exhaustively enumerable configs it stays within
  :data:`~repro.placement.GREEDY_BOUND` of the brute-force optimum.
"""

import numpy as np
from generators import st_dispatch_counts, st_expert_placement
from hypothesis import given, settings
from oracles.placement_reference import (
    brute_force_placement,
    remap_pair_bytes_reference,
)

from repro.placement import GREEDY_BOUND, ExpertPlacement, PlacementOptimizer
from repro.runtime import ClusterSpec, RoutingSignature

G, E = 4, 8
BPT = 640.0


@given(st_expert_placement(E, G), st_dispatch_counts(G, E))
@settings(max_examples=60, deadline=None)
def test_remap_bit_identical_to_reference(placement, counts):
    assert np.array_equal(
        placement.pair_bytes(counts, BPT),
        remap_pair_bytes_reference(placement, counts, BPT),
    )


@given(st_expert_placement(E, G))
@settings(max_examples=60, deadline=None)
def test_structural_invariants(placement):
    assert placement.num_experts == E
    covered = set()
    for e in range(E):
        replicas = placement.assignments[e]
        devices = placement.devices_of(e)
        assert devices, "every expert is placed"
        assert len(set(devices)) == len(devices)
        assert all(0 <= d < G for d in devices)
        assert all(f > 0 for _, f in replicas)
        assert abs(sum(f for _, f in replicas) - 1.0) <= 1e-9
        assert devices == tuple(sorted(devices))  # canonical order
        assert placement.owner_of(e) in devices
        covered.update(devices)
    row_sums = placement.fraction_matrix().sum(axis=1)
    assert np.allclose(row_sums, 1.0, atol=1e-9)


@given(st_expert_placement(E, G))
@settings(max_examples=60, deadline=None)
def test_serialization_roundtrip(placement):
    loaded = ExpertPlacement.from_json(placement.to_json())
    assert loaded == placement
    assert loaded.fingerprint() == placement.fingerprint()


@given(st_expert_placement(E, G), st_dispatch_counts(G, E))
@settings(max_examples=60, deadline=None)
def test_remap_conserves_traffic(placement, counts):
    pair = placement.pair_bytes(counts, BPT)
    assert pair.shape == (G, G)
    assert (pair >= 0).all()
    np.testing.assert_allclose(pair.sum(), counts.sum() * BPT, rtol=1e-12)
    # send loads are placement-invariant: every token still leaves its
    # source; placement only redistributes the *receive* side
    np.testing.assert_allclose(
        pair.sum(axis=1), counts.sum(axis=1) * BPT, rtol=1e-12
    )


@given(st_dispatch_counts(G, E))
@settings(max_examples=60, deadline=None)
def test_identity_is_bit_identical_noop(counts):
    identity = ExpertPlacement.identity(E, G)
    assert identity.is_identity
    expected = counts.reshape(G, G, E // G).sum(axis=2).astype(np.float64) * BPT
    assert np.array_equal(identity.pair_bytes(counts, BPT), expected)
    # ... end to end: a counts-carrying signature remaps to itself
    sig = RoutingSignature.from_counts(counts, bytes_per_token=BPT)
    assert sig.remap(identity) is sig


@given(st_dispatch_counts(G, E))
@settings(max_examples=30, deadline=None)
def test_optimizer_never_worse_than_identity(counts):
    cluster = ClusterSpec.for_gpus("a100", G)
    result = PlacementOptimizer(cluster).optimize(counts, BPT)
    assert result.bottleneck_ms <= result.identity_ms + 1e-9
    # the result is a valid placement by construction; re-pricing it
    # reproduces the reported bottleneck
    opt = PlacementOptimizer(cluster)
    assert opt.cost_ms(result.placement, counts, BPT) == result.bottleneck_ms


@given(st_dispatch_counts(2, 4))
@settings(max_examples=25, deadline=None)
def test_optimizer_within_bound_of_brute_force(counts):
    cluster = ClusterSpec.for_gpus("a100", 2)
    result = PlacementOptimizer(cluster).optimize(counts, BPT)
    _, best_ms = brute_force_placement(counts, BPT, cluster)
    assert result.bottleneck_ms <= best_ms * GREEDY_BOUND + 1e-9


@given(st_expert_placement(E, G), st_dispatch_counts(G, E))
@settings(max_examples=40, deadline=None)
def test_signature_remap_matches_direct_summary(placement, counts):
    sig = RoutingSignature.from_counts(counts, bytes_per_token=BPT)
    remapped = sig.remap(placement)
    if placement.is_identity:
        assert remapped is sig
        return
    expected = RoutingSignature.from_pair_bytes(
        placement.pair_bytes(counts, BPT)
    )
    assert remapped.load == expected.load
    assert remapped.mean_send_bytes == expected.mean_send_bytes
    assert remapped.expert_counts == sig.expert_counts
