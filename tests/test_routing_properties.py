"""Property-based tests (hypothesis) for routing invariants.

These encode the paper's correctness-critical properties: capacity is a
hard bound, slots are unique, and prefix-stable gates really are prefix
stable for *any* split point -- the foundation of the capacity-passing
partitioned gate (Fig. 5c).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moe import (
    combine,
    dispatch,
    dispatch_dx,
    route_random,
    route_switch,
    route_tokens,
)
from repro.moe.layer import softmax
from repro.runtime import RoutingSignature
from generators import st_dispatch_counts


@st.composite
def probs_and_capacity(draw):
    t = draw(st.integers(2, 48))
    e = draw(st.integers(2, 8))
    c = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return softmax(rng.standard_normal((t, e))), c


@given(probs_and_capacity(), st.sampled_from(["switch", "bpr", "random"]))
@settings(max_examples=60, deadline=None)
def test_capacity_is_hard_bound(pc, gate):
    probs, c = pc
    info, counts = route_tokens(probs, gate, c)
    assert (info.expert_counts() <= c).all()
    assert (np.asarray(counts) <= c).all()


@given(probs_and_capacity(), st.sampled_from(["switch", "bpr", "random"]))
@settings(max_examples=60, deadline=None)
def test_slots_unique_per_expert(pc, gate):
    probs, c = pc
    info, _ = route_tokens(probs, gate, c)
    pairs = np.stack([info.expert_idx, info.slot_idx], axis=1)
    assert len(np.unique(pairs, axis=0)) == len(pairs)


@given(probs_and_capacity(), st.data())
@settings(max_examples=60, deadline=None)
def test_switch_prefix_stable_any_split(pc, data):
    probs, c = pc
    t = probs.shape[0]
    cut = data.draw(st.integers(1, t - 1))
    full, _ = route_switch(probs, capacity=c)
    a, counts = route_switch(probs[:cut], capacity=c)
    b, _ = route_switch(probs[cut:], capacity=c, capacity_counts=counts)
    merged = np.concatenate(
        [a.sorted_tuples(), b.sorted_tuples() + np.array([cut, 0, 0])]
    )
    order = np.lexsort((merged[:, 2], merged[:, 1], merged[:, 0]))
    assert np.array_equal(merged[order], full.sorted_tuples())


@given(probs_and_capacity(), st.data(), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_random_prefix_stable_any_split(pc, data, seed):
    probs, c = pc
    t = probs.shape[0]
    cut = data.draw(st.integers(1, t - 1))
    full, _ = route_random(probs, capacity=c, seed=seed)
    a, counts = route_random(probs[:cut], capacity=c, seed=seed, token_offset=0)
    b, _ = route_random(
        probs[cut:], capacity=c, seed=seed, token_offset=cut,
        capacity_counts=counts,
    )
    merged = np.concatenate(
        [a.sorted_tuples(), b.sorted_tuples() + np.array([cut, 0, 0])]
    )
    order = np.lexsort((merged[:, 2], merged[:, 1], merged[:, 0]))
    assert np.array_equal(merged[order], full.sorted_tuples())


@given(probs_and_capacity(), st.integers(2, 16))
@settings(max_examples=40, deadline=None)
def test_dispatch_combine_roundtrip(pc, h):
    """combine(dispatch(x)) with unit weights returns x for kept tokens
    and zero for dropped ones."""
    probs, c = pc
    t, e = probs.shape
    info, _ = route_switch(probs, capacity=c)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((t, h))
    buf = dispatch(x, info)
    ones = np.ones_like(probs)
    y = combine(buf, info, ones)
    kept = np.zeros(t, dtype=bool)
    kept[info.token_idx] = True
    assert np.allclose(y[kept], x[kept])
    assert np.allclose(y[~kept], 0.0)


@given(probs_and_capacity(), st.integers(2, 16))
@settings(max_examples=40, deadline=None)
def test_dispatch_adjoint_property(pc, h):
    """<dispatch(x), B> == <x, dispatch_dx(B)>: scatter/gather are adjoint."""
    probs, c = pc
    t, e = probs.shape
    info, _ = route_switch(probs, capacity=c)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((t, h))
    bbuf = rng.standard_normal((e, c, h))
    lhs = float((dispatch(x, info) * bbuf).sum())
    rhs = float((x * dispatch_dx(bbuf, info)).sum())
    assert np.isclose(lhs, rhs)


@given(st_dispatch_counts(4, 8))
@settings(max_examples=40, deadline=None)
def test_signature_from_counts_invariants(counts):
    """Signatures summarized from any (skewed) dispatch counts are
    well-formed: the bottleneck device is at least mean-loaded, the
    count provenance survives verbatim, and re-summarizing the same
    counts is deterministic."""
    sig = RoutingSignature.from_counts(counts, bytes_per_token=64.0)
    assert sig.num_devices == 4
    assert all(v >= 0 for v in sig.load)
    assert sig.bottleneck >= 1.0 or sig.is_uniform
    assert np.array_equal(np.asarray(sig.expert_counts), counts)
    assert sig == RoutingSignature.from_counts(counts, bytes_per_token=64.0)


@given(probs_and_capacity())
@settings(max_examples=40, deadline=None)
def test_dropped_plus_kept_is_everything(pc):
    probs, c = pc
    info, _ = route_switch(probs, capacity=c)
    kept = set(info.token_idx.tolist())
    dropped = set(info.dropped_tokens().tolist())
    assert kept | dropped == set(range(info.num_tokens))
    assert not (kept & dropped)
