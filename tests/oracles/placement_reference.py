"""Trusted reference implementations for the differential harness.

Two oracles the production placement code is verified against:

- :func:`remap_pair_bytes_reference` -- a pure-Python (scalar loops,
  no numpy arithmetic) mirror of :meth:`ExpertPlacement.pair_bytes`.
  It follows the same numerical contract -- identity placements take the
  exact owner-summed integer reduction, everything else accumulates
  ``(count * bytes_per_token) * fraction`` per replica in expert order
  -- so the vectorized implementation must match it **bit for bit**.
- :func:`brute_force_placement` -- exhaustive enumeration of every
  single-replica assignment, the ground-truth optimum the greedy
  :class:`~repro.placement.PlacementOptimizer` is differentially tested
  against on small configurations.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.placement import ExpertPlacement, PlacementOptimizer

#: enumeration guard: G**E assignments beyond this refuse to run
#: (brute force is a test oracle for small configs, not a planner)
MAX_BRUTE_FORCE_ASSIGNMENTS = 80_000


def remap_pair_bytes_reference(
    placement: ExpertPlacement, counts, bytes_per_token: float
) -> np.ndarray:
    """Pure-Python mirror of :meth:`ExpertPlacement.pair_bytes`.

    ``counts`` rows are sources; entries must be integral (dispatch
    counts are token tallies).  Returns a float64 ``[sources,
    num_devices]`` matrix bit-identical to the production remap.
    """
    rows = [list(row) for row in np.asarray(counts)]
    sources = len(rows)
    g, e = placement.num_devices, placement.num_experts
    bpt = float(bytes_per_token)
    pair = [[0.0] * g for _ in range(sources)]
    if placement.is_identity and sources == g:
        el = e // g
        for s in range(sources):
            for d in range(g):
                total = 0
                for j in range(el):
                    total += int(rows[s][d * el + j])
                pair[s][d] = float(total) * bpt
        return np.array(pair, dtype=np.float64)
    for expert in range(e):
        for device, fraction in placement.assignments[expert]:
            for s in range(sources):
                pair[s][device] += (float(rows[s][expert]) * bpt) * fraction
    return np.array(pair, dtype=np.float64)


def brute_force_placement(
    counts,
    bytes_per_token: float,
    cluster,
    cost_fn=None,
    max_assignments: int = MAX_BRUTE_FORCE_ASSIGNMENTS,
) -> tuple[ExpertPlacement, float]:
    """Exhaustive single-replica optimum: the differential ground truth.

    Enumerates all ``G**E`` expert->device assignments (no replication
    -- the reference space the greedy optimizer must match or beat,
    since greedy may additionally replicate) and returns the cheapest
    as ``(placement, cost_ms)``.  ``cost_fn(pair_bytes) -> ms`` defaults
    to the :class:`~repro.placement.PlacementOptimizer` objective for
    ``cluster``; ties keep the first assignment in lexicographic order,
    so the result is deterministic.
    """
    counts = np.asarray(counts)
    sources, e = counts.shape
    g = cluster.num_gpus
    total = g**e
    if total > max_assignments:
        raise ValueError(
            f"brute force would enumerate {total} assignments "
            f"(> {max_assignments}); use a smaller config"
        )
    if cost_fn is None:
        cost_fn = PlacementOptimizer(cluster).pair_cost_ms
    # one scaled add per expert, in expert order: bit-identical to
    # ExpertPlacement.pair_bytes for single-replica placements (f=1.0
    # scales are exact)
    scaled = counts.astype(np.float64) * float(bytes_per_token)
    best_assign = None
    best_cost = np.inf
    for assign in itertools.product(range(g), repeat=e):
        pair = np.zeros((sources, g))
        for expert, device in enumerate(assign):
            pair[:, device] += scaled[:, expert] * 1.0
        cost = cost_fn(pair)
        if cost < best_cost:
            best_assign, best_cost = assign, cost
    placement = ExpertPlacement(
        e, g, tuple(((d, 1.0),) for d in best_assign)
    )
    return placement, float(best_cost)
