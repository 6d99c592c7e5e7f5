"""Placement-optimizer gate: differential agreement + hot-expert wins.

Runs the seeded placement drills (``repro.bench.figures.placement``)
plus the differential drill against the brute-force test oracle
(``tests/oracles/placement_reference.py``), and asserts the documented
quality contracts directly, on top of the baseline-diffed regression
metrics:

1. **Differential agreement** -- on every exhaustively enumerable
   config, the greedy optimizer's bottleneck stays within the
   documented :data:`~repro.placement.GREEDY_BOUND` of brute force:
   zero mismatches beyond the bound, ever.
2. **Hot-expert wins** -- on every multi-node grid point the optimizer
   beats the identity layout by at least the documented target
   (mean over seeds), the headline "placement flattens the NIC
   bottleneck" claim.
3. **Priced migration replay** -- over the recorded drift trace, the
   adaptive trajectory (weight-transfer costs included) performs at
   least one migration and lands strictly cheaper than staying on the
   identity layout.
"""

import numpy as np
from conftest import run_figure
from oracles.placement_reference import brute_force_placement

from repro.bench.figures import placement
from repro.placement import GREEDY_BOUND, PlacementOptimizer
from repro.runtime import ClusterSpec


def _tiny_multi_node() -> ClusterSpec:
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


def _differential_drill(seeds_per_config: int = 4, seed: int = 0) -> dict:
    """Greedy vs brute force on every enumerable config.  A *mismatch*
    is a run whose bottleneck exceeds ``brute_force *`` ``GREEDY_BOUND``."""
    configs = [
        ("a100x2-e4", ClusterSpec.for_gpus("a100", 2), 4),
        ("a100x2-e8", ClusterSpec.for_gpus("a100", 2), 8),
        ("a100x4-e4", ClusterSpec.for_gpus("a100", 4), 4),
        ("2x2-e4", _tiny_multi_node(), 4),
        ("2x2-e8", _tiny_multi_node(), 8),
    ]
    runs = exact = mismatches = 0
    worst_ratio = 1.0
    for _, cluster, e in configs:
        opt = PlacementOptimizer(cluster)
        for s in range(seeds_per_config):
            rng = np.random.default_rng(seed * 1000 + s)
            counts = placement.skewed_counts(
                rng, cluster.num_gpus, e, hot=1, boost=400
            )
            result = opt.optimize(counts, 64.0)
            _, best_ms = brute_force_placement(counts, 64.0, cluster)
            ratio = result.bottleneck_ms / best_ms if best_ms > 0 else 1.0
            runs += 1
            if ratio <= 1.0 + 1e-9:
                exact += 1
            if ratio > GREEDY_BOUND + 1e-9:
                mismatches += 1
            worst_ratio = max(worst_ratio, ratio)
    return {
        "configs": [name for name, _, _ in configs],
        "runs": runs,
        "exact_matches": exact,
        "mismatches_beyond_bound": mismatches,
        "worst_ratio": worst_ratio,
        "greedy_bound": GREEDY_BOUND,
    }


def _run_with_differential():
    """``placement.run`` plus the differential drill's notes and its
    regression metrics (both gate at exactly zero disagreements beyond
    the documented bound)."""
    result = placement.run()
    differential = _differential_drill()
    result.notes["differential"] = differential
    result.notes["regression_metrics"].update(
        mismatches_beyond_bound=float(differential["mismatches_beyond_bound"]),
        worst_greedy_ratio=differential["worst_ratio"],
    )
    return result


def test_placement(benchmark):
    result = run_figure(benchmark, _run_with_differential)
    differential = result.notes["differential"]
    hot = result.notes["hot_grid"]
    replay = result.notes["replay"]

    # contract 1: the greedy bound is a contract, not a target
    assert differential["mismatches_beyond_bound"] == 0
    assert differential["runs"] >= 20
    assert differential["worst_ratio"] <= GREEDY_BOUND + 1e-9
    # most enumerable configs should agree exactly, not just within bound
    assert differential["exact_matches"] >= differential["runs"] // 2

    # contract 2: every grid point clears the improvement target
    assert hot["min_improvement"] >= hot["target"], (
        f"worst grid point improved only "
        f"{hot['min_improvement'] * 100:.1f}% "
        f"(target {hot['target'] * 100:.0f}%)"
    )
    assert all(p["mean_improvement"] > 0 for p in hot["points"])

    # contract 3: priced migrations pay for themselves on the trace
    assert replay["migrations"] >= 1
    assert replay["total_adaptive_ms"] < replay["total_identity_ms"]
    assert replay["improvement"] > 0.05
    # the pricing rule is conservative: decisions were considered but
    # only profitable ones executed
    assert replay["decisions"] >= replay["migrations"]
