"""Placement-optimizer benchmark: hot-expert wins + priced migration.

Not a paper figure -- the quality gate for the expert placement &
replication optimizer (:mod:`repro.placement`).  Two seeded, fully
deterministic drills (``benchmarks/bench_placement.py`` adds a third,
the differential drill against the brute-force test oracle):

- **hot grid** -- multi-node p3dn clusters under hot-expert traffic: the
  placement's bottleneck-a2a improvement over the identity layout must
  clear :data:`MIN_HOT_IMPROVEMENT` on every grid point (the headline
  "placement flattens the NIC bottleneck" claim).
- **replay** -- the priced-migration drill over a recorded drift trace:
  the adaptive trajectory (weight-transfer costs included) must beat
  staying on the identity layout.

All quantities are modeled milliseconds / counts, deterministic across
machines, so the regression gate runs at tight tolerances.
"""

from __future__ import annotations

import numpy as np

from ...placement import PlacementOptimizer, make_drift_trace, replay_trace
from ...runtime import ClusterSpec
from ..formatting import format_table
from .common import FigureResult

#: minimum fractional bottleneck-a2a improvement the optimizer must find
#: on every multi-node hot-expert grid point (the gate's target)
MIN_HOT_IMPROVEMENT = 0.10

#: floor for the improvement-shortfall regression metric: the realized
#: shortfall is 0 (every grid point clears the target with margin), and
#: a 20% relative tolerance on 0 would gate on nothing -- flooring makes
#: the gate fire only once improvement drops meaningfully below target
SHORTFALL_FLOOR = 0.01


def skewed_counts(rng, g: int, e: int, hot: int, boost: int):
    """``[g, e]`` dispatch counts with ``hot`` expert columns boosted."""
    counts = rng.integers(1, 120, size=(g, e))
    for h in rng.choice(e, size=hot, replace=False):
        counts[:, h] += boost
    return counts


def _grid_clusters() -> list[tuple[ClusterSpec, int]]:
    """(cluster, num_experts) hot-grid points: three multi-node shapes
    (wide nodes, narrow nodes, many small nodes), sized so one optimize
    stays ~1 s."""
    import dataclasses

    p3dn2 = ClusterSpec.p3dn(2)  # 2 nodes x 8 GPUs
    narrow = dataclasses.replace(p3dn2, name="p3dn-2x4", gpus_per_node=4)
    many = dataclasses.replace(
        p3dn2, name="p3dn-4x2", num_nodes=4, gpus_per_node=2
    )
    return [(p3dn2, 16), (narrow, 16), (many, 16)]


def _hot_grid_drill(seeds_per_point: int, seed: int) -> dict:
    """Multi-node hot-expert traffic: improvement over identity.

    The gate quantity is the worst grid point's *mean-over-seeds*
    improvement (per-seed minima stay informational: a single draw can
    land nearly balanced, where no placement has much to win)."""
    grid = []
    for cluster, e in _grid_clusters():
        g = cluster.num_gpus
        opt = PlacementOptimizer(cluster)
        for boost in (600, 1500):
            improvements = []
            for s in range(seeds_per_point):
                rng = np.random.default_rng(seed * 100 + s)
                counts = skewed_counts(rng, g, e, hot=2, boost=boost)
                result = opt.optimize(counts, 2048.0)
                improvements.append(result.improvement)
            grid.append(
                {
                    "cluster": cluster.name,
                    "gpus": g,
                    "experts": e,
                    "boost": boost,
                    "min_improvement": min(improvements),
                    "mean_improvement": float(np.mean(improvements)),
                }
            )
    min_improvement = min(p["mean_improvement"] for p in grid)
    return {
        "points": grid,
        "min_improvement": min_improvement,
        "target": MIN_HOT_IMPROVEMENT,
        "shortfall": max(0.0, MIN_HOT_IMPROVEMENT - min_improvement),
    }


def _replay_drill(steps: int, seed: int) -> dict:
    """Priced migrations over a recorded hot-expert drift trace."""
    cluster = ClusterSpec.for_gpus("a100", 4)
    trace = make_drift_trace(4, 8, steps=steps, seed=seed, hot_tokens=1500)
    report = replay_trace(
        trace,
        cluster,
        bytes_per_token=8192.0,
        expert_weight_bytes=8 * 2**20,
        horizon_steps=20,
    )
    return {
        "steps": steps,
        "migrations": len(report.migrations),
        "decisions": len(report.events),
        "total_identity_ms": report.total_identity_ms,
        "total_adaptive_ms": report.total_adaptive_ms,
        "improvement_ms": report.improvement_ms,
        "improvement": report.improvement,
        # lower-is-better form of the same win
        "adaptive_over_identity": (
            report.total_adaptive_ms / report.total_identity_ms
            if report.total_identity_ms > 0
            else 1.0
        ),
    }


def run(
    hot_seeds_per_point: int = 3,
    replay_steps: int = 40,
    seed: int = 0,
) -> FigureResult:
    """Run the placement drills; returns per-drill summary rows."""
    hot = _hot_grid_drill(hot_seeds_per_point, seed)
    replay = _replay_drill(replay_steps, seed)

    rows = [
        {
            "drill": "hot-grid",
            "scale": f"{len(hot['points'])} grid points "
            f"(3 multi-node shapes, 2 boosts)",
            "outcome": f"min improvement "
            f"{hot['min_improvement'] * 100:.1f}% "
            f"(target {MIN_HOT_IMPROVEMENT * 100:.0f}%)",
            "detail": f"mean over grid "
            f"{np.mean([p['mean_improvement'] for p in hot['points']]) * 100:.1f}%",
        },
        {
            "drill": "replay",
            "scale": f"{replay['steps']} steps",
            "outcome": f"{replay['migrations']} migrations, "
            f"net win {replay['improvement'] * 100:.1f}%",
            "detail": f"adaptive {replay['total_adaptive_ms']:.3f} ms vs "
            f"identity {replay['total_identity_ms']:.3f} ms",
        },
    ]
    table = format_table(
        ["Drill", "Scale", "Outcome", "Detail"],
        [[r["drill"], r["scale"], r["outcome"], r["detail"]] for r in rows],
        title="Expert placement: hot-expert wins, priced migration replay",
    )
    notes = {
        "hot_grid": hot,
        "replay": replay,
        # lower-is-better gates for check_regression.py.  The hot-grid
        # improvement gates through its floored shortfall (see
        # SHORTFALL_FLOOR); the replay win gates as the
        # adaptive/identity cost ratio.
        "regression_metrics": {
            "hot_improvement_shortfall_floored": max(
                hot["shortfall"], SHORTFALL_FLOOR
            ),
            "replay_adaptive_over_identity": replay["adaptive_over_identity"],
        },
    }
    return FigureResult(
        "placement",
        "expert placement & replication optimizer quality gates",
        rows,
        table,
        notes,
    )
