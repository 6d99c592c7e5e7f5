"""Plan-serving stress: thousands of mixed warm/cold requests.

Not a paper figure -- infrastructure validation for the serving layer
(:mod:`repro.serving`).  A production deployment's request stream is a
mix of cold compiles (new workloads), warm repeats (the steady state),
identical bursts (a fleet of trainers starting the same job), and
near-miss signatures (routing drifted one bucket over).  This experiment
drives all four shapes through one shared :class:`~repro.api.PlanStore`
and holds the serving layer to its claims:

- **burst** -- many concurrent identical requests against the *empty*
  store: coalescing must collapse them to exactly one planner run (run
  first, because once any same-identity bucket is stored, nearest
  serving answers the burst with *zero* request-path planner runs);
- **cold** -- one request per workload through a plain (no nearest, no
  memory cache) server: the planner-latency floor the warm paths are
  measured against;
- **warm** -- a long shuffled stream over the already-planned workloads:
  the steady state, whose p50 must sit far below the cold p50;
- **nearest** -- fresh routing seeds one bucket away from stored plans:
  served immediately from the closest bucket while the exact re-plan is
  hot-swapped in, with a bounded served-vs-exact predicted gap.

The workload suite is derived from *every* scenario preset
(:func:`repro.api.available_presets`): each preset's cluster kind, gate,
and hot-expert knobs are kept, while the model is swapped for the
miniature ``tiny`` config (8 GPUs) and the routing seed is made unique
per preset -- 26 structurally distinct store entries at CI-friendly
planner cost.
"""

from __future__ import annotations

import random
import statistics
import time

from ...api import PlanStore, Scenario, available_presets
from ...serving import NEAREST_PREDICTED_GAP_BOUND, PlanServer
from ..formatting import format_table
from .common import FigureResult

#: regression floor for the nearest-signature predicted gap: the realized
#: gap on this suite is ~1e-6 (the neighbor's schedule is near-optimal),
#: where a 20% relative tolerance would trip on float-level jitter.  The
#: metric is floored here so the gate only fires when the gap becomes
#: *meaningful* (> ~6% predicted-time error), far below the documented
#: 25% serving bound.
GAP_METRIC_FLOOR = 0.05

#: regression floor for the warm/cold latency ratio, for the same
#: reason: the realized ratio is ~0.0003 (warm p50 is a 5-9us memory-
#: cache read against a 23-30ms cold plan, measured on a 2-core
#: container), where 20% relative tolerance would gate on scheduler
#: noise.  Floored at 1/60 the gate's 20% tolerance fires exactly at
#: the documented contract: warm p50 at least 50x below cold p50.
WARM_RATIO_FLOOR = 1.0 / 60.0


def serving_suite() -> list[Scenario]:
    """One tiny-ified workload per scenario preset (distinct routing
    seeds => distinct signature buckets => distinct store entries)."""
    suite = []
    for idx, name in enumerate(sorted(available_presets())):
        base = Scenario.preset(name)
        suite.append(
            Scenario(
                model="tiny",
                cluster=base.cluster,
                num_gpus=8,
                gate=base.gate,
                routing_seed=idx + 1,
                concentration=base.concentration,
                hot_experts=base.hot_experts,
                hot_boost=base.hot_boost,
            )
        )
    return suite


def _timed(server: PlanServer, scenario: Scenario):
    t0 = time.perf_counter()
    result = server.serve(scenario)
    return (time.perf_counter() - t0) * 1e3, result


def _percentiles(latencies_ms: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies_ms)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return statistics.median(ordered), p95


def run(
    warm_repeats: int = 75,
    burst: int = 64,
    probes: int = 8,
    seed: int = 0,
    store_root=None,
) -> FigureResult:
    """Serve the mixed request stream; returns per-phase latency rows."""
    import tempfile

    suite = serving_suite()
    rng = random.Random(seed)

    with tempfile.TemporaryDirectory() as tmp:
        root = store_root if store_root is not None else tmp
        store = PlanStore(root)

        with PlanServer(store) as server:
            # -- burst: concurrent identical requests, empty store -----
            burst_sc = suite[0].with_(routing_seed=1000)
            t0 = time.perf_counter()
            futures = [server.submit(burst_sc) for _ in range(burst)]
            for f in futures:
                f.result()
            burst_s = time.perf_counter() - t0
            burst_stats = dict(server.counters)
            burst_planner_runs = burst_stats["planner_runs"]

            # -- cold: the planner-latency floor (no shortcuts) --------
            cold_ms = []
            with PlanServer(store, max_distance=0, memory_cache_size=0) as srv:
                for sc in suite:
                    ms, result = _timed(srv, sc)
                    assert result.origin == "planned", result.origin
                    cold_ms.append(ms)

            # -- warm: the shuffled steady state -----------------------
            stream = suite * warm_repeats
            rng.shuffle(stream)
            warm_ms = []
            for sc in stream:
                ms, result = _timed(server, sc)
                assert result.origin in ("memory", "store"), result.origin
                warm_ms.append(ms)

            # -- nearest: one bucket away from a stored plan -----------
            nearest_ms, distances = [], []
            for i in range(probes):
                probe = suite[0].with_(routing_seed=2000 + i)
                ms, result = _timed(server, probe)
                assert result.origin == "nearest", result.origin
                nearest_ms.append(ms)
                distances.append(result.distance)
            server.drain()
            stats = server.stats()

        max_gap = max(
            (e["predicted_gap"] for e in stats["hot_swap_events"]),
            default=0.0,
        )

    cold_p50, cold_p95 = _percentiles(cold_ms)
    warm_p50, warm_p95 = _percentiles(warm_ms)
    near_p50, near_p95 = _percentiles(nearest_ms)
    total = len(cold_ms) + burst + len(warm_ms) + probes

    rows = [
        {
            "phase": "cold",
            "requests": len(cold_ms),
            "p50_ms": cold_p50,
            "p95_ms": cold_p95,
            "planner_runs": len(cold_ms),
        },
        {
            "phase": "burst",
            "requests": burst,
            "p50_ms": burst_s / burst * 1e3,
            "p95_ms": burst_s / burst * 1e3,
            "planner_runs": burst_planner_runs,
        },
        {
            "phase": "warm",
            "requests": len(warm_ms),
            "p50_ms": warm_p50,
            "p95_ms": warm_p95,
            "planner_runs": 0,
        },
        {
            "phase": "nearest",
            "requests": probes,
            "p50_ms": near_p50,
            "p95_ms": near_p95,
            "planner_runs": stats["server"]["hot_swaps"],
        },
    ]
    table = format_table(
        ["Phase", "Requests", "p50 ms", "p95 ms", "Planner runs"],
        [
            [
                r["phase"],
                r["requests"],
                round(r["p50_ms"], 3),
                round(r["p95_ms"], 3),
                r["planner_runs"],
            ]
            for r in rows
        ],
        title=f"Plan serving under load ({total} requests, "
        f"{len(suite)} workloads derived from the preset suite)",
    )
    notes = {
        "total_requests": total,
        "suite_size": len(suite),
        "cold_p50_ms": cold_p50,
        "warm_p50_ms": warm_p50,
        "warm_speedup": cold_p50 / max(warm_p50, 1e-9),
        "burst_planner_runs": burst_planner_runs,
        "burst_coalesced": burst_stats["coalesced"],
        "nearest_hits": stats["server"]["nearest_hits"],
        "hot_swaps": stats["server"]["hot_swaps"],
        "max_nearest_distance": max(distances, default=0.0),
        "max_predicted_gap": max_gap,
        "predicted_gap_bound": NEAREST_PREDICTED_GAP_BOUND,
        "store_entries": stats["store_entries"],
        "store_bytes": stats["store_bytes"],
        "server_counters": stats["server"],
        # lower-is-better gates for check_regression.py.  The latency
        # ratio is wall-time based but machine-normalized (both phases
        # run in one interpreter against one store); burst_planner_runs
        # is a deterministic count (coalescing broke if it exceeds 1);
        # the gap metric is floored (see GAP_METRIC_FLOOR).
        "regression_metrics": {
            "warm_over_cold_p50_ratio_floored": max(
                warm_p50 / max(cold_p50, 1e-9), WARM_RATIO_FLOOR
            ),
            "burst_planner_runs": float(burst_planner_runs),
            "nearest_predicted_gap_floored": max(max_gap, GAP_METRIC_FLOOR),
        },
    }
    return FigureResult(
        "plan_serving",
        "mixed warm/cold plan-serving stress over the preset suite",
        rows,
        table,
        notes,
    )
