"""Naive pure-Python event-replay reference for the staged simulator.

An independently-written oracle for differential testing: instead of the
scan scheduler's per-stage sweeps, this replays the pipeline one event at
a time -- among all stages' ready head jobs, always dispatch the one with
the earliest candidate start time (ties broken by stage index), exactly
as a global event queue would.

Both implementations must agree *bit for bit*: each stage executes its
jobs in the same fixed order, and every start/end time is built from the
same float64 ``max``/add expressions over the same operands, so any
divergence is a real scheduling bug, not float noise.
"""

from __future__ import annotations

from repro.pipeline.schedule import Job
from repro.pipeline.simulate import StageCosts, _dep_time


def replay_reference(
    costs: StageCosts, orders: list[list[Job]]
) -> dict[tuple[str, int, int], tuple[float, float]]:
    """Event-replay oracle; returns ``job.key -> (start, end)``.

    Raises ``RuntimeError`` on deadlock (no ready head job while work
    remains), like the scan scheduler.
    """
    num = costs.num_stages
    if len(orders) != num:
        raise ValueError(f"{len(orders)} job orders for {num} stages")
    done: dict[tuple[str, int, int], float] = {}
    times: dict[tuple[str, int, int], tuple[float, float]] = {}
    free = [0.0] * num
    heads = [0] * num
    remaining = sum(len(o) for o in orders)

    while remaining:
        best = None  # (candidate_start, stage, job)
        for s in range(num):
            if heads[s] >= len(orders[s]):
                continue
            job = orders[s][heads[s]]
            dep = _dep_time(job, done, costs)
            if dep is None:
                continue
            candidate = max(free[s], dep)
            if best is None or candidate < best[0]:
                best = (candidate, s, job)
        if best is None:
            stuck = [
                orders[s][heads[s]]
                for s in range(num)
                if heads[s] < len(orders[s])
            ]
            raise RuntimeError(
                f"pipeline replay deadlocked; blocked heads: {stuck}"
            )
        start, s, job = best
        dur = (
            costs.forward_ms[s] if job.kind == "F" else costs.backward_ms[s]
        )
        end = start + dur
        times[job.key] = (start, end)
        done[job.key] = end
        free[s] = end
        heads[s] += 1
        remaining -= 1

    return times
