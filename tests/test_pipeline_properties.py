"""Property-based tests (hypothesis) for the staged pipeline scheduler.

Quantified over the staged topology space
(:func:`generators.st_staged_cluster`), microbatch counts
(:func:`generators.st_microbatch_count`), both schedules, and seeded
synthetic stage costs priced through the real
:class:`~repro.pipeline.P2PCostModel`:

- the scan scheduler is **bit-identical** to the naive event-replay
  reference on every config;
- no stage's subgroup ever runs two microbatch jobs concurrently
  (jobs execute back-to-back in program order, no overlap);
- every microbatch's forward completes before its backward starts on
  the same stage, and cross-stage p2p dependencies are respected;
- 1F1B's peak in-flight microbatch count never exceeds GPipe's on the
  identical config (GPipe's is exactly ``M``), matching the closed
  forms in :mod:`repro.pipeline.schedule`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import st_microbatch_count, st_staged_cluster
from oracles.pipeline_reference import replay_reference

from repro.pipeline import (
    SCHEDULES,
    P2PCostModel,
    StageCosts,
    peak_in_flight,
    schedule_order,
)
from repro.pipeline.simulate import schedule_jobs

def synthetic_costs(staged, seed: int) -> StageCosts:
    """Seeded per-stage durations + real p2p pricing for one topology."""
    rng = np.random.default_rng(seed)
    s = staged.num_stages
    p2p = P2PCostModel(staged.base)
    fwd_bytes = [float(b) for b in rng.uniform(1e5, 5e7, size=max(s - 1, 0))]
    bwd_bytes = [float(b) for b in rng.uniform(1e5, 5e7, size=max(s - 1, 0))]
    return StageCosts(
        forward_ms=tuple(float(x) for x in rng.uniform(0.05, 4.0, size=s)),
        backward_ms=tuple(float(x) for x in rng.uniform(0.05, 8.0, size=s)),
        tail_ms=tuple(float(x) for x in rng.uniform(0.0, 2.0, size=s)),
        fwd_p2p_ms=p2p.boundary_times_ms(staged, fwd_bytes),
        bwd_p2p_ms=p2p.boundary_times_ms(staged, bwd_bytes),
    )


CONFIG = st.tuples(
    st_staged_cluster(),
    st_microbatch_count(),
    st.integers(0, 2**16),
    st.sampled_from(SCHEDULES),
)


@given(CONFIG)
@settings(max_examples=80, deadline=None)
def test_scan_bit_identical_to_replay(config):
    staged, microbatches, seed, schedule = config
    costs = synthetic_costs(staged, seed)
    orders = schedule_order(schedule, staged.num_stages, microbatches)
    assert schedule_jobs(costs, orders) == replay_reference(costs, orders)


@given(CONFIG)
@settings(max_examples=80, deadline=None)
def test_no_stage_runs_two_jobs_concurrently(config):
    staged, microbatches, seed, schedule = config
    costs = synthetic_costs(staged, seed)
    orders = schedule_order(schedule, staged.num_stages, microbatches)
    times = schedule_jobs(costs, orders)
    for order in orders:
        prev_end = 0.0
        for job in order:
            start, end = times[job.key]
            assert start >= prev_end, (
                f"{job} starts at {start} before the previous job on its "
                f"stage ended at {prev_end}"
            )
            assert end >= start
            prev_end = end


@given(CONFIG)
@settings(max_examples=80, deadline=None)
def test_forward_precedes_backward_and_p2p_deps_hold(config):
    staged, microbatches, seed, schedule = config
    costs = synthetic_costs(staged, seed)
    num = staged.num_stages
    orders = schedule_order(schedule, num, microbatches)
    times = schedule_jobs(costs, orders)
    for m in range(microbatches):
        for s in range(num):
            f_end = times[("F", s, m)][1]
            b_start = times[("B", s, m)][0]
            assert f_end <= b_start, (
                f"microbatch {m} backward on stage {s} started before "
                "its forward completed"
            )
            if s > 0:
                assert (
                    times[("F", s, m)][0]
                    >= times[("F", s - 1, m)][1] + costs.fwd_p2p_ms[s - 1]
                )
            if s < num - 1:
                assert (
                    times[("B", s, m)][0]
                    >= times[("B", s + 1, m)][1] + costs.bwd_p2p_ms[s]
                )


@given(st_staged_cluster(), st_microbatch_count())
@settings(max_examples=80, deadline=None)
def test_1f1b_peak_in_flight_never_exceeds_gpipe(staged, microbatches):
    num = staged.num_stages
    gpipe = schedule_order("gpipe", num, microbatches)
    ofob = schedule_order("1f1b", num, microbatches)
    for s in range(num):
        g, o = peak_in_flight(gpipe[s]), peak_in_flight(ofob[s])
        assert o <= g
        assert g == microbatches
        assert o == min(microbatches, num - s)


@given(CONFIG)
@settings(max_examples=40, deadline=None)
def test_both_schedules_run_the_same_job_set(config):
    staged, microbatches, seed, _ = config
    costs = synthetic_costs(staged, seed)
    keysets = []
    for schedule in SCHEDULES:
        orders = schedule_order(schedule, staged.num_stages, microbatches)
        keysets.append(set(schedule_jobs(costs, orders)))
    assert keysets[0] == keysets[1]
