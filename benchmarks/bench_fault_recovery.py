"""Chaos-harness gate: the reliability contracts of the fault stack.

Runs the three seeded chaos drills (``repro.bench.figures
.fault_recovery``) and asserts the documented reliability contracts
directly, on top of the baseline-diffed regression metrics:

1. **Injection fidelity** -- randomized fault schedules (stragglers,
   NIC degradation, rank loss) produce *bit-identical* timelines whether
   each step is simulated on its own or the steps run as one batch
   (both go through the one cluster-simulation engine): zero mismatched
   timelines.
2. **Failure-aware re-planning** -- the trainer detects an injected
   persistent straggler within a bounded number of steps, estimates its
   magnitude accurately, and its post-re-plan schedule lands within 10%
   of an oracle plan compiled directly against the degraded cluster;
   after the fault heals it recovers back to the nominal target.
3. **Graceful degradation** -- under store I/O faults, a stalling
   planner, blown deadlines, and an opened circuit breaker, *every*
   request is answered (zero unhandled exceptions) and the tier
   counters prove the whole fallback chain fired, including the
   half-open breaker recovery and the late landing of abandoned runs.
"""

import pytest
from conftest import run_figure

from repro.bench.figures import fault_recovery


def test_fault_recovery(benchmark):
    result = run_figure(benchmark, fault_recovery.run)
    injector = result.notes["injector"]
    trainer = result.notes["trainer"]
    server = result.notes["server"]

    # contract 1: bit-identical faulted timelines, real fault coverage
    assert injector["mismatched_timelines"] == 0
    assert injector["faulted_steps"] > 0
    assert set(injector["kinds_seen"]) == {
        "straggler", "nic_degrade", "rank_loss"
    }
    assert injector["worst_makespan_inflation"] > 1.0

    # contract 2: detect -> estimate -> re-plan within 10% of the
    # oracle -> recover
    assert 0 <= trainer["detection_latency_steps"] <= 5
    assert trainer["estimated_slowdown"] == pytest.approx(
        trainer["injected_slowdown"], rel=0.05
    )
    assert trainer["replans"] >= 2  # one on fault, one on recovery
    assert trainer["recovery_gap"] <= 0.10, (
        f"post-re-plan schedule {trainer['post_replan_ms']:.3f} ms is "
        f"{trainer['recovery_gap'] * 100:.1f}% behind the oracle's "
        f"{trainer['oracle_ms']:.3f} ms"
    )
    assert trainer["recovered_step"] > trainer["heal_step"]
    assert trainer["back_to_nominal"]

    # contract 3: every request answered, the whole chain fired
    counters = server["counters"]
    assert server["unanswered"] == 0
    assert counters["errors"] == 0
    assert server["injected_store_errors"] > 0
    assert counters["store_retries"] > 0
    assert counters["deadline_hits"] > 0
    assert counters["planner_timeouts"] > 0
    assert counters["breaker_short_circuits"] > 0
    assert counters["stale_hits"] > 0
    assert counters["baseline_plans"] > 0
    assert counters["late_plans"] > 0  # abandoned runs still land
    assert server["breaker"]["trips"] >= 1
    assert server["breaker"]["state"] == "closed"  # healed by the end
    assert server["origins"].get("planned", 0) > 0  # cold planning resumed
