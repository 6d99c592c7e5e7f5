"""Chaos harness: fault injection, recovery, and graceful degradation.

Not a paper figure -- reliability validation for the ISSUE 8 fault
stack (:mod:`repro.faults`, the failure-aware
:class:`~repro.train.ReoptimizingTrainer`, and the
:class:`~repro.serving.PlanServer` degradation tiers).  Three seeded,
fully deterministic drills:

- **injector** -- seeded randomized :class:`~repro.faults.FaultSchedule`
  families simulated one step at a time and as one batch: the two must
  agree *bit-for-bit* on every faulted step, across degraded specs,
  per-device slowdowns, and rank-loss routing remaps.
- **trainer** -- a persistent straggler is injected mid-training; the
  trainer's EWMA detector must flag it within a bounded number of
  steps, re-plan against the degraded cluster, and land within 10% of
  an *oracle* plan compiled directly against the degraded spec; on
  healing it must recover back to the nominal target.
- **server** -- a request stream through a :class:`~repro.faults
  .FlakyStore` and a stalling/failing :class:`~repro.faults
  .FlakyPlanner`, with blown deadlines, planner timeouts, an opened
  circuit breaker, and a half-open recovery: **every request must be
  answered** (zero unhandled exceptions) and the tier counters must
  prove the whole chain (deadline -> timeout -> breaker -> stale ->
  baseline -> heal) actually fired.

See ``docs/RELIABILITY.md`` for the fault model behind the drills.
"""

from __future__ import annotations

import time

from ...api import PlanStore, Scenario
from ...api.compiler import plan_resolved
from ...core import LancetOptimizer
from ...faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FlakyPlanner,
    FlakyStore,
    StragglerDetector,
    derive_degraded,
)
from ...models import GPT2MoEConfig, build_training_graph
from ...runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_cluster,
)
from ...serving import PlanServer
from ...train import ReoptimizingTrainer
from ..formatting import format_table
from .common import FigureResult

#: regression floor for the recovery gap: the realized
#: post-recovery-vs-oracle gap is ~0 (the re-plan targets the same
#: degraded spec the oracle compiles against), where a 20% relative
#: tolerance would gate on float jitter.  Floored here so the gate only
#: fires when the gap becomes meaningful -- well below the documented
#: 10% recovery contract.
RECOVERY_GAP_FLOOR = 0.02


def _injector_drill(
    num_schedules: int, steps_per_schedule: int, seed: int
) -> dict:
    """Seeded random schedules through per-step and batched simulation."""
    cluster = ClusterSpec.for_gpus("a100", 8)
    graph = build_training_graph(
        GPT2MoEConfig.tiny(), batch=8, seq=16, num_gpus=8
    )
    template = SimulationConfig(
        cluster=cluster, routing=SyntheticRoutingModel(seed=seed)
    )
    clean_ms = simulate_cluster(graph.program, config=template).makespan

    mismatches = 0
    faulted_steps = 0
    worst_inflation = 1.0
    kinds_seen: set[str] = set()
    for s in range(num_schedules):
        schedule = FaultSchedule.random(
            cluster.num_gpus,
            cluster.gpus_per_node,
            seed=seed + s,
            horizon=steps_per_schedule,
        )
        kinds_seen.update(f.kind for f in schedule)
        injector = FaultInjector(template, schedule)
        # probe each fault-set transition plus the step after it: the
        # interesting steps without simulating the whole horizon
        probe = sorted(
            {
                min(t + d, steps_per_schedule - 1)
                for t in schedule.transition_steps()
                for d in (0, 1)
            }
        )
        batch = injector.simulate_batch(graph.program, probe)
        for idx, step in enumerate(probe):
            single = injector.simulate(graph.program, step)
            batched = batch.timeline(idx)
            for a, b in zip(single.devices, batched.devices):
                if a.intervals != b.intervals:
                    mismatches += 1
            if injector.degraded_at(step).degraded:
                faulted_steps += 1
                worst_inflation = max(
                    worst_inflation, single.makespan / clean_ms
                )
    return {
        "schedules": num_schedules,
        "faulted_steps": faulted_steps,
        "kinds_seen": sorted(kinds_seen),
        "mismatched_timelines": mismatches,
        "worst_makespan_inflation": worst_inflation,
    }


def _trainer_drill(
    onset: int, heal: int, total_steps: int, severity: float, seed: int
) -> dict:
    """Persistent straggler: detect, re-plan, verify vs oracle, recover."""
    cluster = ClusterSpec.for_gpus("a100", 2)
    graph = build_training_graph(
        GPT2MoEConfig.tiny(), batch=4, seq=8, num_gpus=2
    )
    optimizer = LancetOptimizer(cluster)
    trainer = ReoptimizingTrainer(
        graph,
        optimizer,
        drift_threshold=10.0,  # isolate the fault path from drift re-plans
        fault_detector=StragglerDetector(cluster.num_gpus),
        seed=seed,
    )
    fault = FaultSpec(
        "straggler", target=1, severity=severity,
        start_step=onset, end_step=heal,
    )
    injector = FaultInjector(
        SimulationConfig(cluster=cluster, framework=optimizer.framework),
        FaultSchedule((fault,)),
    )
    faulted_program = None
    for step in range(total_steps):
        trainer.step()
        timeline = injector.simulate(trainer.program, step)
        trainer.observe_device_times(timeline.per_device_compute_ms())
        if faulted_program is None and any(
            e.trigger == "fault" for e in trainer.events
        ):
            # the schedule in force right after the fault re-plan --
            # the heal at ``heal`` swaps it back out, so grade this one
            faulted_program = trainer.program

    detected_step = trainer.fault_events[0].step if trainer.fault_events else -1
    recovered_step = (
        trainer.recovery_events[0].step if trainer.recovery_events else -1
    )
    estimate = trainer.fault_events[0].ratio if trainer.fault_events else 0.0

    # oracle: a plan compiled directly against the true degraded spec,
    # both executed under the fault (the replan the trainer produced at
    # detection time is fetched from its event log)
    degraded = derive_degraded(cluster, [fault])
    oracle_program, _ = LancetOptimizer(
        degraded.plan_spec, framework=optimizer.framework
    ).optimize(graph)
    faulted_cfg = injector.config_at(onset)
    replans = [e for e in trainer.events if e.trigger != "drift"]
    replan = next(e for e in replans if e.trigger == "fault")
    post_ms = simulate_cluster(faulted_program, config=faulted_cfg).makespan
    oracle_ms = simulate_cluster(oracle_program, config=faulted_cfg).makespan
    return {
        "onset_step": onset,
        "heal_step": heal,
        "detected_step": detected_step,
        "detection_latency_steps": detected_step - onset,
        "estimated_slowdown": estimate,
        "injected_slowdown": severity,
        "replans": len(replans),
        "migrated": replan.migrated,
        "migration_cost_ms": replan.migration_cost_ms,
        "recovered_step": recovered_step,
        "post_replan_ms": post_ms,
        "oracle_ms": oracle_ms,
        "recovery_gap": post_ms / oracle_ms - 1.0,
        "back_to_nominal": trainer.optimizer.cluster == cluster,
    }


def _server_drill(seed: int, store_root) -> dict:
    """Request stream under store I/O faults, a stalling planner, blown
    deadlines, and a breaker-opening outage.  Every request must come
    back with a plan."""

    def scenario(i: int, **kw) -> Scenario:
        return Scenario(
            model="tiny", cluster="a100", num_gpus=8,
            routing_seed=seed * 1000 + i, **kw,
        )

    store = PlanStore(store_root)
    flaky_store = FlakyStore(store, seed=seed, error_rate=0.15)
    planner = FlakyPlanner(plan_resolved, seed=seed)
    answered = 0
    origins: dict[str, int] = {}

    def serve(server, sc, **kw):
        nonlocal answered
        result = server.serve(sc, **kw)
        assert result.plan is not None
        answered += 1
        origins[result.origin] = origins.get(result.origin, 0) + 1
        return result

    with PlanServer(
        flaky_store,
        planner=planner,
        store_retries=3,
        retry_backoff_s=0.001,
        breaker_threshold=3,
        breaker_cooldown_s=3600.0,  # opened until the drill heals it
    ) as server:
        # 1. healthy warm-up: populate the store (planner runs + the
        #    flaky store's transient failures exercise the retry path)
        warmup = [scenario(i) for i in range(4)]
        for sc in warmup:
            serve(server, sc)
        for sc in warmup:  # warm repeats
            serve(server, sc)

        # 2. blown deadlines on far-away buckets: answered from the
        #    degraded tiers immediately, healed in the background
        for i in range(3):
            serve(
                server,
                scenario(100 + i, concentration=0.05, hot_experts=2,
                         hot_boost=0.8 + 0.05 * i),
                deadline_s=0.0,
            )
        # 3. a deadline miss with *no* same-identity plan stored at any
        #    distance: only the baseline tier can answer
        serve(
            server,
            Scenario(model="tiny", cluster="a100", num_gpus=4,
                     routing_seed=seed * 1000 + 200),
            deadline_s=0.0,
        )

        # 4. planner brown-out: every run stalls past its budget, so
        #    cold requests time out (no exceptions), trip the breaker,
        #    and subsequent ones short-circuit straight to the fallback
        planner.delay_s = 0.25
        server.planner_timeout_s = 0.01
        for i in range(5):
            serve(server, scenario(300 + i, gate="bpr"))
        assert server.breaker.state == "open", server.breaker.snapshot()

        # 5. steady chaos while degraded: warm hits and fallback answers
        #    interleaved; still zero exceptions
        for i in range(8):
            serve(server, warmup[i % len(warmup)])
            serve(server, scenario(400 + i, gate="bpr"))

        # 6. heal: the planner recovers, the cooldown elapses, the
        #    half-open trial closes the breaker, cold planning resumes
        planner.delay_s = 0.0
        server.planner_timeout_s = None
        server.breaker.cooldown_s = 0.0
        # a structurally fresh workload (different seq => different
        # fingerprint): no stored plan can answer it, so a "planned"
        # origin proves cold planning is really back
        result = serve(
            server,
            Scenario(model="tiny", cluster="a100", num_gpus=8, seq=16,
                     routing_seed=seed * 1000 + 500),
        )
        assert result.origin == "planned", result.origin
        assert server.breaker.state == "closed"

        server.drain()
        # give abandoned brown-out runs time to land as late publishes
        deadline = time.monotonic() + 10.0
        while server.counters["late_plans"] < 1:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        counters = dict(server.counters)
        breaker = server.breaker.snapshot()

    return {
        "requests": counters["requests"],
        "answered": answered,
        "unanswered": counters["requests"] - answered - counters["coalesced"],
        "origins": origins,
        "injected_store_errors": flaky_store.injected_errors,
        "planner_calls": planner.calls,
        "counters": counters,
        "breaker": breaker,
    }


def run(
    num_schedules: int = 6,
    steps_per_schedule: int = 24,
    trainer_steps: int = 22,
    seed: int = 0,
    store_root=None,
) -> FigureResult:
    """Run all three chaos drills; returns per-drill summary rows."""
    import tempfile

    injector = _injector_drill(num_schedules, steps_per_schedule, seed)
    trainer = _trainer_drill(
        onset=3, heal=12, total_steps=trainer_steps, severity=2.0, seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        server = _server_drill(
            seed=seed, store_root=store_root if store_root else tmp
        )

    rows = [
        {
            "drill": "injector",
            "scale": f"{injector['schedules']} schedules",
            "outcome": f"{injector['mismatched_timelines']} mismatches",
            "detail": f"{injector['faulted_steps']} faulted steps, "
            f"worst inflation {injector['worst_makespan_inflation']:.2f}x",
        },
        {
            "drill": "trainer",
            "scale": f"{trainer_steps} steps",
            "outcome": f"detected +{trainer['detection_latency_steps']} "
            f"steps, gap {trainer['recovery_gap'] * 100:.2f}%",
            "detail": f"estimate {trainer['estimated_slowdown']:.2f}x of "
            f"{trainer['injected_slowdown']:.2f}x, "
            f"{trainer['replans']} re-plans",
        },
        {
            "drill": "server",
            "scale": f"{server['requests']} requests",
            "outcome": f"{server['unanswered']} unanswered",
            "detail": f"origins {server['origins']}, "
            f"{server['injected_store_errors']} store faults",
        },
    ]
    table = format_table(
        ["Drill", "Scale", "Outcome", "Detail"],
        [[r["drill"], r["scale"], r["outcome"], r["detail"]] for r in rows],
        title="Chaos drills: injection fidelity, failure-aware "
        "re-planning, graceful degradation",
    )
    notes = {
        "injector": injector,
        "trainer": trainer,
        "server": server,
        # lower-is-better gates for check_regression.py; all simulated /
        # counted quantities, deterministic across machines.  The
        # recovery gap is floored (see RECOVERY_GAP_FLOOR); unanswered
        # requests and timeline mismatches gate at exactly zero.
        "regression_metrics": {
            "mismatched_timelines": float(injector["mismatched_timelines"]),
            "detection_latency_steps": float(
                trainer["detection_latency_steps"]
            ),
            "recovery_gap_floored": max(
                trainer["recovery_gap"], RECOVERY_GAP_FLOOR
            ),
            "unanswered_requests": float(server["unanswered"]),
        },
    }
    return FigureResult(
        "fault_recovery",
        "chaos drills over the simulator, trainer, and plan server",
        rows,
        table,
        notes,
    )
