"""The benchmark's four workloads.

Each workload is a closed loop with one caller that runs a fixed,
seed-derived sequence of operations: the op count comes from
``--seconds`` times a per-class nominal rate (sized so one run takes
about ``--seconds`` on a 2-core x86 container), never from a clock, so
two commits given the same arguments do identical work -- which matters
because the planner's caches change with the request stream.

A workload object is used in four phases:

1. ``fixture()`` once, then ``setup_round()`` ``SETUP_ROUNDS`` times
   (the run reports the median round), before timing;
2. ``ops`` -- the fixed op list -- each passed to ``run(op)``, timed;
   ``between(op)`` runs untimed bookkeeping and output checks after each
   op and returns the number of failed checks;
3. ``finish()`` -- output checks that need the whole run;
4. ``quality()`` -- the plan-quality metrics, after timing.

Only public ``repro`` calls are made here.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass

import repro
from repro import (
    LancetOptimizer,
    PlanServer,
    PlanStore,
    Scenario,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_program,
    validate,
)
from repro.api import canonical_digest

#: hot-expert skew used by every ``-hot`` preset
HOT = dict(hot_experts=2, hot_boost=0.7)

S_MOE = Scenario(model="GPT2-S-MoE", cluster="a100", num_gpus=16)
L_MOE = Scenario(model="GPT2-L-MoE", cluster="a100", num_gpus=64)
TINY = Scenario(model="tiny", cluster="a100", num_gpus=8)

A2A = {"all_to_all"}


@dataclass(frozen=True)
class OpClass:
    """One kind of op in a workload's mix, with its share of a run."""

    scenario: Scenario
    #: ops of this class per second of ``--seconds``
    rate: float


def _class_ops(classes, seconds: float, rng: random.Random) -> list:
    """Fixed per-class op counts, shuffled, each with a fresh routing seed."""
    ops = []
    for cls in classes:
        count = max(1, round(seconds * cls.rate))
        ops += [cls] * count
    rng.shuffle(ops)
    return [
        cls.scenario.with_(routing_seed=rng.randrange(1, 2**31)) for cls in ops
    ]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def flat_quality(plan) -> tuple[float, float, float]:
    """(simulated iteration ms, exposed all-to-all ms, |pred - sim| / sim %)
    of a flat plan, under its scenario's routing."""
    timeline = plan.simulate()
    sim = timeline.makespan
    err = abs(plan.predicted_iteration_ms - sim) / sim * 100.0
    return sim, timeline.exposed_time_of(A2A), err


def staged_quality(plan) -> tuple[float, float, float]:
    """Plan quality of a staged plan.

    - iteration ms: the full pipelined iteration (every microbatch under
      the plan's schedule, p2p and the gradient-sync tail) that the stage
      planner simulated, not the per-microbatch ``simulate()`` view;
    - exposed all-to-all: the per-microbatch program's on one stage
      subgroup, times the microbatch count;
    - prediction error: the cost model's prediction of the per-microbatch
      program against its simulation on the stage subgroup.  The staged
      iteration figure is itself a simulation, so the iteration level
      has no independent prediction to compare.
    """
    timeline = plan.simulate()
    sim = timeline.makespan
    model = LancetOptimizer(
        plan.simulation_cluster(),
        framework=plan.framework,
        routing_signatures=plan.signatures,
    )
    err = abs(model.predict_iteration_ms(plan.program) - sim) / sim * 100.0
    microbatches = plan.stage_map.microbatches
    return (
        plan.stage_map.predicted_pipeline_ms,
        timeline.exposed_time_of(A2A) * microbatches,
        err,
    )


def plan_quality(plan) -> tuple[float, float, float]:
    return staged_quality(plan) if plan.stage_map else flat_quality(plan)


def quality_metrics(rows) -> dict:
    """Mean plan quality over ``(iter_ms, exposed_ms, err_pct)`` rows."""
    rows = list(rows)
    return {
        "plan_iter_ms": _mean(r[0] for r in rows),
        "exposed_a2a_ms": _mean(r[1] for r in rows),
        "predict_err_pct": _mean(r[2] for r in rows),
    }


def _hit_ratio(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


def _add_stats(into: dict, stats: dict) -> None:
    for cache, counters in stats.items():
        if isinstance(counters, dict) and "hits" in counters:
            agg = into.setdefault(cache, {"hits": 0, "misses": 0})
            agg["hits"] += counters["hits"]
            agg["misses"] += counters["misses"]


def _delta_stats(after: dict, before: dict) -> dict:
    out = {}
    for cache, counters in after.items():
        if isinstance(counters, dict) and "hits" in counters:
            prev = before.get(cache, {"hits": 0, "misses": 0})
            out[cache] = {
                "hits": counters["hits"] - prev["hits"],
                "misses": counters["misses"] - prev["misses"],
            }
    return out


def core_cache_counters(stats: dict) -> dict:
    """``core.cache.<name>.hit_ratio`` for the caches the ledger tracks."""
    empty = {"hits": 0, "misses": 0}
    return {
        f"core.cache.{name}.hit_ratio": _hit_ratio(stats.get(name, empty))
        for name in ("a2a_estimates", "planner_sim", "planner_range_ctx", "profiler")
    }


class Workload:
    name = ""
    #: Chrome-trace process id
    PID = 0
    #: set-up rounds per run; ``setup_s`` counts the median one
    SETUP_ROUNDS = 3

    def __init__(self, seed: int, seconds: float, scratch) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []

    def fixture(self) -> None:
        pass

    def setup_round(self) -> None:
        pass

    def start(self) -> None:
        """Last step before timing starts."""

    def before(self, op) -> None:
        """Untimed per-op preparation that still counts toward the timed
        phase's wall time (e.g. starting a new fleet member)."""

    def run(self, op):
        raise NotImplementedError

    def between(self, op, result) -> int:
        return 0

    def finish(self) -> int:
        return 0

    def quality(self) -> dict:
        raise NotImplementedError

    def counters(self) -> dict:
        """Run-level ratios and counts reported with the per-layer trace."""
        return {}

    def close(self) -> None:
        pass


class _CompileWorkload(Workload):
    """Cold ``repro.compile(Scenario)`` calls with no store."""

    CLASSES: tuple[OpClass, ...] = ()
    #: cheap scenario compiled in every set-up round (warms every code path)
    WARMUP = TINY

    def fixture(self) -> None:
        self.ops = _class_ops(self.CLASSES, self.seconds, self.rng)
        self.quality_rows: list[tuple] = []
        self.cache_stats: dict = {}

    def setup_round(self) -> None:
        for cls in self.CLASSES:
            cls.scenario.build_graph()
            cls.scenario.build_cluster()
        repro.compile(self.WARMUP)

    def run(self, op):
        return repro.compile(op)

    def between(self, op, plan) -> int:
        validate(plan.program)
        if plan.report is not None:
            _add_stats(self.cache_stats, plan.report.cache_stats)
        self.quality_rows.append(plan_quality(plan))
        return 0

    def quality(self) -> dict:
        return quality_metrics(self.quality_rows)

    def counters(self) -> dict:
        return core_cache_counters(self.cache_stats)


class CompileCold(_CompileWorkload):
    name = "compile-cold"
    PID = 1
    # ~0.7-0.85 s per GPT2-S op, ~2.3 s per GPT2-L op on the reference
    # container.  At 25 s: 18 + 10 + 2 ops; the median (ranks 15-16) and
    # the tail rank (20 of 30) both fall among the GPT2-S ops.
    CLASSES = (
        OpClass(S_MOE.with_(**HOT), 0.72),
        OpClass(S_MOE.with_(cluster="v100", num_gpus=32, **HOT), 0.40),
        OpClass(L_MOE.with_(**HOT), 0.08),
    )
    WARMUP = TINY.with_(**HOT)


class CompileStaged(_CompileWorkload):
    name = "compile-staged"
    PID = 2
    # ~1.0-1.1 s per op, ~1.4 s for v100x32-pp2x4 (the only shape whose
    # stages partition).  At 25 s: 6 + 6 + 6 + 4 ops.
    PP2X4 = S_MOE.with_(pipeline_stages=2, microbatches=4)
    CLASSES = (
        OpClass(PP2X4, 0.24),
        OpClass(PP2X4.with_(pipeline_schedule="gpipe"), 0.24),
        OpClass(PP2X4.with_(num_gpus=32, pipeline_stages=4), 0.24),
        OpClass(PP2X4.with_(cluster="v100", num_gpus=32), 0.16),
    )
    WARMUP = TINY.with_(pipeline_stages=2, microbatches=4)


def drift_routing(index: int, rng: random.Random) -> SyntheticRoutingModel:
    """The ``index``-th routing observation of the drift stream: the hot
    boost follows a 32-op triangle wave, the hot-expert count and the
    concentration step on fixed periods, the realization seed is drawn."""
    phase = index % 32
    tri = phase / 16 if phase < 16 else (32 - phase) / 16
    return SyntheticRoutingModel(
        seed=rng.randrange(1, 2**31),
        concentration=(0.5, 1.0, 4.0, 16.0)[index % 4],
        hot_experts=1 + (index // 8) % 2,
        hot_boost=round(0.3 + 0.5 * tri, 4),
    )


class ReplanDrift(Workload):
    name = "replan-drift"
    PID = 3
    RATE = 6.8  # ops per second (~0.13-0.15 s per op)
    #: re-plans checked bit-identical against a fresh cold optimizer
    CHECKS = 3

    def fixture(self) -> None:
        self.graph = S_MOE.build_graph()
        self.cluster = S_MOE.build_cluster()
        count = max(self.CHECKS, round(self.seconds * self.RATE))
        self.ops = [(i, drift_routing(i, self.rng)) for i in range(count)]
        self.checked = set(self.rng.sample(range(count), self.CHECKS))
        self.kept: dict[int, tuple] = {}
        self.quality_rows: list[tuple] = []
        self.initial = drift_routing(-1, self.rng)

    def setup_round(self) -> None:
        self.optimizer = LancetOptimizer(self.cluster)
        self.optimizer.observe_routing(self.graph, self.initial)
        self.optimizer.optimize(self.graph)

    def start(self) -> None:
        self.stats_before = self.optimizer.cache_stats()

    def run(self, op):
        _, routing = op
        signatures = self.optimizer.observe_routing(self.graph, routing)
        program, report = self.optimizer.optimize(self.graph)
        return signatures, program, report

    def between(self, op, result) -> int:
        index, routing = op
        signatures, program, report = result
        validate(program)
        if index in self.checked:
            self.kept[index] = result
        config = SimulationConfig(
            cluster=self.cluster, padded_a2a=False, routing=routing
        )
        timeline = simulate_program(program, config=config)
        sim = timeline.makespan
        self.quality_rows.append(
            (
                sim,
                timeline.exposed_time_of(A2A),
                abs(report.predicted_iteration_ms - sim) / sim * 100.0,
            )
        )
        return 0

    def finish(self) -> int:
        self.stats_after = self.optimizer.cache_stats()
        failed = 0
        for signatures, program, report in self.kept.values():
            cold = LancetOptimizer(self.cluster)
            cold.set_routing_signatures(signatures)
            cold_program, cold_report = cold.optimize(self.graph)
            same = _program_key(cold_program) == _program_key(program) and (
                cold_report.predicted_iteration_ms == report.predicted_iteration_ms
            )
            failed += not same
        return failed

    def quality(self) -> dict:
        return quality_metrics(self.quality_rows)

    def counters(self) -> dict:
        return core_cache_counters(_delta_stats(self.stats_after, self.stats_before))


def _program_key(program) -> list:
    return [(ins.op, ins.partition, tuple(ins.inputs)) for ins in program.instructions]


class ServeFleet(Workload):
    name = "serve-fleet"
    PID = 4
    #: sessions per second; each session is one fresh fleet member
    RATE = 1.6
    REQUESTS_PER_SESSION = 3000
    ZIPF_S = 1.1
    server = None

    def fixture(self) -> None:
        rng = self.rng
        tiny = [TINY.with_(routing_seed=rng.randrange(1, 2**31), **HOT) for _ in range(12)]
        tiny += [
            TINY.with_(
                routing_seed=rng.randrange(1, 2**31),
                pipeline_stages=2,
                microbatches=4,
                **HOT,
            )
            for _ in range(4)
        ]
        paper = [
            S_MOE.with_(routing_seed=rng.randrange(1, 2**31), **HOT),
            S_MOE.with_(
                cluster="v100", routing_seed=rng.randrange(1, 2**31), **HOT
            ),
            S_MOE.with_(
                routing_seed=rng.randrange(1, 2**31),
                pipeline_stages=2,
                microbatches=4,
            ),
        ]
        self.scenarios = tiny + paper
        self.root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        store = PlanStore(self.root)
        self.plans = [repro.compile(sc, store=store) for sc in self.scenarios]
        # what a correct answer decodes to: the stored document's digest
        stored = [
            repro.compile(sc, store=PlanStore(self.root)) for sc in self.scenarios
        ]
        self.expected = [canonical_digest(p.to_dict()) for p in stored]

        order = list(range(len(self.scenarios)))
        rng.shuffle(order)
        weights = [0.0] * len(order)
        for rank, key in enumerate(order, start=1):
            weights[key] = 1.0 / rank**self.ZIPF_S
        sessions = max(1, round(self.seconds * self.RATE))
        self.ops = []
        for session in range(sessions):
            keys = rng.choices(
                range(len(self.scenarios)), weights, k=self.REQUESTS_PER_SESSION
            )
            self.ops += [(session, i, key) for i, key in enumerate(keys)]
        self.totals = {"requests": 0, "memory_hits": 0, "planner_runs": 0}
        self.store_totals = {"hits": 0, "misses": 0}

    def _open_session(self) -> None:
        self.session_store = PlanStore(self.root)
        self.server = PlanServer(self.session_store, max_workers=1)
        self.answers: dict[int, object] = {}

    def _close_session(self) -> int:
        """Shut the fleet member down and check what it served."""
        self.server.close()
        stats = self.server.stats()
        server = stats["server"]
        for name in self.totals:
            self.totals[name] += server[name]
        for name in self.store_totals:
            self.store_totals[name] += stats["store"][name]
        failed = server["planner_runs"]
        for key, plan in self.answers.items():
            validate(plan.program)
            failed += canonical_digest(plan.to_dict()) != self.expected[key]
        self.server = None
        return failed

    def setup_round(self) -> None:
        self._open_session()
        for sc in self.scenarios:
            self.server.serve(sc).plan.program
        self.server.close()
        self.server = None

    def before(self, op) -> None:
        if op[1] == 0:
            # a new fleet member: fresh store handle, fresh server
            self._open_session()

    def run(self, op):
        result = self.server.submit(self.scenarios[op[2]]).result()
        result.plan.program  # a client needs the decoded program
        return result

    def between(self, op, result) -> int:
        session, i, key = op
        failed = result.origin not in ("memory", "store")
        # a memory hit must return the very plan the store hit decoded
        failed += self.answers.setdefault(key, result.plan) is not result.plan
        if i == self.REQUESTS_PER_SESSION - 1:
            failed += self._close_session()
        return failed

    def quality(self) -> dict:
        return quality_metrics(plan_quality(p) for p in self.plans)

    def counters(self) -> dict:
        requests = self.totals["requests"]
        return {
            "serving.memory_hit_ratio": (
                self.totals["memory_hits"] / requests if requests else 0.0
            ),
            "api.store.hit_ratio": _hit_ratio(self.store_totals),
            "serving.planner_runs": float(self.totals["planner_runs"]),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


WORKLOADS = {w.name: w for w in (CompileCold, CompileStaged, ReplanDrift, ServeFleet)}
