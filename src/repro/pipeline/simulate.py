"""Staged simulation: compose per-stage segment makespans with p2p
dependencies into one pipeline-level figure.

Per-stage job durations are segment makespans on the stage's subgroup
cluster, priced by :class:`SegmentPricer` with the representative-device
recurrence (:func:`~repro.runtime.simulate_program`).  Stage costing
never sets stragglers, and without stragglers that makespan equals the
device-resolved :func:`~repro.runtime.simulate_cluster` makespan bit for
bit under any routing (see :func:`~repro.runtime.simulate_cluster`), so
hot-expert all-to-all skew prices exactly as in flat runs.  The pipeline
layer then schedules microbatch jobs in each stage's fixed order with
activation p2p edges between stages, and renders the result as a
:class:`~repro.runtime.ClusterTimeline` over the *base* cluster's devices.

Steady-state approximation: all microbatches of a stage share one routing
realization (the per-layer-key draw cache), so every F job of a stage has
the same duration -- the same assumption the flat planner makes for one
iteration.

All bookkeeping is float64 ``max`` and single adds, so the scan scheduler
here is bit-identical to the naive event-replay reference
(``tests/oracles/pipeline_reference.py``).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field, replace

from ..core.profiler import CachingOpProfiler
from ..ir import Stream
from ..runtime.cluster import ClusterSpec
from ..runtime.simulate import (
    GroundTruthCost,
    SimulationConfig,
    simulate_program,
)
from ..runtime.timeline import ClusterTimeline, Interval, Timeline
from .p2p import P2PCostModel
from .partition import PHASES, SplitProgram
from .schedule import Job, schedule_order
from .stage import StagedCluster

# inert: perfbench/spans.py still resolves this name; segments are priced
# with simulate_program (see SegmentPricer)
simulate_cluster = None


@dataclass(frozen=True)
class StageCosts:
    """Everything the pipeline scheduler needs: per-stage job durations
    and per-boundary p2p latencies, all in modeled milliseconds."""

    forward_ms: tuple[float, ...]
    backward_ms: tuple[float, ...]
    tail_ms: tuple[float, ...]
    fwd_p2p_ms: tuple[float, ...]  # len S-1
    bwd_p2p_ms: tuple[float, ...]  # len S-1

    @property
    def num_stages(self) -> int:
        return len(self.forward_ms)


class SegmentPricer:
    """Makespans of stage segments on their subgroup clusters.

    Every segment is priced under one :class:`SimulationConfig` with its
    stage's subgroup cluster swapped in (``dataclasses.replace``), by
    one :class:`~repro.runtime.simulate.GroundTruthCost` per subgroup
    cluster (:meth:`cost`).  All of them price compute through one
    profiler, whose op cache is shared across stages, phases and
    candidate splits (stage clusters keep the base cluster's GPU), and
    the swapped configs share the config's one routing model, which
    keeps each MoE layer's forward and backward all-to-all on the same
    realized draw (the per-layer-key cache), exactly like a flat
    simulation.  The config's ``cluster`` itself is never priced on;
    stage costing sets no stragglers.

    Prices are memoized on ``(stage.layers, phase, stage.cluster)``: an
    unoptimized segment is a pure function of its stage's layer run and
    phase (:func:`~repro.pipeline.split_stages` buckets instructions by
    exactly that), so every candidate split of one program that shares a
    stage shares its price.  Segments rewritten after splitting (the
    per-stage optimizer's output) must be named in ``fresh``.
    """

    def __init__(self, config: SimulationConfig) -> None:
        if config.straggler_slowdown is not None:
            raise ValueError("stage costing prices without stragglers")
        self.config = config
        self.profiler = CachingOpProfiler(
            gpu=config.cluster.gpu, framework=config.framework
        )
        self._costs: dict[ClusterSpec, GroundTruthCost] = {}
        self._prices: dict[tuple, float] = {}

    def cost(self, cluster: ClusterSpec) -> GroundTruthCost:
        """The ground truth on one stage subgroup cluster."""
        cost = self._costs.get(cluster)
        if cost is None:
            cost = self._costs[cluster] = GroundTruthCost(
                replace(self.config, cluster=cluster), self.profiler
            )
        return cost

    def _makespan(self, cluster: ClusterSpec, program) -> float:
        if not program.instructions:
            return 0.0
        return simulate_program(program, cost=self.cost(cluster)).makespan

    def stage_costs(
        self, split: SplitProgram, fresh: Collection[tuple[int, str]] = ()
    ) -> StageCosts:
        """:func:`stage_costs` of ``split``, pricing the ``(stage,
        phase)`` segments in ``fresh`` unmemoized (they were rewritten
        after splitting)."""
        staged = split.staged
        times = {}
        for stage in staged.stages:
            for phase in PHASES:
                program = split.segment(stage.index, phase).program
                if (stage.index, phase) in fresh:
                    ms = self._makespan(stage.cluster, program)
                else:
                    key = (stage.layers, phase, stage.cluster)
                    ms = self._prices.get(key)
                    if ms is None:
                        ms = self._prices[key] = self._makespan(
                            stage.cluster, program
                        )
                times[stage.index, phase] = ms
        p2p = P2PCostModel(staged.base)
        indices = range(staged.num_stages)
        return StageCosts(
            forward_ms=tuple(times[s, "forward"] for s in indices),
            backward_ms=tuple(times[s, "backward"] for s in indices),
            tail_ms=tuple(times[s, "tail"] for s in indices),
            fwd_p2p_ms=p2p.boundary_times_ms(
                staged, list(split.fwd_boundary_bytes)
            ),
            bwd_p2p_ms=p2p.boundary_times_ms(
                staged, list(split.bwd_boundary_bytes)
            ),
        )


def stage_costs(
    split: SplitProgram, config: SimulationConfig | None = None
) -> StageCosts:
    """Measure per-stage segment makespans on their subgroup clusters.

    Each segment is priced as it stands in ``split`` (optimized or not),
    once, under ``config`` (default: ``SimulationConfig`` of the base
    cluster); :class:`SegmentPricer` documents the pricing.
    """
    if config is None:
        config = SimulationConfig(split.staged.base)
    return SegmentPricer(config).stage_costs(split)


def _dep_time(
    job: Job, done: dict[tuple[str, int, int], float], costs: StageCosts
) -> float | None:
    """Earliest data-ready time of a job, or ``None`` if a dependency has
    not completed yet.  The exact max/add expressions here define the
    bit-level contract shared with the event-replay reference."""
    s, m = job.stage, job.microbatch
    last = costs.num_stages - 1
    if job.kind == "F":
        if s == 0:
            return 0.0
        t = done.get(("F", s - 1, m))
        if t is None:
            return None
        return t + costs.fwd_p2p_ms[s - 1]
    tf = done.get(("F", s, m))
    if tf is None:
        return None
    if s == last:
        return tf
    tb = done.get(("B", s + 1, m))
    if tb is None:
        return None
    return max(tf, tb + costs.bwd_p2p_ms[s])


def schedule_jobs(
    costs: StageCosts, orders: list[list[Job]]
) -> dict[tuple[str, int, int], tuple[float, float]]:
    """Fixed-point scan scheduler: per-stage in-order job execution with
    cross-stage p2p dependencies.  Returns ``job.key -> (start, end)``.

    Each sweep schedules every stage's ready head jobs; a sweep with no
    progress means the schedule deadlocks (an invalid job order)."""
    num = costs.num_stages
    if len(orders) != num:
        raise ValueError(f"{len(orders)} job orders for {num} stages")
    done: dict[tuple[str, int, int], float] = {}
    times: dict[tuple[str, int, int], tuple[float, float]] = {}
    free = [0.0] * num
    heads = [0] * num
    remaining = sum(len(o) for o in orders)
    while remaining:
        progressed = False
        for s in range(num):
            while heads[s] < len(orders[s]):
                job = orders[s][heads[s]]
                dep = _dep_time(job, done, costs)
                if dep is None:
                    break
                start = max(free[s], dep)
                dur = (
                    costs.forward_ms[s]
                    if job.kind == "F"
                    else costs.backward_ms[s]
                )
                end = start + dur
                times[job.key] = (start, end)
                done[job.key] = end
                free[s] = end
                heads[s] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            stuck = [
                orders[s][heads[s]]
                for s in range(num)
                if heads[s] < len(orders[s])
            ]
            raise RuntimeError(
                f"pipeline schedule deadlocked; blocked heads: {stuck}"
            )
    return times


@dataclass
class StagedSimulation:
    """Result of one staged pipeline simulation."""

    staged: StagedCluster
    costs: StageCosts
    schedule: str
    microbatches: int
    #: ``(kind, stage, microbatch) -> (start_ms, end_ms)``
    job_times: dict[tuple[str, int, int], tuple[float, float]]
    #: per-stage (tail_start, tail_end) after the last microbatch job
    tail_times: tuple[tuple[float, float], ...]
    timeline: ClusterTimeline = field(repr=False)

    @property
    def makespan(self) -> float:
        return self.timeline.makespan


def simulate_staged(
    split: SplitProgram,
    microbatches: int,
    costs: StageCosts,
    schedule: str = "1f1b",
) -> StagedSimulation:
    """Simulate a full pipelined iteration of a split program.

    ``M`` microbatch F/B jobs per stage under the named schedule, then
    each stage's once-per-iteration tail (gradient sync + optimizer),
    with job durations from ``costs`` (:func:`stage_costs`); one
    ``costs`` serves every schedule (the ablation switch compares on
    identical costs).
    """
    staged = split.staged
    orders = schedule_order(schedule, staged.num_stages, microbatches)
    job_times = schedule_jobs(costs, orders)

    tails = []
    for s in range(staged.num_stages):
        last_end = job_times[orders[s][-1].key][1] if orders[s] else 0.0
        tails.append((last_end, last_end + costs.tail_ms[s]))

    timeline = _render_timeline(staged, costs, orders, job_times, tails)
    return StagedSimulation(
        staged=staged,
        costs=costs,
        schedule=schedule,
        microbatches=microbatches,
        job_times=job_times,
        tail_times=tuple(tails),
        timeline=timeline,
    )


def _render_timeline(
    staged: StagedCluster,
    costs: StageCosts,
    orders: list[list[Job]],
    job_times: dict,
    tails: list[tuple[float, float]],
) -> ClusterTimeline:
    """Render job times as a ClusterTimeline over the base cluster.

    Every device of a stage's subgroup carries the stage's job intervals
    on its compute stream; outbound activation transfers appear on the
    comm stream (pure latency edges -- they never gate the sender, so the
    makespan is exactly the job/tail fixed point)."""
    device_timelines = []
    uid = 0
    for stage in staged.stages:
        intervals: list[Interval] = []
        s = stage.index
        for job in orders[s]:
            start, end = job_times[job.key]
            intervals.append(
                Interval(
                    uid=uid,
                    op=f"pipeline_{'fwd' if job.kind == 'F' else 'bwd'}",
                    kind="forward" if job.kind == "F" else "dx",
                    stream=Stream.COMPUTE,
                    start=start,
                    end=end,
                )
            )
            uid += 1
            # outbound p2p edge for this job, if any
            if job.kind == "F" and s < staged.num_stages - 1:
                p2p = costs.fwd_p2p_ms[s]
            elif job.kind == "B" and s > 0:
                p2p = costs.bwd_p2p_ms[s - 1]
            else:
                p2p = None
            if p2p is not None and p2p > 0.0:
                intervals.append(
                    Interval(
                        uid=uid,
                        op="p2p",
                        kind="comm",
                        stream=Stream.COMM,
                        start=end,
                        end=end + p2p,
                    )
                )
                uid += 1
        t_start, t_end = tails[s]
        if t_end > t_start:
            intervals.append(
                Interval(
                    uid=uid,
                    op="pipeline_tail",
                    kind="optimizer",
                    stream=Stream.COMPUTE,
                    start=t_start,
                    end=t_end,
                )
            )
            uid += 1
        for _ in stage.devices:
            device_timelines.append(Timeline(list(intervals)))
    return ClusterTimeline(device_timelines)
