"""Pipeline scheduling and cost estimation (paper Sec. 5.3, Fig. 9).

Given a partitioned range, instructions are divided into *stages*
(maximal runs of consecutive computation or communication); within each
stage the chunks execute in partition order (chunk 1 of the stage first,
then chunk 2, ...).  The resulting interleaved order is simulated on the
two-stream model to obtain ``P(i, n, k)`` -- each pseudo-instruction
starts at the later of (i) the end of its dependencies and (ii) the end
of the previous instruction on its stream, exactly the paper's rule.

Chunk costs come from the caching profiler queried at *chunked shapes*;
irregular (A_irr) operands use the static-shape approximation: the
uniform shape at capacity ``C / k`` (paper Sec. 3).

The DP evaluates ``P(i, n, k)`` for every candidate range and several
``k``, and the re-optimization loop re-runs the DP on routing drift, so
this module is built for repeated evaluation: :class:`RangeContext`
precomputes everything about a range that does not depend on ``k`` or on
the routing signature (stage decomposition, intra-range dependencies,
boundary-overhead operands, chunk-duration cache keys) and
:class:`PlanCaches` memoizes the signature-independent numbers (compute
chunk durations, boundary overheads) plus finished pipeline simulations
keyed by the realized all-to-all chunk durations.

:meth:`~RangeContext.a2a_durations` (priced once per plan),
:meth:`~RangeContext.overhead_ms`, the exact
:meth:`~RangeContext.lower_bound_ms` the DP prunes with, and only then
:meth:`~RangeContext.pipeline_ms` make up ``P(i, n, k)``.  Every piece
is memoized on keys that pin its inputs, so a cache hit returns the
value a fresh evaluation would produce, bit for bit; the uncached
one-shot form the reference DP prices with lives with the test oracles
(``tests/oracles/dp_reference.py``) and runs the same chunk durations
through the same scalar recurrence, :meth:`RangeContext.simulate_ms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...ir import AXIS_IRREGULAR as IRR
from ...ir import NOT_PARTITIONED as NP
from ...ir import Instruction, Program, TensorType
from ...runtime.simulate import scale_capacity
from ..cache import LRUCache
from ..cost_model import CostEstimator
from .axis_inference import InferenceResult

# inert: perfbench/spans.py still resolves these retired lane-engine names
pack_lane = simulate_lanes = None


def chunk_type(t: TensorType, axis: int, parts: int, index: int = 0) -> TensorType:
    """Static type of one chunk of a value partitioned at ``axis``.

    Real axes shrink the dimension (array_split convention); the
    irregular axis keeps the buffer shape but, for *cost* purposes, scales
    the capacity (or token) dimension -- the static-shape approximation
    the runtime prices irregular chunks with.
    """
    if axis == NP:
        return t
    if axis == IRR:
        return scale_capacity(t, parts)
    return t.split(axis, parts, index)


def _compute_chunk_ms(
    instr: Instruction,
    program: Program,
    axes: InferenceResult,
    parts: int,
    costs: CostEstimator,
) -> float:
    """Chunk duration of a non-collective instruction (profiler query at
    the chunked shapes).  Pure in (instr, operand axes, parts): the
    planner memoizes it under exactly that key."""
    in_types = [
        chunk_type(program.type_of(v), axes.axis_of(v), parts)
        for v in instr.inputs
    ]
    attrs = instr.attrs
    if "capacity" in attrs and any(
        axes.axis_of(v) == IRR for v in list(instr.inputs) + list(instr.outputs)
    ):
        attrs = {
            **attrs,
            "capacity": max(1, math.ceil(attrs["capacity"] / parts)),
        }
    return costs.profiler.op_time_ms(instr.op, in_types, attrs)


def max_feasible_parts(
    instrs: list[Instruction],
    program: Program,
    axes: InferenceResult,
) -> int:
    """Largest k the partitioned dimensions allow (paper Sec. 5.1: "the
    number of partitions k is limited by the size of the partitioned
    dimension")."""
    limit = 1 << 30
    seen: set[int] = set()
    for ins in instrs:
        for v in list(ins.inputs) + list(ins.outputs):
            if v in seen:
                continue
            seen.add(v)
            axis = axes.axis_of(v)
            if axis >= 0:
                limit = min(limit, program.type_of(v).shape[axis])
    return max(limit, 1)


@dataclass
class Stage:
    """A maximal run of same-stream instructions within the range."""

    is_comm: bool
    indices: list[int] = field(default_factory=list)


def build_stages(instrs: list[Instruction]) -> list[Stage]:
    """Split the range into alternating computation/communication stages."""
    stages: list[Stage] = []
    for i, ins in enumerate(instrs):
        if not stages or stages[-1].is_comm != ins.is_comm:
            stages.append(Stage(is_comm=ins.is_comm))
        stages[-1].indices.append(i)
    return stages


#: bound of the pipeline-simulation cache.  Its keys embed realized a2a
#: chunk durations, so a drifting run mints new keys forever; the cap
#: holds several full plans' worth of simulations (a 12-layer GPT2-S-MoE
#: plan produces ~1.1k) and evictions only cost a re-simulation.
DEFAULT_SIM_CACHE_SIZE = 8192

#: relative margin :meth:`RangeContext.lower_bound_ms` scales its bound
#: down by, so float summation order can never lift it above the
#: recurrence's makespan (see the method)
BOUND_MARGIN = 1e-9


@dataclass
class PlanCaches:
    """Memoization shared across ``P(i, n, k)`` evaluations.

    ``chunk`` and ``overhead`` hold signature-independent numbers and
    stay valid across re-plans of the same program; their key spaces are
    bounded by the program structure, so they are unbounded LRU maps.
    ``sim`` keys finished two-stream simulations by the realized
    all-to-all chunk durations -- it invalidates itself when the routing
    signature moves the all-to-all prices, and because every distinct
    signature mints fresh keys it is LRU-bounded.  All counters feed the
    planner report.
    """

    chunk: LRUCache = field(
        default_factory=lambda: LRUCache(name="planner-chunk-ms")
    )
    overhead: LRUCache = field(
        default_factory=lambda: LRUCache(name="planner-overhead-ms")
    )
    sim: LRUCache = field(
        default_factory=lambda: LRUCache(
            DEFAULT_SIM_CACHE_SIZE, name="planner-pipe-sim"
        )
    )

    def stats(self) -> dict:
        return {
            "chunk": self.chunk.stats(),
            "overhead": self.overhead.stats(),
            "sim": self.sim.stats(),
        }


class RangeContext:
    """Everything about one candidate range that is independent of ``k``
    and of the routing signature.

    Building a context costs one pass over the range; evaluating
    ``cost(k)`` afterwards touches only the pieces that actually change
    (chunk durations via the caches, the two-stream recurrence).  The DP
    builds one context per candidate range and reuses it across every
    ``k`` -- and, via :class:`~repro.core.partition.dp.PlannerState`,
    across re-plans.
    """

    __slots__ = (
        "program",
        "instrs",
        "axes",
        "start",
        "end",
        "stages",
        "deps",
        "a2a_idx",
        "a2a_irregular",
        "a2a_on_comm",
        "chunk_keys",
        "entry_nbytes",
        "exit_pairs",
        "k_limit",
        "_dur_templates",
    )

    def __init__(
        self,
        program: Program,
        instrs: list[Instruction],
        axes: InferenceResult,
        start: int = 0,
        end: int | None = None,
    ) -> None:
        self.program = program
        self.instrs = instrs
        self.axes = axes
        self.start = start
        self.end = end if end is not None else start + len(instrs)
        self.stages = build_stages(instrs)
        self.k_limit = max_feasible_parts(instrs, program, axes)

        # producer index within the range, per value id
        producer: dict[int, int] = {}
        for i, ins in enumerate(instrs):
            for o in ins.outputs:
                producer[o] = i
        # Per-instruction intra-range dependencies, cross-stage only.
        # Within a stage every execution runs on one stream in sequence,
        # so the stream chain already dominates any same-stage producer
        # -- and the capacity-passing gate between chunks p-1 and p of a
        # routing op, which is always same-stage.  Dropping the dominated
        # edges changes no max() result, so predicted times are
        # unaffected bit for bit; it just shrinks the recurrence.
        stage_of = [0] * len(instrs)
        for si, stage in enumerate(self.stages):
            for i in stage.indices:
                stage_of[i] = si
        self.deps = [
            [
                producer[v]
                for v in ins.inputs
                if v in producer and stage_of[producer[v]] != stage_of[i]
            ]
            for i, ins in enumerate(instrs)
        ]
        self.a2a_idx = [
            i for i, ins in enumerate(instrs) if ins.op == "all_to_all"
        ]
        self.a2a_irregular = [
            axes.axis_of(instrs[i].outputs[0]) == IRR for i in self.a2a_idx
        ]
        self.a2a_on_comm = [instrs[i].is_comm for i in self.a2a_idx]
        # memoization key per non-collective instruction: the chunk
        # duration is a pure function of (instr, operand axes, parts)
        self.chunk_keys: list[tuple | None] = []
        for i, ins in enumerate(instrs):
            if ins.op == "all_to_all":
                self.chunk_keys.append(None)
            else:
                ax = tuple(
                    axes.axis_of(v)
                    for v in list(ins.inputs) + list(ins.outputs)
                )
                self.chunk_keys.append((ins.uid, ax))

        # boundary-overhead operands (paper Challenge 2 / Fig. 13):
        # values split on entry and reconstructed on exit.  Sorted so the
        # float accumulation order is canonical everywhere.
        produced: set[int] = set(producer)
        consumed: set[int] = set()
        for ins in instrs:
            consumed.update(ins.inputs)
        self.entry_nbytes = [
            program.type_of(vid).nbytes
            for vid in sorted(consumed - produced)
            if axes.axis_of(vid) != NP
        ]
        self.exit_pairs = [
            (vid, program.type_of(vid).nbytes)
            for vid in sorted(produced)
            if axes.axis_of(vid) != NP
        ]
        # parts -> (duration list with all-to-all slots left as None,
        # compute sum, comm sum); see _template
        self._dur_templates: dict[int, tuple[list, float, float]] = {}

    # -- the cost components ----------------------------------------------

    def _template(
        self, parts: int, costs: CostEstimator, caches: PlanCaches
    ) -> tuple[list, float, float]:
        """``(durations, compute sum, comm sum)`` at ``parts``-way
        splitting, memoized per ``parts``.  The duration list leaves the
        all-to-all slots as None (the only signature-dependent entries);
        the two sums add up the other slots per stream, for
        :meth:`lower_bound_ms`."""
        entry = self._dur_templates.get(parts)
        if entry is None:
            chunk = caches.chunk
            template = []
            comp_sum = comm_sum = 0.0
            for ins, key in zip(self.instrs, self.chunk_keys):
                if key is None:  # all_to_all: re-priced per evaluation
                    template.append(None)
                    continue
                full_key = (key[0], parts, key[1])
                t = chunk.get(full_key)
                if t is None:
                    t = _compute_chunk_ms(
                        ins, self.program, self.axes, parts, costs
                    )
                    chunk.put(full_key, t)
                template.append(t)
                if ins.is_comm:
                    comm_sum += t
                else:
                    comp_sum += t
            entry = (template, comp_sum, comm_sum)
            self._dur_templates[parts] = entry
        return entry

    def a2a_durations(
        self, parts: int, costs: CostEstimator, prices: dict
    ) -> tuple[float, ...]:
        """Chunk durations of the range's all-to-alls, in range order.

        They price through the estimator (its own cache keys on the
        routing signature); ``prices`` memoizes them by ``(uid, parts,
        irregular)`` while the estimator's signatures stay put -- the DP
        keeps one such dict per plan.
        """
        out = []
        for i, irregular in zip(self.a2a_idx, self.a2a_irregular):
            ins = self.instrs[i]
            key = (ins.uid, parts, irregular)
            t = prices.get(key)
            if t is None:
                t = costs.a2a_chunk_ms(ins, self.program, parts, irregular)
                prices[key] = t
            out.append(t)
        return tuple(out)

    def _filled(
        self,
        parts: int,
        a2a: tuple[float, ...],
        costs: CostEstimator,
        caches: PlanCaches,
    ) -> list[float]:
        """The memoized template with the all-to-all slots filled in."""
        durs = self._template(parts, costs, caches)[0].copy()
        for i, t in zip(self.a2a_idx, a2a):
            durs[i] = t
        return durs

    def lower_bound_ms(
        self,
        parts: int,
        a2a: tuple[float, ...],
        costs: CostEstimator,
        caches: PlanCaches,
    ) -> float:
        """A lower bound on :meth:`simulate_ms` for the all-to-all chunk
        durations ``a2a``: ``max(parts * compute sum, parts * comm sum)``
        scaled down by :data:`BOUND_MARGIN`.

        Each stream's free time only grows by ``start + dur`` with
        ``start >= free``, so the recurrence's makespan is at least the
        float sum of every chunk on either stream.  This bound adds the
        same positive terms in another order, and two orders of N terms
        differ by at most ~2N unit roundoffs (~2e-13 for N ~ 1000), far
        inside the margin.
        """
        _, comp, comm = self._template(parts, costs, caches)
        for t, on_comm in zip(a2a, self.a2a_on_comm):
            if on_comm:
                comm += t
            else:
                comp += t
        return max(parts * comp, parts * comm) * (1.0 - BOUND_MARGIN)

    def pipeline_ms(
        self,
        parts: int,
        a2a: tuple[float, ...],
        costs: CostEstimator,
        caches: PlanCaches,
    ) -> float:
        """The recurrence's makespan for the all-to-all chunk durations
        ``a2a``, memoized in ``caches.sim``.

        A finished simulation depends only on the range structure and
        the duration vector; the non-a2a entries are pinned by (range,
        parts), so keying by the all-to-all durations makes the entry
        self-invalidating under drift.
        """
        key = (self.start, self.end, parts, a2a)
        value = caches.sim.get(key)
        if value is None:
            value = self.simulate_ms(
                self._filled(parts, a2a, costs, caches), parts
            )
            caches.sim.put(key, value)
        return value

    def boundary_overhead_ms(
        self, parts: int, costs: CostEstimator, consumers_after
    ) -> float:
        """Cost of the split / reconstruct instructions at the range
        borders.  Splitting along a leading axis is a strided copy of the
        chunk; reconstruction (concat or irregular accumulate) copies the
        full tensor.  This is the partition overhead that makes
        over-partitioning unprofitable (paper Challenge 2 / Fig. 13).

        ``consumers_after`` is any container answering ``vid in ...`` for
        "is this value consumed outside the range" (a plain set, or the
        planner's O(1) use-position index).
        """
        gpu = costs.profiler.gpu
        fw = costs.profiler.framework
        overhead = 0.0
        # entry splits: one split_chunk (or route_slice) per chunk per value
        for nbytes in self.entry_nbytes:
            overhead += (
                parts * fw.launch_ms(1)
                + gpu.mem_time_ms(2.0 * nbytes / parts) * parts
            )
        # exit reconstruction: one concat/accumulate per exported value
        for vid, nbytes in self.exit_pairs:
            if vid in consumers_after:
                overhead += fw.launch_ms(1) + gpu.mem_time_ms(2.0 * nbytes)
        return overhead

    def overhead_ms(
        self,
        parts: int,
        costs: CostEstimator,
        consumers_after,
        caches: PlanCaches,
    ) -> float:
        """:meth:`boundary_overhead_ms`, memoized in ``caches.overhead``
        by (range, parts)."""
        key = (self.start, self.end, parts)
        value = caches.overhead.get(key)
        if value is None:
            value = self.boundary_overhead_ms(parts, costs, consumers_after)
            caches.overhead.put(key, value)
        return value

    def simulate_ms(self, durs: list[float], parts: int) -> float:
        """The two-stream pipeline recurrence over the interleaved order.

        Each pseudo-instruction starts at the later of the end of its
        (cross-stage) dependencies and the end of the previous
        instruction on its stream; within a stage, chunks run in
        partition order, serializing capacity passing for free.
        """
        n = len(durs)
        if n == 0:
            return 0.0
        comp_free = 0.0
        comm_free = 0.0
        end = [0.0] * (n * parts)
        deps = self.deps
        for stage in self.stages:
            indices = stage.indices
            if stage.is_comm:
                for p in range(parts):
                    for i in indices:
                        dep = 0.0
                        for j in deps[i]:
                            e = end[j * parts + p]
                            if e > dep:
                                dep = e
                        start = comm_free if comm_free > dep else dep
                        comm_free = start + durs[i]
                        end[i * parts + p] = comm_free
            else:
                for p in range(parts):
                    for i in indices:
                        dep = 0.0
                        for j in deps[i]:
                            e = end[j * parts + p]
                            if e > dep:
                                dep = e
                        start = comp_free if comp_free > dep else dep
                        comp_free = start + durs[i]
                        end[i * parts + p] = comp_free
        return max(end)
