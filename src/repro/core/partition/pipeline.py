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
keyed by the realized all-to-all chunk durations.  There is one pricing
method, :meth:`RangeContext.cost`: the one-shot :func:`pipeline_cost_ms`
behind the reference DP calls it uncached, the fast DP with its
:class:`PlanCaches`.  Both run the same chunk durations through the same
scalar recurrence, :meth:`RangeContext.simulate_ms`, so caching can
never change a predicted number: a cache hit returns the value the
uncached evaluation would have produced, bit for bit.
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


def chunk_duration_ms(
    instr: Instruction,
    program: Program,
    axes: InferenceResult,
    parts: int,
    costs: CostEstimator,
) -> float:
    """Predicted duration of one chunk of ``instr`` when split ``parts`` ways."""
    if instr.op == "all_to_all":
        out_axis = axes.axis_of(instr.outputs[0])
        # irregular chunks route through the estimator so the static-shape
        # approximation is conditioned on the layer's routing signature
        return costs.a2a_chunk_ms(
            instr, program, parts, irregular=(out_axis == IRR)
        )
    return _compute_chunk_ms(instr, program, axes, parts, costs)


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


@dataclass
class PipelineCost:
    """Cost estimate of one pipelined range."""

    total_ms: float
    pipeline_ms: float
    overhead_ms: float
    num_stages: int


#: bound of the pipeline-simulation cache.  Its keys embed realized a2a
#: chunk durations, so a drifting run mints new keys forever; the cap
#: holds several full plans' worth of simulations (a 12-layer GPT2-S-MoE
#: plan produces ~1.1k) and evictions only cost a re-simulation.
DEFAULT_SIM_CACHE_SIZE = 8192


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


def _memoized(cache: LRUCache | None, key, compute):
    """``compute()``, looked up in and stored to ``cache`` when given."""
    if cache is None:
        return compute()
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


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
        # parts -> duration list with all-to-all slots left as None (the
        # only signature-dependent entries); filled per evaluation
        self._dur_templates: dict[int, list] = {}

    # -- the three cost components ----------------------------------------

    def chunk_durations(
        self, parts: int, costs: CostEstimator, caches: PlanCaches | None
    ) -> list[float]:
        """Per-instruction chunk durations at ``parts``-way splitting.

        All-to-alls always re-price through the estimator (its own cache
        keys on the routing signature); everything else is memoized here.
        """
        axes = self.axes
        if caches is None:
            return [
                chunk_duration_ms(ins, self.program, axes, parts, costs)
                for ins in self.instrs
            ]
        template = self._dur_templates.get(parts)
        if template is None:
            chunk = caches.chunk
            template = []
            for ins, key in zip(self.instrs, self.chunk_keys):
                if key is None:  # all_to_all: re-priced per evaluation
                    template.append(None)
                    continue
                full_key = (key[0], parts, key[1])
                t = chunk.get(full_key)
                if t is None:
                    t = _compute_chunk_ms(
                        ins, self.program, axes, parts, costs
                    )
                    chunk.put(full_key, t)
                template.append(t)
            self._dur_templates[parts] = template
        durs = template.copy()
        for i in self.a2a_idx:
            ins = self.instrs[i]
            durs[i] = costs.a2a_chunk_ms(
                ins,
                self.program,
                parts,
                irregular=(axes.axis_of(ins.outputs[0]) == IRR),
            )
        return durs

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

    def cost(
        self,
        parts: int,
        costs: CostEstimator,
        consumers_after=None,
        caches: PlanCaches | None = None,
    ) -> PipelineCost:
        """The paper's ``P(i, n, k)`` for this range.

        With ``caches``, the chunk template, the finished simulation and
        the boundary overhead are memoized; a hit returns the value the
        uncached evaluation would have produced, bit for bit.
        """
        durs = self.chunk_durations(parts, costs, caches)
        # a finished simulation depends only on the range structure and
        # the duration vector; the non-a2a entries are pinned by (range,
        # parts), so keying by the realized all-to-all chunk durations
        # makes the entry self-invalidating under drift
        pipeline_ms = _memoized(
            None if caches is None else caches.sim,
            (self.start, self.end, parts, tuple(durs[i] for i in self.a2a_idx)),
            lambda: self.simulate_ms(durs, parts),
        )
        overhead = 0.0
        if consumers_after is not None:
            overhead = _memoized(
                None if caches is None else caches.overhead,
                (self.start, self.end, parts),
                lambda: self.boundary_overhead_ms(parts, costs, consumers_after),
            )
        return PipelineCost(
            total_ms=pipeline_ms + overhead,
            pipeline_ms=pipeline_ms,
            overhead_ms=overhead,
            num_stages=len(self.stages),
        )


def pipeline_cost_ms(
    program: Program,
    instrs: list[Instruction],
    axes: InferenceResult,
    parts: int,
    costs: CostEstimator,
    consumers_after: set[int] | None = None,
) -> PipelineCost:
    """The paper's ``P(i, n, k)``: end-to-end time of the pipelined range.

    One-shot form: builds a throwaway :class:`RangeContext` and evaluates
    it uncached -- the exact computation the fast planner memoizes.
    """
    return RangeContext(program, instrs, axes).cost(
        parts, costs, consumers_after
    )


def sequential_cost_ms(
    program: Program, instrs: list[Instruction], costs: CostEstimator
) -> float:
    """Unpartitioned execution time of a range (the k=1 / no-pipeline case)."""
    return sum(costs.duration_ms(ins, program) for ins in instrs)
