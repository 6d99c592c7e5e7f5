"""Dynamic-programming partition-range selection (paper Sec. 5.1).

``T(n) = min_{i<n} ( T(i) + min_k P(i, n, k) )`` over the forward
instruction sequence, where ``P(i, n, k)`` is the pipelined cost of
instructions i..n split into k parts (from the pipeline scheduler) and
``T`` accumulates the optimal prefix time.

Exactly as the paper prescribes for tractability:

* consecutive instructions are grouped by execution time (group size
  gamma) and the DP runs over groups;
* the candidate range length is capped (iota);
* the number of partitions k is capped (rho) -- and only ranges that
  contain an all-to-all are worth pipelining, so everything else falls
  back to the k=1 sequential cost.

This module is the *fast* planner: the online re-optimization loop
re-runs it on every routing-drift event, so its latency sits on the
training critical path (the optimization-time concern of paper Sec. 6 /
Fig. 15).  It computes exactly the same function as the retained naive
implementation (``tests/oracles/dp_reference.py``), but

* outside-consumer queries use a precomputed first/last-use index
  (:class:`ConsumerIndex`) instead of rescanning the whole program per
  candidate range;
* the k=1 relaxation is evaluated vectorized over candidate ``i`` with
  numpy (candidates past the window's last all-to-all group reduce to a
  single ``argmin``);
* each pipeline candidate is priced where the recurrence relaxes it,
  through :meth:`~.pipeline.RangeContext.cost` and the
  :class:`~.pipeline.PlanCaches` (a sim-cache miss runs the scalar
  two-stream recurrence :meth:`~.pipeline.RangeContext.simulate_ms`
  on the spot);
* a cold plan infers partition axes incrementally: the DP only grows a
  candidate range at its end, so each range start keeps one
  :class:`~.axis_inference.AxisProblem` for the duration of the plan and
  extends it group by group instead of re-solving every range;
* everything that does not depend on the routing signature -- grouping,
  the per-range contexts (solved axes, feasible-k limits, stage
  decompositions), compute chunk durations, boundary overheads --
  persists across re-plans in a :class:`PlannerState`, so a warm
  re-plan runs no axis inference, only re-prices the all-to-alls and
  re-runs the two-stream recurrences they invalidate.

Bit-identity with the reference is load-bearing (it is what lets the
re-optimizing trainer swap between cold and warm plans freely) and is
enforced by ``tests/test_fast_replan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...ir import InstrKind, Program
from ..cache import LRUCache
from ..cost_model import CostEstimator
from ..policy import PlanPolicy
from .axis_inference import (
    MOE_ONLY_OPS,
    AxisProblem,
    InferenceResult,
    infer_axes,  # noqa: F401 -- perfbench/spans.py patches this name
    range_is_moe_only,
)
from .pipeline import PlanCaches, RangeContext
from .rules import RuleContext

# inert: perfbench/spans.py still resolves this retired lane-engine name
resolve_pending = None


#: ops that anchor the MoE pipeline structure; each gets its own group so
#: candidate ranges can start/stop exactly at these boundaries
STRUCTURAL_OPS = frozenset(
    {"routing", "moe_dispatch", "all_to_all", "expert_ffn", "moe_combine"}
)


@dataclass
class Group:
    """A run of consecutive forward instructions treated atomically."""

    start: int  # instruction position (inclusive)
    end: int  # instruction position (exclusive)
    time_ms: float
    has_a2a: bool


@dataclass
class RangePlan:
    """One chosen partition range."""

    start: int  # instruction position (inclusive)
    end: int  # instruction position (exclusive)
    parts: int
    axes: InferenceResult
    predicted_ms: float
    sequential_ms: float


@dataclass
class DPResult:
    """Outcome of partition planning."""

    plans: list[RangePlan] = field(default_factory=list)
    baseline_fwd_ms: float = 0.0
    optimized_fwd_ms: float = 0.0
    num_groups: int = 0
    #: logical candidate evaluations P(i, n, k) the DP considered; the
    #: perf-budget tests pin this, cached or not
    num_cost_evals: int = 0
    #: two-stream pipeline simulations actually executed (cache misses);
    #: on a warm re-plan this is what the planner still pays for
    num_pipeline_sims: int = 0
    #: True when the DP priced all-to-alls against observed routing
    #: signatures rather than the uniform static-shape approximation
    skew_aware: bool = False
    #: True when the plan reused a valid :class:`PlannerState`
    warm_start: bool = False


def forward_length(program: Program) -> int:
    """Length of the forward-pass prefix of the program."""
    for pos, ins in enumerate(program.instructions):
        if ins.kind in (InstrKind.DX, InstrKind.DW, InstrKind.OPTIMIZER):
            return pos
    return len(program.instructions)


def build_groups(
    program: Program,
    fwd_end: int,
    costs: CostEstimator,
    group_ms: float,
) -> list[Group]:
    """Group consecutive forward instructions by execution time.

    MoE-structural ops are isolated in their own groups so that ranges
    can align with the dispatch/all-to-all/expert/combine boundaries.
    """
    groups: list[Group] = []
    cur_start = None
    cur_time = 0.0

    def close(endpos: int) -> None:
        nonlocal cur_start, cur_time
        if cur_start is not None:
            groups.append(Group(cur_start, endpos, cur_time, False))
            cur_start = None
            cur_time = 0.0

    for pos in range(fwd_end):
        ins = program.instructions[pos]
        t = costs.duration_ms(ins, program)
        if ins.op in STRUCTURAL_OPS:
            close(pos)
            groups.append(
                Group(pos, pos + 1, t, has_a2a=(ins.op == "all_to_all"))
            )
            continue
        if cur_start is None:
            cur_start = pos
        cur_time += t
        if cur_time >= group_ms:
            close(pos + 1)
    close(fwd_end)
    return groups


def _auto_group_ms(
    program: Program, fwd_end: int, costs: CostEstimator
) -> float:
    """Pick gamma so ~5 groups separate consecutive MoE layers (Sec. 7)."""
    a2a_pos = [
        p
        for p in range(fwd_end)
        if program.instructions[p].op == "all_to_all"
    ]
    if not a2a_pos:
        total = sum(
            costs.duration_ms(program.instructions[p], program)
            for p in range(fwd_end)
        )
        return max(total / 10.0, 0.05)
    # time of non-MoE instructions between consecutive MoE layers
    first = a2a_pos[0]
    span = sum(
        costs.duration_ms(program.instructions[p], program)
        for p in range(first)
        if program.instructions[p].op not in STRUCTURAL_OPS
    )
    return max(span / 5.0, 0.02)


def max_range_for(groups: list[Group], policy: PlanPolicy) -> int:
    """The iota cap in groups (one pipeline per MoE layer by default)."""
    ng = len(groups)
    if policy.max_range_groups is not None:
        max_range = policy.max_range_groups
    else:
        # one pipeline per MoE layer: cap ranges at the group distance
        # between consecutive forward all-to-alls
        a2a_groups = [gi for gi, g in enumerate(groups) if g.has_a2a]
        if len(a2a_groups) >= 3:
            max_range = a2a_groups[2] - a2a_groups[0] + 2
        else:
            max_range = ng
    return max(3, min(max_range, ng))


class ConsumerIndex:
    """O(1) "is this value consumed outside [i, n)" queries.

    Replaces the naive planner's per-range O(|program|) rescan: one pass
    records each value's first and last use position (as an input), plus
    the always-outside set (program outputs and gradients).  A value is
    consumed outside ``[i_pos, n_pos)`` iff it is in the base set or has
    a use before ``i_pos`` or at/after ``n_pos``.  Membership is
    invariant under reordering of the instructions outside the range, so
    the index survives the dW-schedule pass's backward shuffling.
    """

    __slots__ = ("base", "first_use", "last_use")

    def __init__(self, program: Program) -> None:
        self.base = set(program.outputs) | set(program.grads.values())
        self.first_use: dict[int, int] = {}
        self.last_use: dict[int, int] = {}
        for pos, ins in enumerate(program.instructions):
            for v in ins.inputs:
                if v not in self.first_use:
                    self.first_use[v] = pos
                self.last_use[v] = pos

    def view(self, i_pos: int, n_pos: int) -> "_ConsumersView":
        return _ConsumersView(self, i_pos, n_pos)


class _ConsumersView:
    """Set-like membership facade for one candidate range."""

    __slots__ = ("index", "i_pos", "n_pos")

    def __init__(self, index: ConsumerIndex, i_pos: int, n_pos: int) -> None:
        self.index = index
        self.i_pos = i_pos
        self.n_pos = n_pos

    def __contains__(self, vid: int) -> bool:
        idx = self.index
        if vid in idx.base:
            return True
        first = idx.first_use.get(vid)
        if first is None:
            return False
        return first < self.i_pos or idx.last_use[vid] >= self.n_pos


#: cached marker for "axis inference proved this range unpartitionable"
_INFEASIBLE = object()
#: cache-miss sentinel
_MISS = object()


@dataclass
class PlannerState:
    """Warm-start state threaded through consecutive ``plan_partitions``
    calls on the same program.

    Everything held here is independent of the routing signature:

    * the instruction grouping (boundaries and non-collective group
      times -- only all-to-all groups are re-priced per plan);
    * per-range :class:`RangeContext` objects (axis inference, stage
      decomposition, dependency lists, feasible-k limits);
    * the :class:`ConsumerIndex`;
    * the :class:`PlanCaches` (compute chunk durations, boundary
      overheads, and pipeline simulations keyed by realized a2a chunk
      durations, which self-invalidate under drift).

    A state validates itself against a structural fingerprint of the
    program (forward prefix order + backward instruction multiset) and
    the policy's :attr:`~repro.core.policy.PlanPolicy.partition_key`;
    any mismatch falls back to a cold rebuild, so handing a stale state
    to the planner can cost time but never correctness.
    """

    fingerprint: tuple | None = None
    policy_key: tuple | None = None
    group_ms: float = 0.0
    groups: list[Group] = field(default_factory=list)
    max_range: int = 0
    #: group times with all-to-all entries as priced at build time;
    #: refreshed per plan via :meth:`group_times`
    base_group_times: np.ndarray | None = None
    #: (group index, instruction position) of every all-to-all group
    a2a_groups: list[tuple[int, int]] = field(default_factory=list)
    contexts: LRUCache = field(
        default_factory=lambda: LRUCache(name="planner-range-ctx")
    )
    caches: PlanCaches = field(default_factory=PlanCaches)
    consumers: ConsumerIndex | None = None
    #: range start position -> (end position, :class:`AxisProblem` of the
    #: range); lives for one ``plan_partitions`` call only
    frontiers: dict[int, tuple[int, AxisProblem]] = field(default_factory=dict)
    cold_plans: int = 0
    warm_plans: int = 0
    #: instructions added to axis problems, and propagation steps run
    axis_instrs: int = 0
    axis_steps: int = 0

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Drop all cached structure (program changed)."""
        self.fingerprint = None
        self.policy_key = None
        self.group_ms = 0.0
        self.groups = []
        self.max_range = 0
        self.base_group_times = None
        self.a2a_groups = []
        self.contexts.clear()
        self.caches.chunk.clear()
        self.caches.overhead.clear()
        self.caches.sim.clear()
        self.consumers = None
        self.frontiers.clear()

    def prepare(
        self,
        program: Program,
        costs: CostEstimator,
        policy: PlanPolicy,
        fwd_end: int,
    ) -> bool:
        """Validate against ``program``/``policy``; (re)build what is
        stale.  Returns True when the grouping and range caches were
        reused (a warm re-plan)."""
        fp = _program_fingerprint(program, fwd_end)
        warm = fp == self.fingerprint
        if not warm:
            self.reset()
            self.fingerprint = fp
            self.consumers = ConsumerIndex(program)
        if not warm or policy.partition_key != self.policy_key:
            # grouping depends on gamma/iota; range contexts do not
            # (they key on instruction positions), so a pure knob
            # change keeps them
            self.policy_key = policy.partition_key
            self.group_ms = policy.group_ms or _auto_group_ms(
                program, fwd_end, costs
            )
            self.groups = build_groups(program, fwd_end, costs, self.group_ms)
            self.max_range = max_range_for(self.groups, policy)
            self.base_group_times = np.asarray(
                [g.time_ms for g in self.groups], dtype=np.float64
            )
            self.a2a_groups = [
                (gi, g.start)
                for gi, g in enumerate(self.groups)
                if g.has_a2a
            ]
        if warm:
            self.warm_plans += 1
        else:
            self.cold_plans += 1
        return warm

    # -- per-plan queries --------------------------------------------------

    def group_times(self, program: Program, costs: CostEstimator) -> np.ndarray:
        """Current group durations: cached times with every all-to-all
        group re-priced against the estimator's installed signature (the
        only signature-dependent entries)."""
        times = self.base_group_times.copy()
        for gi, pos in self.a2a_groups:
            times[gi] = costs.duration_ms(program.instructions[pos], program)
        return times

    def context(
        self, program: Program, i_pos: int, n_pos: int
    ) -> RangeContext | None:
        """The (cached) range context, or None when axis inference proved
        the range unpartitionable."""
        key = (i_pos, n_pos)
        hit = self.contexts.get(key, _MISS)
        if hit is not _MISS:
            return None if hit is _INFEASIBLE else hit
        axes = self.range_axes(program, i_pos, n_pos)
        if axes is None:
            self.contexts.put(key, _INFEASIBLE)
            return None
        instrs = program.instructions[i_pos:n_pos]
        ctx = RangeContext(program, instrs, axes, start=i_pos, end=n_pos)
        self.contexts.put(key, ctx)
        return ctx

    def range_axes(
        self, program: Program, i_pos: int, n_pos: int
    ) -> InferenceResult | None:
        """Axis inference for ``[i_pos, n_pos)``, extending the problem of
        the last range solved from ``i_pos`` when it ends at or before
        ``n_pos``.  The result equals a from-scratch :func:`infer_axes`
        (see :class:`AxisProblem`); the problem is rebuilt when the range
        stops being MoE-only, because that changes the rules."""
        frontier = self.frontiers.get(i_pos)
        if frontier is not None:
            end, problem = frontier
            tail = program.instructions[end:n_pos]
            if end > n_pos or (
                problem.ctx.moe_only
                and not all(ins.op in MOE_ONLY_OPS for ins in tail)
            ):
                frontier = None
        if frontier is None:
            tail = program.instructions[i_pos:n_pos]
            ctx = RuleContext(moe_only=range_is_moe_only(tail))
            problem = AxisProblem(program, ctx)
        added, steps = len(problem.instrs), problem.steps
        problem.extend(tail)
        axes = problem.solve()
        self.frontiers[i_pos] = (n_pos, problem)
        self.axis_instrs += len(problem.instrs) - added
        self.axis_steps += problem.steps - steps
        return axes

    def prune_frontiers(self, i_pos: int) -> None:
        """Drop the axis problems of range starts before ``i_pos``."""
        for start in [s for s in self.frontiers if s < i_pos]:
            del self.frontiers[start]

    def stats(self) -> dict:
        """Counter snapshot for reports and benchmarks."""
        out = {"range_ctx": self.contexts.stats()}
        out.update(self.caches.stats())
        out["cold_plans"] = self.cold_plans
        out["warm_plans"] = self.warm_plans
        out["axis_inference"] = {
            "instructions": self.axis_instrs,
            "propagation_steps": self.axis_steps,
        }
        return out


def _program_fingerprint(program: Program, fwd_end: int) -> tuple:
    """Structural identity of a program for warm-start validation.

    The forward prefix must match position-for-position (the caches key
    on instruction positions); the backward half only as a multiset
    (the dW-schedule pass reorders it between re-plans, which cannot
    change any outside-consumer answer for a forward range).
    """
    ins = program.instructions
    return (
        fwd_end,
        tuple(i.uid for i in ins[:fwd_end]),
        hash(tuple(sorted(i.uid for i in ins[fwd_end:]))),
        hash(
            (
                tuple(program.outputs),
                tuple(sorted(program.grads.items())),
            )
        ),
    )


def plan_partitions(
    program: Program,
    costs: CostEstimator,
    policy: PlanPolicy = PlanPolicy(),
    state: PlannerState | None = None,
) -> DPResult:
    """Run the DP over the forward pass and return the chosen ranges,
    under the rho / gamma / iota knobs of ``policy``.

    Pass a :class:`PlannerState` to plan incrementally: consecutive calls
    on the same program (e.g. re-plans after routing drift) reuse every
    signature-independent table and only re-price what the new signature
    invalidates.  Results are bit-identical to the naive reference DP
    (``tests/oracles/dp_reference.py``) either way.
    """
    if state is None:
        state = PlannerState()  # throwaway: cold plan
    fwd_end = forward_length(program)
    warm = state.prepare(program, costs, policy, fwd_end)

    groups = state.groups
    ng = len(groups)
    result = DPResult(
        num_groups=ng,
        skew_aware=bool(costs.signatures),
        warm_start=warm,
    )
    if ng == 0:
        return result

    max_range = state.max_range
    caches = state.caches
    consumers = state.consumers
    k_candidates = policy.k_candidates

    times = state.group_times(program, costs)
    seq_prefix = np.concatenate([[0.0], np.cumsum(times)])

    # last all-to-all group index strictly before n (-1 when none): the
    # pipeline candidates at n are exactly i in [lo, last_a2a[n]]
    last_a2a = np.empty(ng + 1, dtype=np.int64)
    last_a2a[0] = -1
    cur = -1
    for n in range(1, ng + 1):
        if groups[n - 1].has_a2a:
            cur = n - 1
        last_a2a[n] = cur

    # DP tables
    T = np.full(ng + 1, np.inf)
    T[0] = 0.0
    parent: list[tuple[int, int, RangePlan | None]] = [(0, 0, None)] * (ng + 1)

    sims_before = caches.sim.misses

    # One pass in DP order.  A range context that misses extends its
    # start's axis problem (n ascends, so ranges only grow at the end);
    # a start's problem is dropped once it leaves the window.
    for n in range(1, ng + 1):
        lo = n - max_range
        if lo < 0:
            lo = 0
        state.prune_frontiers(groups[lo].start)
        # k = 1 candidates, vectorized over i: T[i] + (S[n] - S[i]).
        # Elementwise float64 ops, so every entry carries exactly the
        # bits the reference's scalar expression produces.
        cand = T[lo:n] + (seq_prefix[n] - seq_prefix[lo:n])
        gl = int(last_a2a[n])
        # i < pipe_end have an all-to-all inside [i, n) and may pipeline;
        # i >= pipe_end are pure k=1 candidates
        pipe_end = gl + 1 if gl >= lo else lo

        if pipe_end > lo:
            n_pos = groups[n - 1].end
            for i in range(lo, pipe_end):
                c = cand[i - lo]
                if c < T[n]:
                    T[n] = c
                    parent[n] = (i, 1, None)
                i_pos = groups[i].start
                ctx = state.context(program, i_pos, n_pos)
                if ctx is None:
                    continue
                view = consumers.view(i_pos, n_pos)
                for k in k_candidates:
                    if k > ctx.k_limit:
                        continue
                    result.num_cost_evals += 1
                    cost = ctx.cost(k, costs, view, caches)
                    if T[i] + cost.total_ms < T[n]:
                        plan = RangePlan(
                            start=i_pos,
                            end=n_pos,
                            parts=k,
                            axes=ctx.axes,
                            predicted_ms=cost.total_ms,
                            sequential_ms=float(
                                seq_prefix[n] - seq_prefix[i]
                            ),
                        )
                        T[n] = T[i] + cost.total_ms
                        parent[n] = (i, k, plan)

        if pipe_end < n:
            # pure-sequential tail: the reference's ascending strict-<
            # scan keeps the first minimum, exactly argmin's tie rule
            tail = cand[pipe_end - lo :]
            j = int(np.argmin(tail))
            if tail[j] < T[n]:
                T[n] = tail[j]
                parent[n] = (pipe_end + j, 1, None)
    state.frontiers.clear()

    result.num_pipeline_sims = caches.sim.misses - sims_before

    # reconstruct the chosen ranges
    plans: list[RangePlan] = []
    n = ng
    while n > 0:
        i, _k, plan = parent[n]
        if plan is not None:
            plans.append(plan)
        n = i
    plans.reverse()

    result.plans = plans
    result.baseline_fwd_ms = float(seq_prefix[ng])
    result.optimized_fwd_ms = float(T[ng])
    return result
