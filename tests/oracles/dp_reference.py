"""Reference (naive) partition DP -- retained for equivalence testing.

This is the original, straightforward implementation of the paper's
Sec. 5.1 recurrence ``T(n) = min_{i<n} ( T(i) + min_k P(i, n, k) )``:
every candidate range rebuilds its axis inference, rescans the whole
program for outside consumers, and re-evaluates every pipeline cost from
scratch.  The production planner (:mod:`repro.core.partition.dp`)
computes the *same* function incrementally with persistent caches and
vectorized relaxations; ``tests/test_fast_replan.py`` asserts the two
agree bit for bit on randomized programs and routing signatures.

Keep this module dumb and obvious: its value is that its correctness can
be checked by reading it next to the paper.

It also holds the uncached pricing path the reference prices ``P(i, n,
k)`` with (:func:`pipeline_cost_ms`, :func:`sequential_cost_ms`): every
chunk duration is priced afresh and run through the planner's own
recurrence, :meth:`RangeContext.simulate_ms
<repro.core.partition.pipeline.RangeContext.simulate_ms>`, so the fast
planner's memoized pieces must reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import CostEstimator
from repro.core.partition.axis_inference import InferenceResult, infer_axes
from repro.core.partition.dp import (
    DPResult,
    RangePlan,
    _auto_group_ms,
    build_groups,
    forward_length,
    max_range_for,
)
from repro.core.partition.pipeline import (
    RangeContext,
    _compute_chunk_ms,
    max_feasible_parts,
)
from repro.core.policy import PlanPolicy
from repro.ir import AXIS_IRREGULAR as IRR
from repro.ir import Instruction, Program


@dataclass
class PipelineCost:
    """Cost estimate of one pipelined range."""

    total_ms: float
    pipeline_ms: float
    overhead_ms: float
    num_stages: int


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


def chunk_durations(
    ctx: RangeContext, parts: int, costs: CostEstimator
) -> list[float]:
    """Per-instruction chunk durations of a range at ``parts``-way
    splitting, each priced afresh."""
    return [
        chunk_duration_ms(ins, ctx.program, ctx.axes, parts, costs)
        for ins in ctx.instrs
    ]


def range_cost(
    ctx: RangeContext, parts: int, costs: CostEstimator, consumers_after=None
) -> PipelineCost:
    """The paper's ``P(i, n, k)`` for one range context, priced uncached.

    The fast DP evaluates the same pieces memoized
    (:meth:`~RangeContext.a2a_durations`,
    :meth:`~RangeContext.overhead_ms`, :meth:`~RangeContext.pipeline_ms`);
    a cache hit there returns the value this evaluation produces, bit for
    bit.
    """
    pipeline_ms = ctx.simulate_ms(chunk_durations(ctx, parts, costs), parts)
    overhead = 0.0
    if consumers_after is not None:
        overhead = ctx.boundary_overhead_ms(parts, costs, consumers_after)
    return PipelineCost(
        total_ms=pipeline_ms + overhead,
        pipeline_ms=pipeline_ms,
        overhead_ms=overhead,
        num_stages=len(ctx.stages),
    )


def pipeline_cost_ms(
    program: Program,
    instrs: list[Instruction],
    axes: InferenceResult,
    parts: int,
    costs: CostEstimator,
    consumers_after: set[int] | None = None,
) -> PipelineCost:
    """The paper's ``P(i, n, k)``: end-to-end time of the pipelined range,
    from a throwaway :class:`RangeContext` evaluated uncached."""
    return range_cost(
        RangeContext(program, instrs, axes), parts, costs, consumers_after
    )


def sequential_cost_ms(
    program: Program, instrs: list[Instruction], costs: CostEstimator
) -> float:
    """Unpartitioned execution time of a range (the k=1 / no-pipeline case)."""
    return sum(costs.duration_ms(ins, program) for ins in instrs)


def plan_partitions_reference(
    program: Program,
    costs: CostEstimator,
    policy: PlanPolicy = PlanPolicy(),
) -> DPResult:
    """Run the naive DP over the forward pass; same contract as
    :func:`~repro.core.partition.dp.plan_partitions`."""
    fwd_end = forward_length(program)
    group_ms = policy.group_ms or _auto_group_ms(program, fwd_end, costs)
    groups = build_groups(program, fwd_end, costs, group_ms)
    ng = len(groups)
    result = DPResult(num_groups=ng, skew_aware=bool(costs.signatures))
    if ng == 0:
        return result

    max_range = max_range_for(groups, policy)

    seq_prefix = np.concatenate([[0.0], np.cumsum([g.time_ms for g in groups])])
    has_a2a_prefix = np.concatenate(
        [[0], np.cumsum([1 if g.has_a2a else 0 for g in groups])]
    )

    consumers_after_cache: dict[tuple[int, int], set[int]] = {}

    def consumers_after(i_pos: int, n_pos: int) -> set[int]:
        key = (i_pos, n_pos)
        hit = consumers_after_cache.get(key)
        if hit is not None:
            return hit
        outside: set[int] = set(program.outputs) | set(program.grads.values())
        for pos, ins in enumerate(program.instructions):
            if pos < i_pos or pos >= n_pos:
                outside.update(ins.inputs)
        consumers_after_cache[key] = outside
        return outside

    # DP tables
    T = np.full(ng + 1, np.inf)
    T[0] = 0.0
    parent: list[tuple[int, int, RangePlan | None]] = [(0, 0, None)] * (ng + 1)
    axes_cache: dict[tuple[int, int], InferenceResult | None] = {}

    for n in range(1, ng + 1):
        lo = max(0, n - max_range)
        for i in range(lo, n):
            seq = float(seq_prefix[n] - seq_prefix[i])
            # k = 1: no partitioning
            if T[i] + seq < T[n]:
                T[n] = T[i] + seq
                parent[n] = (i, 1, None)
            if has_a2a_prefix[n] - has_a2a_prefix[i] == 0:
                continue  # nothing to overlap: pipelining is pointless
            i_pos, n_pos = groups[i].start, groups[n - 1].end
            key = (i_pos, n_pos)
            axes = axes_cache.get(key, "miss")
            if axes == "miss":
                instrs = program.instructions[i_pos:n_pos]
                axes = infer_axes(instrs, program)
                axes_cache[key] = axes
            if axes is None:
                continue
            instrs = program.instructions[i_pos:n_pos]
            outside = consumers_after(i_pos, n_pos)
            k_limit = max_feasible_parts(instrs, program, axes)
            for k in policy.k_candidates:
                if k > k_limit:
                    continue

                result.num_cost_evals += 1
                result.num_pipeline_sims += 1
                cost = pipeline_cost_ms(
                    program, instrs, axes, k, costs, outside
                )
                if T[i] + cost.total_ms < T[n]:
                    plan = RangePlan(
                        start=i_pos,
                        end=n_pos,
                        parts=k,
                        axes=axes,
                        predicted_ms=cost.total_ms,
                        sequential_ms=seq,
                    )
                    T[n] = T[i] + cost.total_ms
                    parent[n] = (i, k, plan)

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
