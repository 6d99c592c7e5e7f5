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
"""

from __future__ import annotations

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
from repro.core.partition.pipeline import max_feasible_parts, pipeline_cost_ms
from repro.core.policy import PlanPolicy
from repro.ir import Program


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
