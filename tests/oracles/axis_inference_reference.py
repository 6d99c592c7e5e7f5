"""Reference partition-axis solver: sweep propagation to a fixpoint.

The original constraint solver of paper Sec. 5.2, kept verbatim as a
test oracle.  Every call re-propagates the whole range from scratch by
sweeping all instructions until nothing changes, then backtracks over
the values that are still ambiguous.  The shipped solver
(:class:`repro.core.partition.axis_inference.AxisProblem`) grows a range
incrementally with worklist propagation; ``tests/test_axis_inference.py``
asserts both agree with this one on every range of the planner's window.
"""

from __future__ import annotations

from repro.core.partition.axis_inference import (
    InferenceResult,
    _pref,
    range_is_moe_only,
)
from repro.core.partition.rules import RuleContext, entry_domain, rules_for
from repro.ir import AXIS_IRREGULAR as IRR
from repro.ir import NOT_PARTITIONED as NP
from repro.ir import Instruction, Program
from repro.ir.tensor import is_route_type


def infer_axes_reference(
    instrs: list[Instruction],
    program: Program,
    ctx: RuleContext | None = None,
) -> InferenceResult | None:
    """Solve for partition axes over a candidate range.

    Returns None when no valid partitioning exists (e.g. the range
    contains a batch-dependent gate, or would need to split an MoE
    buffer irregularly from outside).
    """
    if not instrs:
        return None
    if ctx is None:
        ctx = RuleContext(moe_only=range_is_moe_only(instrs))

    produced: set[int] = set()
    for ins in instrs:
        produced.update(ins.outputs)

    # candidate rule tuples per instruction
    inst_rules: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for ins in instrs:
        in_types = [program.type_of(v) for v in ins.inputs]
        out_types = [program.type_of(v) for v in ins.outputs]
        cands = rules_for(ins, in_types, out_types, ctx)
        if not cands:
            return None
        inst_rules.append(cands)

    # variable domains: every value gets the full axis set, restricted by
    # the entry rules when it is produced outside the range
    domains: dict[int, set[int]] = {}
    for ins in instrs:
        for vid in list(ins.inputs) + list(ins.outputs):
            if vid not in domains:
                t = program.type_of(vid)
                full = set(range(t.rank)) | {NP, IRR}
                if vid not in produced:
                    full &= entry_domain(t, is_route_type(t))
                domains[vid] = full

    # arc-consistency propagation to fixpoint
    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for ins, cands in zip(instrs, inst_rules):
                vids = list(ins.inputs) + list(ins.outputs)
                live = [
                    (ia, oa)
                    for ia, oa in cands
                    if all(
                        a in domains[vid]
                        for vid, a in zip(vids, list(ia) + list(oa))
                    )
                ]
                if not live:
                    return False
                if len(live) != len(cands):
                    cands[:] = live
                    changed = True
                # narrow each operand's domain to the union over live tuples
                for pos, vid in enumerate(vids):
                    allowed = {(list(ia) + list(oa))[pos] for ia, oa in live}
                    narrowed = domains[vid] & allowed
                    if not narrowed:
                        return False
                    if narrowed != domains[vid]:
                        domains[vid] = narrowed
                        changed = True
        return True

    if not propagate():
        return None

    # backtracking over any still-ambiguous values
    order = [v for v in domains if len(domains[v]) > 1]

    def solve(idx: int) -> bool:
        if idx == len(order):
            return True
        vid = order[idx]
        if len(domains[vid]) == 1:
            return solve(idx + 1)
        snapshot_domains = {v: set(d) for v, d in domains.items()}
        snapshot_rules = [list(c) for c in inst_rules]
        for axis in sorted(domains[vid], key=_pref):
            domains[vid] = {axis}
            if propagate() and solve(idx + 1):
                return True
            for v in domains:
                domains[v] = set(snapshot_domains[v])
            for c, snap in zip(inst_rules, snapshot_rules):
                c[:] = snap
        return False

    if not solve(0):
        return None

    axes = {v: next(iter(d)) for v, d in domains.items()}

    # sanity: every instruction must actually be partitioned
    for ins in instrs:
        if all(axes.get(o, NP) == NP for o in ins.outputs):
            return None
    return InferenceResult(axes=axes, moe_only=ctx.moe_only)
