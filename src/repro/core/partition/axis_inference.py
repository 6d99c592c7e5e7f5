"""Partition-axis inference: the constraint-satisfaction solver of
paper Sec. 5.2.

Given a candidate range of instructions, find one partition axis per SSA
value such that every instruction's (input axes, output axes) combination
is permitted by its rule set ``F_Z`` (:mod:`.rules`), values entering the
range are splittable from outside, and -- per the paper -- the same
tensor keeps the same axis everywhere (automatic here: one variable per
value).

The paper uses OR-Tools; the structure of these problems (a near-chain of
small-domain variables) makes a domain-propagation + backtracking solver
entirely sufficient, and keeps the reproduction dependency-free.  The
planner's DP only ever grows a candidate range at its end, so the solver
is an :class:`AxisProblem` that can be extended in place instead of
re-solved per range.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from ...ir import AXIS_IRREGULAR as IRR
from ...ir import NOT_PARTITIONED as NP
from ...ir import Instruction, Program
from ...ir.tensor import is_route_type
from .rules import RuleContext, entry_domain, rules_for

#: preference order when branching: batch first, then irregular, then
#: other real axes; replication last (only boundary values may take NP).
_PREFERENCE = {0: 0, IRR: 1}


def _pref(axis: int) -> tuple[int, int]:
    return (_PREFERENCE.get(axis, 2), axis if axis >= 0 else 99)


@dataclass
class InferenceResult:
    """Solved axis assignment for one candidate range."""

    axes: dict[int, int]  # value id -> partition axis
    moe_only: bool  # context the solution was derived under

    def axis_of(self, vid: int) -> int:
        return self.axes.get(vid, NP)


#: ops that constitute the bare communication/expert pipeline; a range
#: containing only these may use capacity-axis partitioning (Tutel-style)
MOE_ONLY_OPS = frozenset({"all_to_all", "expert_ffn"})


def range_is_moe_only(instrs: list[Instruction]) -> bool:
    """Paper Sec. 5.2: capacity-axis rules apply iff the range covers only
    the all-to-all and expert computation."""
    return bool(instrs) and all(i.op in MOE_ONLY_OPS for i in instrs)


class AxisProblem:
    """The axis-inference constraint problem of one range, grown in place.

    Holds one domain per value (in first-seen order), each instruction's
    rule list pruned to the current domains, and a value -> instruction
    user index.  :meth:`extend` appends instructions at the range's end
    and propagates arc consistency from the new instructions only;
    :meth:`solve` backtracks over the values still ambiguous.

    Extending ``[i, n)`` to ``[i, n')`` gives exactly the problem a
    from-scratch build of ``[i, n')`` would: producers precede consumers,
    so appended instructions never change which values enter the range;
    the arc-consistency fixpoint is unique, and each pruned rule list is
    the original list filtered by the final domains; and domains keep the
    from-scratch insertion order, so backtracking picks the same axes.
    Moving the range's start is not incremental (entry domains change).

    Domain sets and rule lists are replaced, never mutated, so a copy of
    the two containers is an independent snapshot.
    """

    __slots__ = (
        "program",
        "ctx",
        "instrs",
        "operands",
        "rules",
        "domains",
        "users",
        "feasible",
        "steps",
    )

    def __init__(self, program: Program, ctx: RuleContext) -> None:
        self.program = program
        self.ctx = ctx
        self.instrs: list[Instruction] = []
        #: per instruction: its input then output value ids
        self.operands: list[tuple[int, ...]] = []
        #: per instruction: live rules as flat (input + output) axis tuples
        self.rules: list[list[tuple[int, ...]]] = []
        self.domains: dict[int, set[int]] = {}
        self.users: dict[int, list[int]] = {}
        #: False once propagation proved the range (and every extension
        #: of it) unpartitionable
        self.feasible = True
        #: instruction revisions run by propagation, search included
        self.steps = 0

    def extend(self, instrs: list[Instruction]) -> "AxisProblem":
        """Append ``instrs`` to the range and propagate from them."""
        if not self.feasible:
            return self
        program = self.program
        domains = self.domains
        users = self.users
        queue: list[int] = []
        for ins in instrs:
            j = len(self.instrs)
            in_types = [program.type_of(v) for v in ins.inputs]
            out_types = [program.type_of(v) for v in ins.outputs]
            cands = rules_for(ins, in_types, out_types, self.ctx)
            if not cands:
                self.feasible = False
                return self
            vids = (*ins.inputs, *ins.outputs)
            n_in = len(ins.inputs)
            for pos, (vid, t) in enumerate(zip(vids, in_types + out_types)):
                if vid in domains:
                    if users[vid][-1] != j:
                        users[vid].append(j)
                    continue
                full = set(range(t.rank)) | {NP, IRR}
                if pos < n_in:
                    # first seen as an input: produced outside the range
                    full &= entry_domain(t, is_route_type(t))
                domains[vid] = full
                users[vid] = [j]
            self.instrs.append(ins)
            self.operands.append(vids)
            self.rules.append([ia + oa for ia, oa in cands])
            queue.append(j)
        if not self._propagate(queue):
            self.feasible = False
        return self

    def _propagate(self, queue: list[int]) -> bool:
        """Worklist (AC-3) propagation from the instructions in ``queue``
        to the fixpoint; False when a domain or rule list empties."""
        domains = self.domains
        rules = self.rules
        operands = self.operands
        users = self.users
        queued = set(queue)
        head = 0
        while head < len(queue):
            j = queue[head]
            head += 1
            queued.discard(j)
            self.steps += 1
            vids = operands[j]
            cands = rules[j]
            live = [
                r
                for r in cands
                if all(a in domains[v] for v, a in zip(vids, r))
            ]
            if not live:
                return False
            if len(live) != len(cands):
                rules[j] = live
            for pos, vid in enumerate(vids):
                dom = domains[vid]
                if len(dom) == 1:
                    continue
                narrowed = dom & {r[pos] for r in live}
                if len(narrowed) == len(dom):
                    continue
                if not narrowed:
                    return False
                domains[vid] = narrowed
                # j itself needs another pass only when vid is also
                # another of its operands
                for u in users[vid]:
                    if u not in queued and (u != j or vids.count(vid) > 1):
                        queued.add(u)
                        queue.append(u)
        return True

    def solve(self) -> InferenceResult | None:
        """Preference-ordered backtracking over the ambiguous values.

        Leaves the problem unchanged, so it can be extended afterwards.
        """
        if not self.feasible or not self.instrs:
            return None
        domains = self.domains
        order = [v for v, d in domains.items() if len(d) > 1]
        if order:
            trial = copy.copy(self)
            trial.domains = dict(domains)
            trial.rules = list(self.rules)
            trial.steps = 0
            found = trial._search(order, 0)
            self.steps += trial.steps
            if not found:
                return None
            domains = trial.domains

        axes = {v: next(iter(d)) for v, d in domains.items()}

        # sanity: every instruction must actually be partitioned
        for ins in self.instrs:
            if all(axes.get(o, NP) == NP for o in ins.outputs):
                return None
        return InferenceResult(axes=axes, moe_only=self.ctx.moe_only)

    def _search(self, order: list[int], idx: int) -> bool:
        """Assign ``order[idx:]`` in preference order, propagating each
        choice; restores the snapshot before trying the next axis."""
        while idx < len(order) and len(self.domains[order[idx]]) == 1:
            idx += 1
        if idx == len(order):
            return True
        vid = order[idx]
        snapshot_domains = dict(self.domains)
        snapshot_rules = list(self.rules)
        for axis in sorted(self.domains[vid], key=_pref):
            self.domains[vid] = {axis}
            if self._propagate(list(self.users[vid])) and self._search(
                order, idx + 1
            ):
                return True
            self.domains = dict(snapshot_domains)
            self.rules = list(snapshot_rules)
        return False


def infer_axes(
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
    return AxisProblem(program, ctx).extend(instrs).solve()
