"""Weight Gradient Computation Schedule Pass (paper Sec. 4, Alg. 1).

Weight-gradient (dW) computations are leaves of the backward dependency
graph: nothing in the backward chain consumes them (Fig. 3a), so they can
be delayed to run concurrently with all-to-all communication.  The pass:

1. **Labelling** (Sec. 4.1): for every all-to-all ``Ia``, compute the set
   ``W_Ia`` of dW instructions with no directed path to or from ``Ia``
   (via the transitive closure of the dependency graph).
2. **Scheduling** (Sec. 4.2): the assignment of dWs to all-to-alls is a
   generalized assignment problem (NP-hard), so a best-fit greedy is
   used: walk the all-to-alls in program order, and for each one pick
   still-unassigned compatible dWs whose duration best matches the
   remaining un-overlapped all-to-all time.
3. **Reordering**: place each chosen dW right after its all-to-all, then
   legalize (dependents such as gradient all-reduces are deferred past
   the moved dW by a priority topological sort).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..ir import DependencyGraph, Instruction, InstrKind, Pass, Program
from .cost_model import CostEstimator


@dataclass
class A2AOverlapRecord:
    """Planning record for one all-to-all."""

    a2a_uid: int
    a2a_ms: float
    assigned_uids: list[int] = field(default_factory=list)
    assigned_ms: float = 0.0

    @property
    def planned_overlap_ms(self) -> float:
        """Overlap the greedy expects (capped at the all-to-all time)."""
        return min(self.a2a_ms, self.assigned_ms)


@dataclass
class DWScheduleReport:
    """Outcome of the pass, for inspection and the ablation study."""

    records: list[A2AOverlapRecord] = field(default_factory=list)
    num_dw_total: int = 0
    num_dw_moved: int = 0
    #: True when all-to-all durations (the overlap budgets) were priced
    #: against observed routing signatures -- a skewed realization means
    #: longer all-to-alls and therefore room for more dW overlap
    skew_aware: bool = False

    @property
    def total_planned_overlap_ms(self) -> float:
        return sum(r.planned_overlap_ms for r in self.records)


def legalize_order(
    program: Program, desired: list[Instruction]
) -> list[Instruction]:
    """Topologically sort ``desired`` keeping its order where legal.

    Greedy list scheduling: instructions become ready once all their
    producers are placed; among ready instructions, the one earliest in
    ``desired`` goes first.  Needed because moving a dW later must also
    push its consumers (e.g. the gradient all-reduce) after it.
    """
    idx_of = {ins.uid: i for i, ins in enumerate(desired)}
    producer_of: dict[int, int] = {}
    for ins in desired:
        for o in ins.outputs:
            producer_of[o] = ins.uid

    blockers: dict[int, set[int]] = {}
    dependents: dict[int, list[int]] = {}
    for ins in desired:
        need = set()
        for v in ins.inputs:
            p = producer_of.get(v)
            if p is not None and p != ins.uid:
                need.add(p)
        blockers[ins.uid] = need
        for p in need:
            dependents.setdefault(p, []).append(ins.uid)

    by_uid = {ins.uid: ins for ins in desired}
    ready = [idx_of[ins.uid] for ins in desired if not blockers[ins.uid]]
    heapq.heapify(ready)
    out: list[Instruction] = []
    while ready:
        i = heapq.heappop(ready)
        ins = desired[i]
        out.append(ins)
        for dep_uid in dependents.get(ins.uid, ()):  # release dependents
            b = blockers[dep_uid]
            b.discard(ins.uid)
            if not b:
                heapq.heappush(ready, idx_of[dep_uid])
    if len(out) != len(desired):
        raise RuntimeError("cycle detected while legalizing schedule")
    return out


#: alternative greedy selection strategies, for the design-choice ablation
#: (the paper uses best-fit; `benchmarks/bench_ablation_dw_strategy.py`
#: quantifies why)
DW_STRATEGIES = ("best_fit", "first_fit", "largest_first")


class WeightGradSchedulePass(Pass):
    """Best-fit greedy dW-to-all-to-all overlap scheduling (Alg. 1).

    Parameters
    ----------
    costs:
        Cost oracle for instruction durations.
    strategy:
        How the next dW is chosen for the remaining un-overlapped time
        ``tu``: ``best_fit`` (paper Alg. 1: minimize ``|tu - t_dW|``),
        ``first_fit`` (earliest compatible dW in program order) or
        ``largest_first`` (largest remaining dW).
    """

    name = "weight-grad-schedule"

    def __init__(self, costs: CostEstimator, strategy: str = "best_fit") -> None:
        if strategy not in DW_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick from {DW_STRATEGIES}"
            )
        self.costs = costs
        self.strategy = strategy
        self.report = DWScheduleReport()

    def run(self, program: Program) -> Program:
        instrs = program.instructions
        n = len(instrs)
        graph = DependencyGraph.from_program(program)

        a2a_pos = [i for i in range(n) if instrs[i].op == "all_to_all"]
        dw_pos = np.array(
            [i for i in range(n) if instrs[i].kind == InstrKind.DW], dtype=np.int64
        )
        self.report = DWScheduleReport(
            num_dw_total=len(dw_pos),
            skew_aware=bool(self.costs.signatures),
        )
        if not a2a_pos or len(dw_pos) == 0:
            return program

        t_dw = np.array(
            [self.costs.duration_ms(instrs[i], program) for i in dw_pos]
        )

        used = np.zeros(len(dw_pos), dtype=bool)
        assignment: dict[int, list[int]] = {}

        for a in a2a_pos:
            # Sec. 4.1: W_Ia = dWs with no path to/from the all-to-all
            compatible = graph.independent_set(a, dw_pos)
            t_a = self.costs.duration_ms(instrs[a], program)
            rec = A2AOverlapRecord(a2a_uid=instrs[a].uid, a2a_ms=t_a)
            tu = t_a
            chosen: list[int] = []
            while tu > 0:
                avail = np.nonzero(compatible & ~used)[0]
                if avail.size == 0:
                    break
                if self.strategy == "best_fit":
                    # paper Alg. 1 line 18: minimize |tu - t_dw|
                    j = avail[np.argmin(np.abs(tu - t_dw[avail]))]
                elif self.strategy == "first_fit":
                    j = avail[0]  # dw_pos is in program order
                else:  # largest_first
                    j = avail[np.argmax(t_dw[avail])]
                used[j] = True
                tu -= t_dw[j]
                chosen.append(int(dw_pos[j]))
                rec.assigned_uids.append(instrs[dw_pos[j]].uid)
                rec.assigned_ms += float(t_dw[j])
            if chosen:
                assignment[a] = chosen
            self.report.records.append(rec)

        self.report.num_dw_moved = int(used.sum())
        if not assignment:
            return program

        # Reorder: drop moved dWs from their original slots and replay
        # them right after their assigned all-to-all.
        moved = {p for lst in assignment.values() for p in lst}
        desired: list[Instruction] = []
        for pos, ins in enumerate(instrs):
            if pos in moved:
                continue
            desired.append(ins)
            for p in assignment.get(pos, ()):  # keep best-fit order
                desired.append(instrs[p])

        program.replace_order(legalize_order(program, desired))
        return program
