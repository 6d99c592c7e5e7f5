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

Only step 2's all-to-all budgets depend on the routing signature.  A
:class:`DWLabelling` handed to the pass keeps step 1 (and the dW
durations and dependency edges) across re-plans of one program, so a
warm re-plan re-prices the all-to-alls, reruns the greedy and
legalizes over the kept edges.
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
    producer_of: dict[int, int] = {}
    for i, ins in enumerate(desired):
        for o in ins.outputs:
            producer_of[o] = i
    succs: list[list[int]] = [[] for _ in desired]
    num_preds = []
    for i, ins in enumerate(desired):
        need = {producer_of.get(v, i) for v in ins.inputs}
        need.discard(i)
        for p in need:
            succs[p].append(i)
        num_preds.append(len(need))
    order = _earliest_first(succs, num_preds, list(range(len(desired))))
    return [desired[i] for i in order]


def _earliest_first(
    succs: list[list[int]], num_preds: list[int], rank: list[int]
) -> list[int]:
    """The list scheduling behind :func:`legalize_order`, over nodes
    ``0..n-1`` with distinct ranks: a node is ready once its
    ``num_preds`` distinct predecessors are placed, and the ready node
    of lowest ``rank`` goes first.  Returns the nodes in placement
    order."""
    node_at = [0] * len(rank)
    for i, r in enumerate(rank):
        node_at[r] = i
    pending = list(num_preds)
    ready = [rank[i] for i, n in enumerate(pending) if not n]
    heapq.heapify(ready)
    out = []
    while ready:
        i = node_at[heapq.heappop(ready)]
        out.append(i)
        for j in succs[i]:  # release dependents
            pending[j] -= 1
            if not pending[j]:
                heapq.heappush(ready, rank[j])
    if len(out) != len(pending):
        raise RuntimeError("cycle detected while legalizing schedule")
    return out


def _distinct_edges(graph: DependencyGraph) -> tuple[list[list[int]], list[int]]:
    """``(successors, predecessor count)`` per node, each edge once."""
    succs: list[list[int]] = [[] for _ in range(graph.n)]
    num_preds = []
    for j, preds in enumerate(graph.pred):
        distinct = set(preds)
        for i in distinct:
            succs[i].append(j)
        num_preds.append(len(distinct))
    return succs, num_preds


class DWLabelling:
    """The routing-independent half of the dW pass for one program.

    Holds the all-to-all and dW positions, each all-to-all's
    compatible-dW mask ``W_Ia`` (Sec. 4.1), the dW durations, and the
    distinct dependency edges :meth:`legalized` sorts over.  None of it
    reads the routing signature: the masks come from the dependency
    graph, a dW's price from the op profiler.  It is valid for one
    instruction sequence priced by one estimator: :meth:`prepare`
    compares the program's instructions with the ones it labelled and
    rebuilds on any difference, so a stale labelling can cost time but
    never correctness.
    """

    def __init__(self) -> None:
        #: the instruction sequence labelled (None before the first)
        self.instrs: list[Instruction] | None = None
        self.a2a_pos: list[int] = []
        self.dw_pos = np.zeros(0, dtype=np.int64)
        #: per all-to-all, the mask of compatible dWs over ``dw_pos``
        self.compatible: list[np.ndarray] = []
        #: distinct dependency edges by position, for :meth:`legalized`
        self.succs: list[list[int]] = []
        self.num_preds: list[int] = []
        self.t_dw = np.zeros(0)
        #: labellings built (cold ones and rebuilds after a mismatch)
        self.rebuilds = 0

    def prepare(self, program: Program, costs: CostEstimator) -> bool:
        """Label ``program`` unless it is the one labelled last; returns
        True when the labelling was reused."""
        instrs = program.instructions
        if instrs == self.instrs:
            return True
        graph = DependencyGraph.from_program(program)
        n = len(instrs)
        self.a2a_pos = [i for i in range(n) if instrs[i].op == "all_to_all"]
        self.dw_pos = np.array(
            [i for i in range(n) if instrs[i].kind == InstrKind.DW],
            dtype=np.int64,
        )
        self.compatible, self.t_dw = [], np.zeros(0)
        self.succs, self.num_preds = _distinct_edges(graph)
        if self.a2a_pos and len(self.dw_pos):
            self.compatible = [
                graph.independent_set(a, self.dw_pos) for a in self.a2a_pos
            ]
            self.t_dw = np.array(
                [costs.duration_ms(instrs[i], program) for i in self.dw_pos]
            )
        self.instrs = list(instrs)
        self.rebuilds += 1
        return False

    def legalized(self, assignment: dict[int, list[int]]) -> list[Instruction]:
        """The legal order that places each assigned dW right after its
        all-to-all (``assignment``: a2a position -> dW positions, in the
        greedy's order): :func:`legalize_order` over the labelled
        dependency edges."""
        moved = {p for lst in assignment.values() for p in lst}
        desired: list[int] = []
        for pos in range(len(self.instrs)):
            if pos in moved:
                continue
            desired.append(pos)
            desired.extend(assignment.get(pos, ()))  # keep best-fit order
        rank = [0] * len(desired)
        for r, pos in enumerate(desired):
            rank[pos] = r
        order = _earliest_first(self.succs, self.num_preds, rank)
        return [self.instrs[pos] for pos in order]


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

    def __init__(
        self,
        costs: CostEstimator,
        strategy: str = "best_fit",
        labels: DWLabelling | None = None,
    ) -> None:
        if strategy not in DW_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick from {DW_STRATEGIES}"
            )
        self.costs = costs
        self.strategy = strategy
        #: the labelling to reuse across runs (the optimizer keeps one
        #: per program); None labels afresh on every run
        self.labels = labels
        self.report = DWScheduleReport()

    def run(self, program: Program) -> Program:
        labels = self.labels if self.labels is not None else DWLabelling()
        labels.prepare(program, self.costs)
        instrs = program.instructions
        dw_pos = labels.dw_pos
        self.report = DWScheduleReport(
            num_dw_total=len(dw_pos),
            skew_aware=bool(self.costs.signatures),
        )
        if not labels.a2a_pos or len(dw_pos) == 0:
            return program

        t_dw = labels.t_dw
        used = np.zeros(len(dw_pos), dtype=bool)
        assignment: dict[int, list[int]] = {}

        for a, compatible in zip(labels.a2a_pos, labels.compatible):
            # Sec. 4.1: W_Ia = dWs with no path to/from the all-to-all
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
        program.replace_order(labels.legalized(assignment))
        return program
