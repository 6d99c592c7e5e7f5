"""The Operator Partition Pass (paper Sec. 5, Fig. 7).

Chains the pieces: DP range selection (:mod:`.dp`) -> axis inference
(:mod:`.axis_inference`) -> pipeline cost (:mod:`.pipeline`) -> IR
rewrite (:mod:`.rewriter`).
"""

from __future__ import annotations

from ...ir import Pass, Program
from ..cost_model import CostEstimator
from ..policy import PlanPolicy
from .dp import DPResult, PlannerState, plan_partitions
from .rewriter import apply_plans


class OperatorPartitionPass(Pass):
    """Partition + pipeline the forward pass around each all-to-all.

    Pass a persistent :class:`PlannerState` to re-plan incrementally
    across optimizer runs (the online re-optimization loop does); without
    one, every run plans cold.  The DP's rho / gamma / iota knobs are
    read from ``policy``.
    """

    name = "operator-partition"

    def __init__(
        self,
        costs: CostEstimator,
        policy: PlanPolicy | None = None,
        state: PlannerState | None = None,
    ) -> None:
        self.costs = costs
        self.policy = policy or PlanPolicy()
        self.state = state
        self.result: DPResult = DPResult()

    def run(self, program: Program) -> Program:
        self.result = plan_partitions(
            program, self.costs, self.policy, state=self.state
        )
        apply_plans(program, self.result.plans, self.state)
        return program
