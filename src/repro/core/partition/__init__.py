"""Operator partition pass: axis inference, pipeline scheduling, DP."""

from .axis_inference import (
    InferenceResult,
    MOE_ONLY_OPS,
    infer_axes,
    range_is_moe_only,
)
from .dp import (
    ConsumerIndex,
    DPResult,
    Group,
    PlannerState,
    RangePlan,
    build_groups,
    forward_length,
    max_range_for,
    plan_partitions,
)
from .pass_ import OperatorPartitionPass
from .pipeline import (
    PlanCaches,
    RangeContext,
    Stage,
    build_stages,
    chunk_type,
    max_feasible_parts,
)
from .rewriter import apply_plan, apply_plans
from .rules import RuleContext, entry_domain, rules_for

__all__ = [
    "ConsumerIndex",
    "DPResult",
    "Group",
    "InferenceResult",
    "MOE_ONLY_OPS",
    "OperatorPartitionPass",
    "PlanCaches",
    "PlannerState",
    "RangeContext",
    "RangePlan",
    "RuleContext",
    "Stage",
    "apply_plan",
    "apply_plans",
    "build_groups",
    "build_stages",
    "chunk_type",
    "entry_domain",
    "forward_length",
    "infer_axes",
    "max_feasible_parts",
    "max_range_for",
    "plan_partitions",
    "range_is_moe_only",
    "rules_for",
]
