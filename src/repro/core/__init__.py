"""Lancet core: the paper's contribution, as compiler passes over the IR."""

from .cache import LRUCache
from .comm_priority import GradSyncDeferPass
from .cost_model import CommCostModel, CostEstimator
from .dw_schedule import (
    A2AOverlapRecord,
    DWLabelling,
    DWScheduleReport,
    WeightGradSchedulePass,
    legalize_order,
)
from .lancet import LancetOptimizer, LancetReport
from .partition import (
    DPResult,
    InferenceResult,
    OperatorPartitionPass,
    PlannerState,
    RangePlan,
    infer_axes,
    plan_partitions,
)
from .policy import PlanPolicy
from .profiler import CachingOpProfiler

__all__ = [
    "A2AOverlapRecord",
    "CachingOpProfiler",
    "CommCostModel",
    "CostEstimator",
    "DPResult",
    "DWLabelling",
    "DWScheduleReport",
    "GradSyncDeferPass",
    "InferenceResult",
    "LRUCache",
    "LancetOptimizer",
    "LancetReport",
    "OperatorPartitionPass",
    "PlanPolicy",
    "PlannerState",
    "RangePlan",
    "WeightGradSchedulePass",
    "infer_axes",
    "legalize_order",
    "plan_partitions",
]
