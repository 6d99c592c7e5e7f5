"""Simulated distributed runtime: devices, network, collectives, executors.

Substitutes for the paper's multi-GPU clusters (see DESIGN.md): an
analytic GPU/network performance model drives a discrete-event timed
simulation, while a numpy interpreter provides numerically exact
execution for equivalence testing.
"""

from .cluster import ClusterSpec
from .collectives import (
    all_to_all_dense,
    all_to_all_irregular,
    allreduce_sum,
    device_byte_loads,
    hierarchical_all_to_all,
)
from .device import (
    A100,
    COMPILED,
    DEEPSPEED,
    FRAMEWORK_PROFILES,
    TUTEL,
    V100,
    FrameworkProfile,
    GPUSpec,
)
from .batch import (
    BatchClusterResult,
    ScenarioPack,
    pack_scenarios,
    simulate_scenarios,
)
from .executor import DeviceEnv, NumericExecutor, run_program
from .routing_model import (
    RoutingSignature,
    SyntheticRoutingModel,
    UniformRoutingModel,
)
from .simulate import (
    GroundTruthCost,
    SimulationConfig,
    observed_routing_signatures,
    simulate_cluster,
    simulate_cluster_batch,
    simulate_program,
)
from .topology import HierarchicalTiming, HierarchicalTraffic, Topology
from .timeline import (
    Breakdown,
    ClusterTimeline,
    Interval,
    Timeline,
    intersect_length,
    merge_intervals,
    total_length,
)
from .visualize import (
    imbalance_summary,
    overlap_summary,
    render_cluster_timeline,
    render_timeline,
)

__all__ = [
    "A100",
    "BatchClusterResult",
    "Breakdown",
    "COMPILED",
    "ClusterSpec",
    "ClusterTimeline",
    "DEEPSPEED",
    "DeviceEnv",
    "FRAMEWORK_PROFILES",
    "FrameworkProfile",
    "GPUSpec",
    "GroundTruthCost",
    "HierarchicalTiming",
    "HierarchicalTraffic",
    "Interval",
    "NumericExecutor",
    "RoutingSignature",
    "ScenarioPack",
    "SimulationConfig",
    "SyntheticRoutingModel",
    "TUTEL",
    "Timeline",
    "Topology",
    "UniformRoutingModel",
    "V100",
    "all_to_all_dense",
    "all_to_all_irregular",
    "allreduce_sum",
    "device_byte_loads",
    "hierarchical_all_to_all",
    "imbalance_summary",
    "intersect_length",
    "merge_intervals",
    "observed_routing_signatures",
    "overlap_summary",
    "pack_scenarios",
    "render_cluster_timeline",
    "render_timeline",
    "run_program",
    "simulate_cluster",
    "simulate_cluster_batch",
    "simulate_program",
    "simulate_scenarios",
    "total_length",
]
