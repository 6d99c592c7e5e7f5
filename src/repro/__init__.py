"""repro: a reproduction of Lancet (MLSys 2024).

Lancet accelerates Mixture-of-Experts training by overlapping all-to-all
communication with computation across the *whole* training graph: weight-
gradient computations are rescheduled to hide backward-pass all-to-alls,
and non-MoE forward computation is partitioned into a computation/
communication pipeline around each MoE layer.

Typical usage -- the :mod:`repro.api` facade::

    from repro import PlanStore, Scenario, compile

    plan = compile(Scenario.preset("gpt2-s-moe/a100x16"),
                   store=PlanStore("plans/"))
    timeline = plan.simulate()

The pre-facade entry points remain supported unchanged (the facade
composes them)::

    from repro import (
        GPT2MoEConfig, build_training_graph, ClusterSpec, LancetOptimizer,
        SimulationConfig, simulate_program,
    )

    graph = build_training_graph(GPT2MoEConfig.gpt2_s_moe(),
                                 batch=24, seq=512, num_gpus=16)
    cluster = ClusterSpec.p4de(2)
    optimized, report = LancetOptimizer(cluster).optimize(graph)
"""

__version__ = "1.5.0"

from .api import (
    Plan,
    PlanError,
    PlanPolicy,
    PlanSchemaError,
    PlanStore,
    Scenario,
    compile,
    graph_fingerprint,
    load_plan,
)
from .core import (
    LancetOptimizer,
    LancetReport,
    OperatorPartitionPass,
    WeightGradSchedulePass,
)
from .ir import InstrKind, PassManager, Program, validate
from .models import GPT2MoEConfig, ModelGraph, RunConfig, build_training_graph
from .runtime import (
    ClusterSpec,
    ClusterTimeline,
    RoutingSignature,
    SimulationConfig,
    SyntheticRoutingModel,
    Timeline,
    Topology,
    UniformRoutingModel,
    simulate_cluster,
    simulate_program,
)
from .faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    StragglerDetector,
    derive_degraded,
)
from .placement import (
    ExpertPlacement,
    MigrationEvent,
    PlacementOptimizer,
    PlacementResult,
)
from .serving import HotSwapEvent, PlanServer, ServeResult, compile_many
from .train import ReoptimizingTrainer, Trainer

__all__ = [
    "ClusterSpec",
    "ClusterTimeline",
    "FaultInjector",
    "FaultSchedule",
    "ExpertPlacement",
    "FaultSpec",
    "GPT2MoEConfig",
    "HotSwapEvent",
    "InstrKind",
    "LancetOptimizer",
    "LancetReport",
    "MigrationEvent",
    "ModelGraph",
    "OperatorPartitionPass",
    "PassManager",
    "Plan",
    "PlanError",
    "PlanPolicy",
    "PlanSchemaError",
    "PlacementOptimizer",
    "PlacementResult",
    "PlanServer",
    "PlanStore",
    "Program",
    "ReoptimizingTrainer",
    "RoutingSignature",
    "RunConfig",
    "Scenario",
    "ServeResult",
    "SimulationConfig",
    "StragglerDetector",
    "SyntheticRoutingModel",
    "Timeline",
    "Topology",
    "Trainer",
    "UniformRoutingModel",
    "WeightGradSchedulePass",
    "build_training_graph",
    "compile",
    "compile_many",
    "derive_degraded",
    "graph_fingerprint",
    "load_plan",
    "simulate_cluster",
    "simulate_program",
    "validate",
    "__version__",
]
