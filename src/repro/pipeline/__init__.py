"""repro.pipeline: hybrid pipeline-parallel x expert-parallel planning
and simulation.

The flat planner models one SPMD expert-parallel group; this package adds
the stage dimension the ROADMAP calls for: partition the transformer into
pipeline stages, each owning a device subgroup of the base
:class:`~repro.runtime.ClusterSpec`, so all-to-alls stay *within* a stage
while p2p activations cross stages.

- :class:`StageSpec` / :class:`StagedCluster` -- the nested device-group
  topology model (contiguous layer runs on contiguous device slices).
- :class:`P2PCostModel` -- alpha-beta activation-transfer costs over
  stage boundaries (NVLink within a node, NIC share across).
- :func:`gpipe_order` / :func:`one_f_one_b_order` / :func:`schedule_order`
  / :func:`peak_in_flight` -- microbatch schedules (GPipe vs 1F1B behind
  one ablation switch) as per-stage :class:`Job` timelines.
- :func:`split_stages` / :func:`extract_subprogram` / :func:`reassemble`
  -- the stage-partitioner: per-stage forward/backward/tail subprograms
  that the unmodified :class:`~repro.core.LancetOptimizer` plans against
  its stage's subgroup, then stitched back into one flat program.
- :func:`simulate_staged` / :func:`stage_costs` / :class:`StageCosts` --
  the staged simulator composing per-stage segment makespans (priced on
  the representative-device :func:`~repro.runtime.simulate_program`,
  which equals :func:`~repro.runtime.simulate_cluster` bit for bit
  without stragglers) with p2p dependencies into a
  :class:`~repro.runtime.ClusterTimeline`-compatible figure,
  differential-tested bit-for-bit against :func:`replay_reference`.
- :func:`plan_stages` / :class:`StagedPlanResult` / :class:`StageMap` --
  the boundary planner (heuristic ranking + exact simulation + per-stage
  optimization), whose :class:`StageMap` rides inside
  :class:`~repro.api.Plan` artifacts and store keys.
"""

from .p2p import P2PCostModel
from .partition import (
    Segment,
    SplitProgram,
    extract_subprogram,
    reassemble,
    split_stages,
)
from .planner import (
    StagedPlanResult,
    enumerate_layer_counts,
    layer_costs,
    pipeline_bound_ms,
    plan_stages,
)
from .reference import replay_reference
from .schedule import (
    Job,
    gpipe_order,
    one_f_one_b_order,
    peak_in_flight,
    schedule_order,
)
from .simulate import (
    StageCosts,
    StagedSimulation,
    simulate_staged,
    stage_costs,
)
from .stage import SCHEDULES, StagedCluster, StageMap, StageSpec

__all__ = [
    "Job",
    "P2PCostModel",
    "SCHEDULES",
    "Segment",
    "SplitProgram",
    "StageCosts",
    "StageMap",
    "StageSpec",
    "StagedCluster",
    "StagedPlanResult",
    "StagedSimulation",
    "enumerate_layer_counts",
    "extract_subprogram",
    "gpipe_order",
    "layer_costs",
    "one_f_one_b_order",
    "peak_in_flight",
    "pipeline_bound_ms",
    "plan_stages",
    "reassemble",
    "replay_reference",
    "schedule_order",
    "simulate_staged",
    "split_stages",
    "stage_costs",
]
