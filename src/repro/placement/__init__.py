"""Expert placement & replication optimizer (ROADMAP placement pass).

Lancet reschedules *around* routing skew; this package moves the skew
itself.  An :class:`ExpertPlacement` reassigns each MoE expert to a
device -- and can *replicate* ("shadow") hot experts across several
devices, splitting their traffic by fixed fractions -- so the realized
all-to-all pair-bytes matrix flattens before the scheduler ever sees it.
:class:`PlacementOptimizer` searches placements greedily to minimize the
bottleneck a2a phase under a :class:`~repro.runtime.ClusterSpec`'s
hierarchical network model (intra-node moves are nearly free; the NIC is
where placement wins), differentially verified against the brute-force
reference in :mod:`repro.placement.reference`.  The trace-replay drill
in :mod:`repro.placement.replay` prices migrations (one-off weight
transfer vs. steady-state win) over recorded dispatch-count sequences,
mirroring the ExpertMigration replay-evaluation methodology.

Threading through the stack: :meth:`RoutingSignature.remap
<repro.runtime.RoutingSignature.remap>` folds a placement's traffic
splits into the signature, :class:`~repro.core.LancetOptimizer`
accepts ``placement=`` and plans against the remapped signatures,
:class:`~repro.train.ReoptimizingTrainer` triggers priced migrations on
drift (``placement_optimizer=``), and :class:`~repro.api.Plan` /
:class:`~repro.api.PlanStore` serialize the placement and qualify store
keys by its fingerprint.
"""

from .model import (
    ExpertPlacement,
    PlacedRoutingModel,
    normalize_placement,
    placement_for,
    placement_map_fingerprint,
    placement_map_from_json,
    placement_map_is_identity,
    placement_map_to_json,
)
from .optimizer import (
    GREEDY_BOUND,
    PlacementMove,
    PlacementOptimizer,
    PlacementResult,
    migration_cost_ms,
    migration_pays_off,
)
from .reference import brute_force_placement, remap_pair_bytes_reference
from .replay import MigrationEvent, ReplayReport, replay_trace

__all__ = [
    "ExpertPlacement",
    "GREEDY_BOUND",
    "MigrationEvent",
    "PlacedRoutingModel",
    "PlacementMove",
    "PlacementOptimizer",
    "PlacementResult",
    "ReplayReport",
    "brute_force_placement",
    "migration_cost_ms",
    "migration_pays_off",
    "normalize_placement",
    "placement_for",
    "placement_map_fingerprint",
    "placement_map_from_json",
    "placement_map_is_identity",
    "placement_map_to_json",
    "remap_pair_bytes_reference",
    "replay_trace",
]
