"""Trace-replay evaluation of placement migrations.

The ExpertMigration-style drill: walk a recorded dispatch-count trace
step by step, re-optimizing the placement as the routing distribution
drifts and *pricing* each candidate switch -- a migration only happens
when its steady-state win over ``horizon_steps`` exceeds the one-off
weight-transfer cost.  The report pairs the adaptive trajectory with
the stay-on-identity baseline over the *same* trace, so "did migrating
help, net of its cost?" is answerable from one replay.

:class:`MigrationEvent` is the telemetry record shared with
:class:`~repro.train.ReoptimizingTrainer`, and
:func:`~repro.placement.migration_pays_off` the pricing rule: the
trainer emits the same events, decided by the same predicate, when its
live drift detector triggers a priced migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ExpertPlacement
from .optimizer import (
    PlacementOptimizer,
    migration_cost_ms,
    migration_pays_off,
)


@dataclass(frozen=True)
class MigrationEvent:
    """One priced placement-switch decision.

    Emitted whether or not the switch was taken: ``migrated`` records
    the verdict, and the before/after costs plus ``migration_cost_ms``
    record the pricing inputs, so rejected migrations are auditable too.
    ``layer`` is the MoE layer key (``None`` for an aggregate decision
    across layers, as the trainer emits); ``moved_experts`` then holds
    ``(layer, expert)`` pairs instead of bare expert ids.
    """

    step: int
    layer: object
    moved_experts: tuple
    replicated_experts: tuple
    bottleneck_before_ms: float
    bottleneck_after_ms: float
    migration_cost_ms: float
    horizon_steps: int
    migrated: bool

    @property
    def win_ms(self) -> float:
        """Per-step modeled win of the candidate placement."""
        return self.bottleneck_before_ms - self.bottleneck_after_ms

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "layer": self.layer,
            "moved_experts": list(self.moved_experts),
            "replicated_experts": list(self.replicated_experts),
            "bottleneck_before_ms": self.bottleneck_before_ms,
            "bottleneck_after_ms": self.bottleneck_after_ms,
            "migration_cost_ms": self.migration_cost_ms,
            "horizon_steps": self.horizon_steps,
            "migrated": self.migrated,
        }


@dataclass
class ReplayReport:
    """Outcome of :func:`replay_trace` over one recorded trace.

    ``identity_ms[i]`` / ``adaptive_ms[i]`` are the modeled bottleneck
    a2a times of step ``i`` under the identity placement vs. the
    adaptive policy; adaptive entries *include* the amortized weight
    transfer on the step a migration fired, so the totals compare
    honestly.
    """

    identity_ms: list[float] = field(default_factory=list)
    adaptive_ms: list[float] = field(default_factory=list)
    events: list[MigrationEvent] = field(default_factory=list)
    final_placement: ExpertPlacement | None = None

    @property
    def total_identity_ms(self) -> float:
        return float(sum(self.identity_ms))

    @property
    def total_adaptive_ms(self) -> float:
        return float(sum(self.adaptive_ms))

    @property
    def improvement_ms(self) -> float:
        """Net win of the adaptive policy (migration costs included)."""
        return self.total_identity_ms - self.total_adaptive_ms

    @property
    def improvement(self) -> float:
        """Fractional net win over the identity baseline."""
        if self.total_identity_ms <= 0.0:
            return 0.0
        return self.improvement_ms / self.total_identity_ms

    @property
    def migrations(self) -> list[MigrationEvent]:
        """The events whose priced switch was actually taken."""
        return [ev for ev in self.events if ev.migrated]


def replay_trace(
    trace,
    cluster,
    *,
    bytes_per_token: float = 1.0,
    expert_weight_bytes: float,
    horizon_steps: int = 50,
    optimizer: PlacementOptimizer | None = None,
    replan_every: int = 1,
) -> ReplayReport:
    """Replay a recorded dispatch-count trace under priced migrations.

    ``trace`` is a sequence of ``[num_gpus, num_experts]`` dispatch-count
    matrices (one per training step).  Every ``replan_every`` steps the
    optimizer searches for a better placement starting from the current
    one; a switch is taken only when :func:`~repro.placement
    .migration_pays_off` says so -- the pricing rule
    :class:`~repro.train.ReoptimizingTrainer` applies live.
    """
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    if replan_every < 1:
        raise ValueError("replan_every must be >= 1")
    opt = optimizer if optimizer is not None else PlacementOptimizer(cluster)
    report = ReplayReport()
    current: ExpertPlacement | None = None
    identity: ExpertPlacement | None = None
    for step, counts in enumerate(trace):
        counts = np.asarray(counts)
        if identity is None:
            g, e = counts.shape
            identity = ExpertPlacement.identity(e, g)
            current = identity
        identity_ms = opt.cost_ms(identity, counts, bytes_per_token)
        step_ms = opt.cost_ms(current, counts, bytes_per_token)
        if step % replan_every == 0:
            result = opt.optimize(counts, bytes_per_token, start=current)
            candidate = result.placement
            if candidate != current:
                before_ms = step_ms
                after_ms = result.bottleneck_ms
                cost = migration_cost_ms(
                    current, candidate, cluster, expert_weight_bytes
                )
                migrated = migration_pays_off(
                    before_ms - after_ms, horizon_steps, cost
                )
                report.events.append(
                    MigrationEvent(
                        step=step,
                        layer=None,
                        moved_experts=candidate.moved_experts(current),
                        replicated_experts=candidate.replicated_experts,
                        bottleneck_before_ms=before_ms,
                        bottleneck_after_ms=after_ms,
                        migration_cost_ms=cost,
                        horizon_steps=horizon_steps,
                        migrated=migrated,
                    )
                )
                if migrated:
                    current = candidate
                    # charge the transfer to the step that performed it
                    step_ms = after_ms + cost
        report.identity_ms.append(identity_ms)
        report.adaptive_ms.append(step_ms)
    report.final_placement = current
    return report
