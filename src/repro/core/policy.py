"""The planner's knobs, declared once.

Lancet's passes are pass-manager toggles (the Fig. 16 ablation switches
them) plus the rho / gamma / iota pruning knobs of the partition DP
(Sec. 6).  :class:`PlanPolicy` holds all of them.  The optimizer, the
operator partition pass, the DP and the Lancet baseline read their
knobs from it, and a plan records it as part of its identity
(re-exported as :class:`repro.api.PlanPolicy`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class PlanPolicy:
    """The optimizer knobs a plan is produced under.

    Part of the plan's identity: the same graph compiled under different
    policies yields different store entries.
    """

    #: run the weight-gradient schedule pass (paper Sec. 4)
    enable_dw_schedule: bool = True
    #: run the operator partition pass (paper Sec. 5)
    enable_partition: bool = True
    #: Lina-style all-to-all priority: defer gradient all-reduce
    defer_allreduce: bool = False
    #: per-collective flat vs 2-hop hierarchical all-to-all choice
    enable_hierarchical_a2a: bool = False
    #: condition the plan on the scenario's realized routing signatures
    #: (False plans against the uniform static-shape approximation);
    #: read by the compiler, which decides what the optimizer is given
    skew_aware: bool = True
    #: rho -- largest partition count the DP considers
    max_partitions: int = 8
    #: gamma -- target execution time per instruction group (``None``
    #: picks it so that ~5 groups separate consecutive MoE layers, the
    #: paper's experimental setting)
    group_ms: float | None = None
    #: iota -- longest candidate range in groups (``None`` derives it
    #: from the spacing between MoE layers: one pipeline per MoE layer)
    max_range_groups: int | None = None

    @property
    def k_candidates(self) -> list[int]:
        """Partition counts the DP evaluates (powers of two up to rho)."""
        ks = []
        k = 2
        while k <= self.max_partitions:
            ks.append(k)
            k *= 2
        return ks

    @property
    def partition_key(self) -> tuple:
        """The knobs the DP's instruction grouping depends on: a warm
        :class:`~repro.core.partition.PlannerState` regroups when they
        change."""
        return (self.max_partitions, self.group_ms, self.max_range_groups)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> PlanPolicy:
        return cls(**obj)

    def make_optimizer(self, cluster, framework=None, signatures=None):
        """A :class:`~repro.core.LancetOptimizer` planning under this
        policy (``framework`` defaults to the compiled stack)."""
        from ..runtime.device import COMPILED

        # resolved at call time, so a patched class is what gets built
        from . import lancet

        return lancet.LancetOptimizer(
            cluster,
            framework or COMPILED,
            policy=self,
            routing_signatures=signatures,
        )
