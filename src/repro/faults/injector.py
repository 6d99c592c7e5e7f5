"""Derive degraded clusters from fault schedules and drive the simulator.

The injector is a *pure derivation*: given a base
:class:`~repro.runtime.simulate.SimulationConfig` and a
:class:`~repro.faults.model.FaultSchedule`, it produces -- per step -- a
degraded :class:`~repro.runtime.cluster.ClusterSpec`, per-device compute
slowdowns, and (under rank loss) a remapped routing model, assembled
into an ordinary :class:`SimulationConfig`.  Faulted timelines are
therefore *bit-identical* to simulating the degraded config directly:
there is no separate faulted simulator to drift out of sync.

Degradation semantics:

- **straggler** faults multiply the target device's compute time
  (``SimulationConfig.straggler_slowdown``, honoured by
  :func:`~repro.runtime.simulate.simulate_cluster` since PR 1).
- **nic_degrade** faults rescale the *cluster-wide* inter-node beta
  (``node_nic_gbps``) and alpha (``alpha_inter_us``) to the worst node's
  remaining fraction: every inter-node byte of the 2-hop exchange
  crosses some node's NIC and the collective completes with the worst
  path (MoNTA's argument), so the worst node's NIC sets the effective
  inter-node bandwidth for everyone.
- **rank_loss** folds the lost rank's data shard and expert ownership
  into a surviving *buddy* rank (next surviving rank on the same node
  when possible): the buddy's compute slows by ``1 + k`` for ``k``
  absorbed shards and the routing pair-bytes matrix has the lost rank's
  rows/columns folded into the buddy's.  The lost rank remains in the
  timeline as a zero-traffic *ghost* at nominal speed -- it never
  bottlenecks a collective, so the cluster makespan is governed by the
  survivors.

For *planning* against a degraded cluster, :attr:`DegradedCluster
.plan_spec` additionally folds the worst surviving compute slowdown
into the GPU model (collectives synchronize on the slowest device, so
the planner should price compute at the straggler's speed).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..runtime.cluster import ClusterSpec
from ..runtime.simulate import (
    SimulationConfig,
    simulate_cluster,
    simulate_cluster_batch,
)
from ..runtime.timeline import ClusterTimeline
from .model import FaultSchedule, FaultSpec


@dataclass
class RemappedRoutingModel:
    """Routing model with lost ranks folded into their buddies.

    Wraps any routing model (sharing its per-layer draw cache, so all
    configs over one schedule see consistent realizations) and rewrites
    the realized traffic: a lost rank dispatches nothing (its tokens now
    live on the buddy) and owns nothing (its experts moved too).
    """

    base: object
    #: (lost_rank, buddy_rank) pairs, applied in order
    fold: tuple[tuple[int, int], ...]

    def counts_for(self, key, num_devices, num_experts, tokens_per_device,
                   capacity, fraction=1.0) -> np.ndarray:
        counts = np.array(
            self.base.counts_for(
                key, num_devices, num_experts, tokens_per_device, capacity,
                fraction,
            )
        )
        for lost, buddy in self.fold:
            counts[buddy] += counts[lost]
            counts[lost] = 0
        return counts

    def pair_bytes_for(self, key, num_devices, num_experts,
                       tokens_per_device, capacity, bytes_per_token,
                       fraction=1.0) -> np.ndarray:
        pair = np.array(
            self.base.pair_bytes_for(
                key, num_devices, num_experts, tokens_per_device, capacity,
                bytes_per_token, fraction,
            )
        )
        for lost, buddy in self.fold:
            pair[buddy, :] += pair[lost, :]   # buddy sends the lost shard
            pair[lost, :] = 0.0
            pair[:, buddy] += pair[:, lost]   # buddy owns the lost experts
            pair[:, lost] = 0.0
        return pair

    def clear(self) -> None:
        self.base.clear()


@dataclass(frozen=True)
class DegradedCluster:
    """A base cluster with a set of faults applied."""

    base: ClusterSpec
    #: network-degraded spec (simulation target; GPU model unscaled --
    #: per-device compute degradation lives in :attr:`slowdowns`)
    spec: ClusterSpec
    #: :attr:`spec` with the worst surviving compute slowdown folded into
    #: the GPU model -- what a planner should compile against
    plan_spec: ClusterSpec
    #: per-device compute multipliers (1.0 = nominal; ghosts stay 1.0)
    slowdowns: tuple[float, ...]
    lost_ranks: tuple[int, ...]
    #: (lost_rank, buddy_rank) takeover pairs
    buddy_of: tuple[tuple[int, int], ...]
    faults: tuple[FaultSpec, ...]

    @property
    def degraded(self) -> bool:
        """True when any fault is applied."""
        return bool(self.faults)

    @property
    def worst_slowdown(self) -> float:
        return max(self.slowdowns) if self.slowdowns else 1.0

    def summary(self) -> dict:
        return {
            "faults": [f.to_dict() for f in self.faults],
            "worst_slowdown": self.worst_slowdown,
            "lost_ranks": list(self.lost_ranks),
            "buddy_of": {str(k): v for k, v in self.buddy_of},
            "node_nic_gbps": self.spec.node_nic_gbps,
            "alpha_inter_us": self.spec.alpha_inter_us,
        }


def _pick_buddy(lost: int, all_lost: set[int], spec: ClusterSpec) -> int:
    """Next surviving rank, same node first, then global scan order."""
    g = spec.num_gpus
    per = spec.gpus_per_node
    node_base = (lost // per) * per
    for off in range(1, per):
        cand = node_base + (lost - node_base + off) % per
        if cand < g and cand not in all_lost:
            return cand
    for off in range(1, g):
        cand = (lost + off) % g
        if cand not in all_lost:
            return cand
    raise ValueError("rank loss would leave no surviving rank")


def derive_degraded(
    base: ClusterSpec, faults: Sequence[FaultSpec]
) -> DegradedCluster:
    """Apply a set of (simultaneously active) faults to a cluster."""
    g = base.num_gpus
    slowdowns = np.ones(g)
    nic_fraction = 1.0
    lost: list[int] = []
    for f in faults:
        if f.kind == "straggler":
            if f.target >= g:
                raise ValueError(f"straggler target {f.target} >= {g} devices")
            slowdowns[f.target] *= f.severity
        elif f.kind == "nic_degrade":
            if f.target >= base.num_nodes:
                raise ValueError(
                    f"nic_degrade target {f.target} >= {base.num_nodes} nodes"
                )
            nic_fraction = min(nic_fraction, f.severity)
        else:  # rank_loss
            if f.target >= g:
                raise ValueError(f"rank_loss target {f.target} >= {g} devices")
            if f.target not in lost:
                lost.append(f.target)
    if len(lost) >= g:
        raise ValueError("rank loss would leave no surviving rank")

    lost_set = set(lost)
    buddy_of: list[tuple[int, int]] = []
    for r in sorted(lost):
        buddy = _pick_buddy(r, lost_set, base)
        buddy_of.append((r, buddy))
    takeovers: dict[int, int] = {}
    for _, b in buddy_of:
        takeovers[b] = takeovers.get(b, 0) + 1
    for b, k in takeovers.items():
        slowdowns[b] *= 1.0 + k
    # ghost ranks run at nominal speed with zero traffic: never critical
    for r in lost:
        slowdowns[r] = 1.0

    spec = base
    if nic_fraction < 1.0:
        spec = dataclasses.replace(
            base,
            name=f"{base.name}+nic{nic_fraction:.2f}",
            node_nic_gbps=base.node_nic_gbps * nic_fraction,
            alpha_inter_us=base.alpha_inter_us / nic_fraction,
        )
    worst = float(slowdowns.max())
    plan_spec = spec
    if worst > 1.0:
        plan_spec = dataclasses.replace(
            spec,
            name=f"{spec.name}+slow{worst:.2f}x",
            gpu=dataclasses.replace(
                spec.gpu,
                name=f"{spec.gpu.name}@{worst:.2f}x",
                peak_tflops=spec.gpu.peak_tflops / worst,
                mem_bw_gbps=spec.gpu.mem_bw_gbps / worst,
            ),
        )
    return DegradedCluster(
        base=base,
        spec=spec,
        plan_spec=plan_spec,
        slowdowns=tuple(float(v) for v in slowdowns),
        lost_ranks=tuple(sorted(lost)),
        buddy_of=tuple(buddy_of),
        faults=tuple(faults),
    )


class FaultInjector:
    """Drive the cluster simulator through a fault schedule.

    Wraps a nominal :class:`SimulationConfig` (the *template*: cluster,
    framework, routing model, protocol flags) and a
    :class:`FaultSchedule`; per step it derives the degraded config.
    With no active faults the template itself is returned, so fault-free
    steps are trivially bit-identical to pre-fault behaviour.
    """

    def __init__(
        self, template: SimulationConfig, schedule: FaultSchedule
    ) -> None:
        self.template = template
        self.schedule = schedule
        self._derived: dict[tuple[FaultSpec, ...], DegradedCluster] = {}

    def degraded_at(self, step: int) -> DegradedCluster:
        """The degraded cluster implied by the faults active at ``step``."""
        active = self.schedule.active_at(step)
        hit = self._derived.get(active)
        if hit is None:
            hit = derive_degraded(self.template.cluster, active)
            self._derived[active] = hit
        return hit

    def config_at(self, step: int) -> SimulationConfig:
        """The simulation config for ``step`` (the template when clean)."""
        degraded = self.degraded_at(step)
        if not degraded.degraded:
            return self.template
        base_slow = self.template.device_slowdowns()
        combined = base_slow * np.asarray(degraded.slowdowns)
        routing = self.template.routing
        if degraded.buddy_of:
            routing = RemappedRoutingModel(routing, degraded.buddy_of)
        return dataclasses.replace(
            self.template,
            cluster=degraded.spec,
            routing=routing,
            straggler_slowdown=tuple(float(v) for v in combined),
        )

    def simulate(self, program, step: int) -> ClusterTimeline:
        """Faulted per-device timelines of one iteration at ``step``."""
        return simulate_cluster(program, config=self.config_at(step))

    def simulate_batch(self, program, steps: Sequence[int]):
        """Vectorized faulted timelines for many steps in one pass
        (bit-identical to :meth:`simulate` per step: both run the same
        engine)."""
        return simulate_cluster_batch(
            program, configs=[self.config_at(s) for s in steps]
        )
