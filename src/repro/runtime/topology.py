"""Cluster topology: node-of-rank mapping and the 2-hop all-to-all.

Lancet's evaluation clusters are bandwidth-asymmetric: NVLink inside a
node, a much slower (shared) NIC across nodes.  A flat all-to-all lets
every GPU push its own cross-node bytes through its 1/L share of the
node NIC, so a single hot device bottlenecks the whole collective on a
sliver of the node's aggregate NIC bandwidth.  The *hierarchical* (2-hop)
all-to-all decomposes the exchange into

1. **intra-node gather** -- each GPU forwards its cross-node traffic over
   NVLink to a per-destination-node relay GPU in its own node (same-node
   traffic is delivered directly in this phase);
2. **inter-node exchange** -- relays move the *node-aggregated* pair
   bytes over the NICs, so the per-node NIC is loaded with the node's
   total cross traffic rather than one GPU's share;
3. **intra-node scatter** -- receiving relays fan the data out to the
   final destination GPUs over NVLink.

Under skewed routing this trades two cheap NVLink hops for NIC load
balancing; under uniform routing the extra hops (and latency terms) make
the flat algorithm the better choice -- which is exactly the per-a2a
decision the planner makes (:meth:`repro.core.CommCostModel.a2a_best_ms`).

:class:`Topology` is the single home of the decomposition: the numeric
collective (:func:`repro.runtime.collectives.hierarchical_all_to_all`),
the ground-truth simulator and the compile-time cost model all derive
their per-phase byte matrices from :meth:`Topology.decompose_pair_bytes`,
so predicted and simulated hierarchical times come from one model.

Unit conventions follow :class:`repro.runtime.cluster.ClusterSpec`:
bandwidths in GB/s (1e9 bytes per second), latencies in microseconds,
buffer sizes in bytes, returned times in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: names of the three phases of the 2-hop algorithm, in execution order
PHASE_NAMES = ("intra_gather", "inter_exchange", "intra_scatter")


@dataclass(frozen=True)
class HierarchicalTraffic:
    """Per-phase byte matrices of one 2-hop all-to-all decomposition.

    Attributes
    ----------
    intra_gather:
        ``[G, G]`` bytes moved GPU-to-GPU inside nodes during phase 1:
        same-node deliveries plus the forwarding legs onto send relays.
    inter_node:
        ``[N, N]`` *node-aggregated* bytes crossing the node boundary in
        phase 2 (entry ``[m, n]`` = total bytes node ``m`` sends node
        ``n``).  This is what the per-node NICs are charged with.
    intra_scatter:
        ``[G, G]`` bytes moved from receive relays to final destination
        GPUs during phase 3.
    """

    intra_gather: np.ndarray
    inter_node: np.ndarray
    intra_scatter: np.ndarray


@dataclass(frozen=True)
class HierarchicalTiming:
    """Per-phase timing of one 2-hop all-to-all.

    Phases execute with a barrier between them (relays cannot exchange
    before the gather completes); the collective therefore completes at
    ``latency + max(t1) + max(t2) + max(t3)``.

    Attributes
    ----------
    latency_ms:
        Sum of the latency floors: size exchange plus one alpha per
        non-empty phase.
    intra_gather_ms / inter_exchange_ms / intra_scatter_ms:
        Per-device busy time of each phase, shape ``[G]``.  The
        inter-node phase is charged at node granularity (the NIC is a
        node resource), so all GPUs of a node share its value.
    """

    latency_ms: float
    intra_gather_ms: np.ndarray
    inter_exchange_ms: np.ndarray
    intra_scatter_ms: np.ndarray

    @property
    def total_ms(self) -> float:
        """Completion time of the whole collective."""
        return self.latency_ms + float(
            self.intra_gather_ms.max()
            + self.inter_exchange_ms.max()
            + self.intra_scatter_ms.max()
        )

    def device_times_ms(self) -> np.ndarray:
        """Per-device completion offset (max equals :attr:`total_ms`).

        Each device finishes at the end of the last phase in which it
        moves bytes, behind the barriers of the earlier phases; devices
        idle in the tail phases show up as finishing early.
        """
        t1, t2, t3 = (
            self.intra_gather_ms,
            self.inter_exchange_ms,
            self.intra_scatter_ms,
        )
        c1 = float(t1.max())
        c2 = c1 + float(t2.max())
        done = self.latency_ms + np.where(
            t3 > 0, c2 + t3, np.where(t2 > 0, c1 + t2, t1)
        )
        return done


@dataclass(frozen=True)
class Topology:
    """Physical layout of a cluster: nodes, links, and rank mapping.

    Built from a :class:`~repro.runtime.cluster.ClusterSpec` via its
    ``topology`` property.  Ranks are dense: GPU ``r`` lives on node
    ``r // gpus_per_node`` with local rank ``r % gpus_per_node``.

    Attributes
    ----------
    num_nodes / gpus_per_node:
        Shape of the cluster.
    intra_bw_gbps:
        Per-GPU intra-node (NVLink) bandwidth, GB/s.
    node_nic_gbps:
        Aggregate NIC bandwidth per node, GB/s, shared by its GPUs.
    alpha_intra_us / alpha_inter_us:
        Latency floor of one collective step within / across nodes.
    """

    num_nodes: int
    gpus_per_node: int
    intra_bw_gbps: float
    node_nic_gbps: float
    alpha_intra_us: float = 8.0
    alpha_inter_us: float = 20.0

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def multi_node(self) -> bool:
        return self.num_nodes > 1

    @property
    def nic_per_gpu_gbps(self) -> float:
        """A single GPU's even share of its node's NIC bandwidth."""
        return self.node_nic_gbps / self.gpus_per_node

    # -- rank mapping ------------------------------------------------------

    def node_of(self, rank: int) -> int:
        """Node hosting GPU ``rank``."""
        return rank // self.gpus_per_node

    def local_rank(self, rank: int) -> int:
        """Position of GPU ``rank`` within its node."""
        return rank % self.gpus_per_node

    def node_of_ranks(self) -> np.ndarray:
        """``[G]`` array mapping rank -> node."""
        return np.arange(self.num_gpus) // self.gpus_per_node

    def send_relay(self, src_node: int, dst_node: int) -> int:
        """Rank that aggregates ``src_node``'s traffic toward ``dst_node``.

        Destination nodes are spread round-robin over local ranks so the
        inter-node phase loads every GPU's NIC share evenly.
        """
        return src_node * self.gpus_per_node + dst_node % self.gpus_per_node

    def recv_relay(self, src_node: int, dst_node: int) -> int:
        """Rank in ``dst_node`` that receives ``src_node``'s aggregate."""
        return dst_node * self.gpus_per_node + src_node % self.gpus_per_node

    # -- 2-hop decomposition ----------------------------------------------

    def decompose_pair_bytes(self, pair_bytes: np.ndarray) -> HierarchicalTraffic:
        """Split a GPU-pair byte matrix into the three 2-hop phases.

        ``pair_bytes[s, d]`` bytes flow logically from GPU ``s`` to GPU
        ``d``; the diagonal (self-traffic) never moves and is excluded.
        Byte conservation holds per phase: every cross-node byte appears
        once in ``inter_node``, once in ``intra_gather`` unless its
        source *is* the send relay, and once in ``intra_scatter`` unless
        its destination *is* the receive relay.
        """
        pair = np.asarray(pair_bytes, dtype=np.float64)
        g, el = self.num_gpus, self.gpus_per_node
        n = self.num_nodes
        if pair.shape != (g, g):
            raise ValueError(f"pair_bytes must be [{g},{g}], got {pair.shape}")
        node_of = self.node_of_ranks()
        same_node = node_of[:, None] == node_of[None, :]
        off_diag = ~np.eye(g, dtype=bool)

        # phase 1a: same-node traffic is delivered directly
        intra_gather = np.where(same_node & off_diag, pair, 0.0)
        cross = np.where(~same_node, pair, 0.0)

        # phase 2: node-aggregated cross traffic over the NICs
        inter_node = cross.reshape(n, el, n, el).sum(axis=(1, 3))

        # phase 1b: forwarding legs source GPU -> send relay.  bytes from
        # s toward destination node nd ride to relay send_relay(ns, nd);
        # when s already is that relay nothing moves (the diagonal).
        by_dst_node = cross.reshape(g, n, el).sum(axis=2)  # [G, N]
        src = np.repeat(np.arange(g)[:, None], n, axis=1)
        relay1 = node_of[:, None] * el + (np.arange(n)[None, :] % el)
        legs = np.zeros((g, g))
        np.add.at(legs, (src, relay1), by_dst_node)
        np.fill_diagonal(legs, 0.0)
        intra_gather = intra_gather + legs

        # phase 3: receive relay -> final destination GPU
        by_src_node = cross.reshape(n, el, g).sum(axis=1)  # [N, G]
        dst = np.repeat(np.arange(g)[None, :], n, axis=0)
        relay2 = node_of[None, :] * el + (np.arange(n)[:, None] % el)
        intra_scatter = np.zeros((g, g))
        np.add.at(intra_scatter, (relay2, dst), by_src_node)
        np.fill_diagonal(intra_scatter, 0.0)

        return HierarchicalTraffic(intra_gather, inter_node, intra_scatter)

    # -- timing model ------------------------------------------------------

    def latency_ms(self) -> float:
        """Latency floor of one hierarchical all-to-all: a size exchange
        (spanning the slowest level present) plus one alpha per phase.
        Single-node clusters run only the direct intra phase, which makes
        this exactly the flat collective's two intra alphas."""
        size_exchange = (
            self.alpha_inter_us if self.multi_node else self.alpha_intra_us
        )
        phases = self.alpha_intra_us
        if self.multi_node:
            phases += self.alpha_inter_us + self.alpha_intra_us
        return (size_exchange + phases) * 1e-3

    def phase_times_ms(self, pair_bytes: np.ndarray) -> HierarchicalTiming:
        """Per-phase, per-device timing of a 2-hop all-to-all.

        Intra phases charge each device's bottleneck stream (send or
        receive) against the per-GPU NVLink bandwidth; the inter phase
        charges each *node's* bottleneck direction against its aggregate
        NIC, broadcast to the node's GPUs.
        """
        traffic = self.decompose_pair_bytes(pair_bytes)
        node_of = self.node_of_ranks()

        def stream_ms(mat: np.ndarray, bw_gbps: float) -> np.ndarray:
            load = np.maximum(mat.sum(axis=1), mat.sum(axis=0))
            return load / (bw_gbps * 1e9) * 1e3

        t1 = stream_ms(traffic.intra_gather, self.intra_bw_gbps)
        t3 = stream_ms(traffic.intra_scatter, self.intra_bw_gbps)
        t2_node = stream_ms(traffic.inter_node, self.node_nic_gbps)
        t2 = t2_node[node_of]
        return HierarchicalTiming(self.latency_ms(), t1, t2, t3)

    def phase_load_coefficients(
        self, pair_bytes: np.ndarray
    ) -> tuple[float, float, float]:
        """Scale-free per-phase bottleneck loads of a realization.

        Each coefficient is the phase's bottleneck byte load (GPU stream
        for the intra phases, node NIC direction for the inter phase)
        divided by the mean per-GPU send bytes -- the same normalization
        as :class:`~repro.runtime.routing_model.RoutingSignature`, so the
        cost model can reconstruct hierarchical phase times for any
        traffic volume: ``t_phase = coeff * mean_send_bytes / bw``.
        Returns ``(0, 0, 0)`` for an empty realization.
        """
        pair = np.asarray(pair_bytes, dtype=np.float64)
        mean_send = float(pair.sum(axis=1).mean())
        if mean_send <= 0:
            return (0.0, 0.0, 0.0)
        traffic = self.decompose_pair_bytes(pair)

        def bottleneck(mat: np.ndarray) -> float:
            return float(
                np.maximum(mat.sum(axis=1), mat.sum(axis=0)).max(initial=0.0)
            )

        return (
            bottleneck(traffic.intra_gather) / mean_send,
            bottleneck(traffic.inter_node) / mean_send,
            bottleneck(traffic.intra_scatter) / mean_send,
        )
