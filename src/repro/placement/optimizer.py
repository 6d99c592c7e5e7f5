"""Greedy placement search against the hierarchical a2a cost model.

:class:`PlacementOptimizer` walks the move/swap/replicate/drop neighborhood
of a placement by steepest descent, pricing every candidate through the
same :class:`~repro.runtime.ClusterSpec` pricing the simulator uses, so
a predicted win here is a win in the modeled iteration time.  Search is
deliberately local and deterministic:

- candidates are generated *narrow first* -- only experts hosted on the
  current bottleneck device (the one whose send/recv stream bounds the
  all-to-all) are considered; the full neighborhood is tried only when
  the narrow set has no improving move;
- ties between equal-cost improving moves break toward **intra-node**
  moves (per the hierarchical phase model, NVLink moves are nearly
  free while the NIC is the bottleneck), then toward plain moves over
  replications, then lexicographically -- so results are reproducible;
- every accept requires a strict cost decrease beyond ``tolerance_ms``,
  which makes termination trivial and keeps the identity placement a
  fixed point on balanced traffic.

The differential harness checks this search against the brute-force
enumerator in ``tests/oracles/placement_reference.py`` on exhaustive
small configs: descent runs from both the identity and an LPT-style
greedy seed (heaviest expert onto the least-loaded device) and keeps
the better result, which lands on the exhaustive optimum for most
configurations and within :data:`GREEDY_BOUND` (10%) of it in the
worst observed case -- the bound the benchmark gate enforces.
:func:`migration_cost_ms` prices the weight transfer a placement
change implies (the one-off cost a migration must amortize against
its steady-state win).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ExpertPlacement

#: documented worst-case ratio of the greedy optimizer's bottleneck time
#: to the brute-force optimum on the differential grid (observed worst:
#: 1.06x; most configs match exactly).  The benchmark gate counts a
#: "mismatch" only when greedy exceeds this bound.
GREEDY_BOUND = 1.1


@dataclass(frozen=True)
class PlacementMove:
    """One accepted search step.

    ``kind`` is ``"move"`` (relocate a replica), ``"swap"`` (exchange
    the hosts of two single-replica experts), ``"replicate"`` (add a
    shadow replica with an even traffic re-split), or ``"drop"`` (retire
    a replica, renormalizing the survivors).  ``source``/``target`` are
    the devices involved (``target`` is ``None`` for drops);
    ``inter_node`` records whether the step crossed a node boundary.
    """

    kind: str
    expert: int
    source: int
    target: int | None
    cost_before_ms: float
    cost_after_ms: float
    inter_node: bool

    @property
    def win_ms(self) -> float:
        return self.cost_before_ms - self.cost_after_ms


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one :meth:`PlacementOptimizer.optimize` run."""

    placement: ExpertPlacement
    identity_ms: float
    bottleneck_ms: float
    moves: tuple[PlacementMove, ...] = ()
    evaluations: int = 0

    @property
    def improvement_ms(self) -> float:
        """Absolute bottleneck-a2a win over the identity placement."""
        return self.identity_ms - self.bottleneck_ms

    @property
    def improvement(self) -> float:
        """Fractional bottleneck-a2a win over the identity placement."""
        if self.identity_ms <= 0.0:
            return 0.0
        return self.improvement_ms / self.identity_ms


class PlacementOptimizer:
    """Search expert placements that minimize the bottleneck a2a phase.

    Parameters
    ----------
    cluster:
        Pricing model; candidate pair-bytes matrices are costed with its
        irregular all-to-all (and, on multi-node clusters, the 2-hop
        hierarchical variant -- the scheduler picks the cheaper
        algorithm, so the optimizer prices against that same choice).
    max_replicas:
        Cap on replicas ("shadows") per expert.
    max_moves:
        Cap on accepted search steps.
    prefer_hierarchical:
        Include the hierarchical a2a in the objective (defaults to
        ``cluster.multi_node``, where the 2-hop algorithm can win).
    tolerance_ms:
        Minimum strict improvement for a move to be accepted.
    """

    def __init__(
        self,
        cluster,
        *,
        max_replicas: int = 2,
        max_moves: int = 32,
        prefer_hierarchical: bool | None = None,
        tolerance_ms: float = 1e-9,
    ) -> None:
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")
        self.cluster = cluster
        self.max_replicas = max_replicas
        self.max_moves = max_moves
        self.prefer_hierarchical = (
            cluster.multi_node if prefer_hierarchical is None else prefer_hierarchical
        )
        self.tolerance_ms = tolerance_ms

    # -- objective -----------------------------------------------------------

    def pair_cost_ms(self, pair_bytes: np.ndarray) -> float:
        """Bottleneck a2a time of one pair-bytes matrix: the cheaper of
        the direct and (on multi-node) hierarchical algorithms."""
        cost = self.cluster.a2a_time_ms_irregular(pair_bytes)
        if self.prefer_hierarchical:
            cost = min(
                cost, self.cluster.hierarchical_a2a_time_ms_irregular(pair_bytes)
            )
        return float(cost)

    def cost_ms(self, placement: ExpertPlacement, counts, bytes_per_token) -> float:
        """Bottleneck a2a time of ``counts`` realized under ``placement``."""
        return self.pair_cost_ms(placement.pair_bytes(counts, bytes_per_token))

    # -- search --------------------------------------------------------------

    def optimize(
        self,
        counts,
        bytes_per_token: float | None = None,
        *,
        start: ExpertPlacement | None = None,
    ) -> PlacementResult:
        """Steepest-descent search from the identity (or ``start``).

        ``counts`` is a ``[num_gpus, num_experts]`` dispatch-count matrix
        or a :class:`~repro.runtime.RoutingSignature` carrying count
        provenance (``expert_counts``/``bytes_per_token`` attached by
        ``RoutingSignature.from_counts``).

        Without an explicit ``start``, descent runs twice -- from the
        identity and from an LPT-style greedy seed -- and the cheaper
        endpoint wins (local search alone stalls on some traffic
        patterns; the two basins together stay within
        :data:`GREEDY_BOUND` of the exhaustive optimum).
        """
        counts, bytes_per_token = self._coerce_counts(counts, bytes_per_token)
        result = self._descend(counts, bytes_per_token, start)
        if start is None:
            seeded = self._descend(
                counts, bytes_per_token, self._lpt_start(counts, bytes_per_token)
            )
            if seeded.bottleneck_ms < result.bottleneck_ms - self.tolerance_ms:
                result = PlacementResult(
                    placement=seeded.placement,
                    identity_ms=result.identity_ms,
                    bottleneck_ms=seeded.bottleneck_ms,
                    moves=seeded.moves,
                    evaluations=result.evaluations + seeded.evaluations,
                )
            else:
                result = PlacementResult(
                    placement=result.placement,
                    identity_ms=result.identity_ms,
                    bottleneck_ms=result.bottleneck_ms,
                    moves=result.moves,
                    evaluations=result.evaluations + seeded.evaluations,
                )
        return result

    def _descend(self, counts, bytes_per_token, start) -> PlacementResult:
        g = self.cluster.num_gpus
        sources, e = counts.shape
        if sources != g:
            raise ValueError(
                f"counts have {sources} source devices, cluster has {g}"
            )
        identity = ExpertPlacement.identity(e, g)
        current = start if start is not None else identity
        if current.num_experts != e or current.num_devices != g:
            raise ValueError("start placement does not match counts/cluster shape")

        evals = 0
        identity_ms = self.cost_ms(identity, counts, bytes_per_token)
        evals += 1
        if current is identity:
            current_ms = identity_ms
        else:
            current_ms = self.cost_ms(current, counts, bytes_per_token)
            evals += 1

        moves: list[PlacementMove] = []
        while len(moves) < self.max_moves:
            best = None
            for scope in ("narrow", "wide"):
                experts = (
                    self._bottleneck_experts(current, counts, bytes_per_token)
                    if scope == "narrow"
                    else range(e)
                )
                for cand in self._neighbors(current, experts):
                    kind, expert, source, target, assignments = cand
                    candidate = ExpertPlacement(e, g, assignments)
                    cand_ms = self.cost_ms(candidate, counts, bytes_per_token)
                    evals += 1
                    if cand_ms >= current_ms - self.tolerance_ms:
                        continue
                    rank = (
                        cand_ms,
                        self._inter_node(source, target),
                        {"move": 0, "swap": 1, "replicate": 2, "drop": 3}[kind],
                        expert,
                        source,
                        -1 if target is None else target,
                    )
                    if best is None or rank < best[0]:
                        best = (rank, cand, candidate, cand_ms)
                if best is not None:
                    break  # narrow scope found an improvement
            if best is None:
                break
            _, (kind, expert, source, target, _), candidate, cand_ms = best
            moves.append(
                PlacementMove(
                    kind=kind,
                    expert=expert,
                    source=source,
                    target=target,
                    cost_before_ms=current_ms,
                    cost_after_ms=cand_ms,
                    inter_node=self._inter_node(source, target),
                )
            )
            current, current_ms = candidate, cand_ms

        return PlacementResult(
            placement=current,
            identity_ms=identity_ms,
            bottleneck_ms=current_ms,
            moves=tuple(moves),
            evaluations=evals,
        )

    def evaluate_with_simulation(self, program, config, placements):
        """Price candidate placements through the vectorized batch
        simulator: one full-program makespan (ms) per placement.

        Builds one :class:`~repro.runtime.SimulationConfig` variant per
        candidate -- routing wrapped in a
        :class:`~repro.placement.PlacedRoutingModel`, padded-a2a off so
        irregular traffic is priced -- and runs them as a single
        vectorized batch.
        """
        import dataclasses

        from ..runtime.simulate import simulate_cluster_batch
        from .model import PlacedRoutingModel

        configs = [
            dataclasses.replace(
                config,
                padded_a2a=False,
                routing=PlacedRoutingModel(config.routing, pm),
            )
            for pm in placements
        ]
        return simulate_cluster_batch(program, configs).makespans

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _coerce_counts(counts, bytes_per_token):
        attached = getattr(counts, "expert_counts", None)
        if attached is not None:
            if bytes_per_token is None:
                bpt = getattr(counts, "bytes_per_token", 0.0)
                bytes_per_token = bpt if bpt else 1.0
            counts = attached
        elif hasattr(counts, "load") and attached is None:
            raise ValueError(
                "RoutingSignature has no expert_counts provenance; build it "
                "with RoutingSignature.from_counts or pass raw counts"
            )
        if bytes_per_token is None:
            bytes_per_token = 1.0
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-D [devices, experts], got {counts.shape}")
        return counts, float(bytes_per_token)

    def _lpt_start(self, counts, bytes_per_token) -> ExpertPlacement:
        """LPT-style seed: heaviest expert onto the least-loaded device,
        keeping per-device expert counts balanced (identity-shaped)."""
        g = self.cluster.num_gpus
        e = counts.shape[1]
        col = counts.astype(np.float64).sum(axis=0) * float(bytes_per_token)
        cap = e // g if e % g == 0 else None
        load = [0.0] * g
        hosted = [0] * g
        assign = [0] * e
        for expert in sorted(range(e), key=lambda i: (-col[i], i)):
            if cap is not None:
                open_devices = [d for d in range(g) if hosted[d] < cap]
            else:
                open_devices = list(range(g))
            device = min(open_devices, key=lambda d: (load[d], d))
            assign[expert] = device
            load[device] += col[expert]
            hosted[device] += 1
        return ExpertPlacement(e, g, tuple(((d, 1.0),) for d in assign))

    def _inter_node(self, source: int, target: int | None) -> bool:
        if target is None:
            return False
        per = self.cluster.gpus_per_node
        return (source // per) != (target // per)

    def _bottleneck_experts(self, placement, counts, bytes_per_token):
        """Experts hosted on the device bounding the current a2a."""
        pair = placement.pair_bytes(counts, bytes_per_token)
        device = int(np.argmax(self.cluster.a2a_device_times_ms(pair)))
        return tuple(
            e
            for e in range(placement.num_experts)
            if device in placement.devices_of(e)
        )

    def _neighbors(self, placement: ExpertPlacement, experts):
        """Yield ``(kind, expert, source, target, assignments)`` candidates."""
        g = placement.num_devices
        for expert in experts:
            replicas = placement.assignments[expert]
            hosting = {d for d, _ in replicas}
            for i, (source, fraction) in enumerate(replicas):
                # relocate this replica to any non-hosting device
                for target in range(g):
                    if target in hosting:
                        continue
                    row = list(replicas)
                    row[i] = (target, fraction)
                    yield (
                        "move", expert, source, target,
                        self._with_row(placement, expert, row),
                    )
                # retire this replica, renormalizing the survivors
                if len(replicas) > 1:
                    rest = [r for j, r in enumerate(replicas) if j != i]
                    remaining = sum(f for _, f in rest)
                    row = [(d, f / remaining) for d, f in rest]
                    yield (
                        "drop", expert, source, None,
                        self._with_row(placement, expert, row),
                    )
            # exchange hosts with another single-replica expert (moves
            # can stall when every device is recv-loaded; a swap changes
            # the composition without unbalancing expert counts)
            if len(replicas) == 1:
                source, fraction = replicas[0]
                for other in range(placement.num_experts):
                    if other == expert:
                        continue
                    peers = placement.assignments[other]
                    if len(peers) != 1 or peers[0][0] == source:
                        continue
                    target = peers[0][0]
                    assignments = list(placement.assignments)
                    assignments[expert] = ((target, fraction),)
                    assignments[other] = ((source, peers[0][1]),)
                    yield ("swap", expert, source, target, tuple(assignments))
            # shadow the expert on a new device with an even re-split
            if len(replicas) < self.max_replicas:
                owner = placement.owner_of(expert)
                split = 1.0 / (len(replicas) + 1)
                for target in range(g):
                    if target in hosting:
                        continue
                    row = [(d, split) for d, _ in replicas] + [(target, split)]
                    yield (
                        "replicate", expert, owner, target,
                        self._with_row(placement, expert, row),
                    )

    @staticmethod
    def _with_row(placement: ExpertPlacement, expert: int, row):
        assignments = list(placement.assignments)
        assignments[expert] = tuple(row)
        return tuple(assignments)


def migration_cost_ms(
    previous: ExpertPlacement,
    new: ExpertPlacement,
    cluster,
    bytes_per_expert: float,
) -> float:
    """One-off weight-transfer cost of switching placements.

    Every device newly hosting an expert pulls that expert's weights
    (``bytes_per_expert``) from the expert's previous primary owner.
    Transfers proceed concurrently; the cost is the slowest device's
    send-or-receive stream on each network level (NVLink intra-node,
    shared NIC inter-node) plus one latency floor -- the same
    alpha-beta shape as the collectives in
    :class:`~repro.runtime.ClusterSpec`.  Returns 0.0 when no device
    gains an expert.
    """
    if previous.num_experts != new.num_experts:
        raise ValueError("placements cover different expert counts")
    g = cluster.num_gpus
    per = cluster.gpus_per_node
    send_intra = np.zeros(g)
    recv_intra = np.zeros(g)
    send_inter = np.zeros(g)
    recv_inter = np.zeros(g)
    nbytes = float(bytes_per_expert)
    moved = False
    for expert in range(new.num_experts):
        old_devices = set(previous.devices_of(expert))
        source = previous.owner_of(expert)
        for target in new.devices_of(expert):
            if target in old_devices or target == source:
                continue
            moved = True
            if (source // per) == (target // per):
                send_intra[source] += nbytes
                recv_intra[target] += nbytes
            else:
                send_inter[source] += nbytes
                recv_inter[target] += nbytes
    if not moved:
        return 0.0
    t_intra = np.maximum(send_intra, recv_intra).max() / (cluster.intra_bw_gbps * 1e9)
    t_inter = np.maximum(send_inter, recv_inter).max() / (
        cluster.nic_per_gpu_gbps * 1e9
    )
    return float(cluster.alpha_ms() + max(t_intra, t_inter) * 1e3)


def migration_pays_off(win_ms: float, horizon_steps: int, cost_ms: float) -> bool:
    """The one rule for every priced switch (expert placements here and
    in :func:`~repro.placement.replay_trace`, fault and recovery
    schedule swaps in :class:`~repro.train.ReoptimizingTrainer`): take it
    iff the steady-state per-step win, amortized over ``horizon_steps``,
    beats the one-off ``cost_ms``."""
    return win_ms * horizon_steps > cost_ms
