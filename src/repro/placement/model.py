"""The expert-placement artifact: who hosts which expert, with shadows.

An :class:`ExpertPlacement` maps every expert of one MoE layer to its
replica set -- ``((device, fraction), ...)`` pairs.  A single-replica
expert lives on one device; a replicated ("shadow") expert splits its
traffic across several hosts by the given fractions, which is the
lever that flattens a hot expert's receive stream.  The *identity*
placement reproduces the repo-wide owner convention (expert ``e`` on
device ``e // (E / G)``) and is guaranteed to be a bit-identical no-op
through :meth:`ExpertPlacement.pair_bytes` -- the invariant every
placement-aware seam in the stack leans on.

Numerical contract: :meth:`ExpertPlacement.pair_bytes` accumulates
per-expert contributions in expert order with one scale per replica,
bit-identically to the pure-Python mirror in
``tests/oracles/placement_reference.py``; the identity placement
short-circuits into the exact owner-summed reduction
:meth:`RoutingSignature.from_counts` and the routing models use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: slack for "replica fractions sum to 1" (normalizing random weights
#: leaves ~1 ulp of float error; anything larger is a real bug)
FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class ExpertPlacement:
    """Expert -> device map with replica/"shadow" traffic splits.

    ``assignments[e]`` is expert ``e``'s replica set as ``(device,
    fraction)`` pairs: device ``d`` receives ``fraction`` of every
    source's traffic for expert ``e``.  Fractions are positive and sum
    to 1 per expert; replicas are canonicalized to ascending device
    order, so two placements with the same replica sets compare (and
    fingerprint) equal regardless of construction order.
    """

    num_experts: int
    num_devices: int
    assignments: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        if self.num_experts < 1 or self.num_devices < 1:
            raise ValueError("need at least one expert and one device")
        if len(self.assignments) != self.num_experts:
            raise ValueError(
                f"placement covers {len(self.assignments)} experts, "
                f"expected {self.num_experts}"
            )
        canon = []
        for e, replicas in enumerate(self.assignments):
            if not replicas:
                raise ValueError(f"expert {e} has no replica (must be placed)")
            seen: set[int] = set()
            row = []
            for device, fraction in replicas:
                d, f = int(device), float(fraction)
                if not 0 <= d < self.num_devices:
                    raise ValueError(
                        f"expert {e} placed on device {d}, outside "
                        f"[0, {self.num_devices})"
                    )
                if d in seen:
                    raise ValueError(f"expert {e} has duplicate replica on {d}")
                if not f > 0.0:
                    raise ValueError(
                        f"expert {e} replica on device {d} has non-positive "
                        f"traffic fraction {f}"
                    )
                seen.add(d)
                row.append((d, f))
            total = sum(f for _, f in row)
            if abs(total - 1.0) > FRACTION_TOL:
                raise ValueError(
                    f"expert {e} traffic fractions sum to {total!r}, not 1"
                )
            row.sort(key=lambda df: df[0])
            canon.append(tuple(row))
        object.__setattr__(self, "assignments", tuple(canon))

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, num_experts: int, num_devices: int) -> "ExpertPlacement":
        """The repo-wide owner convention: expert ``e`` on device
        ``e // (E / G)``, unreplicated."""
        if num_experts % num_devices != 0:
            raise ValueError(
                f"identity placement needs experts ({num_experts}) to divide "
                f"evenly over {num_devices} devices"
            )
        el = num_experts // num_devices
        return cls(
            num_experts,
            num_devices,
            tuple(((e // el, 1.0),) for e in range(num_experts)),
        )

    # -- structure -----------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """Whether this is exactly the identity placement (every seam
        treats it as a guaranteed bit-identical no-op)."""
        if self.num_experts % self.num_devices != 0:
            return False
        el = self.num_experts // self.num_devices
        return all(
            replicas == ((e // el, 1.0),)
            for e, replicas in enumerate(self.assignments)
        )

    def devices_of(self, expert: int) -> tuple[int, ...]:
        """Devices hosting a replica of ``expert`` (ascending)."""
        return tuple(d for d, _ in self.assignments[expert])

    def owner_of(self, expert: int) -> int:
        """Primary host of ``expert``: its largest-fraction replica
        (lowest device id on ties) -- the source weights migrate from."""
        return max(self.assignments[expert], key=lambda df: (df[1], -df[0]))[0]

    @property
    def replicated_experts(self) -> tuple[int, ...]:
        """Experts with more than one replica ("shadowed" experts)."""
        return tuple(
            e for e, r in enumerate(self.assignments) if len(r) > 1
        )

    def moved_experts(self, other: "ExpertPlacement") -> tuple[int, ...]:
        """Experts whose replica *device sets* differ from ``other``'s."""
        if other.num_experts != self.num_experts:
            raise ValueError("placements cover different expert counts")
        return tuple(
            e
            for e in range(self.num_experts)
            if self.devices_of(e) != other.devices_of(e)
        )

    def fraction_matrix(self) -> np.ndarray:
        """Dense ``[num_experts, num_devices]`` traffic-split matrix
        (rows sum to 1)."""
        mat = np.zeros((self.num_experts, self.num_devices))
        for e, replicas in enumerate(self.assignments):
            for d, f in replicas:
                mat[e, d] = f
        return mat

    # -- the remap -----------------------------------------------------------

    def pair_bytes(self, counts, bytes_per_token: float) -> np.ndarray:
        """Fold dispatch counts ``[sources, num_experts]`` into the
        pair-bytes matrix ``[sources, num_devices]`` this placement
        realizes.

        Accumulates expert by expert, one scaled add per replica --
        bit-identical to the pure-Python reference implementation.  The
        identity placement takes the exact owner-summed reduction of
        :meth:`~repro.runtime.RoutingSignature.from_counts` (sum the
        integer counts first, scale once), so an identity remap is a
        bit-identical no-op against the pre-placement pipeline.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[1] != self.num_experts:
            raise ValueError(
                f"counts must be [sources, {self.num_experts}], "
                f"got {counts.shape}"
            )
        sources = counts.shape[0]
        if self.is_identity and sources == self.num_devices:
            el = self.num_experts // self.num_devices
            per_owner = counts.reshape(sources, sources, el).sum(axis=2)
            return per_owner.astype(np.float64) * float(bytes_per_token)
        scaled = counts.astype(np.float64) * float(bytes_per_token)
        pair = np.zeros((sources, self.num_devices))
        for e, replicas in enumerate(self.assignments):
            col = scaled[:, e]
            for d, f in replicas:
                pair[:, d] += col * f
        return pair

    # -- identity / serialization --------------------------------------------

    def to_json(self) -> dict:
        return {
            "num_experts": self.num_experts,
            "num_devices": self.num_devices,
            "assignments": [
                [[d, f] for d, f in replicas] for replicas in self.assignments
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExpertPlacement":
        return cls(
            num_experts=int(obj["num_experts"]),
            num_devices=int(obj["num_devices"]),
            assignments=tuple(
                tuple((int(d), float(f)) for d, f in replicas)
                for replicas in obj["assignments"]
            ),
        )

    def fingerprint(self) -> str:
        """Stable content digest (qualifies plan-store keys)."""
        payload = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        kind = "identity" if self.is_identity else (
            f"{len(self.replicated_experts)} shadowed"
        )
        return (
            f"ExpertPlacement({self.num_experts}e/{self.num_devices}d, {kind})"
        )


# -- per-layer placement maps ------------------------------------------------
#
# Placements are per MoE layer (each layer has its own experts).  The
# stack passes them around as a mapping ``{layer_key: ExpertPlacement}``
# with ``None`` as the every-layer default -- the same convention the
# cost model uses for routing signatures.  A bare ExpertPlacement means
# "this placement for every layer".


def normalize_placement(placement) -> dict | None:
    """Canonicalize ``None`` / a bare placement / a per-layer mapping to
    ``{layer_key: ExpertPlacement} | None`` (``None`` key = default)."""
    if placement is None:
        return None
    if isinstance(placement, ExpertPlacement):
        return {None: placement}
    out = dict(placement)
    for layer, p in out.items():
        if not isinstance(p, ExpertPlacement):
            raise TypeError(
                f"placement for layer {layer!r} must be an ExpertPlacement, "
                f"got {type(p).__name__}"
            )
    return out or None


def placement_for(placement_map: dict | None, layer) -> ExpertPlacement | None:
    """The placement governing one MoE layer (``None`` key = default)."""
    if placement_map is None:
        return None
    if layer in placement_map:
        return placement_map[layer]
    return placement_map.get(None)


def placement_map_is_identity(placement_map: dict | None) -> bool:
    """Whether a placement map is a guaranteed no-op everywhere."""
    return placement_map is None or all(
        p.is_identity for p in placement_map.values()
    )


def placement_map_to_json(placement_map: dict | None) -> list | None:
    """``[[layer_key, placement], ...]`` pairs (layer keys may be ints
    or ``None``, which JSON objects cannot hold)."""
    if placement_map is None:
        return None
    return [
        [layer, p.to_json()]
        for layer, p in sorted(
            placement_map.items(), key=lambda kv: (kv[0] is None, str(kv[0]))
        )
    ]


def placement_map_from_json(obj: list | None) -> dict | None:
    if not obj:
        return None
    return {layer: ExpertPlacement.from_json(po) for layer, po in obj}


def placement_map_fingerprint(placement_map: dict | None) -> str | None:
    """Stable digest of a whole placement map (``None`` for no
    placement) -- what qualifies plan-store keys."""
    if placement_map is None:
        return None
    payload = json.dumps(
        placement_map_to_json(placement_map),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlacedRoutingModel:
    """Routing-model wrapper that realizes traffic under a placement.

    Wraps any routing model (``counts_for`` / ``pair_bytes_for`` /
    ``clear``) and reroutes its pair bytes through the placement's
    replica splits, so the ground-truth and batch simulators price
    candidate placements against the *same* routing draw as the
    unplaced baseline.  Expert-level dispatch counts are unchanged --
    placement moves experts, not tokens -- and identity (or absent)
    placements fall through to the base model bit-identically.
    """

    def __init__(self, base, placement) -> None:
        self.base = base
        self.placement = normalize_placement(placement)

    def counts_for(self, key, num_devices, num_experts, tokens_per_device,
                   capacity, fraction=1.0):
        return self.base.counts_for(
            key, num_devices, num_experts, tokens_per_device, capacity, fraction
        )

    def pair_bytes_for(self, key, num_devices, num_experts, tokens_per_device,
                       capacity, bytes_per_token, fraction=1.0):
        placement = placement_for(self.placement, key)
        if placement is None or placement.is_identity:
            # bit-identical fall-through: the baseline reduction
            return self.base.pair_bytes_for(
                key, num_devices, num_experts, tokens_per_device, capacity,
                bytes_per_token, fraction,
            )
        counts = self.base.counts_for(
            key, num_devices, num_experts, tokens_per_device, capacity, fraction
        )
        return placement.pair_bytes(counts, bytes_per_token)

    def clear(self) -> None:
        self.base.clear()

    def __repr__(self) -> str:
        n = len(self.placement) if self.placement else 0
        return f"PlacedRoutingModel({self.base!r}, {n} layer placement(s))"
