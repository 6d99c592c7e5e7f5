"""JSON codecs for the runtime specs a plan artifact embeds.

A serialized plan must be executable anywhere, so it carries the *full*
cluster and framework specification it was planned for (not just a
preset name): a plan compiled against a tweaked ``ClusterSpec`` replays
against exactly that spec.  Round-trips are field-exact -- every float
is reconstructed bit-for-bit.  Decoders raise ``TypeError``,
``ValueError`` or ``OverflowError`` on malformed input, which
:meth:`repro.api.Plan.from_dict` reports as a :class:`~repro.api.PlanError`.
"""

from __future__ import annotations

import dataclasses

from ..runtime.cluster import ClusterSpec
from ..runtime.device import FrameworkProfile, GPUSpec
from ..runtime.routing_model import RoutingSignature


def _expect(obj, kind: type, what: str):
    """``obj`` when it is a ``kind``; a ``TypeError`` naming ``what``
    otherwise."""
    if not isinstance(obj, kind):
        raise TypeError(
            f"{what} must be a {kind.__name__}, got {type(obj).__name__}"
        )
    return obj


def field_dict(obj) -> dict:
    """A flat dataclass's fields as a dict, in declaration order: what
    ``dataclasses.asdict`` returns for one whose fields all hold
    primitives, without its recursive deep copy."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def cluster_to_json(cluster: ClusterSpec) -> dict:
    # asdict recurses into the nested GPUSpec dataclass
    return dataclasses.asdict(cluster)


def cluster_from_json(obj: dict) -> ClusterSpec:
    _expect(obj, dict, "cluster")
    gpu = GPUSpec(**_expect(obj["gpu"], dict, "cluster gpu"))
    rest = {k: v for k, v in obj.items() if k != "gpu"}
    return ClusterSpec(gpu=gpu, **rest)


def framework_to_json(framework: FrameworkProfile) -> dict:
    return field_dict(framework)


def framework_from_json(obj: dict) -> FrameworkProfile:
    return FrameworkProfile(**_expect(obj, dict, "framework"))


def signature_to_json(sig: RoutingSignature) -> dict:
    obj = {"load": list(sig.load), "mean_send_bytes": sig.mean_send_bytes}
    if sig.hier_load is not None:
        obj["hier_load"] = list(sig.hier_load)
    if sig.expert_counts is not None:
        # count provenance (what makes a signature placement-remappable)
        # must survive the round-trip: a stored re-plan's signatures
        # compare equal after reload
        obj["expert_counts"] = [list(row) for row in sig.expert_counts]
        obj["bytes_per_token"] = sig.bytes_per_token
    return obj


def signature_from_json(obj: dict) -> RoutingSignature:
    _expect(obj, dict, "routing signature")
    hier = obj.get("hier_load")
    counts = obj.get("expert_counts")
    return RoutingSignature(
        load=tuple(float(v) for v in obj["load"]),
        mean_send_bytes=float(obj.get("mean_send_bytes", 0.0)),
        hier_load=tuple(float(v) for v in hier) if hier is not None else None,
        expert_counts=(
            tuple(tuple(float(v) for v in row) for row in counts)
            if counts is not None
            else None
        ),
        bytes_per_token=float(obj.get("bytes_per_token", 0.0)),
    )


def signatures_to_json(signatures: dict | None) -> list | None:
    """Per-layer signature mapping as ``[[layer_key, signature], ...]``
    pairs (JSON objects cannot hold int keys)."""
    if not signatures:
        return None
    return [
        [key, signature_to_json(sig)]
        for key, sig in sorted(
            signatures.items(), key=lambda kv: (kv[0] is None, str(kv[0]))
        )
    ]


def signatures_from_json(obj: list | None) -> dict | None:
    if not obj:
        return None
    return {
        key: signature_from_json(so)
        for key, so in _expect(obj, list, "signatures")
    }
