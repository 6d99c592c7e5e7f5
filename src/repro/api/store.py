"""Disk-backed plan cache shared across processes.

A :class:`PlanStore` maps *what was planned* -- a :class:`PlanIdentity`
``(graph fingerprint, cluster spec, policy, framework, signatures,
placement, pipeline request)`` -- to a saved :class:`~repro.api.plan.Plan`,
so that a second process (or a fleet of trainers) gets a warm plan for
the price of a JSON read instead of a planner run.  Keys contain nothing
process-local (see :mod:`repro.api.fingerprint`); signatures enter the
key in their quantized bucket form, so realizations that would yield the
same plan share an entry.  Every plan-cache key is derived from one
:class:`PlanIdentity`: ``PlanIdentity.of(plan)`` is what ``put`` files a
plan under, ``identity.key(digits)`` the entry key, and
``identity.base_key()`` the signature-free family key.

``compile()`` and :class:`repro.serving.PlanServer` (through which the
re-planning trainer reaches the store) look plans up under a
:class:`PlanIdentity` and read and write the store through
:func:`store_call`, the one degrader of store errors (direct
``PlanStore.get`` callers still get the exception).

Layout: one ``<digest>.plan.json`` per entry under the store root, plus
two sidecar memos, read and written through one pair of methods --
``scenario_index.json`` mapping :func:`scenario_key` digests to entry
digests (the memo that lets ``compile(scenario, store=...)`` answer a
warm lookup without even building the graph) and
``signature_index.json`` mapping each *base* identity (everything but
the signature bucket) to the buckets stored for it, which is what
nearest-signature serving (:meth:`PlanStore.nearest`,
:class:`repro.serving.PlanServer`) walks on an exact-bucket miss.

Concurrency: every write -- entries (write-to-temp + rename), sidecar
read-modify-writes, eviction, discards -- runs under an exclusive
``flock`` on ``<root>/.lock``, so any number of server workers or fleet
processes can share one store directory -- concurrent writers at worst
duplicate planning work, never corrupt an entry or an index.  A writer killed
before its rename leaves a ``*.tmp`` orphan that :meth:`PlanStore.clear`
removes.

The store is a disk cache only: every lookup reads and parses its
entry file, so a read always sees the latest write, whichever process or
handle made it, and the read that finds an entry unusable removes it.
The one in-process plan tier is :class:`repro.serving.PlanServer`'s
bounded memory cache.

Capacity: ``max_entries`` / ``max_bytes`` bound the store; ``put``
evicts least-recently-*used* entries (entry files are touched on every
hit, so file mtime approximates cross-process LRU order) and prunes the
sidecar indexes.  Eviction counters join the hit/miss stats in
:meth:`PlanStore.stats`-- the same counter style as
``LancetReport.cache_stats``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import time
import warnings
from dataclasses import dataclass, field

try:  # POSIX; on platforms without fcntl the lock degrades to a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..runtime.cluster import ClusterSpec
from ..runtime.device import FrameworkProfile
from .codec import cluster_to_json, framework_to_json
from .fingerprint import canonical_digest
from .plan import (
    Plan,
    PlanError,
    PlanPolicy,
    PlanSchemaError,
    atomic_write_text,
)
from .scenario import Scenario

#: quantization (decimal digits) of signature loads in store keys (and
#: in ``ReplanEvent.key`` when a trainer plans without a server)
DEFAULT_KEY_DIGITS = 2

#: sidecar memos under the store root (see the module docstring)
SCENARIO_INDEX = "scenario_index.json"
SIGNATURE_INDEX = "signature_index.json"


def store_call(
    call, *args, retries=0, backoff_s=0.01, on_retry=None, on_error=None, **kw
):
    """Run one store lookup or put; a broken store costs a re-plan,
    never the caller.

    A :class:`PlanError` (corrupt or foreign-schema entry, which the
    store removed as it read it) degrades at once.  An ``OSError``
    is retried ``retries`` times with exponential backoff from
    ``backoff_s`` (``on_retry(err)`` each time), then degrades
    (``on_error(err)``).  Degrading warns and returns ``None``: a miss
    for a lookup, a skipped write for a put.  Hits are returned as is.
    """
    for attempt in range(retries + 1):
        try:
            return call(*args, **kw)
        except PlanError as err:
            _warn_unusable(err)
            return None
        except OSError as err:
            if attempt < retries:
                if on_retry is not None:
                    on_retry(err)
                time.sleep(backoff_s * 2.0**attempt)
                continue
            if on_error is not None:
                on_error(err)
            warnings.warn(
                f"plan store unavailable ({err}); continuing without it",
                stacklevel=2,
            )
            return None


def _warn_unusable(err: PlanError) -> None:
    warnings.warn(f"plan store entry unusable ({err}); re-planning", stacklevel=3)


def signature_bucket(signatures: dict | None, digits: int = DEFAULT_KEY_DIGITS):
    """Quantized, canonical form of a signature mapping for cache keys
    (``None`` -- the uniform approximation -- buckets as ``None``)."""
    if not signatures:
        return None
    return [
        [str(layer), list(sig.key(digits))]
        for layer, sig in sorted(signatures.items(), key=lambda kv: str(kv[0]))
    ]


def bucket_distance(a, b) -> float:
    """Distance between two quantized signature buckets.

    Mirrors :meth:`~repro.runtime.RoutingSignature.drift_from` on the
    bucketed form: per layer, the larger of the mean absolute load
    difference and the relative traffic-volume change, maximized over
    layers.  ``inf`` for structurally incomparable buckets (different
    layer sets, device counts, or hierarchy-awareness) and for
    uniform-vs-conditioned pairs -- nearest-signature serving must never
    silently cross those lines.
    """
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return math.inf
    layers_a = {str(layer): key for layer, key in a}
    layers_b = {str(layer): key for layer, key in b}
    if set(layers_a) != set(layers_b):
        return math.inf
    worst = 0.0
    for layer, key_a in layers_a.items():
        key_b = layers_b[layer]
        if len(key_a) != len(key_b):
            return math.inf
        # key layout (RoutingSignature.key): (scale_MB, *loads[, *hier])
        scale_a, scale_b = float(key_a[0]), float(key_b[0])
        if scale_a > 0 and scale_b > 0:
            scale_d = abs(scale_a - scale_b) / max(scale_a, scale_b)
        elif scale_a == scale_b:
            scale_d = 0.0
        else:
            return math.inf
        loads_a, loads_b = key_a[1:], key_b[1:]
        load_d = sum(
            abs(float(x) - float(y)) for x, y in zip(loads_a, loads_b)
        ) / max(len(loads_a), 1)
        worst = max(worst, scale_d, load_d)
    return worst


@dataclass(frozen=True)
class PlanIdentity:
    """What identifies a plan: the one value every plan-cache key --
    the store's entry and base keys, the server's graph-request key,
    the trainer's ``ReplanEvent.key`` -- is derived from.

    An identity is a value: its digests are computed once each and
    memoized on the instance, so its fields (and the dicts they hold)
    must not change after the first key is read.
    """

    fingerprint: str
    cluster: ClusterSpec
    policy: PlanPolicy
    framework: FrameworkProfile
    #: per-layer routing signatures (keys use their quantized bucket)
    signatures: dict | None = None
    #: expert placement map (keys use its content fingerprint)
    placement: dict | None = None
    #: the pipeline *request* of a staged plan (None for flat plans)
    pipeline: dict | None = None
    #: memoized digests: ``None`` -> base key, ``digits`` -> entry key
    _digests: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def of(cls, plan: Plan) -> PlanIdentity:
        """The identity a plan is filed under: the one place it is read
        off the plan itself."""
        stage_map = plan.stage_map
        return cls(
            plan.fingerprint,
            plan.cluster,
            plan.policy,
            plan.framework,
            plan.signatures,
            plan.placement,
            stage_map.request_dict() if stage_map is not None else None,
        )

    def _payload(self) -> dict:
        payload = {
            "fingerprint": self.fingerprint,
            "cluster": cluster_to_json(self.cluster),
            "framework": framework_to_json(self.framework),
            "policy": self.policy.to_dict(),
        }
        if self.placement is not None:
            # placement-free keys stay byte-identical to pre-placement
            # stores (existing entries keep resolving); a placement
            # qualifies the key by its content fingerprint so plans for
            # different expert layouts can never collide
            from ..placement import placement_map_fingerprint

            payload["placement"] = placement_map_fingerprint(self.placement)
        if self.pipeline is not None:
            # same optional-key pattern for staged plans: the *request*
            # (stages/microbatches/schedule) is part of the identity --
            # two schedules over the same graph must never share an
            # entry -- while chosen boundaries are planner output
            payload["pipeline"] = dict(self.pipeline)
        return payload

    def base_key(self) -> str:
        """Digest of the signature-free identity: the family of entries
        that differ only in their routing-signature bucket."""
        return self._digest(None)

    def key(self, digits: int = DEFAULT_KEY_DIGITS) -> str:
        """Digest of the canonical plan key: what :class:`PlanStore`
        files entries under (at its ``digits``).  The whole cluster spec
        enters the key, not just its name."""
        return self._digest(digits)

    def _digest(self, digits: int | None) -> str:
        digest = self._digests.get(digits)
        if digest is None:
            payload = self._payload()
            if digits is not None:
                payload["signatures"] = signature_bucket(
                    self.signatures, digits
                )
            digest = self._digests[digits] = canonical_digest(payload)
        return digest


#: pure-scenario digests by ``(id(scenario), id(policy), id(framework))``;
#: each value pins its three objects, so no other object can take one
#: of their ids while the entry lives (see :func:`scenario_key`)
_SCENARIO_DIGESTS: dict[tuple[int, int, int], tuple] = {}
#: entries held before the memo is emptied
_SCENARIO_DIGESTS_MAX = 1024


def scenario_key(
    scenario: Scenario,
    policy: PlanPolicy,
    framework: FrameworkProfile,
    cluster: ClusterSpec | None = None,
    signatures: dict | None = None,
    digits: int = DEFAULT_KEY_DIGITS,
) -> str:
    """Digest of a scenario request (the plan server's coalescing key);
    overrides enter only when given, so a pure scenario's digest is the
    key :data:`SCENARIO_INDEX` files it under.

    A pure scenario's digest is memoized by the identity of its three
    (frozen) objects, so a repeated request -- every memory hit of a
    :class:`~repro.serving.PlanServer` -- costs one dict lookup.  The
    memo is exact: equality would not be, since ``hot_boost=1`` and
    ``1.0``, or ``0.0`` and ``-0.0``, compare equal but serialize to
    different digests.
    """
    pure = cluster is None and signatures is None
    if pure:
        memo_key = (id(scenario), id(policy), id(framework))
        hit = _SCENARIO_DIGESTS.get(memo_key)
        if hit is not None:
            return hit[0]
    payload = {
        "scenario": scenario.to_dict(),
        "policy": policy.to_dict(),
        "framework": framework_to_json(framework),
    }
    if cluster is not None:
        payload["cluster"] = cluster_to_json(cluster)
    if signatures is not None:
        payload["signatures"] = signature_bucket(signatures, digits)
    digest = canonical_digest(payload)
    if pure:
        if len(_SCENARIO_DIGESTS) >= _SCENARIO_DIGESTS_MAX:
            _SCENARIO_DIGESTS.clear()  # atomic, so safe across threads
        _SCENARIO_DIGESTS[memo_key] = (digest, scenario, policy, framework)
    return digest


def _parse_entry(raw: bytes, path: pathlib.Path) -> Plan:
    """A lazily loaded plan from one entry file's bytes."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise PlanError(
            f"corrupt plan store entry {path}: not valid JSON ({err})"
        ) from err
    try:
        return Plan.from_dict(obj, materialize=False)
    except PlanSchemaError as err:
        # preserve the type: schema mismatches mean "re-compile",
        # not "corrupt", and callers dispatch on it
        raise PlanSchemaError(f"plan store entry {path}: {err}") from err
    except PlanError as err:
        raise PlanError(f"corrupt plan store entry {path}: {err}") from err


class PlanStore:
    """Disk-backed, cross-process plan cache (see module docstring).

    Parameters
    ----------
    root:
        Directory holding the entries (created if missing).
    digits:
        Signature-bucket quantization used in keys.
    max_entries:
        Entry-count bound; ``put`` evicts approximately-LRU entries
        beyond it (``None`` = unbounded).
    max_bytes:
        Total-size bound over all entry files, same eviction policy.
    create:
        Create the root directory if missing (the default).  Pass
        ``False`` for read-only inspection (``serve stats``): a missing
        root then behaves as an empty store instead of leaving a fresh
        directory behind as a side effect.
    """

    def __init__(
        self,
        root,
        digits: int = DEFAULT_KEY_DIGITS,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        create: bool = True,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = pathlib.Path(root).expanduser()
        if self.root.exists() and not self.root.is_dir():
            raise PlanError(
                f"plan store root {self.root} exists but is not a directory"
            )
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        self.digits = digits
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "scenario_hits": 0,
            "nearest_hits": 0,
            "evictions": 0,
        }
        #: set once the first lock attempt fails (unsupported
        #: filesystem): later sidecar updates run lockless
        self._lock_broken = False

    # -- keys ----------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key[:32]}.plan.json"

    # -- locking -------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Exclusive cross-process lock over the store's sidecar state.

        Entry files themselves never need it (atomic rename), but index
        read-modify-writes and eviction do: two unlocked writers would
        lose each other's index updates.

        On filesystems where ``flock`` is unavailable (some network /
        container mounts raise ``OSError``) the store degrades to
        *lockless* sidecar updates with a one-time warning rather than
        failing every ``put``: entry files stay safe either way (atomic
        rename), only concurrent index updates may then lose entries --
        which downstream code already treats as a cache miss.
        """
        if fcntl is None or self._lock_broken:  # pragma: no cover
            yield
            return
        fd = None
        try:
            fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR, 0o666)
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as err:
            if fd is not None:
                os.close(fd)
            self._lock_broken = True
            warnings.warn(
                f"plan store locking unavailable on {self.root} ({err}); "
                f"degrading to lockless index updates (concurrent writers "
                f"may lose index entries, which reads treat as misses)",
                RuntimeWarning,
                stacklevel=3,
            )
            yield
            return
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- lookups -------------------------------------------------------------

    def get(self, identity: PlanIdentity, *, decode: bool = False) -> Plan | None:
        """Warm plan for an identity, or ``None`` on a miss.

        Every call reads the entry file afresh.  Loaded plans are lazy
        (the program decodes on first access) unless ``decode``, which
        decodes the program inside the read.  An unusable entry --
        corrupt, of a foreign schema, or (with ``decode``) holding a
        program that does not decode -- is removed, with its index
        records, by the read that finds it (unless a writer replaced
        it since), counts as a miss, and raises
        :class:`~repro.api.plan.PlanError` rather than deserializing
        garbage; later lookups of its key are plain misses.
        """
        plan = None
        try:
            plan = self._load(identity.key(self.digits), decode)
        finally:
            self.stats["hits" if plan is not None else "misses"] += 1
        return plan

    def _load(self, key: str, decode: bool = False) -> Plan | None:
        """The entry under ``key``, or ``None`` if there is none; an
        unusable one is discarded, then its error raised (see
        :meth:`get`).  Never called under :meth:`_locked`: the discard
        takes the lock, and ``flock`` is per open file description, so
        a second lock from the same thread would deadlock."""
        path = self.path_for(key)
        try:
            with path.open("rb") as f:
                read = os.fstat(f.fileno())
                raw = f.read()
        except OSError:
            return None
        try:
            plan = _parse_entry(raw, path)
            del raw  # not held while the program decodes
            if decode:
                plan.program
        except PlanError:
            self._discard(path, read)
            raise
        plan.from_store = True
        self._touch(path)
        return plan

    def _discard(self, path: pathlib.Path, read: os.stat_result) -> None:
        """Remove an unusable entry and its index records, unless a
        writer replaced it since its read (``read``: the read's fstat)."""
        with contextlib.suppress(OSError), self._locked():
            now = path.stat()
            if (now.st_ino, now.st_mtime_ns, now.st_size) != (
                read.st_ino, read.st_mtime_ns, read.st_size
            ):
                return
            path.unlink()
            self._prune_indexes()

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump an entry's mtime on use: file mtime is the (approximate,
        cross-process) LRU order eviction works through."""
        try:
            os.utime(path)
        except OSError:  # entry raced away; the next get is a miss
            pass

    def put(self, plan: Plan, index_scenario: bool = True) -> pathlib.Path:
        """Persist a plan under its canonical key; returns the entry path.

        A later ``get`` of this entry returns a *store* plan read back
        from disk (``from_store=True``), not the caller's freshly
        compiled object.  ``index_scenario=False`` suppresses
        the scenario-index entry (used when the plan was compiled with
        overrides -- cluster, explicit signatures -- that a plain
        scenario compile would not reproduce).
        """
        identity = PlanIdentity.of(plan)
        key = identity.key(self.digits)
        with self._locked():
            # the entry lands under the lock too, so another writer's
            # eviction can never remove it before it is indexed
            path = plan.save(self.path_for(key))
            self.stats["puts"] += 1
            index = self._read_sidecar(SIGNATURE_INDEX)
            family = index.setdefault(identity.base_key(), {})
            family[key] = signature_bucket(plan.signatures, self.digits)
            self._write_sidecar(SIGNATURE_INDEX, index)
            if index_scenario and plan.scenario is not None:
                index = self._read_sidecar(SCENARIO_INDEX)
                index[scenario_key(plan.scenario, plan.policy, plan.framework)] = key
                self._write_sidecar(SCENARIO_INDEX, index)
            self._evict_locked(protect=key)
        return path

    def _read_sidecar(self, name: str) -> dict:
        """One sidecar memo (:data:`SCENARIO_INDEX` or
        :data:`SIGNATURE_INDEX`); missing or unreadable is empty."""
        try:
            return json.loads((self.root / name).read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    def _write_sidecar(self, name: str, index: dict) -> None:
        atomic_write_text(
            self.root / name, json.dumps(index, indent=1, sort_keys=True)
        )

    # -- scenario index ------------------------------------------------------
    #
    # The canonical key needs the graph fingerprint and observed
    # signatures, both of which cost a graph build to recompute.  For
    # declarative scenarios that mapping is deterministic, so the store
    # memoizes scenario identity -> entry digest on every put; a warm
    # ``compile(scenario, store=...)`` then costs one JSON read total.

    def lookup_scenario(
        self,
        scenario: Scenario,
        policy: PlanPolicy,
        framework: FrameworkProfile,
        *,
        decode: bool = False,
    ) -> Plan | None:
        """Warm plan for a scenario identity, or ``None`` (``decode``
        and unusable entries as in :meth:`get`).  Counts hits only: the
        exact :meth:`get` that follows a miss counts it."""
        key = self._read_sidecar(SCENARIO_INDEX).get(
            scenario_key(scenario, policy, framework)
        )
        plan = self._load(key, decode) if key else None
        if plan is not None:
            self.stats["scenario_hits"] += 1
            self.stats["hits"] += 1
        return plan

    # -- signature index / nearest-bucket serving ----------------------------
    #
    # Entry keys are opaque digests, so "which other buckets exist for
    # this graph/cluster/policy?" needs its own memo: base identity ->
    # {entry key: signature bucket}.  This is what lets a server answer
    # an exact-bucket miss with the *closest* stored plan immediately
    # while the exact re-plan runs in the background.

    def neighbors(self, identity: PlanIdentity) -> dict[str, object]:
        """All stored ``{entry key: signature bucket}`` for one base
        identity (every plan of this graph/cluster/policy/framework/
        placement/pipeline-request, across routing buckets)."""
        return dict(self._read_sidecar(SIGNATURE_INDEX).get(identity.base_key(), {}))

    def nearest(
        self, identity: PlanIdentity, max_distance: float = 0.25, *,
        decode: bool = False,
    ) -> tuple[Plan, float] | None:
        """Closest stored plan of the same base identity, by signature
        bucket (see :func:`bucket_distance`), within ``max_distance``.

        Returns ``(plan, distance)`` or ``None``.  A distance-0 result
        is possible (the exact bucket itself); callers that already
        missed on :meth:`get` simply won't see one.  Counted as
        ``nearest_hits`` (plus a ``hits`` entry) in :meth:`stats`;
        ``decode`` as in :meth:`get`.  Buckets are tried closest first:
        an unusable one is removed as in :meth:`get`, warned about and
        counted as a miss, and an evicted one skipped, before the next.
        """
        target = signature_bucket(identity.signatures, self.digits)
        candidates = sorted(
            (
                (bucket_distance(target, bucket), key)
                for key, bucket in self.neighbors(identity).items()
            ),
            key=lambda candidate: candidate[0],  # ties keep index order
        )
        for d, key in candidates:
            if d > max_distance:
                break
            try:
                plan = self._load(key, decode)
            except PlanError as err:
                self.stats["misses"] += 1
                _warn_unusable(err)
                continue
            if plan is not None:
                self.stats["nearest_hits"] += 1
                self.stats["hits"] += 1
                return plan, d
        return None

    # -- eviction ------------------------------------------------------------

    def _entry_stats(self) -> list[tuple[float, int, pathlib.Path]]:
        """(mtime, size, path) per entry, oldest-used first."""
        out = []
        for path in self.root.glob("*.plan.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        out.sort()
        return out

    def _over_budget(self, count: int, total: int) -> bool:
        return (self.max_entries is not None and count > self.max_entries) or (
            self.max_bytes is not None and total > self.max_bytes
        )

    def _evict_locked(self, protect: str | None = None) -> None:
        """Evict approximately-LRU entries until within budget (caller
        holds the lock).  ``protect`` names the entry that must survive
        -- the one this very ``put`` just wrote."""
        if self.max_entries is None and self.max_bytes is None:
            return
        protected = self.path_for(protect).name if protect else None
        entries = self._entry_stats()
        count = len(entries)
        total = sum(size for _, size, _ in entries)
        for _mtime, size, path in entries:
            if not self._over_budget(count, total):
                break
            if path.name == protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            self.stats["evictions"] += 1
        if count < len(entries):
            self._prune_indexes()

    def _prune_indexes(self) -> None:
        """Drop index entries whose plan file no longer exists."""
        live = {p.name for p in self.root.glob("*.plan.json")}

        def alive(key: str) -> bool:
            return self.path_for(key).name in live

        index = self._read_sidecar(SCENARIO_INDEX)
        pruned = {k: v for k, v in index.items() if alive(v)}
        if pruned != index:
            self._write_sidecar(SCENARIO_INDEX, pruned)
        index = self._read_sidecar(SIGNATURE_INDEX)
        pruned = {
            base: keep
            for base, family in index.items()
            if (keep := {k: b for k, b in family.items() if alive(k)})
        }
        if pruned != index:
            self._write_sidecar(SIGNATURE_INDEX, pruned)

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        """Paths of every stored plan."""
        return sorted(self.root.glob("*.plan.json"))

    def total_bytes(self) -> int:
        """Total size of all entry files (what ``max_bytes`` bounds)."""
        return sum(size for _, size, _ in self._entry_stats())

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> None:
        """Delete every entry, the sidecar indexes, and any ``*.tmp``
        orphan a writer killed before its rename left behind."""
        with self._locked():
            for path in [*self.entries(), *self.root.glob("*.tmp")]:
                path.unlink(missing_ok=True)
            for name in (SCENARIO_INDEX, SIGNATURE_INDEX):
                (self.root / name).unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"PlanStore({str(self.root)!r}, {len(self)} plans)"
