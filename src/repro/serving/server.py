"""The plan server: coalescing, nearest-signature serving, hot swaps.

One planner run costs hundreds of milliseconds (`BENCH_opt_time`); a
warm :class:`~repro.api.PlanStore` read costs a fraction of one.  A
serving layer that wants to answer *millions* of compile requests
therefore has exactly one job: make sure the planner runs as rarely --
and as far off the request path -- as possible.  :class:`PlanServer`
does that over :func:`repro.api.compile`'s resolve/plan split:

coalescing: one request future and one planner run per key
    Every request reduces to a canonical identity key: the store's
    :func:`~repro.api.store.scenario_key` for scenario requests (for a
    pure scenario, the very key the store's scenario index files it
    under) or, for graph/program requests, the entry key of its
    :class:`~repro.api.store.PlanIdentity`.  Identical concurrent
    requests share one request future, registered synchronously in
    :meth:`PlanServer.submit`.  Every planner run is registered under
    its key too and runs on the server's planner pool: cold requests,
    the exact re-plan behind a nearest answer and requests that gave up
    on a run all share the key's one in-flight run, and one completion
    path books it (store and memory-cache put, counters, breaker).

warm planner runs
    A flat run checks an idle optimizer of its base identity (the plan
    identity without signatures) out of a pool of at most
    :data:`WARM_OPTIMIZERS`, so a re-plan for a new signature bucket --
    a drifting trainer, a fault twin's second onset -- re-plans
    incrementally, bit-identically to a cold plan.

nearest-signature serving
    On an exact-bucket miss the server answers at once with the
    *closest* stored plan of the same base identity
    (:func:`repro.api.store.bucket_distance`, within ``max_distance``)
    -- Lancet plans degrade smoothly in signature distance -- while the
    key's exact planner run goes on in the background and is
    **hot-swapped** into the store and memory cache when it lands.

telemetry
    Every decision increments a counter (`requests`, `coalesced`,
    `memory_hits`, `store_hits`, `nearest_hits`, `planner_runs`,
    `hot_swaps`, ...); the last :data:`HOT_SWAP_EVENTS` hot swaps are
    kept as :class:`HotSwapEvent` records of the served-vs-exact
    predicted gap.  :meth:`PlanServer.stats` merges server, memory-cache
    and store counters into one JSON-friendly snapshot (``serve stats``).

one in-process plan tier
    The server's bounded memory cache is the only place decoded plans
    live between requests (the store is a disk cache only).  It holds
    each key's finished answer, a completed ``Future`` built once at
    put, which every memory hit returns as is.  Every store answer --
    scenario fast path, exact, nearest, stale -- is decoded inside the
    store's read before it is handed out or cached.

graceful degradation (see ``docs/RELIABILITY.md``)
    Store calls go through :func:`repro.api.store.store_call`, the
    degrader ``compile()`` uses too: a corrupt entry -- its program
    section included -- is a warned miss, removed by the read that finds
    it; transient I/O errors are retried with bounded backoff, then
    become a warned miss (or skipped write).  A cold request waits on
    its key's run for at most what is left of the run's
    ``planner_timeout_s`` and of its own ``deadline_s``; if it stops
    waiting it falls back, and the run keeps going and lands later as a
    late publish.  Runs that fail or outlive the planner timeout trip a
    :class:`CircuitBreaker` (closed -> open -> half-open); a request's
    own deadline never does.  Fallback answers walk the chain
    **exact -> nearest -> stale -> baseline**: *stale* is the closest
    same-identity plan at unbounded distance, *baseline* the
    unoptimized program wrapped in a plan, always constructible.
    ``ServeResult.origin`` names the tier that answered.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field, replace

from ..api.compiler import ResolvedWorkload, plan_resolved, resolve_workload
from ..api.fingerprint import graph_fingerprint
from ..api.plan import Plan, PlanPolicy
from ..api.scenario import Scenario
from ..api.store import PlanIdentity, PlanStore, scenario_key, store_call
from ..core.cache import LRUCache
from ..placement import normalize_placement
from ..runtime.device import COMPILED, FrameworkProfile

#: default nearest-signature serving radius, in bucket-distance units
#: (see :func:`repro.api.store.bucket_distance`; the scale matches
#: ``RoutingSignature.drift_from``).  The documented staleness bound:
#: a served neighbor differs from the exact re-plan by at most this
#: much routing drift, and on the preset suite its predicted iteration
#: time stays within ~10% of the exact plan's (asserted by
#: ``benchmarks/bench_plan_serving.py``, gated at 25%).
DEFAULT_MAX_DISTANCE = 0.25

#: documented bound on the served-vs-exact predicted-time gap under the
#: default ``max_distance`` (relative; enforced by the serving benchmark)
NEAREST_PREDICTED_GAP_BOUND = 0.25

#: most recent hot swaps kept in ``PlanServer.events`` (all are counted)
HOT_SWAP_EVENTS = 64

#: idle warm optimizers kept across planner runs, all base identities
#: together (each holds its planner's warm-start tables)
WARM_OPTIMIZERS = 4


@dataclass(eq=False)
class _PlannerRun:
    """One planner run for one request key, shared by every request that
    needs it (see :meth:`PlanServer._planner_run`)."""

    #: the server's planner timeout when the run started
    timeout_s: float | None
    future: Future | None = None
    started: float = field(default_factory=time.monotonic)
    #: requests waiting on it: a run that lands with none is a late
    #: publish, one that fails with none an error nobody else saw
    waiters: int = 0
    #: (predicted ms, distance) of the nearest answer it will replace
    served: tuple[float, float] | None = None
    judged: bool = False  # the breaker has recorded its outcome


class CircuitBreaker:
    """Consecutive-failure circuit breaker for the planner path.

    ``closed`` until ``threshold`` consecutive failures, then ``open``
    for ``cooldown_s``; after the cooldown one *half-open* trial run is
    admitted -- success closes the breaker, failure re-opens it (and
    restarts the cooldown).  Thread-safe; the :class:`PlanServer`
    consults it before it starts a cold request's planner run and serves
    the fallback chain while it refuses.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._trial_inflight = False
        #: times the breaker transitioned closed -> open
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state()

    def _state(self) -> str:  # the caller holds the lock
        if self._opened_at is None:
            return "closed"
        if self._trial_inflight:
            return "half_open"
        elapsed = time.monotonic() - self._opened_at
        return "half_open" if elapsed >= self.cooldown_s else "open"

    def allow(self) -> bool:
        """May a planner run proceed right now?

        While open this returns False; once the cooldown elapses it
        admits exactly one concurrent trial until that trial reports
        success or failure.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            if self._trial_inflight:
                return False
            if time.monotonic() - self._opened_at >= self.cooldown_s:
                self._trial_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._trial_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            was_open = self._opened_at is not None
            self._trial_inflight = False
            if not was_open and self._failures >= self.threshold:
                self._opened_at = time.monotonic()
                self.trips += 1
            elif was_open:
                # failed half-open trial: re-open, restart the cooldown
                self._opened_at = time.monotonic()

    def snapshot(self) -> dict:
        """State, failure streak and trips, read in one lock hold."""
        with self._lock:
            return {
                "state": self._state(),
                "consecutive_failures": self._failures,
                "trips": self.trips,
            }


@dataclass(frozen=True)
class ServeResult:
    """One answered request: the plan plus how it was produced.

    ``origin`` names the tier that answered: ``"memory"`` (server
    memory cache), ``"store"`` (exact store hit), ``"nearest"``
    (neighboring-bucket plan served while the exact re-plan runs in
    the background), ``"planned"`` (cold planner run), ``"stale"``
    (degraded mode: closest same-identity plan at *unbounded* signature
    distance), or ``"baseline"`` (degraded mode: the unoptimized
    program wrapped in a plan -- the tier of last resort, always
    constructible).  Coalesced followers receive the leader's result
    object unchanged, and memory hits of one key share one result (and
    one finished ``Future``) until the entry is replaced; their
    ``latency_s`` is 0.0.
    """

    plan: Plan
    origin: str
    key: str
    #: bucket distance of a nearest-signature answer (else ``None``)
    distance: float | None = None
    latency_s: float = 0.0
    #: why a degraded tier answered: ``"deadline"``,
    #: ``"planner_timeout"``, ``"planner_error"``, or ``"breaker_open"``
    #: (``None`` on the healthy tiers)
    reason: str | None = None


@dataclass
class HotSwapEvent:
    """Record of one background exact re-plan replacing a nearest hit."""

    key: str
    distance: float
    #: prediction of the neighbor plan that was served immediately
    served_predicted_ms: float
    #: prediction of the exact re-plan that replaced it
    exact_predicted_ms: float
    #: wall time of the background planner run
    seconds: float

    @property
    def predicted_gap(self) -> float:
        """Relative served-vs-exact predicted-time gap (the realized
        staleness of the nearest-signature answer)."""
        ref = max(abs(self.exact_predicted_ms), 1e-9)
        return abs(self.served_predicted_ms - self.exact_predicted_ms) / ref


class PlanServer:
    """Concurrent plan-serving front end over one shared store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.api.PlanStore` (its ``max_entries`` /
        ``max_bytes`` bounds and locking make it safe to point several
        servers -- or a whole fleet -- at one directory).
    policy / framework:
        Defaults applied to requests that don't specify their own.
    max_workers:
        Width of the request pool and of the planner pool (default:
        executor default).  Planner runs are CPU-bound Python, so this
        bounds memory pressure more than it buys parallel speedup;
        coalescing is what provides the throughput.  The pools are
        separate, so a request never waits on a run queued behind it.
    memory_cache_size:
        Entries in the server's in-process plan cache (0 disables it),
        the one in-process plan tier: the store keeps no decoded plans.
        This layer makes the warm path free of disk I/O; it is refreshed
        on every planner run and hot swap of *this* server, so its staleness
        against writes by other processes is bounded by entry turnover.
    max_distance:
        Serving radius for nearest-signature answers
        (:data:`DEFAULT_MAX_DISTANCE`); ``0`` serves exact answers only
        and skips the nearest lookup.
    check:
        Validate the IR after planner passes (forwarded to the planner).
    planner:
        The planner callable (``plan_resolved``-compatible, called as
        ``planner(resolved, check=..., optimizer=...)``).  ``None``
        uses :func:`repro.api.compiler.plan_resolved`; the chaos
        harness injects :class:`repro.faults.FlakyPlanner` here.
    deadline_s:
        Default per-request deadline (seconds).  A request whose planner
        run has not landed by its deadline is answered from the fallback
        chain instead of waiting.  ``None`` = no deadline.
    planner_timeout_s:
        Budget for one planner run.  A run exceeding it counts as a
        breaker failure and its requests fall back, but it finishes in
        the background, landing as a late publish.  ``None`` = unbounded.
    store_retries / retry_backoff_s:
        Transient ``OSError`` from store I/O is retried up to
        ``store_retries`` times with exponential backoff starting at
        ``retry_backoff_s`` (then degrades to a warned miss, or a
        skipped write; see :func:`~repro.api.store.store_call`).
    breaker_threshold / breaker_cooldown_s:
        :class:`CircuitBreaker` configuration: consecutive failed or
        timed-out planner runs before opening, and the open-state
        cooldown before a half-open trial.
    """

    def __init__(
        self,
        store: PlanStore,
        *,
        policy: PlanPolicy | None = None,
        framework: FrameworkProfile = COMPILED,
        max_workers: int | None = None,
        memory_cache_size: int = 512,
        max_distance: float = DEFAULT_MAX_DISTANCE,
        check: bool = True,
        planner=None,
        deadline_s: float | None = None,
        planner_timeout_s: float | None = None,
        store_retries: int = 2,
        retry_backoff_s: float = 0.01,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        self.store = store
        self.policy = policy or PlanPolicy()
        self.framework = framework
        self.max_distance = max_distance
        self.check = check
        self._planner = planner
        self.deadline_s = deadline_s
        self.planner_timeout_s = planner_timeout_s
        self.store_retries = store_retries
        self.retry_backoff_s = retry_backoff_s
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="plan-server"
        )
        self._planner_pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="plan-server-planner"
        )
        self._lock = threading.Lock()
        #: request key -> in-flight Future[ServeResult]
        self._inflight: dict[str, Future] = {}
        #: request key -> its one in-flight planner run
        self._runs: dict[str, _PlannerRun] = {}
        self._memory = (
            LRUCache(memory_cache_size, name="server-memory")
            if memory_cache_size
            else None
        )
        self.counters = dict.fromkeys(
            (
                "requests", "coalesced", "memory_hits", "store_hits",
                "nearest_hits", "planner_runs", "misses", "hot_swaps",
                "errors",
                # degraded-mode telemetry
                "deadline_hits", "planner_timeouts", "planner_failures",
                "late_plans", "store_retries", "store_errors", "put_errors",
                "breaker_short_circuits", "stale_hits", "baseline_plans",
            ),
            0,
        )
        #: the last :data:`HOT_SWAP_EVENTS` hot swaps, in completion order
        self.events: deque[HotSwapEvent] = deque(maxlen=HOT_SWAP_EVENTS)
        #: (base key, idle optimizer) pairs, least recently used first
        self._warm: list[tuple[str, object]] = []
        #: planner runs landed so far (see :meth:`_planner_run`)
        self._landings = 0
        self._closed = False

    # -- identity ------------------------------------------------------------

    def request_key(
        self,
        workload,
        cluster=None,
        policy: PlanPolicy | None = None,
        signatures: dict | None = None,
        framework: FrameworkProfile | None = None,
        placement=None,
    ) -> str:
        """Canonical identity of one request (the coalescing key).

        Scenario requests key on the declarative spec -- no graph build
        needed, so submission stays cheap; graph/program requests key on
        the store's canonical plan key, which is the key the planned
        plan is filed under (expert ``placement`` included).  A
        :class:`~repro.api.compiler.ResolvedWorkload` keys on its own
        identity (no second fingerprint) and ignores the other
        arguments.
        """
        policy = policy or self.policy
        framework = framework or self.framework
        if isinstance(workload, Scenario):
            if placement is not None:
                raise TypeError(
                    "scenario requests do not take an expert placement"
                )
            return scenario_key(
                workload, policy, framework, cluster, signatures,
                self.store.digits,
            )
        if isinstance(workload, ResolvedWorkload):
            return workload.identity.key(self.store.digits)
        if cluster is None:
            raise TypeError("graph/program requests require an explicit cluster")
        return PlanIdentity(
            graph_fingerprint(workload), cluster, policy, framework,
            signatures, normalize_placement(placement),
        ).key(self.store.digits)

    # -- the request path ----------------------------------------------------

    def submit(
        self,
        workload,
        cluster=None,
        *,
        policy: PlanPolicy | None = None,
        signatures: dict | None = None,
        framework: FrameworkProfile | None = None,
        deadline_s: float | None = None,
        placement=None,
    ) -> Future:
        """Enqueue one request; returns a ``Future[ServeResult]``.

        ``workload``: a scenario, graph, program or
        :class:`~repro.api.compiler.ResolvedWorkload` (not resolved
        again).  A memory hit returns the key's cached, finished
        ``Future``, shared by every hit until the entry is replaced, so
        it builds nothing.  Identical concurrent requests coalesce: the
        key is registered synchronously here, so every submission after
        the first -- regardless of worker scheduling -- subscribes to
        the in-flight request instead of starting its own.

        ``deadline_s`` (default: the server's ``deadline_s``) bounds how
        long this request may wait on its key's planner run before it is
        answered from the fallback chain instead.  ``placement`` (graph
        and program requests only) is the expert placement to plan
        under.
        """
        if self._closed:
            raise RuntimeError("PlanServer is closed")
        policy = policy or self.policy
        framework = framework or self.framework
        key = self.request_key(
            workload, cluster, policy, signatures, framework, placement
        )
        with self._lock:
            self.counters["requests"] += 1
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.counters["coalesced"] += 1
                return inflight
            if self._memory is not None:
                answer = self._memory.get(key)
                if answer is not None:
                    self.counters["memory_hits"] += 1
                    return answer
            future: Future = Future()
            self._inflight[key] = future
        if deadline_s is None:
            deadline_s = self.deadline_s
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        request = dict(
            policy=policy, signatures=signatures, framework=framework,
            placement=placement,
        )
        self._pool.submit(
            self._serve_into, future, key, workload, cluster, request, deadline
        )
        return future

    def serve(self, workload, cluster=None, **kwargs) -> ServeResult:
        """Synchronous single request (see :meth:`submit`)."""
        return self.submit(workload, cluster, **kwargs).result()

    def compile_many(self, workloads, cluster=None, **kwargs) -> list[Plan]:
        """Compile a batch of workloads concurrently; returns plans in
        input order.  Duplicate (and already-in-flight) workloads share
        one planner run each -- submitting 500 copies of one scenario
        costs one plan.
        """
        futures = [self.submit(w, cluster, **kwargs) for w in workloads]
        return [f.result().plan for f in futures]

    # -- worker side ---------------------------------------------------------

    def _serve_into(
        self, future, key, workload, cluster, request, deadline=None
    ) -> None:
        t0 = time.perf_counter()
        try:
            result = self._lookup_or_plan(
                key, workload, cluster, request, deadline
            )
            result = replace(result, latency_s=time.perf_counter() - t0)
        except BaseException as err:
            with self._lock:
                self.counters["errors"] += 1
                self._inflight.pop(key, None)
            future.set_exception(err)
            return
        with self._lock:
            # store hits are cached here; a planner run caches its own
            # plan when it lands, a nearest answer is cached before its
            # run is registered (the exact plan must win), and degraded
            # answers (stale / baseline) must not poison the warm path
            if result.origin == "store":
                self._remember(key, result.plan)
            self._inflight.pop(key, None)
        future.set_result(result)

    def _remember(self, key, plan) -> None:
        """Cache ``plan`` as ``key``'s finished memory answer, the one
        every later memory hit returns (the caller holds the lock)."""
        if self._memory is not None:
            answer: Future = Future()
            answer.set_result(ServeResult(plan=plan, origin="memory", key=key))
            self._memory.put(key, answer)

    def _count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1

    def _store_call(self, call, *args, errors: str = "store_errors", **kw):
        """:func:`~repro.api.store.store_call` under this server's retry
        budget, counting retries and exhausted calls (``errors``)."""
        return store_call(
            call,
            *args,
            retries=self.store_retries,
            backoff_s=self.retry_backoff_s,
            on_retry=lambda _err: self._count("store_retries"),
            on_error=lambda _err: self._count(errors),
            **kw,
        )

    def _store_lookup(self, lookup, *args, **kw):
        """One store lookup under :meth:`_store_call`, its program
        decoded inside the store's read.  Every store answer comes
        through here, so a corrupt program section is a warned miss,
        never a client error, and the memory cache holds decoded plans."""
        return self._store_call(lookup, *args, decode=True, **kw)

    def _lookup_or_plan(
        self, key, workload, cluster, request, deadline=None
    ) -> ServeResult:
        """Answer one request (``request``: the :func:`resolve_workload`
        keywords) down the lookup ladder."""
        # 1. scenario fast path: warm answer without building a graph
        pure = isinstance(workload, Scenario) and cluster is None
        if pure and request["signatures"] is None:
            plan = self._store_lookup(
                self.store.lookup_scenario, workload,
                request["policy"], request["framework"],
            )
            if plan is not None:
                self._count("store_hits")
                return ServeResult(plan=plan, origin="store", key=key)

        resolved = (
            workload
            if isinstance(workload, ResolvedWorkload)
            else resolve_workload(workload, cluster, **request)
        )
        while True:  # again if a run landed after the exact miss below
            seen = self._landings
            # 2. exact signature bucket
            plan = self._store_lookup(self.store.get, resolved.identity)
            if plan is not None:
                self._count("store_hits")
                return ServeResult(plan=plan, origin="store", key=key)

            # 3. nearest bucket now + the exact planner run in the background
            near = self.max_distance > 0 and self._store_lookup(
                self.store.nearest, resolved.identity,
                max_distance=self.max_distance,
            )
            if near:
                if self._planner_run(key, resolved, seen, served=near):
                    neighbor, distance = near
                    return ServeResult(
                        plan=neighbor, origin="nearest", key=key,
                        distance=distance,
                    )
            else:
                # 4. cold: wait on the key's planner run for at most what
                # is left of its planner timeout and of the request
                # deadline; a request that stops waiting, or that the
                # breaker refuses a new run, is answered by the degraded
                # tiers (stale -> baseline) instead
                run = self._planner_run(key, resolved, seen, wait=True)
                if run is not None or self._landings == seen:
                    break
        self._count("misses")
        if run is None:
            self._count("breaker_short_circuits")
            reason = "breaker_open"
        else:
            budget, reason = None, "planner_timeout"
            if run.timeout_s is not None:
                budget = run.started + run.timeout_s - time.monotonic()
            if deadline is not None:
                left = deadline - time.monotonic()
                if budget is None or left < budget:
                    budget, reason = left, "deadline"
            try:
                plan = self._await_run(key, run, budget)
                return ServeResult(plan=plan, origin="planned", key=key)
            except FuturesTimeout:
                if reason == "deadline":
                    self._count("deadline_hits")
                else:
                    self._count("planner_timeouts")
                    self._judge(run, failed=True)
            except Exception:
                # planner failures raise until repeated failures open the
                # breaker; the run's completion already recorded this one
                self._count("planner_failures")
                if self.breaker.state == "closed":
                    raise
                reason = "planner_error"
        return self._serve_degraded(key, resolved, reason)

    # -- degraded serving tiers ----------------------------------------------

    def _serve_degraded(self, key, resolved, reason) -> ServeResult:
        """The stale -> baseline tail of the fallback chain.

        Reached only after the healthy tiers (memory, exact store,
        nearest-within-radius) missed and the planner was unavailable
        (deadline blown, run timed out, repeated failures).  A run this
        request stopped waiting on keeps going and heals the bucket.
        Never raises: the baseline tier is always constructible.
        """
        stale = self._store_lookup(
            self.store.nearest, resolved.identity, max_distance=math.inf
        )
        if stale is not None:
            plan, distance = stale
            self._count("stale_hits")
            return ServeResult(
                plan=plan, origin="stale", key=key, distance=distance,
                reason=reason,
            )
        self._count("baseline_plans")
        plan = self._baseline_plan(resolved, reason)
        return ServeResult(plan=plan, origin="baseline", key=key, reason=reason)

    def _baseline_plan(self, resolved, reason) -> Plan:
        """Tier of last resort: the unoptimized program as a plan.

        No optimizer involved, so this works while the planner is down;
        the prediction comes from the plain simulator (best-effort).
        The result is *never* written to the store or memory cache --
        an unoptimized plan must not be mistaken for a planned one.
        """
        program = resolved.program
        predicted = 0.0
        try:
            from ..runtime.simulate import SimulationConfig, simulate_program

            predicted = simulate_program(
                program,
                config=SimulationConfig(
                    cluster=resolved.cluster, framework=resolved.framework
                ),
            ).makespan
        except Exception:
            pass  # a missing prediction must not fail the last resort
        return Plan(
            program=program,
            cluster=resolved.cluster,
            policy=resolved.policy,
            fingerprint=resolved.fingerprint,
            predicted_iteration_ms=predicted,
            framework=resolved.framework,
            signatures=resolved.signatures,
            scenario=resolved.scenario,
            meta={"baseline": True, "fallback_reason": reason},
        )

    # -- planner runs ----------------------------------------------------------

    def _planner_run(self, key, resolved, seen, *, wait=False, served=None):
        """The in-flight planner run of ``key``, started if none is.

        ``None``, and no run started, if a run landed since the caller
        read ``seen`` (the landing count) before its exact store miss:
        the key's plan may be stored now, so the caller looks again.  A
        cold request (``wait=True``) joins the run as a waiter, and
        starts one only if the breaker admits it (else ``None``).  A
        nearest answer (``served``: neighbor plan and distance) always
        does: its landing is a hot swap.
        """
        with self._lock:
            run = self._runs.get(key)
            if run is None:
                if self._landings != seen or (
                    wait and not self.breaker.allow()
                ):
                    return None
                run = _PlannerRun(self.planner_timeout_s)
                run.future = self._planner_pool.submit(
                    self._plan_into, key, run, resolved
                )
                self._runs[key] = run
            run.waiters += wait
            if served is not None:
                neighbor, distance = served
                self.counters["nearest_hits"] += 1
                # cache the neighbor *before* the run can land, so the
                # exact plan always wins the memory-cache race
                self._remember(key, neighbor)
                if run.served is None:
                    run.served = (neighbor.predicted_iteration_ms, distance)
        return run

    def _await_run(self, key, run, budget) -> Plan:
        """Wait on ``run`` for at most ``budget`` seconds (``None`` = no
        bound); raises ``FuturesTimeout`` once the request gives up."""
        try:
            return run.future.result(
                timeout=None if budget is None else max(budget, 0.0)
            )
        except FuturesTimeout:
            with self._lock:
                if self._runs.get(key) is run:  # still running: give up
                    run.waiters -= 1
                    raise
        return run.future.result()  # it landed as the wait ran out

    def _judge(self, run, failed: bool) -> None:
        """Record ``run``'s outcome with the breaker, once per run."""
        with self._lock:
            judged, run.judged = run.judged, True
        if not judged and failed:
            self.breaker.record_failure()
        elif not judged:
            self.breaker.record_success()

    def _plan_into(self, key, run, resolved) -> Plan:
        """Planner-pool task of one run, and the one place that books
        its outcome: breaker, store and memory-cache put, counters, and
        the warm optimizer's return to the pool."""
        planner = self._planner if self._planner is not None else plan_resolved
        base = optimizer = None
        try:
            if resolved.pipeline is None:  # staged runs plan per stage, cold
                base = resolved.identity.base_key()
                optimizer = self._checkout(base) or resolved.policy.make_optimizer(
                    resolved.cluster, resolved.framework
                )
            plan = planner(resolved, check=self.check, optimizer=optimizer)
            seconds = time.monotonic() - run.started
            self._judge(
                run, failed=run.timeout_s is not None and seconds > run.timeout_s
            )
            self._store_call(
                self.store.put, plan, index_scenario=resolved.scenario_pure,
                errors="put_errors",
            )
        except BaseException:
            self._judge(run, failed=True)
            with self._lock:
                self.counters["errors"] += not run.waiters
                del self._runs[key]
            raise
        with self._lock:
            self.counters["planner_runs"] += 1
            self._landings += 1
            self._remember(key, plan)
            if run.served is not None:
                served_ms, distance = run.served
                self.counters["hot_swaps"] += 1
                self.events.append(HotSwapEvent(
                    key, distance, served_ms, plan.predicted_iteration_ms, seconds
                ))
            elif not run.waiters:
                self.counters["late_plans"] += 1
            del self._runs[key]
            if optimizer is not None:  # a failed run's optimizer is dropped
                self._warm.append((base, optimizer))
                del self._warm[:-WARM_OPTIMIZERS]
        return plan

    def _checkout(self, base):
        """Take the most recently used idle optimizer of base identity
        ``base`` out of the warm pool (``None`` if there is none)."""
        with self._lock:
            for i in range(len(self._warm) - 1, -1, -1):
                if self._warm[i][0] == base:
                    return self._warm.pop(i)[1]
        return None

    # -- lifecycle / observability -------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Block until every in-flight request and planner run has
        completed (makes telemetry deterministic for tests/benches).
        Raises ``TimeoutError`` if work is still pending after
        ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = list(self._inflight.values())
                pending += [run.future for run in self._runs.values()]
            if not pending:
                return
            left = None if deadline is None else deadline - time.monotonic()
            # failed futures count as done: their callers saw the error
            if wait_futures(pending, timeout=left).not_done:
                raise TimeoutError(
                    f"PlanServer.drain: work still pending after {timeout} s"
                )

    def close(self, wait: bool = True) -> None:
        """Drain (optionally) and shut the worker pools down."""
        if wait:
            self.drain()
        self._closed = True
        self._pool.shutdown(wait=wait)
        self._planner_pool.shutdown(wait=wait)

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """One JSON-friendly counter snapshot: server decisions, memory
        cache, and the underlying store (``serve stats`` CLI payload,
        ``LancetReport.cache_stats`` style)."""
        with self._lock:
            snapshot = {
                "server": dict(self.counters),
                "breaker": self.breaker.snapshot(),
                "memory": self._memory.stats() if self._memory else None,
                "store": dict(self.store.stats),
                "store_entries": len(self.store),
                "store_bytes": self.store.total_bytes(),
                "inflight": len(self._inflight) + len(self._runs),
                "hot_swap_events": [
                    {
                        "distance": e.distance,
                        "served_predicted_ms": e.served_predicted_ms,
                        "exact_predicted_ms": e.exact_predicted_ms,
                        "predicted_gap": e.predicted_gap,
                        "seconds": e.seconds,
                    }
                    for e in self.events
                ],
            }
        return snapshot


def compile_many(
    workloads,
    store: PlanStore | None = None,
    *,
    policy: PlanPolicy | None = None,
    framework: FrameworkProfile = COMPILED,
    max_workers: int | None = None,
    max_distance: float = DEFAULT_MAX_DISTANCE,
) -> list[Plan]:
    """One-shot batch compile with coalescing (module-level convenience).

    Spins up a :class:`PlanServer` over ``store`` (an ephemeral
    in-memory-only run needs a store directory all the same -- pass a
    temp dir), serves the batch, drains background work, and shuts the
    server down.  Long-lived callers should hold a :class:`PlanServer`
    instead.
    """
    if store is None:
        raise TypeError(
            "compile_many requires a PlanStore (plans are served, and "
            "published, through it)"
        )
    with PlanServer(
        store,
        policy=policy,
        framework=framework,
        max_workers=max_workers,
        max_distance=max_distance,
    ) as server:
        return server.compile_many(workloads)
