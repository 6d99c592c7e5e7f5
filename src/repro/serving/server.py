"""The plan server: coalescing, nearest-signature serving, hot swaps.

One planner run costs hundreds of milliseconds (`BENCH_opt_time`); a
warm :class:`~repro.api.PlanStore` read costs a fraction of one.  A
serving layer that wants to answer *millions* of compile requests
therefore has exactly one job: make sure the planner runs as rarely --
and as far off the request path -- as possible.  :class:`PlanServer`
does that with three mechanisms layered over
:func:`repro.api.compile`'s resolve/plan split:

request coalescing
    Every request reduces to a canonical identity key: the store's
    :func:`~repro.api.store.scenario_key` for scenario requests (for a
    pure scenario, the very key the store's scenario index files it
    under) or, for graph/program requests, the entry key of its
    :class:`~repro.api.store.PlanIdentity` (the key the store would file
    the plan under).  Concurrent requests with the same key share one
    in-flight planner run: the first arrival plans, the rest subscribe
    to its future.  A burst of N identical cold requests triggers
    exactly one planner run.

nearest-signature serving
    On an exact-bucket miss the server consults the store's signature
    index for the *closest* stored plan of the same base identity
    (:func:`repro.api.store.bucket_distance`, bounded by
    ``max_distance``).  The neighbor is returned immediately -- Lancet
    plans degrade smoothly in signature distance, so a close bucket's
    schedule is near-optimal -- while the exact re-plan runs in the
    background and is **hot-swapped** into the store (and the server's
    memory cache) on completion.  Subsequent identical requests coalesce
    onto the in-flight re-plan or hit the swapped entry.

telemetry
    Every decision increments a counter (`requests`, `coalesced`,
    `memory_hits`, `store_hits`, `nearest_hits`, `planner_runs`,
    `hot_swaps`, ...), in the same observable-counter style as
    ``LancetReport.cache_stats``; hot swaps additionally append a
    :class:`HotSwapEvent` recording the served-vs-exact predicted gap.
    :meth:`PlanServer.stats` merges server, memory-cache and store
    counters into one JSON-friendly snapshot (the ``serve stats`` CLI).

graceful degradation (ISSUE 8; see ``docs/RELIABILITY.md``)
    The request path never takes the service down with it.  Store
    lookups and puts go through :func:`repro.api.store.store_call`, the
    degrader ``compile()`` and the trainer share: a corrupt entry is a
    warned miss, transient I/O errors are retried with bounded
    exponential backoff and then degrade to a warned miss (or skipped
    write).  Planner runs are bounded by per-request deadlines
    (``deadline_s``) and a planner timeout (``planner_timeout_s``): a
    timed-out run is *abandoned but not killed* -- it lands later as a
    late publish that warms the caches.  Repeated planner failures trip
    a :class:`CircuitBreaker` (closed -> open -> half-open), and once it
    is open -- or a deadline is blown -- requests are answered from a
    tiered fallback chain, **exact -> nearest -> stale -> baseline**,
    instead of erroring: the unbounded-radius *stale* tier serves any
    structurally valid plan of the same base identity, and the
    *baseline* tier wraps the unoptimized program in a plan, which is
    always constructible without the planner.  ``ServeResult.origin``
    names the tier that answered.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass

from ..api.compiler import plan_resolved, resolve_workload
from ..api.fingerprint import graph_fingerprint
from ..api.plan import Plan, PlanError, PlanPolicy
from ..api.scenario import Scenario
from ..api.store import PlanIdentity, PlanStore, scenario_key, store_call
from ..core.cache import LRUCache
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


class _PlannerTimeout(Exception):
    """Internal: a planner run exceeded its time budget."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker for the planner path.

    ``closed`` until ``threshold`` consecutive failures, then ``open``
    for ``cooldown_s``; after the cooldown one *half-open* trial run is
    admitted -- success closes the breaker, failure re-opens it (and
    restarts the cooldown).  Thread-safe; the :class:`PlanServer`
    consults it before every cold planner run and serves the fallback
    chain while it refuses.
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
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
            "trips": self.trips,
        }


@dataclass
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
    object unchanged.
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
        Planner thread-pool width (default: executor default).  Planner
        runs are CPU-bound Python, so this bounds memory pressure more
        than it buys parallel speedup; coalescing is what provides the
        throughput.
    memory_cache_size:
        Entries in the server's in-process plan cache (0 disables it).
        This layer makes the warm path free of disk I/O; it is refreshed
        on every publish/hot-swap through *this* server, so its staleness
        against writes by other processes is bounded by entry turnover.
    nearest:
        Enable nearest-signature serving.
    max_distance:
        Serving radius for nearest-signature answers
        (:data:`DEFAULT_MAX_DISTANCE`).
    check:
        Validate the IR after planner passes (forwarded to the planner).
    planner:
        The planner callable (``plan_resolved``-compatible).  ``None``
        uses :func:`repro.api.compiler.plan_resolved`; the chaos
        harness injects :class:`repro.faults.FlakyPlanner` here.
    deadline_s:
        Default per-request deadline (seconds).  A request that cannot
        reach the planner before its deadline is answered from the
        fallback chain instead of waiting.  ``None`` = no deadline.
    planner_timeout_s:
        Budget for one cold planner run.  A run exceeding it is
        abandoned (the request falls back) but allowed to finish in the
        background, landing as a late publish.  ``None`` = unbounded.
    store_retries / retry_backoff_s:
        Transient ``OSError`` from store I/O is retried up to
        ``store_retries`` times with exponential backoff starting at
        ``retry_backoff_s`` (then degrades to a warned miss, or a
        skipped write; see :func:`~repro.api.store.store_call`).
    breaker_threshold / breaker_cooldown_s:
        :class:`CircuitBreaker` configuration: consecutive planner
        failures before opening, and the open-state cooldown before a
        half-open trial.
    fallback:
        Enable the degraded serving tiers (stale / baseline).  When
        False, deadline misses, planner timeouts, and breaker-refused
        requests raise instead.
    """

    def __init__(
        self,
        store: PlanStore,
        *,
        policy: PlanPolicy | None = None,
        framework: FrameworkProfile = COMPILED,
        max_workers: int | None = None,
        memory_cache_size: int = 512,
        nearest: bool = True,
        max_distance: float = DEFAULT_MAX_DISTANCE,
        check: bool = True,
        planner=None,
        deadline_s: float | None = None,
        planner_timeout_s: float | None = None,
        store_retries: int = 2,
        retry_backoff_s: float = 0.01,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        fallback: bool = True,
    ) -> None:
        self.store = store
        self.policy = policy or PlanPolicy()
        self.framework = framework
        self.nearest = nearest
        self.max_distance = max_distance
        self.check = check
        self._planner = planner
        self.deadline_s = deadline_s
        self.planner_timeout_s = planner_timeout_s
        self.store_retries = store_retries
        self.retry_backoff_s = retry_backoff_s
        self.fallback = fallback
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="plan-server"
        )
        self._lock = threading.Lock()
        #: request key -> in-flight Future[ServeResult]; also holds
        #: background hot-swap re-plans under "swap:<key>" and abandoned
        #: timed-out planner runs under "late:<key>"
        self._inflight: dict[str, Future] = {}
        self._memory = (
            LRUCache(memory_cache_size, name="server-memory")
            if memory_cache_size
            else None
        )
        self.counters = {
            "requests": 0,
            "coalesced": 0,
            "memory_hits": 0,
            "store_hits": 0,
            "nearest_hits": 0,
            "planner_runs": 0,
            "misses": 0,
            "hot_swaps": 0,
            "published": 0,
            "errors": 0,
            # degraded-mode telemetry (ISSUE 8)
            "deadline_hits": 0,
            "planner_timeouts": 0,
            "planner_failures": 0,
            "late_plans": 0,
            "store_retries": 0,
            "store_errors": 0,
            "put_errors": 0,
            "breaker_short_circuits": 0,
            "stale_hits": 0,
            "baseline_plans": 0,
        }
        #: completed hot swaps, in completion order
        self.events: list[HotSwapEvent] = []
        self._closed = False

    # -- identity ------------------------------------------------------------

    def request_key(
        self,
        workload,
        cluster=None,
        policy: PlanPolicy | None = None,
        signatures: dict | None = None,
        framework: FrameworkProfile | None = None,
    ) -> str:
        """Canonical identity of one request (the coalescing key).

        Scenario requests key on the declarative spec -- no graph build
        needed, so submission stays cheap; graph/program requests key on
        the store's canonical plan key.
        """
        policy = policy or self.policy
        framework = framework or self.framework
        if isinstance(workload, Scenario):
            return scenario_key(
                workload, policy, framework, cluster, signatures,
                self.store.digits,
            )
        if cluster is None:
            raise TypeError("graph/program requests require an explicit cluster")
        return PlanIdentity(
            graph_fingerprint(workload), cluster, policy, framework, signatures
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
    ) -> Future:
        """Enqueue one request; returns a ``Future[ServeResult]``.

        Identical concurrent requests coalesce: the key is registered
        synchronously here, so every submission after the first --
        regardless of worker scheduling -- subscribes to the in-flight
        run instead of starting its own.

        ``deadline_s`` (default: the server's ``deadline_s``) bounds how
        long this request may wait on a cold planner run before it is
        answered from the fallback chain instead.
        """
        if self._closed:
            raise RuntimeError("PlanServer is closed")
        policy = policy or self.policy
        framework = framework or self.framework
        if deadline_s is None:
            deadline_s = self.deadline_s
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        key = self.request_key(workload, cluster, policy, signatures, framework)
        with self._lock:
            self.counters["requests"] += 1
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.counters["coalesced"] += 1
                return inflight
            if self._memory is not None:
                plan = self._memory.get(key)
                if plan is not None:
                    self.counters["memory_hits"] += 1
                    done: Future = Future()
                    done.set_result(
                        ServeResult(plan=plan, origin="memory", key=key)
                    )
                    return done
            future: Future = Future()
            self._inflight[key] = future
        self._pool.submit(
            self._serve_into,
            future,
            key,
            workload,
            cluster,
            policy,
            signatures,
            framework,
            deadline,
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
        self, future, key, workload, cluster, policy, signatures, framework,
        deadline=None,
    ) -> None:
        t0 = time.perf_counter()
        try:
            result = self._lookup_or_plan(
                key, workload, cluster, policy, signatures, framework, deadline
            )
            result.latency_s = time.perf_counter() - t0
        except BaseException as err:
            with self._lock:
                self.counters["errors"] += 1
                self._inflight.pop(key, None)
            future.set_exception(err)
            return
        with self._lock:
            # nearest answers were cached before their hot swap was
            # spawned (the swap's exact plan must never be overwritten
            # by the staler neighbor); degraded-tier answers (stale /
            # baseline) must not poison the warm path -- each such
            # request re-walks the ladder until a real plan lands;
            # everything else is cached here
            if self._memory is not None and result.origin not in (
                "nearest", "stale", "baseline"
            ):
                self._memory.put(key, result.plan)
            self._inflight.pop(key, None)
        future.set_result(result)

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

    def _lookup_or_plan(
        self, key, workload, cluster, policy, signatures, framework,
        deadline=None,
    ) -> ServeResult:
        # 1. scenario fast path: warm answer without building a graph
        if isinstance(workload, Scenario) and cluster is None and signatures is None:
            plan = self._store_call(
                self.store.lookup_scenario, workload, policy, framework
            )
            if plan is not None:
                self._count("store_hits")
                return ServeResult(plan=plan, origin="store", key=key)

        resolved = resolve_workload(
            workload,
            cluster,
            policy=policy,
            signatures=signatures,
            framework=framework,
        )
        # 2. exact signature bucket
        plan = self._store_call(self.store.get, resolved.identity)
        if plan is not None:
            self._count("store_hits")
            return ServeResult(plan=plan, origin="store", key=key)

        # 3. nearest bucket now + exact re-plan in the background
        if self.nearest:
            near = self._store_call(
                self.store.nearest,
                resolved.identity,
                max_distance=self.max_distance,
            )
            if near is not None:
                neighbor, distance = near
                with self._lock:
                    self.counters["nearest_hits"] += 1
                    # cache the neighbor *before* the swap can land, so
                    # the exact plan always wins the memory-cache race
                    if self._memory is not None:
                        self._memory.put(key, neighbor)
                self._spawn_hot_swap(key, resolved, neighbor, distance)
                return ServeResult(
                    plan=neighbor, origin="nearest", key=key, distance=distance
                )

        # 4. cold: run the planner and publish -- unless the deadline is
        # already blown or the circuit breaker refuses, in which case the
        # degraded tiers (stale -> baseline) answer instead of erroring
        self._count("misses")
        reason = None
        if deadline is not None and time.monotonic() >= deadline:
            self._count("deadline_hits")
            reason = "deadline"
        elif not self.breaker.allow():
            self._count("breaker_short_circuits")
            reason = "breaker_open"
        else:
            try:
                plan = self._plan_with_budget(key, resolved, deadline)
                return ServeResult(plan=plan, origin="planned", key=key)
            except _PlannerTimeout:
                self._count("planner_timeouts")
                self.breaker.record_failure()
                reason = "planner_timeout"
            except Exception:
                # planner failures raise (pre-ISSUE-8 semantics) until
                # repeated failures open the breaker; the breaker state
                # was already updated by _plan_and_publish
                self._count("planner_failures")
                if not self.fallback:
                    raise
                if self.breaker.state == "closed":
                    raise
                reason = "planner_error"
        if not self.fallback:
            raise PlanError(f"planner unavailable ({reason}) for {key}")
        return self._serve_degraded(key, resolved, reason)

    def _plan_and_publish(self, resolved) -> Plan:
        planner = self._planner if self._planner is not None else plan_resolved
        try:
            plan = planner(resolved, check=self.check)
        except BaseException:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        self._count("planner_runs")
        self._store_call(
            self.store.put,
            plan,
            index_scenario=resolved.scenario_pure,
            errors="put_errors",
        )
        return plan

    def _plan_with_budget(self, key, resolved, deadline) -> Plan:
        """One cold planner run, bounded by the request deadline and the
        server's planner timeout.

        Without a budget this is a plain in-worker run.  With one, the
        run happens on a dedicated thread the worker waits on: on
        timeout the run is *abandoned* (raises :class:`_PlannerTimeout`
        so the request falls back) but keeps going in the background --
        its plan lands in the store and memory cache as a late publish
        (``late_plans``), healing subsequent requests.
        """
        budget = self.planner_timeout_s
        if deadline is not None:
            remaining = deadline - time.monotonic()
            budget = remaining if budget is None else min(budget, remaining)
        if budget is None:
            return self._plan_and_publish(resolved)
        if budget <= 0:
            raise _PlannerTimeout(key)

        done: Future = Future()
        late_key = f"late:{key}"
        with self._lock:
            self._inflight[late_key] = done
        abandoned = threading.Event()

        def run() -> None:
            try:
                plan = self._plan_and_publish(resolved)
            except BaseException as err:
                with self._lock:
                    if abandoned.is_set():
                        self.counters["errors"] += 1
                    self._inflight.pop(late_key, None)
                done.set_exception(err)
                if abandoned.is_set():
                    done.exception()  # consumed: nobody awaits a late run
                return
            with self._lock:
                if abandoned.is_set():
                    self.counters["late_plans"] += 1
                    if self._memory is not None:
                        self._memory.put(key, plan)
                self._inflight.pop(late_key, None)
            done.set_result(plan)

        threading.Thread(
            target=run, name="plan-server-timed", daemon=True
        ).start()
        try:
            return done.result(timeout=budget)
        except FuturesTimeout:
            abandoned.set()
            raise _PlannerTimeout(key) from None

    # -- degraded serving tiers (ISSUE 8) -------------------------------------

    def _serve_degraded(self, key, resolved, reason) -> ServeResult:
        """The stale -> baseline tail of the fallback chain.

        Reached only after the healthy tiers (memory, exact store,
        nearest-within-radius) missed and the planner was unavailable
        (deadline blown, run timed out, repeated failures).  Never
        raises: the baseline tier is always constructible.
        """
        stale = self._store_call(
            self.store.nearest, resolved.identity, max_distance=math.inf
        )
        if stale is not None:
            plan, distance = stale
            self._count("stale_hits")
            if reason == "deadline" and self.breaker.state == "closed":
                # the planner is healthy, only this request ran out of
                # time: heal the bucket in the background
                self._spawn_hot_swap(key, resolved, plan, distance)
            return ServeResult(
                plan=plan,
                origin="stale",
                key=key,
                distance=distance,
                reason=reason,
            )
        self._count("baseline_plans")
        plan = self._baseline_plan(resolved, reason)
        if reason == "deadline" and self.breaker.state == "closed":
            self._spawn_hot_swap(key, resolved, plan, None)
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

    # -- background hot swap -------------------------------------------------

    def _spawn_hot_swap(self, key, resolved, neighbor, distance) -> None:
        """Kick off the exact re-plan behind a nearest-signature answer.

        Registered in ``_inflight`` under a swap key so that a storm of
        requests landing in the same missing bucket spawns exactly one
        background planner run.
        """
        swap_key = f"swap:{key}"
        with self._lock:
            if swap_key in self._inflight or self._closed:
                return
            swap_future: Future = Future()
            self._inflight[swap_key] = swap_future
        self._pool.submit(
            self._hot_swap_into,
            swap_future,
            swap_key,
            key,
            resolved,
            neighbor.predicted_iteration_ms,
            distance,
        )

    def _hot_swap_into(
        self, future, swap_key, key, resolved, served_predicted_ms, distance
    ) -> None:
        t0 = time.perf_counter()
        try:
            plan = self._plan_and_publish(resolved)
        except BaseException as err:
            with self._lock:
                self.counters["errors"] += 1
                self._inflight.pop(swap_key, None)
            future.set_exception(err)
            return
        event = HotSwapEvent(
            key=key,
            distance=distance,
            served_predicted_ms=served_predicted_ms,
            exact_predicted_ms=plan.predicted_iteration_ms,
            seconds=time.perf_counter() - t0,
        )
        with self._lock:
            if self._memory is not None:
                self._memory.put(key, plan)
            self.counters["hot_swaps"] += 1
            self.events.append(event)
            self._inflight.pop(swap_key, None)
        future.set_result(event)

    # -- publishing (trainer integration) ------------------------------------

    def publish(self, plan: Plan, index_scenario: bool = False) -> None:
        """Publish an externally produced plan (e.g. a
        :class:`~repro.train.ReoptimizingTrainer` re-plan) through the
        server: written to the shared store and installed in the memory
        cache, so subsequent requests for its identity are warm."""
        self._store_call(
            self.store.put, plan, index_scenario=index_scenario, errors="put_errors"
        )
        key = PlanIdentity.of(plan).key(self.store.digits)
        with self._lock:
            if self._memory is not None:
                self._memory.put(key, plan)
            self.counters["published"] += 1

    # -- lifecycle / observability -------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Block until every in-flight request and background hot swap
        has completed (makes telemetry deterministic for tests/benches).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = list(self._inflight.values())
            if not pending:
                return
            for f in pending:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                try:
                    f.result(timeout=remaining)
                except Exception:  # surfaced to the original caller too
                    pass

    def close(self, wait: bool = True) -> None:
        """Drain (optionally) and shut the worker pool down."""
        if wait:
            self.drain()
        self._closed = True
        self._pool.shutdown(wait=wait)

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
                "inflight": len(self._inflight),
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
    nearest: bool = True,
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
        nearest=nearest,
    ) as server:
        return server.compile_many(workloads)
