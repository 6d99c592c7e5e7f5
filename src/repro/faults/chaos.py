"""Seeded chaos wrappers for end-to-end fault drills.

These are the injection seams the chaos harness
(``benchmarks/bench_fault_recovery.py``, ``pytest -m chaos``) threads
through the serving stack: a :class:`FlakyStore` that raises transient
``OSError`` on a seeded schedule (exercising the server's bounded
retry) and a :class:`FlakyPlanner` that fails or stalls on a seeded
schedule (exercising the planner timeout, circuit breaker, and the
tiered fallback chain).  Both are deterministic in their seed, so chaos
runs are reproducible and CI-gateable.
"""

from __future__ import annotations

import time

import numpy as np


class FlakyStore:
    """Wrap a :class:`~repro.api.store.PlanStore` with seeded I/O faults.

    ``error_rate`` of ``get``/``put``/``nearest`` calls raise a
    transient ``OSError`` -- but never more than ``max_consecutive`` in
    a row, so a caller with bounded retries always eventually succeeds.
    Everything else delegates to the wrapped store.
    """

    def __init__(
        self,
        store,
        *,
        seed: int,
        error_rate: float = 0.2,
        max_consecutive: int = 2,
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self._store = store
        self._rng = np.random.default_rng(seed)
        self.error_rate = error_rate
        self.max_consecutive = max_consecutive
        self._consecutive = 0
        self.injected_errors = 0

    def _maybe_fail(self, op: str) -> None:
        if (
            self._consecutive < self.max_consecutive
            and self._rng.random() < self.error_rate
        ):
            self._consecutive += 1
            self.injected_errors += 1
            raise OSError(f"injected transient {op} failure")
        self._consecutive = 0

    def get(self, *args, **kwargs):
        self._maybe_fail("get")
        return self._store.get(*args, **kwargs)

    def put(self, *args, **kwargs):
        self._maybe_fail("put")
        return self._store.put(*args, **kwargs)

    def nearest(self, *args, **kwargs):
        self._maybe_fail("nearest")
        return self._store.nearest(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._store, name)


class FlakyPlanner:
    """Wrap a planner callable with seeded failures and stalls.

    Compatible with the ``plan_resolved`` signature the
    :class:`~repro.serving.PlanServer` planner seam expects.  Failures
    come from two sources: a seeded per-call ``fail_rate``, and an
    *outage window* ``[outage[0], outage[1])`` over the call counter
    during which every call fails (driving the circuit breaker open).
    ``delay_s`` stalls each successful call, exercising planner
    timeouts.
    """

    def __init__(
        self,
        planner,
        *,
        seed: int = 0,
        fail_rate: float = 0.0,
        outage: tuple[int, int] | None = None,
        delay_s: float = 0.0,
    ) -> None:
        self._planner = planner
        self._rng = np.random.default_rng(seed)
        self.fail_rate = fail_rate
        self.outage = outage
        self.delay_s = delay_s
        self.calls = 0
        self.failures = 0

    def __call__(self, resolved, check: bool = True, optimizer=None):
        call = self.calls
        self.calls += 1
        in_outage = (
            self.outage is not None
            and self.outage[0] <= call < self.outage[1]
        )
        if in_outage or (
            self.fail_rate > 0 and self._rng.random() < self.fail_rate
        ):
            self.failures += 1
            raise RuntimeError(
                f"injected planner failure (call {call}"
                f"{', outage' if in_outage else ''})"
            )
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return self._planner(resolved, check=check, optimizer=optimizer)
