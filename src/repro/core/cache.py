"""Bounded LRU caches with observable hit/miss/eviction counters.

Lancet's optimization loop leans on several memoization layers (the op
profiler, the signature-keyed all-to-all estimates, the trainer's plan
cache, the planner's warm-start state).  Long training runs see an
unbounded stream of distinct routing signatures, so every signature-keyed
cache must be bounded or it grows without limit.  :class:`LRUCache` is
the one implementation they all share: a mapping with least-recently-used
eviction and counters cheap enough to keep always-on, surfaced through
:class:`~repro.core.lancet.LancetReport` for observability.
"""

from __future__ import annotations

from collections import OrderedDict

#: sentinel distinguishing "key absent" from a stored ``None``
_MISSING = object()


class LRUCache:
    """A bounded mapping with LRU eviction and hit/miss/eviction counters.

    Parameters
    ----------
    maxsize:
        Entry cap; ``None`` means unbounded (counters still work, which
        is how the planner-state caches report their effectiveness).
    name:
        Label used when the cache's stats are surfaced in reports.
    """

    __slots__ = ("maxsize", "name", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int | None = None, name: str = "") -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Look up ``key``, counting a hit or a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        if self.maxsize is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        data = self._data
        if key in data:
            if self.maxsize is not None:
                data.move_to_end(key)
            data[key] = value
            return
        data[key] = value
        if self.maxsize is not None and len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key) -> bool:  # does not touch the counters
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._data.clear()

    def stats(self) -> dict:
        """Counter snapshot, JSON-friendly (for ``LancetReport`` /
        ``BENCH_*.json`` records)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = self.maxsize if self.maxsize is not None else "inf"
        return (
            f"LRUCache({self.name or 'anon'}, {len(self._data)}/{cap}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
