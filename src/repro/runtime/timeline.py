"""Execution timelines and overlap accounting.

The simulator produces an interval per instruction; this module reduces
those to the quantities the paper reports: makespan (iteration time) and
the Fig. 13 decomposition into *non-overlapped communication*, *overlap*,
and *non-overlapped computation*.

Every multi-term reduction here goes through :func:`math.fsum`, which is
exactly rounded and therefore independent of accumulation order.  That
makes the reductions agree bit-for-bit no matter which simulator
produced the intervals (the vectorized cluster engine or the scalar
reference loop the tests keep as an oracle) or in which order a
caller enumerates them -- naive left-to-right ``+=`` would tie the
result to one enumeration order and force differential tests down to
approximate equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..ir import Stream


@dataclass(frozen=True)
class Interval:
    """One executed instruction on the timeline."""

    uid: int
    op: str
    kind: str
    stream: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def merge_intervals(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly overlapping [start, end) spans."""
    if not spans:
        return []
    spans = sorted(spans)
    out = [list(spans[0])]
    for s, e in spans[1:]:
        if s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def total_length(spans: list[tuple[float, float]]) -> float:
    """Total covered length of (already merged) spans (exactly rounded)."""
    return math.fsum(e - s for s, e in spans)


def intersect_length(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Total length of the intersection of two merged span lists."""
    i = j = 0
    overlaps: list[float] = []
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            overlaps.append(e - s)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return math.fsum(overlaps)


@dataclass(frozen=True)
class Breakdown:
    """Fig. 13-style decomposition of one iteration (all times ms)."""

    makespan: float
    comm_only: float
    comp_only: float
    overlapped: float
    idle: float

    @property
    def comm_total(self) -> float:
        """Total communication busy time (overlapped + exposed)."""
        return self.comm_only + self.overlapped

    @property
    def comp_total(self) -> float:
        """Total computation busy time (overlapped + exposed)."""
        return self.comp_only + self.overlapped


@dataclass
class Timeline:
    """All intervals of one simulated iteration on one device."""

    intervals: list[Interval] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """End-to-end iteration time."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def stream_spans(self, stream: str) -> list[tuple[float, float]]:
        """Merged busy spans of one stream."""
        return merge_intervals(
            [(iv.start, iv.end) for iv in self.intervals if iv.stream == stream]
        )

    def breakdown(self) -> Breakdown:
        """Decompose the iteration into comm-only / comp-only / overlap."""
        comp = self.stream_spans(Stream.COMPUTE)
        comm = self.stream_spans(Stream.COMM)
        both = intersect_length(comp, comm)
        t_comp = total_length(comp)
        t_comm = total_length(comm)
        mk = self.makespan
        return Breakdown(
            makespan=mk,
            comm_only=t_comm - both,
            comp_only=t_comp - both,
            overlapped=both,
            idle=mk - (t_comp + t_comm - both),
        )

    def per_op_totals(self) -> dict[str, float]:
        """Total busy time per op name (double-counts nothing: durations)."""
        groups: dict[str, list[float]] = {}
        for iv in self.intervals:
            groups.setdefault(iv.op, []).append(iv.duration)
        return {op: math.fsum(durs) for op, durs in groups.items()}

    def total_time_of(self, ops: set[str] | None = None, kind: str | None = None) -> float:
        """Sum of durations, filtered by op names and/or kind."""
        return math.fsum(
            iv.duration
            for iv in self.intervals
            if (ops is None or iv.op in ops)
            and (kind is None or iv.kind == kind)
        )

    def exposed_time_of(self, ops: set[str]) -> float:
        """Time the given ops spend with the *other* stream idle.

        E.g. ``exposed_time_of({'all_to_all'})`` = non-overlapped
        all-to-all time, the headline metric of the paper.
        """
        target = merge_intervals(
            [(iv.start, iv.end) for iv in self.intervals if iv.op in ops]
        )
        if not target:
            return 0.0
        streams = {iv.stream for iv in self.intervals if iv.op in ops}
        if len(streams) != 1:
            raise ValueError(f"ops {ops} span multiple streams {streams}")
        other = Stream.COMPUTE if streams.pop() == Stream.COMM else Stream.COMM
        other_spans = self.stream_spans(other)
        return total_length(target) - intersect_length(target, other_spans)


@dataclass
class ClusterTimeline:
    """Per-device timelines of one simulated iteration on ``G`` devices.

    Produced by :func:`~repro.runtime.simulate.simulate_cluster`.  Every
    device records its own intervals; collectives appear on each
    participant with that device's busy time, but downstream work (and
    the stream) only resumes once the whole collective has completed.
    """

    devices: list[Timeline] = field(default_factory=list)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device(self, index: int) -> Timeline:
        """Timeline of one device."""
        return self.devices[index]

    @property
    def makespan(self) -> float:
        """Cluster iteration time: the slowest device's makespan."""
        return max((tl.makespan for tl in self.devices), default=0.0)

    def per_device_makespans(self) -> list[float]:
        return [tl.makespan for tl in self.devices]

    @property
    def critical_device(self) -> int:
        """Index of the device that finishes last (the straggler)."""
        spans = self.per_device_makespans()
        return int(np.argmax(spans)) if spans else 0

    def breakdown(self) -> Breakdown:
        """Fig. 13-style decomposition of the critical device."""
        return self.devices[self.critical_device].breakdown()

    def per_device_time_of(
        self, ops: set[str] | None = None, kind: str | None = None
    ) -> list[float]:
        """Per-device total busy time of the given ops (e.g. the spread
        of realized all-to-all durations under skewed routing)."""
        return [tl.total_time_of(ops, kind) for tl in self.devices]

    def per_device_compute_ms(self) -> list[float]:
        """Per-device compute-stream busy time (merged spans).

        The straggler detector's natural input: a device with a
        persistent compute slowdown shows up here regardless of how the
        collectives mask it in the makespan.
        """
        return [
            total_length(tl.stream_spans(Stream.COMPUTE))
            for tl in self.devices
        ]

    def imbalance_ms(self, ops: set[str] | None = None) -> float:
        """Max minus min per-device busy time of ``ops``: 0 for a
        perfectly SPMD-symmetric execution, > 0 under load skew."""
        per = self.per_device_time_of(ops)
        return (max(per) - min(per)) if per else 0.0
