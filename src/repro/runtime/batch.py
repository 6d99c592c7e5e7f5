"""The vectorized cluster simulation engine.

:func:`simulate_scenarios` evaluates one program under ``B`` routing /
straggler scenarios in a single numpy pass over instructions, carrying
``[B, G]`` state arrays instead of ``B`` Python event loops.  It is the
package's only per-device cluster recurrence:
:func:`~repro.runtime.simulate.simulate_cluster` is its ``B = 1`` view
and :func:`~repro.runtime.simulate.simulate_cluster_batch` its ``B``-wide
facade.  Every step is a float64 ``max`` or a single add, performed
elementwise and never reassociated, so scenario ``b``'s result is
bit-identical to a one-scenario run of the same cost model.
Per-scenario :class:`~repro.runtime.timeline.ClusterTimeline` objects
are materialized lazily: makespans come straight from the arrays, and
building ``B * n * G`` ``Interval`` objects is paid only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir import Program, Stream
from .timeline import ClusterTimeline, Interval, Timeline


@dataclass
class ScenarioPack:
    """One program's instruction stream packed against ``B`` cost models.

    Per instruction: the dense input/output value-slot indices shared by
    every scenario, plus the duration tensor -- ``[B, G]`` compute times
    (straggler-scaled exactly like
    :meth:`~repro.runtime.simulate.GroundTruthCost.device_duration_ms`)
    or ``[B, G]`` per-participant collective busy times with their
    ``[B]`` maxima.
    """

    program: Program
    num_scenarios: int
    num_devices: int
    num_values: int
    is_comm: list[bool]
    in_slots: list[np.ndarray]
    out_slots: list[np.ndarray]
    #: compute instructions: [B, G] straggler-scaled durations; comm: None
    comp_dur: list[np.ndarray | None]
    #: collectives: [B, G] per-participant busy times; compute: None
    comm_times: list[np.ndarray | None]
    #: collectives: [B] completion offsets (``times.max()`` per scenario)
    comm_tmax: list[np.ndarray | None]


def pack_scenarios(program: Program, costs: list) -> ScenarioPack:
    """Resolve every scenario's instruction durations into dense arrays.

    ``costs`` are :class:`~repro.runtime.simulate.GroundTruthCost`-likes;
    all must describe clusters with the same device count (a batch
    simulates candidates for *one* placement).
    """
    if not costs:
        raise ValueError("need at least one cost model / config")
    g = costs[0].config.cluster.num_gpus
    for c in costs[1:]:
        if c.config.cluster.num_gpus != g:
            raise ValueError(
                "all batched configs must share one device count; got "
                f"{g} and {c.config.cluster.num_gpus}"
            )
    b = len(costs)
    slowdowns = np.stack([c.config.device_slowdowns() for c in costs])

    slot_of: dict[int, int] = {}

    def slots(values) -> np.ndarray:
        out = np.empty(len(values), dtype=np.intp)
        for j, v in enumerate(values):
            s = slot_of.get(v)
            if s is None:
                s = slot_of[v] = len(slot_of)
            out[j] = s
        return out

    is_comm: list[bool] = []
    in_slots: list[np.ndarray] = []
    out_slots: list[np.ndarray] = []
    comp_dur: list[np.ndarray | None] = []
    comm_times: list[np.ndarray | None] = []
    comm_tmax: list[np.ndarray | None] = []

    for instr in program.instructions:
        is_comm.append(instr.is_comm)
        in_slots.append(slots(instr.inputs))
        out_slots.append(slots(instr.outputs))
        if instr.is_comm:
            times = np.stack(
                [c.collective_device_times(instr, program) for c in costs]
            ).astype(np.float64, copy=False)
            comp_dur.append(None)
            comm_times.append(times)
            comm_tmax.append(times.max(axis=1))
        else:
            base = np.asarray(
                [c.device_duration_ms(instr, program, 1.0) for c in costs],
                dtype=np.float64,
            )
            # exactly device_duration_ms: nominal devices keep the cached
            # time bit-for-bit, stragglers multiply once
            dur = np.where(
                slowdowns == 1.0, base[:, None], base[:, None] * slowdowns
            )
            comp_dur.append(dur)
            comm_times.append(None)
            comm_tmax.append(None)

    return ScenarioPack(
        program=program,
        num_scenarios=b,
        num_devices=g,
        num_values=len(slot_of),
        is_comm=is_comm,
        in_slots=in_slots,
        out_slots=out_slots,
        comp_dur=comp_dur,
        comm_times=comm_times,
        comm_tmax=comm_tmax,
    )


@dataclass
class BatchClusterResult:
    """Start/end times of every instruction for ``B`` scenarios.

    ``starts``/``ends`` have shape ``[n_instr, B, G]``; for a collective
    the start is the common synchronization point and the end is each
    participant's own release time.  Full
    :class:`~repro.runtime.timeline.ClusterTimeline` objects are built
    on demand -- makespans and most figure metrics never need the
    ``B * n * G`` ``Interval`` objects.
    """

    program: Program
    starts: np.ndarray
    ends: np.ndarray

    @property
    def num_candidates(self) -> int:
        return self.starts.shape[1] if self.starts.ndim == 3 else 0

    @property
    def num_devices(self) -> int:
        return self.starts.shape[2] if self.starts.ndim == 3 else 0

    @property
    def makespans(self) -> np.ndarray:
        """Per-scenario cluster makespan, shape ``[B]``."""
        if self.ends.shape[0] == 0:
            return np.zeros(self.num_candidates)
        return self.ends.max(axis=(0, 2))

    def makespan(self, b: int) -> float:
        """Scenario ``b``'s cluster makespan."""
        return float(self.makespans[b])

    def timeline(self, b: int) -> ClusterTimeline:
        """Materialize scenario ``b`` as a full per-device timeline
        (what :func:`~repro.runtime.simulate.simulate_cluster` returns)."""
        instructions = self.program.instructions
        g = self.num_devices
        devices: list[list[Interval]] = [[] for _ in range(g)]
        for i, instr in enumerate(instructions):
            stream = Stream.COMM if instr.is_comm else Stream.COMPUTE
            kind = instr.kind.value
            starts = self.starts[i, b]
            ends = self.ends[i, b]
            for d in range(g):
                devices[d].append(
                    Interval(
                        uid=instr.uid,
                        op=instr.op,
                        kind=kind,
                        stream=stream,
                        start=float(starts[d]),
                        end=float(ends[d]),
                    )
                )
        return ClusterTimeline([Timeline(ivs) for ivs in devices])

    def timelines(self) -> list[ClusterTimeline]:
        """All scenarios as full timelines (the expensive form)."""
        return [self.timeline(b) for b in range(self.num_candidates)]


def simulate_scenarios(pack: ScenarioPack) -> BatchClusterResult:
    """Advance all ``B`` scenarios through the program in one pass.

    State per scenario and device: when each value becomes ready
    (``[B, G, n_values]``) and when each stream frees up (``[B, G]``
    per stream).  Each instruction applies one step of the two-stream
    recurrence to every scenario and device at once:

    - compute: ``end = max(stream_free, dep_ready) + dur`` per device;
    - collective: ``start = max over devices of arrival``, every
      device's interval ends at ``start + its own busy time``, and both
      streams' state advances to the common completion
      ``start + times.max()``.
    """
    b, g = pack.num_scenarios, pack.num_devices
    n = len(pack.is_comm)
    value_ready = np.zeros((b, g, pack.num_values))
    comp_free = np.zeros((b, g))
    comm_free = np.zeros((b, g))
    starts = np.empty((n, b, g))
    ends = np.empty((n, b, g))

    for i in range(n):
        in_slots = pack.in_slots[i]
        if in_slots.size:
            dep = value_ready[:, :, in_slots].max(axis=2)
        else:
            dep = np.zeros((b, g))
        if pack.is_comm[i]:
            # arrival per device, then a cluster-wide synchronization
            arrival = np.maximum(comm_free, dep)
            start = arrival.max(axis=1)
            complete = start + pack.comm_tmax[i]
            starts[i] = start[:, None]
            ends[i] = start[:, None] + pack.comm_times[i]
            comm_free = np.broadcast_to(complete[:, None], (b, g)).copy()
            ready = comm_free
        else:
            start = np.maximum(comp_free, dep)
            end = start + pack.comp_dur[i]
            starts[i] = start
            ends[i] = end
            comp_free = end
            ready = end
        out_slots = pack.out_slots[i]
        if out_slots.size:
            # ready is [B, G]; every output slot of the instruction sees it
            value_ready[:, :, out_slots] = ready[:, :, None]

    return BatchClusterResult(program=pack.program, starts=starts, ends=ends)
