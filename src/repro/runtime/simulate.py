"""Timed execution of an IR program on the simulated cluster.

This is the "hardware" of the reproduction: a discrete-event simulation
with the standard two-stream GPU model (one compute stream, one NCCL
communication stream).  Instructions issue **in program order** onto
their stream; an instruction starts when its stream is free *and* all its
data dependencies have completed -- exactly the semantics the paper's
pipeline scheduler assumes (Sec. 5.3: "start time = max over (i) end of
dependencies and (ii) end of the previous instruction of the same type").

Two recurrences share the cost model:

- :func:`simulate_program` -- the SPMD-symmetric fast path: all devices
  run the same program on equal-sized data, so one representative device
  timeline suffices.  Collective durations come from the cluster-wide
  network model (the busiest participant's stream).
- :func:`simulate_cluster` -- ``G`` per-device timelines with
  device-resolved collectives: each device's all-to-all busy time is its
  own send/receive bottleneck under the realized routing, collectives
  start once every participant has arrived and complete at the max over
  participants, and per-device straggler slowdowns stretch compute.
  With uniform routing and no stragglers this degenerates to ``G``
  copies of the representative timeline, bit-for-bit.
  :func:`simulate_cluster_batch` evaluates ``B`` routing / straggler
  scenarios of one program in a single pass of the vectorized engine
  (:mod:`~repro.runtime.batch`), and :func:`simulate_cluster` is that
  engine's ``B = 1`` view, so a batch is bit-identical to calling
  :func:`simulate_cluster` once per scenario.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

import math

from ..ir import Dim, Instruction, Program, Stream, TensorType, get_op
from .batch import pack_scenarios, simulate_scenarios
from .cluster import ClusterSpec
from .device import COMPILED, FrameworkProfile
from .routing_model import (
    RoutingSignature,
    SyntheticRoutingModel,
    UniformRoutingModel,
)
from .timeline import ClusterTimeline, Interval, Timeline

#: Ops whose kernel time is scaled by the framework's dispatch multiplier
#: (DeepSpeed's slow dispatch vs Tutel's fast kernels, paper Sec. 7).
DISPATCH_OPS = {
    "moe_dispatch",
    "moe_combine",
    "moe_dispatch_dx",
    "moe_combine_dx",
    "moe_combine_dprobs",
    "routing",
    "routing_partial",
}


def scale_capacity(
    t: TensorType, parts: int, occupancy: float = 1.0
) -> TensorType:
    """Shrink the capacity (or token) dimension of an irregular chunk,
    optionally also by the realized occupancy (block-sparse kernels)."""
    if t.has_dim(Dim.CAPACITY):
        i = t.dim_index(Dim.CAPACITY)
    elif t.has_dim(Dim.TOKENS):
        i = t.dim_index(Dim.TOKENS)
    else:
        return t
    shape = list(t.shape)
    shape[i] = max(1, math.ceil(shape[i] * occupancy / parts))
    return t.with_shape(tuple(shape))


#: expert computation ops whose padded slots a block-sparse kernel skips
EXPERT_BUF_OPS = frozenset({"expert_ffn", "expert_ffn_dx", "expert_ffn_dw"})


@dataclass
class SimulationConfig:
    """Everything that determines ground-truth op durations."""

    cluster: ClusterSpec
    framework: FrameworkProfile = COMPILED
    #: True = all-to-alls move the full padded buffer (baseline behaviour);
    #: False = irregular all-to-all moving only realized token counts
    #: (Lancet's two-phase protocol, paper Fig. 10).
    padded_a2a: bool = True
    #: MegaBlocks-style block-sparse expert kernels (paper Sec. 8 future
    #: work): expert computation skips padded capacity slots, so its cost
    #: scales with realized tokens instead of E*C.
    block_sparse_experts: bool = False
    routing: SyntheticRoutingModel | UniformRoutingModel = field(
        default_factory=lambda: SyntheticRoutingModel(seed=0)
    )
    #: Per-device compute slowdown multipliers (1.0 = nominal speed), for
    #: heterogeneous-cluster / straggler scenarios.  A sequence of length
    #: ``cluster.num_gpus`` or a mapping ``{device_index: factor}``
    #: (unlisted devices run at 1.0).  Affects compute only -- network
    #: time is modelled by the cluster, not the GPU clock.  ``None``
    #: means all devices are nominal; only :func:`simulate_cluster`
    #: resolves per-device factors (the representative-device
    #: :func:`simulate_program` ignores them).
    straggler_slowdown: Sequence[float] | Mapping[int, float] | None = None

    def device_slowdowns(self) -> np.ndarray:
        """Resolved per-device compute multipliers, shape [num_gpus]."""
        g = self.cluster.num_gpus
        if self.straggler_slowdown is None:
            return np.ones(g)
        if isinstance(self.straggler_slowdown, Mapping):
            out = np.ones(g)
            for d, f in self.straggler_slowdown.items():
                if not 0 <= d < g:
                    raise ValueError(f"straggler device {d} out of range")
                out[d] = float(f)
        else:
            out = np.asarray(self.straggler_slowdown, dtype=np.float64)
            if out.shape != (g,):
                raise ValueError(
                    f"straggler_slowdown must have length {g}, got {out.shape}"
                )
        if (out <= 0).any():
            raise ValueError("straggler slowdown factors must be positive")
        return out


class GroundTruthCost:
    """Ground-truth duration of each instruction under a config."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self._compute_cache: dict = {}

    # -- compute ops -------------------------------------------------------------

    def _compute_ms(self, instr: Instruction, program: Program) -> float:
        spec = get_op(instr.op)
        fw = self.config.framework
        gpu = self.config.cluster.gpu
        in_types = [program.type_of(v) for v in instr.inputs]
        out_types = [program.type_of(v) for v in instr.outputs]
        irr_parts = int(instr.attrs.get("irr_parts", 1))
        occupancy = 1.0
        if (
            self.config.block_sparse_experts
            and instr.op in EXPERT_BUF_OPS
            and "tokens" in instr.attrs
        ):
            buf = in_types[0]
            slots = buf.shape[0] * buf.shape[1]
            occupancy = min(1.0, instr.attrs["tokens"] / slots)
        if irr_parts > 1 or occupancy < 1.0:
            # irregular chunk and/or block-sparse kernel: only realized
            # capacity slots are computed (grouped GEMM over real rows)
            in_types = [
                scale_capacity(t, irr_parts, occupancy) for t in in_types
            ]
            out_types = [
                scale_capacity(t, irr_parts, occupancy) for t in out_types
            ]
        key = (
            instr.op,
            tuple(t.shape for t in in_types),
            fw.name,
        )
        hit = self._compute_cache.get(key)
        if hit is not None:
            return hit
        flops = spec.flops(in_types, out_types, instr.attrs)
        nbytes = spec.membytes(in_types, out_types, instr.attrs)
        t = gpu.op_time_ms(flops, nbytes) * fw.compute_mult
        if instr.op in DISPATCH_OPS:
            t *= fw.dispatch_mult
        t += fw.launch_ms(spec.kernels)
        self._compute_cache[key] = t
        return t

    # -- communication ops ----------------------------------------------------------

    def _irregular_a2a(
        self, instr: Instruction, program: Program
    ) -> tuple[tuple, float, int] | None:
        """Routing-draw arguments of an irregular all-to-all, as
        ``(draw, fraction, bytes_per_token)`` where ``draw`` is
        ``(layer_key, num_gpus, num_experts, tokens, capacity)`` -- or
        ``None`` when the collective moves the full padded buffer."""
        if self.config.padded_a2a or not instr.attrs.get("irregular", False):
            return None
        buf_t = program.type_of(instr.inputs[0])
        e, capacity, h = buf_t.shape
        tokens = int(instr.attrs.get("tokens", e * capacity))
        layer_key = instr.attrs.get("moe_layer", instr.origin or instr.uid)
        fraction = 1.0
        if instr.partition is not None:
            fraction = 1.0 / instr.partition[1]
        draw = (layer_key, self.config.cluster.num_gpus, e, tokens, capacity)
        return draw, fraction, h * buf_t.dtype.nbytes

    def a2a_pair_bytes(
        self, instr: Instruction, program: Program
    ) -> np.ndarray | None:
        """Realized pair-bytes matrix of an irregular all-to-all, or
        ``None`` when the collective moves the full padded buffer."""
        args = self._irregular_a2a(instr, program)
        if args is None:
            return None
        draw, fraction, bytes_per_token = args
        return self.config.routing.pair_bytes_for(
            *draw, bytes_per_token=bytes_per_token, fraction=fraction
        )

    def a2a_expert_counts(
        self, instr: Instruction, program: Program
    ) -> tuple[np.ndarray, float] | None:
        """Realized expert-level dispatch counts of an irregular
        all-to-all, as ``(counts [num_gpus, num_experts],
        bytes_per_token)`` -- or ``None`` when the collective moves the
        full padded buffer.

        The expert-resolved companion of :meth:`a2a_pair_bytes` (same
        routing draw, same capacity and chunk-fraction handling): pair
        bytes collapse experts onto their owner devices, which is enough
        to *price* an all-to-all but not to *re-place* experts -- the
        placement optimizer needs the per-expert decomposition.
        """
        args = self._irregular_a2a(instr, program)
        if args is None:
            return None
        draw, fraction, bytes_per_token = args
        counts = self.config.routing.counts_for(*draw, fraction=fraction)
        return counts, float(bytes_per_token)

    def _a2a_ms(self, instr: Instruction, program: Program) -> float:
        pair = self.a2a_pair_bytes(instr, program)
        if pair is None:
            buf_t = program.type_of(instr.inputs[0])
            return self.config.cluster.a2a_time_ms(float(buf_t.nbytes))
        if instr.attrs.get("a2a_algo") == "hierarchical":
            # the plan chose the 2-hop algorithm for this collective
            return self.config.cluster.hierarchical_a2a_time_ms_irregular(pair)
        return self.config.cluster.a2a_time_ms_irregular(pair)

    def duration_ms(self, instr: Instruction, program: Program) -> float:
        """Ground-truth duration of one instruction in milliseconds."""
        if instr.op == "all_to_all":
            return self._a2a_ms(instr, program)
        if instr.op == "allreduce":
            nbytes = float(program.type_of(instr.inputs[0]).nbytes)
            return self.config.cluster.allreduce_time_ms(nbytes)
        return self._compute_ms(instr, program)

    # -- device-resolved costs (simulate_cluster) -------------------------------

    def collective_device_times(
        self, instr: Instruction, program: Program
    ) -> np.ndarray:
        """Per-participant busy time of a collective, shape [num_gpus].

        Padded all-to-alls and all-reduces are symmetric (every device
        moves the same bytes); irregular all-to-alls resolve to each
        device's own send/receive bottleneck under the realized routing,
        so hot-expert owners stay busy longer.  ``result.max()`` always
        equals the representative-device :meth:`duration_ms`.
        """
        g = self.config.cluster.num_gpus
        if instr.op == "all_to_all":
            pair = self.a2a_pair_bytes(instr, program)
            if pair is None:
                buf_t = program.type_of(instr.inputs[0])
                return np.full(
                    g, self.config.cluster.a2a_time_ms(float(buf_t.nbytes))
                )
            if instr.attrs.get("a2a_algo") == "hierarchical":
                return self.config.cluster.hierarchical_a2a_device_times_ms(
                    pair
                )
            return self.config.cluster.a2a_device_times_ms(pair)
        if instr.op == "allreduce":
            nbytes = float(program.type_of(instr.inputs[0]).nbytes)
            return np.full(g, self.config.cluster.allreduce_time_ms(nbytes))
        raise ValueError(f"{instr.op!r} is not a collective")

    def device_duration_ms(
        self, instr: Instruction, program: Program, slowdown: float = 1.0
    ) -> float:
        """Compute-op duration on one device, with its straggler factor."""
        t = self._compute_ms(instr, program)
        return t if slowdown == 1.0 else t * slowdown


def simulate_program(
    program: Program,
    cost: GroundTruthCost | None = None,
    config: SimulationConfig | None = None,
    duration_fn=None,
) -> Timeline:
    """Simulate one training iteration; returns the device timeline.

    Provide either a :class:`GroundTruthCost` / :class:`SimulationConfig`
    pair, or a raw ``duration_fn(instr, program) -> ms`` (used by Lancet's
    internal pipeline scheduler with *predicted* costs).
    """
    if duration_fn is None:
        if cost is None:
            if config is None:
                raise ValueError("need cost, config, or duration_fn")
            cost = GroundTruthCost(config)
        duration_fn = cost.duration_ms

    intervals: list[Interval] = []
    two_stream_makespan(
        program,
        (duration_fn(instr, program) for instr in program.instructions),
        intervals,
    )
    return Timeline(intervals)


def two_stream_makespan(
    program: Program, durations, intervals: list | None = None
) -> float:
    """The two-stream recurrence over ``program`` in program order, with
    ``durations`` (an iterable aligned with the instructions); returns
    the makespan.

    This is the one implementation of the representative-device
    schedule: :func:`simulate_program` runs it with ``intervals`` to
    collect, and the cost model's iteration prediction runs it with a
    duration vector and no intervals.  Each stream's free time is the
    end of its last instruction and never decreases, so
    ``max(compute_free, comm_free)`` equals ``Timeline.makespan`` of
    the collected intervals bit for bit.
    """
    value_ready: dict[int, float] = {}
    compute_free = comm_free = 0.0
    for instr, dur in zip(program.instructions, durations):
        dep_ready = 0.0
        for v in instr.inputs:
            t = value_ready.get(v, 0.0)
            if t > dep_ready:
                dep_ready = t
        if instr.is_comm:
            start = comm_free if comm_free > dep_ready else dep_ready
            comm_free = end = start + dur
        else:
            start = compute_free if compute_free > dep_ready else dep_ready
            compute_free = end = start + dur
        for o in instr.outputs:
            value_ready[o] = end
        if intervals is not None:
            intervals.append(
                Interval(
                    uid=instr.uid,
                    op=instr.op,
                    kind=instr.kind.value,
                    stream=Stream.COMM if instr.is_comm else Stream.COMPUTE,
                    start=start,
                    end=end,
                )
            )
    return compute_free if compute_free > comm_free else comm_free


def simulate_cluster(
    program: Program,
    cost: GroundTruthCost | None = None,
    config: SimulationConfig | None = None,
) -> ClusterTimeline:
    """Simulate one iteration with ``G`` per-device timelines.

    Same program-order two-stream semantics as :func:`simulate_program`,
    but every device is tracked individually:

    - compute instructions run on each device's compute stream, scaled
      by that device's straggler factor (``config.straggler_slowdown``);
    - collectives synchronize: the transfer starts once **every**
      participant has arrived (max over per-device ready times), each
      device's busy interval lasts its own device-resolved duration
      (e.g. a hot-expert owner's all-to-all runs longer), and outputs
      become ready -- and comm streams free -- only when the whole
      collective completes (max over participants).

    With :class:`UniformRoutingModel` routing and no stragglers all
    devices see identical costs, and each per-device timeline is
    bit-for-bit the :func:`simulate_program` timeline.  Under *any*
    routing, with no stragglers, the cluster makespan still equals the
    :func:`simulate_program` makespan bit for bit: devices stay in
    lockstep (equal compute costs, every collective starting at the
    common arrival and releasing outputs and streams at ``start +
    device_times.max()``, which is :meth:`GroundTruthCost.duration_ms`),
    and only a collective's per-device interval ends differ, none past
    that completion.  Callers that read only the makespan of a
    straggler-free config can run the cheaper representative recurrence.

    This is the one-scenario view of the vectorized engine
    (:func:`~repro.runtime.batch.simulate_scenarios`), so it agrees
    with :func:`simulate_cluster_batch` scenario for scenario.
    """
    if cost is None:
        if config is None:
            raise ValueError("need cost or config")
        cost = GroundTruthCost(config)
    return simulate_scenarios(pack_scenarios(program, [cost])).timeline(0)


def simulate_cluster_batch(
    program: Program,
    configs: Sequence[SimulationConfig] | None = None,
    costs: Sequence[GroundTruthCost] | None = None,
):
    """Simulate ``B`` scenarios of one program in one vectorized pass.

    Each entry of ``configs`` (or pre-built ``costs``) is one candidate
    scenario -- a routing realization, straggler pattern, framework or
    protocol variant -- against the *same* instruction stream.  All
    scenarios must share the device count.  Returns a
    :class:`~repro.runtime.batch.BatchClusterResult` whose per-scenario
    timelines are bit-identical to calling :func:`simulate_cluster` once
    per scenario; makespans come straight from the packed arrays, and
    full :class:`~repro.runtime.timeline.ClusterTimeline` objects are
    materialized only on request.

    Vectorizing is safe for bit-identity because every update is a
    float64 ``max`` or a single add -- operations numpy reproduces
    elementwise exactly; no sum is ever reassociated.
    """
    if costs is None:
        if configs is None:
            raise ValueError("need configs or costs")
        costs = [GroundTruthCost(c) for c in configs]
    return simulate_scenarios(pack_scenarios(program, list(costs)))


def observed_routing_signatures(
    program: Program, config: SimulationConfig, with_counts: bool = False
) -> dict[object, RoutingSignature]:
    """Per-MoE-layer routing signatures of a config's realized routing.

    Walks the program's irregular all-to-alls, resolves each layer's
    realized pair-bytes matrix under ``config.routing`` (the same draw
    the ground-truth simulator will see, thanks to the per-layer-key
    cache), and summarizes it as a :class:`RoutingSignature`.  This is
    what the skew-aware optimizer plans against; on real hardware the
    counts would come from the gate's dispatch statistics instead.

    With ``with_counts=True`` the signatures are built from the
    expert-level dispatch counts instead (numerically identical loads)
    and carry the counts as provenance, making them
    :meth:`~RoutingSignature.remap`-able under an expert placement.
    The default stays counts-free: plain pricing doesn't need the
    decomposition and counts enlarge every signature.

    Returns an empty dict for padded configs (no realized irregularity).
    """
    cost = GroundTruthCost(config)
    signatures: dict[object, RoutingSignature] = {}
    for instr in program.instructions:
        if instr.op != "all_to_all" or not instr.attrs.get("irregular"):
            continue
        key = instr.attrs.get("moe_layer", instr.origin or instr.uid)
        if key in signatures:
            continue
        if with_counts:
            got = cost.a2a_expert_counts(instr, program)
            if got is None:
                continue
            counts, bytes_per_token = got
            if instr.partition is not None:
                # a chunk carries 1/k of the layer's traffic; scale back
                # to the full collective (chunk-independent signature)
                counts = counts * instr.partition[1]
            signatures[key] = RoutingSignature.from_counts(
                counts,
                bytes_per_token=bytes_per_token,
                topology=config.cluster.topology,
            )
            continue
        pair = cost.a2a_pair_bytes(instr, program)
        if pair is None:
            continue
        if instr.partition is not None:
            # a chunk carries 1/k of the layer's traffic; scale back to
            # the full collective so the signature is chunk-independent
            pair = pair * instr.partition[1]
        signatures[key] = RoutingSignature.from_pair_bytes(
            pair, topology=config.cluster.topology
        )
    return signatures
