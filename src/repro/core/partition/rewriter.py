"""IR rewriting for chosen partition ranges (paper Fig. 8b).

Turns a :class:`RangePlan` into actual instructions:

* **prologue**: ``split_chunk`` for tensors entering the range (or
  ``route_slice`` for routing metadata entering a post-gate range, the
  BPR case), plus one ``capacity_init`` per partitioned gate;
* **body**: one instruction instance per (original instruction, chunk),
  interleaved stage-major / partition-minor exactly as the pipeline
  scheduler assumed; ``routing`` becomes the capacity-passing
  ``routing_partial`` chained through the capacity-state value;
* **epilogue**: reconstruction of every value later consumers (the
  backward pass, mainly) still need -- ``concat`` along the split axis
  for regular chunks, ``accumulate`` (disjoint-slot sum) for irregular
  buffers, ``route_concat`` for routing metadata.

All of this is mathematically exact thanks to the capacity-passing gate:
chunk buffers occupy disjoint slots of the full-capacity buffer, so their
sum *is* the unpartitioned buffer, and token-level dropping matches the
unpartitioned gate bit for bit (tested).

A warm re-plan replays the ranges it rewrote before
(:class:`Segment`, kept in the :class:`~.dp.PlannerState`): what a
rewrite emits depends only on the range, its degree, its solved axes,
the program's types and which of the range's values are read after it,
and all of those are fixed while the state's fingerprint holds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...ir import AXIS_IRREGULAR as IRR
from ...ir import NOT_PARTITIONED as NP
from ...ir import Instruction, InstrKind, Program, Value
from ...ir.tensor import is_route_type
from .dp import PlannerState, RangePlan
from .pipeline import build_stages


class Segment(NamedTuple):
    """One range's rewrite as emitted, before the caller's use remap.

    ``outputs[j]`` holds the values ``instrs[j]`` allocated, and ``base``
    is the first value id the rewrite allocated.  Every value made before
    the rewrite has an id below ``base``, and every value the rewrite
    makes has an id at or above it, so :func:`_replay` can renumber a
    segment by shifting exactly the ids at or above ``base``.
    """

    instrs: list[Instruction]
    outputs: list[list[Value]]
    base: int
    #: original exported value id -> reconstructed id
    substitution: dict[int, int]


def _chunk_sizes(total: int, parts: int) -> list[int]:
    """Chunk sizes following numpy's array_split convention."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _rewrite_range(program: Program, plan: RangePlan) -> Segment:
    """Emit the partitioned form of one range, allocating its values in
    ``program``, and return it unspliced.  Later uses are left for the
    caller to remap."""
    start, end, k, axes = plan.start, plan.end, plan.parts, plan.axes
    instrs = program.instructions[start:end]
    post = program.instructions[end:]

    produced: set[int] = set()
    for ins in instrs:
        produced.update(ins.outputs)
    consumed: set[int] = set()
    for ins in instrs:
        consumed.update(ins.inputs)

    # values needed after the range (by backward, optimizer, or outputs)
    later_needs: set[int] = set(program.outputs) | set(program.grads.values())
    for ins in post:
        later_needs.update(ins.inputs)

    # token chunk boundaries, for route slicing and stochastic gates: the
    # batch axis is split array_split-style, tokens are batch-major
    def token_offsets(total_tokens: int, batch: int) -> list[int]:
        sizes = _chunk_sizes(batch, k)
        per_row = total_tokens // batch
        offs = [0]
        for s in sizes:
            offs.append(offs[-1] + s * per_row)
        return offs

    new_seq: list[Instruction] = []
    new_outs: list[list[Value]] = []

    def emit(op, inputs, attrs=None, kind=None, partition=None, origin=None):
        outs = program.add(
            op, inputs, attrs=attrs, kind=kind, partition=partition, origin=origin
        )
        new_seq.append(program.instructions.pop())
        new_outs.append(outs)
        return outs

    # -- prologue: split entry values ---------------------------------------------
    entry_chunks: dict[tuple[int, int], int] = {}
    for vid in sorted(consumed - produced):
        axis = axes.axis_of(vid)
        if axis == NP:
            continue
        t = program.type_of(vid)
        if axis == IRR:
            if not is_route_type(t):
                raise ValueError(
                    f"cannot split tensor %{vid} irregularly from outside"
                )
            total = t.shape[0]
            # find the batch size from a dispatch consumer to align chunks
            batch = None
            for ins in instrs:
                if ins.op in ("moe_dispatch", "moe_combine") and vid in ins.inputs:
                    ref = program.type_of(ins.inputs[0])
                    batch = ref.shape[0]
                    break
            if batch is None:
                batch = total
            offs = token_offsets(total, batch)
            for p in range(k):
                (chunk,) = emit(
                    "route_slice",
                    [vid],
                    attrs={"start": offs[p], "stop": offs[p + 1]},
                    kind=InstrKind.FORWARD,
                    partition=(p, k),
                )
                entry_chunks[(vid, p)] = chunk.id
        else:
            for p in range(k):
                (chunk,) = emit(
                    "split_chunk",
                    [vid],
                    attrs={"axis": axis, "parts": k, "index": p},
                    kind=InstrKind.FORWARD,
                    partition=(p, k),
                )
                entry_chunks[(vid, p)] = chunk.id

    # one capacity-state chain per partitioned gate
    cap_state: dict[int, int] = {}
    for i, ins in enumerate(instrs):
        if ins.op == "routing":
            (st,) = emit(
                "capacity_init",
                [],
                attrs={"num_experts": ins.attrs["num_experts"]},
                kind=InstrKind.FORWARD,
            )
            cap_state[i] = st.id

    # -- body: stage-major, partition-minor ----------------------------------------
    chunk_val: dict[tuple[int, int], int] = {}

    def input_of(vid: int, p: int) -> int:
        if axes.axis_of(vid) == NP:
            return vid
        if vid in produced:
            return chunk_val[(vid, p)]
        return entry_chunks[(vid, p)]

    stages = build_stages(instrs)
    for stage in stages:
        for p in range(k):
            for i in stage.indices:
                ins = instrs[i]
                inputs = [input_of(v, p) for v in ins.inputs]
                attrs = dict(ins.attrs)
                if ins.op == "routing":
                    probs_t = program.type_of(ins.inputs[0])
                    offs = token_offsets(
                        int(np.prod(probs_t.shape[:-1])), probs_t.shape[0]
                    )
                    attrs["token_offset"] = offs[p]
                    outs = emit(
                        "routing_partial",
                        inputs + [cap_state[i]],
                        attrs=attrs,
                        kind=InstrKind.FORWARD,
                        partition=(p, k),
                        origin=ins.uid,
                    )
                    chunk_val[(ins.outputs[0], p)] = outs[0].id
                    cap_state[i] = outs[1].id
                    continue
                if ins.op == "all_to_all":
                    attrs["irregular"] = axes.axis_of(ins.outputs[0]) == IRR
                elif any(
                    axes.axis_of(v) == IRR
                    for v in list(ins.inputs) + list(ins.outputs)
                ):
                    # irregular chunk: static shape stays [E, C, H] but only
                    # ~1/k of the capacity slots are occupied; the runtime
                    # prices the op at its realized occupancy
                    attrs["irr_parts"] = k
                outs = emit(
                    ins.op,
                    inputs,
                    attrs=attrs,
                    kind=ins.kind,
                    partition=(p, k),
                    origin=ins.uid,
                )
                for ov, nv in zip(ins.outputs, outs):
                    chunk_val[(ov, p)] = nv.id

    # -- epilogue: reconstruct exported values --------------------------------------
    substitution: dict[int, int] = {}
    for vid in sorted(produced & later_needs):
        axis = axes.axis_of(vid)
        chunks = [chunk_val[(vid, p)] for p in range(k)]
        t = program.type_of(vid)
        if axis == IRR and is_route_type(t):
            (full,) = emit("route_concat", chunks, kind=InstrKind.FORWARD)
        elif axis == IRR:
            (full,) = emit("accumulate", chunks, kind=InstrKind.FORWARD)
        elif axis == NP:
            raise AssertionError("partitioned instruction with NP output")
        else:
            (full,) = emit("concat", chunks, attrs={"axis": axis}, kind=InstrKind.FORWARD)
        substitution[vid] = full.id

    # every op emitted here has an output, so the first one's is the
    # first id the rewrite allocated
    return Segment(new_seq, new_outs, new_outs[0][0].id, substitution)


def _replay(program: Program, seg: Segment) -> Segment:
    """Re-emit a recorded segment into ``program`` and return it as
    emitted now: its values are allocated in emission order and every
    in-segment id shifts by ``new_base - base``.

    The values come out numbered exactly as a fresh rewrite numbers them
    (it would allocate the same count, in the same order, from the same
    next id), and the instructions keep their uids, op, attrs and input
    types, so the cost model's uid-keyed prices stay valid.  No shape
    inference runs; the final validation re-infers every instruction.
    """
    new_value = program.new_value
    outputs = [[new_value(v.type) for v in outs] for outs in seg.outputs]
    base = seg.base
    delta = outputs[0][0].id - base
    if delta == 0:
        return seg
    instrs = [
        Instruction(
            op=ins.op,
            inputs=tuple(v + delta if v >= base else v for v in ins.inputs),
            outputs=tuple(v.id for v in outs),
            attrs=ins.attrs,
            kind=ins.kind,
            uid=ins.uid,
            partition=ins.partition,
            origin=ins.origin,
        )
        for ins, outs in zip(seg.instrs, outputs)
    ]
    substitution = {k: v + delta for k, v in seg.substitution.items()}
    return Segment(instrs, outputs, base + delta, substitution)


def apply_plan(program: Program, plan: RangePlan) -> None:
    """Rewrite ``program`` in place, partitioning one range."""
    apply_plans(program, [plan])


def apply_plans(
    program: Program,
    plans: list[RangePlan],
    state: PlannerState | None = None,
) -> None:
    """Apply multiple non-overlapping plans, then remap later uses once.

    Ranges are rewritten in descending start order, which keeps the
    positions of the ones still to come valid and numbers new values
    the same way every time.  One :meth:`~repro.ir.Program.remap_uses`
    pass from the lowest plan start then redirects every consumer of an
    exported value.  That equals remapping after each range: in SSA
    order nothing before a range reads what the range produces, a
    rewritten body reads only chunk values, entry values and values
    from outside the range, and the substitution keys of different
    ranges are disjoint original ids whose targets are all fresh.

    With a :class:`~.dp.PlannerState` (the one that planned ``plans``),
    each rewrite is recorded under ``(start, end, parts)`` and a range
    recorded before is replayed instead (:func:`_replay`).  A recorded
    segment stays valid for as long as the state's fingerprint holds:

    * the range's instructions, its solved axes and every type it reads
      are fixed by the forward prefix and the range;
    * its exports are the values it produces that are read after it.
      What reads after it is the forward tail and the backward half.  A
      rewritten later range reads from outside itself exactly what its
      original instructions read (split entry values, or the value
      itself where it is not partitioned), and the dW pass only reorders
      the backward half, which leaves its set of reads unchanged;
    * it reads only values made before the rewrite and its own, so
      shifting its own ids renumbers it for any set of later ranges.
    """
    if not plans:
        return
    substitution: dict[int, int] = {}
    for plan in sorted(plans, key=lambda pl: pl.start, reverse=True):
        key = (plan.start, plan.end, plan.parts)
        seg = None if state is None else state.segments.get(key)
        if seg is None:
            seg = _rewrite_range(program, plan)
        else:
            seg = _replay(program, seg)
        if state is not None:
            # keep the latest numbering: a re-plan that repeats the
            # ranges above this one replays it unshifted
            state.segments.put(key, seg)
        program.instructions[plan.start : plan.end] = seg.instrs
        substitution.update(seg.substitution)
    program.remap_uses(substitution, start=min(pl.start for pl in plans))
