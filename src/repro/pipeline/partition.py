"""Stage-partitioner: split a training :class:`~repro.ir.Program` into
per-stage subprograms and reassemble them after per-stage optimization.

Each stage gets three segments, mirroring what its devices execute per
pipeline job:

- **forward** -- the stage's forward blocks (one F job per microbatch);
- **backward** -- its dX/dW work plus backward all-to-alls (one B job);
- **tail** -- gradient all-reduces and optimizer updates, issued once per
  *iteration* after the stage's last microbatch (gradient accumulation).

Segments are real, validating :class:`~repro.ir.Program`\\ s, so the
unmodified :class:`~repro.core.LancetOptimizer` can plan each stage's
partition/dW/a2a choices against the stage's own subgroup cluster.
:func:`reassemble` stitches the (possibly optimized) segments back into
one flat program -- renumbering optimizer-created SSA values, which are
only unique per segment -- and validates the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.partition import forward_length
from ..ir import InstrKind, Program, Value
from ..ir.validate import validate
from .stage import StagedCluster

#: segment phases, in per-stage execution order
PHASES = ("forward", "backward", "tail")


@dataclass
class Segment:
    """One stage's forward, backward, or tail subprogram.

    ``program`` is a mutable slot: replace it with the optimizer's output
    (same declared-output arity) and :func:`reassemble` reconciles ids.
    """

    stage: int
    phase: str
    program: Program
    #: declared outputs at split time (original value ids, position-wise
    #: matched against ``program.outputs`` after optimization)
    declared_outputs: tuple[int, ...] = ()
    #: value ids present at split time -- anything else in an optimized
    #: segment is segment-local and gets renumbered on reassembly
    original_values: frozenset[int] = frozenset()


@dataclass
class SplitProgram:
    """A program split by stage: ``3 * S`` segments plus boundary sizes."""

    source: Program
    staged: StagedCluster
    segments: dict[tuple[int, str], Segment] = field(default_factory=dict)
    #: per-boundary forward-activation bytes (one device's shard)
    fwd_boundary_bytes: tuple[float, ...] = ()
    #: per-boundary backward-gradient bytes (one device's shard)
    bwd_boundary_bytes: tuple[float, ...] = ()

    def segment(self, stage: int, phase: str) -> Segment:
        return self.segments[(stage, phase)]

    def execution_order(self) -> list[Segment]:
        """Segments in reassembly order: all forwards in stage order, all
        backwards in reverse stage order, all tails in stage order --
        a topological order of the cross-segment dataflow."""
        s = self.staged.num_stages
        order = [self.segment(i, "forward") for i in range(s)]
        order += [self.segment(i, "backward") for i in reversed(range(s))]
        order += [self.segment(i, "tail") for i in range(s)]
        return order


def extract_subprogram(
    program: Program, instrs: list, name: str
) -> Program:
    """A valid standalone subprogram over a subset of instructions.

    ``instrs`` must be in program order.  Values consumed but not defined
    inside the subset become the subprogram's roots, classified by the
    source program's declarations (params stay params, optimizer states
    stay states, everything else -- including cross-segment activations --
    becomes an input).  Outputs are the subset's definitions consumed
    outside it, plus any source-program outputs it defines.
    """
    chosen_uids = {i.uid for i in instrs}
    defined = {o for i in instrs for o in i.outputs}
    root_params = set(program.params)
    root_states = set(program.states)

    sub = Program(name)
    for instr in instrs:
        for v in instr.inputs:
            if v in defined or v in sub.values:
                continue
            sub.values[v] = program.values[v]
            if v in root_params:
                sub.params.append(v)
            elif v in root_states:
                sub.states.append(v)
            else:
                sub.inputs.append(v)
        for o in instr.outputs:
            sub.values[o] = program.values[o]
    sub.instructions = list(instrs)

    outside_uses = set(program.outputs)
    for instr in program.instructions:
        if instr.uid not in chosen_uids:
            outside_uses.update(instr.inputs)
    sub.outputs = [
        o for i in instrs for o in i.outputs if o in outside_uses
    ]
    sub.grads = {pa: g for pa, g in program.grads.items() if g in defined}
    sub._next_value_id = itertools.count(max(sub.values, default=-1) + 1)
    return sub


def split_stages(
    graph_or_program,
    staged: StagedCluster,
    forward_len: int | None = None,
    check: bool = True,
) -> SplitProgram:
    """Split a layer-stamped training program into per-stage segments.

    Accepts a :class:`~repro.models.ModelGraph` (which knows its forward
    prefix length) or a bare :class:`~repro.ir.Program` (the forward/
    backward split is then inferred from the first dX/dW/optimizer
    instruction, :func:`~repro.core.partition.forward_length`).
    """
    program = getattr(graph_or_program, "program", graph_or_program)
    if forward_len is None:
        forward_len = getattr(
            graph_or_program, "forward_len", None
        ) or forward_length(program)

    buckets: dict[tuple[int, str], list] = {
        (s, ph): [] for s in range(staged.num_stages) for ph in PHASES
    }
    for idx, instr in enumerate(program.instructions):
        layer = instr.attrs.get("layer")
        if layer is None:
            raise ValueError(
                f"instruction {idx} ({instr.op}) carries no 'layer' attr; "
                "stage partitioning needs layer-stamped programs (rebuild "
                "the graph with the current model builders)"
            )
        stage = staged.stage_of_layer(int(layer))
        if instr.op == "allreduce" or instr.kind == InstrKind.OPTIMIZER:
            phase = "tail"  # once-per-iteration work under accumulation
        elif idx < forward_len:
            phase = "forward"
        else:
            phase = "backward"
        buckets[(stage, phase)].append(instr)

    split = SplitProgram(source=program, staged=staged)
    for (stage, phase), instrs in buckets.items():
        sub = extract_subprogram(
            program, instrs, f"{program.name}/s{stage}-{phase}"
        )
        if check and sub.instructions:
            validate(sub)
        split.segments[(stage, phase)] = Segment(
            stage=stage,
            phase=phase,
            program=sub,
            declared_outputs=tuple(sub.outputs),
            original_values=frozenset(sub.values),
        )

    split.fwd_boundary_bytes, split.bwd_boundary_bytes = _boundary_bytes(
        split
    )
    return split


def _boundary_bytes(split: SplitProgram) -> tuple[tuple, tuple]:
    """Per-boundary activation bytes crossing between adjacent stages.

    A value defined in (forward of) stage ``d`` and consumed in stage
    ``s > d`` transits every boundary in between; same for backward
    gradients flowing the other way.
    """
    num = split.staged.num_stages
    fwd = [0.0] * max(num - 1, 0)
    bwd = [0.0] * max(num - 1, 0)

    def_stage: dict[int, int] = {}
    for s in range(num):
        for instr in split.segment(s, "forward").program.instructions:
            for o in instr.outputs:
                def_stage[o] = s
    for s in range(num):
        for v in split.segment(s, "forward").program.inputs:
            d = def_stage.get(v)
            if d is not None and d < s:
                nbytes = float(split.source.type_of(v).nbytes)
                for b in range(d, s):
                    fwd[b] += nbytes

    grad_stage: dict[int, int] = {}
    for s in range(num):
        for instr in split.segment(s, "backward").program.instructions:
            for o in instr.outputs:
                grad_stage[o] = s
    for s in range(num):
        for v in split.segment(s, "backward").program.inputs:
            d = grad_stage.get(v)
            if d is not None and d > s:
                nbytes = float(split.source.type_of(v).nbytes)
                for b in range(s, d):
                    bwd[b] += nbytes

    return tuple(fwd), tuple(bwd)


def reassemble(split: SplitProgram, name: str | None = None) -> Program:
    """Stitch (possibly optimized) segments back into one flat program.

    Optimizer-created values carry ids that are only unique within their
    segment; they are renumbered into a shared namespace above the source
    program's ids.  Renamed segment outputs (e.g. an all-to-all replaced
    by partitioned chunks plus a concat) are propagated to downstream
    consumers.  The result is validated.
    """
    src = split.source
    out = Program(name or f"{src.name}-staged")
    for vid in src.inputs:
        out.inputs.append(vid)
        out.values[vid] = src.values[vid]
    for vid in src.params:
        out.params.append(vid)
        out.values[vid] = src.values[vid]
    for vid in src.states:
        out.states.append(vid)
        out.values[vid] = src.values[vid]

    next_free = max(src.values, default=-1) + 1
    subst: dict[int, int] = {}  # original id -> renamed final id

    for seg in split.execution_order():
        p = seg.program
        known = seg.original_values
        local: dict[int, int] = {}  # segment-new id -> final id

        def map_use(v: int) -> int:
            if v not in known:
                if v not in local:
                    raise ValueError(
                        f"segment {p.name} reads value %{v} that is "
                        "neither original nor defined locally"
                    )
                return local[v]
            return subst.get(v, v)

        for instr in p.instructions:
            new_in = tuple(map_use(v) for v in instr.inputs)
            new_out = []
            for o in instr.outputs:
                if o in known:
                    fo = o
                else:
                    fo = local.get(o)
                    if fo is None:
                        fo = next_free
                        next_free += 1
                        local[o] = fo
                new_out.append(fo)
                if fo not in out.values:
                    val = p.values[o]
                    out.values[fo] = (
                        val if fo == o else Value(fo, val.type, val.name)
                    )
            new_out = tuple(new_out)
            if new_in != instr.inputs or new_out != instr.outputs:
                instr = instr.with_(
                    uid=instr.uid, inputs=new_in, outputs=new_out
                )
            out.instructions.append(instr)

        if len(p.outputs) != len(seg.declared_outputs):
            raise ValueError(
                f"segment {p.name}: optimizer changed declared-output "
                f"arity ({len(seg.declared_outputs)} -> {len(p.outputs)})"
            )
        for orig, cur in zip(seg.declared_outputs, p.outputs):
            final = local.get(cur, subst.get(cur, cur))
            if final != orig:
                subst[orig] = final

    out.outputs = [subst.get(v, v) for v in src.outputs]
    out.grads = {pa: subst.get(g, g) for pa, g in src.grads.items()}
    out._next_value_id = itertools.count(max(out.values, default=-1) + 1)
    validate(out)
    return out
