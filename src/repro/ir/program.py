"""The IR program: an ordered instruction sequence plus a value table.

A :class:`Program` is the unit all Lancet passes operate on.  It is
deliberately close to the paper's model: a flat, ordered list of
instructions over SSA values, with designated *inputs* (per-iteration data),
*params* (trainable weights), and *states* (optimizer state).
"""

from __future__ import annotations

import itertools

from .instruction import Instruction, InstrKind
from .ops import get_op
from .tensor import TensorType, Value


class Program:
    """An ordered sequence of instructions over a table of SSA values."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.values: dict[int, Value] = {}
        self.instructions: list[Instruction] = []
        #: value ids fed per-iteration (token ids, labels, ...)
        self.inputs: list[int] = []
        #: value ids of trainable parameters
        self.params: list[int] = []
        #: value ids of optimizer state (e.g. momentum buffers)
        self.states: list[int] = []
        #: value ids the program returns (loss, updated params, ...)
        self.outputs: list[int] = []
        #: map param value id -> gradient value id (filled by autodiff)
        self.grads: dict[int, int] = {}
        self._next_value_id = itertools.count()

    # -- value management ---------------------------------------------------

    def new_value(self, type: TensorType, name: str = "") -> Value:
        """Create and register a fresh SSA value."""
        vid = next(self._next_value_id)
        val = Value(vid, type, name or f"v{vid}")
        self.values[vid] = val
        return val

    def type_of(self, vid: int) -> TensorType:
        """Type of a value id."""
        return self.values[vid].type

    # -- instruction management ---------------------------------------------

    def add(
        self,
        op: str,
        inputs: list[int] | tuple[int, ...],
        attrs: dict | None = None,
        kind: InstrKind | None = None,
        out_names: list[str] | None = None,
        partition: tuple[int, int] | None = None,
        origin: int | None = None,
    ) -> list[Value]:
        """Append an instruction, inferring output types from the registry.

        Returns the freshly created output values.
        """
        spec = get_op(op)
        attrs = dict(attrs or {})
        in_types = [self.type_of(v) for v in inputs]
        out_types = spec.infer(in_types, attrs)
        if kind is None:
            kind = InstrKind.COMM if spec.is_comm else InstrKind.FORWARD
        outs = []
        for i, t in enumerate(out_types):
            nm = out_names[i] if out_names and i < len(out_names) else ""
            outs.append(self.new_value(t, nm))
        instr = Instruction(
            op=op,
            inputs=tuple(inputs),
            outputs=tuple(v.id for v in outs),
            attrs=attrs,
            kind=kind,
            partition=partition,
            origin=origin,
        )
        self.instructions.append(instr)
        return outs

    def add_input(self, type: TensorType, name: str) -> Value:
        """Register a per-iteration input value."""
        v = self.new_value(type, name)
        self.inputs.append(v.id)
        return v

    def add_param(self, type: TensorType, name: str) -> Value:
        """Register a trainable parameter value."""
        v = self.new_value(type, name)
        self.params.append(v.id)
        return v

    def add_state(self, type: TensorType, name: str) -> Value:
        """Register an optimizer-state value."""
        v = self.new_value(type, name)
        self.states.append(v.id)
        return v

    # -- introspection --------------------------------------------------------

    def producers(self) -> dict[int, Instruction]:
        """Map value id -> instruction that produces it."""
        out: dict[int, Instruction] = {}
        for instr in self.instructions:
            for o in instr.outputs:
                out[o] = instr
        return out

    def consumers(self) -> dict[int, list[Instruction]]:
        """Map value id -> instructions that consume it."""
        out: dict[int, list[Instruction]] = {}
        for instr in self.instructions:
            for i in instr.inputs:
                out.setdefault(i, []).append(instr)
        return out

    def instr_index(self) -> dict[int, int]:
        """Map instruction uid -> position in the current order."""
        return {ins.uid: i for i, ins in enumerate(self.instructions)}

    def count_ops(self) -> dict[str, int]:
        """Histogram of op names."""
        hist: dict[str, int] = {}
        for i in self.instructions:
            hist[i.op] = hist.get(i.op, 0) + 1
        return hist

    # -- transformation helpers ------------------------------------------------

    def replace_order(self, new_order: list[Instruction]) -> None:
        """Install a new instruction order (must be a permutation)."""
        if {i.uid for i in new_order} != {i.uid for i in self.instructions}:
            raise ValueError("new order must be a permutation of instructions")
        self.instructions = list(new_order)

    def remap_uses(
        self, substitution: dict[int, int], start: int = 0
    ) -> None:
        """Rewrite instruction inputs ``old value id -> new value id``.

        Only instructions at position >= ``start`` are rewritten (used by the
        partition rewriter to redirect later consumers to reconstructed
        values without touching the pipeline body itself).
        """
        keys = substitution.keys()
        for pos in range(start, len(self.instructions)):
            instr = self.instructions[pos]
            if not keys.isdisjoint(instr.inputs):
                new_inputs = tuple(substitution.get(v, v) for v in instr.inputs)
                self.instructions[pos] = instr.with_(uid=instr.uid, inputs=new_inputs)
        self.outputs = [substitution.get(v, v) for v in self.outputs]
        self.grads = {
            k: substitution.get(v, v) for k, v in self.grads.items()
        }

    def clone(self) -> "Program":
        """Deep-enough copy: fresh instruction list and metadata.

        Values and instructions are immutable, so sharing them is safe.
        """
        p = Program(self.name)
        p.values = dict(self.values)
        p.instructions = list(self.instructions)
        p.inputs = list(self.inputs)
        p.params = list(self.params)
        p.states = list(self.states)
        p.outputs = list(self.outputs)
        p.grads = dict(self.grads)
        # keep allocating above any existing id
        top = max(self.values, default=-1) + 1
        p._next_value_id = itertools.count(top)
        return p

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-compatible dict that round-trips bit-identically through
        :meth:`from_json` (see :mod:`repro.ir.serialize`)."""
        from .serialize import program_to_json

        return program_to_json(self)

    @classmethod
    def from_json(cls, obj: dict, check: bool = True) -> "Program":
        """Reconstruct a program serialized by :meth:`to_json`."""
        from .serialize import program_from_json

        return program_from_json(obj, check=check)

    # -- debugging ---------------------------------------------------------------

    def dump(self, max_instrs: int | None = None) -> str:
        """Readable listing of the program."""
        lines = [f"program {self.name}:"]
        lines.append(f"  inputs: {[self.values[v].name for v in self.inputs]}")
        lines.append(f"  params: {len(self.params)} tensors")
        todo = self.instructions if max_instrs is None else self.instructions[:max_instrs]
        for pos, instr in enumerate(todo):
            lines.append(f"  {pos:4d}: {instr!r}")
        if max_instrs is not None and len(self.instructions) > max_instrs:
            lines.append(f"  ... ({len(self.instructions) - max_instrs} more)")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.instructions)} instrs, "
            f"{len(self.values)} values)"
        )
