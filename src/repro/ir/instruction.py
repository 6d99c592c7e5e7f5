"""Instructions of the Lancet IR.

Following the paper (Sec. 4), a model's training iteration is a *sequence of
instructions* ``I = [I1, ..., IN]``; each instruction has input tensors,
output tensors and an operator: ``In = (x^n, y^n, f^n)``.  Program order is
the execution order on each device (the executor issues instructions in
order onto their stream), so Lancet's passes optimize by *reordering* and
*rewriting* this sequence.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace


class InstrKind(enum.Enum):
    """Classification of instructions used by the scheduling passes.

    The dW schedule pass (paper Sec. 4) needs to tell *weight-gradient*
    computations (``DW``) apart from activation-gradient computations
    (``DX``): only the former are free to move relative to all-to-alls.
    """

    FORWARD = "forward"
    DX = "dx"
    DW = "dw"
    COMM = "comm"
    OPTIMIZER = "optimizer"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_instr_counter = itertools.count()


def ensure_uid_floor(floor: int) -> None:
    """Advance the global uid counter to at least ``floor``.

    Deserializing a program (see :mod:`repro.ir.serialize`) installs
    instructions with their original uids; the counter must clear them
    so instructions created afterwards can never collide.
    """
    global _instr_counter
    _instr_counter = itertools.count(max(next(_instr_counter), floor))


@dataclass(frozen=True, slots=True)
class Instruction:
    """One IR instruction.

    Attributes
    ----------
    op:
        Name of the operator in the registry (:mod:`repro.ir.ops`).
    inputs / outputs:
        Value ids consumed / produced.
    attrs:
        Static operator attributes (e.g. ``num_heads``, ``capacity``).
    kind:
        Scheduling classification (forward / dX / dW / comm / optimizer).
    uid:
        Unique id, stable across reordering (used to track instructions
        through passes).
    partition:
        ``(index, parts)`` when this instruction is one chunk of a
        partitioned original, else ``None``.
    origin:
        uid of the unpartitioned instruction this chunk came from.
    """

    op: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    attrs: dict = field(default_factory=dict)
    kind: InstrKind = InstrKind.FORWARD
    uid: int = field(default_factory=lambda: next(_instr_counter))
    partition: tuple[int, int] | None = None
    origin: int | None = None

    def with_(self, **changes) -> "Instruction":
        """Return a copy with the given fields replaced (fresh uid unless given)."""
        if "uid" not in changes:
            changes["uid"] = next(_instr_counter)
        return replace(self, **changes)

    @property
    def is_comm(self) -> bool:
        """Whether the instruction runs on the communication stream."""
        return self.kind == InstrKind.COMM

    def __repr__(self) -> str:
        outs = ", ".join(f"%{o}" for o in self.outputs)
        ins = ", ".join(f"%{i}" for i in self.inputs)
        part = f" part={self.partition}" if self.partition else ""
        return f"{outs} = {self.op}({ins}) [{self.kind.value}{part}]"
