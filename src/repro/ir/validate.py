"""IR well-formedness checks.

Lancet's transformations must keep the program a valid, topologically
ordered SSA sequence.  The pass manager runs :func:`validate` once, on
the final program of a pass pipeline: it checks every instruction's SSA
order and re-infers every output type, so one run catches a break made
by any pass (and by a replayed partition segment, which skips shape
inference when it is emitted).
"""

from __future__ import annotations

from .ops import get_op
from .program import Program


class ValidationError(Exception):
    """Raised when a program violates an IR invariant."""


def validate(program: Program) -> None:
    """Check SSA, ordering, and shape-inference consistency.

    Raises
    ------
    ValidationError
        With a description of the first violation found.
    """
    seen_defs: set[int] = set(program.inputs) | set(program.params) | set(
        program.states
    )
    for root in list(seen_defs):
        if root not in program.values:
            raise ValidationError(f"root value %{root} missing from value table")

    for pos, instr in enumerate(program.instructions):
        try:
            spec = get_op(instr.op)
        except KeyError as e:
            raise ValidationError(str(e)) from None

        for vin in instr.inputs:
            if vin not in program.values:
                raise ValidationError(
                    f"instr {pos} ({instr.op}) reads unknown value %{vin}"
                )
            if vin not in seen_defs:
                raise ValidationError(
                    f"instr {pos} ({instr.op}) reads %{vin} before definition"
                )
        for vout in instr.outputs:
            if vout in seen_defs:
                raise ValidationError(
                    f"instr {pos} ({instr.op}) redefines %{vout} (SSA violation)"
                )
            seen_defs.add(vout)

        in_types = [program.type_of(v) for v in instr.inputs]
        try:
            expected = spec.infer(in_types, instr.attrs)
        except Exception as e:  # shape function rejected the inputs
            raise ValidationError(
                f"instr {pos} ({instr.op}) shape inference failed: {e}"
            ) from e
        actual = [program.type_of(v) for v in instr.outputs]
        if len(expected) != len(actual):
            raise ValidationError(
                f"instr {pos} ({instr.op}): {len(actual)} outputs, "
                f"inference gives {len(expected)}"
            )
        for i, (exp, act) in enumerate(zip(expected, actual)):
            if exp.shape != act.shape or exp.dtype != act.dtype:
                raise ValidationError(
                    f"instr {pos} ({instr.op}) output {i}: recorded type "
                    f"{act!r} != inferred {exp!r}"
                )

    for vid in program.outputs:
        if vid not in seen_defs:
            raise ValidationError(f"program output %{vid} is never defined")
