"""JSON serialization of IR programs.

The optimized schedule is Lancet's deployable artifact: a plan computed
once should be storable, versioned, and reloadable in another process
(see :mod:`repro.api`).  This module provides the IR half of that story:

- :func:`program_to_json` / :func:`program_from_json` round-trip a
  :class:`~repro.ir.program.Program` through plain JSON types
  **bit-identically** -- every value type, instruction attribute,
  ordering, uid, partition annotation, and grad mapping is reconstructed
  exactly, so a reloaded program simulates to the same timeline as the
  original (enforced by ``tests/test_ir_serialize.py``).
- :func:`structural_program_dict` is the uid-*independent* canonical
  form used for graph fingerprinting: two programs built independently
  (in different processes, with different global uid counters) that
  describe the same computation produce the same structure, so plan
  caches can key on it.

Instruction uids are preserved verbatim on load (passes and the
simulator key state on them); the module-global uid counter is advanced
past the loaded maximum so instructions created afterwards can never
collide with deserialized ones.
"""

from __future__ import annotations

import itertools

from .instruction import Instruction, InstrKind, ensure_uid_floor
from .ops import get_op
from .program import Program
from .tensor import Dim, DType, TensorType, Value

#: Version of the IR serialization schema itself (bumped on any change
#: to the layout below; consumers embed it in their own envelopes).
IR_SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """A program (or serialized form) that cannot be (de)serialized."""


# -- attribute codec ----------------------------------------------------------
#
# Instruction attrs are plain scalars today (ints, floats, bools,
# strings), but passes are free to attach richer static metadata.  JSON
# cannot tell a tuple from a list, and silently turning tuples into
# lists would break bit-identity (and dict-key hashability), so tuples
# are tagged.  Anything outside this closed set is an error -- refusing
# loudly beats deserializing garbage.

_TUPLE_TAG = "__tuple__"


def _encode_attr(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_attr(v) for v in value]}
    if isinstance(value, list):
        return [_encode_attr(v) for v in value]
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise SerializationError(
                f"attr dicts must have string keys, got {list(value)!r}"
            )
        if _TUPLE_TAG in value:
            raise SerializationError(
                f"attr dict key {_TUPLE_TAG!r} is reserved by the codec"
            )
        return {k: _encode_attr(v) for k, v in value.items()}
    raise SerializationError(
        f"cannot serialize instruction attr of type {type(value).__name__}: "
        f"{value!r}"
    )


def _decode_attr(value):
    if isinstance(value, dict):
        if _TUPLE_TAG in value and len(value) == 1:
            return tuple(map(_decode_attr, value[_TUPLE_TAG]))
        return {k: _decode_attr(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(map(_decode_attr, value))
    return value


# -- values -------------------------------------------------------------------
#
# Programs have thousands of values but only a few dozen distinct tensor
# types (a GPT2-S-MoE training graph: ~2400 values, 34 types), so types
# are interned in a table and each value row is a compact
# ``[id, name, type_index]`` triple.  This keeps plan artifacts small
# and makes deserialization fast enough that a disk-cached plan loads in
# milliseconds (the whole point of :class:`repro.api.PlanStore`).


def _type_to_json(t: TensorType) -> dict:
    return {
        "shape": list(t.shape),
        "dtype": t.dtype.value,
        "dims": [d.value for d in t.dims],
    }


def _type_from_json(obj: dict) -> TensorType:
    try:
        return TensorType(
            shape=tuple(int(s) for s in obj["shape"]),
            dtype=DType(obj["dtype"]),
            dims=tuple(Dim(d) for d in obj["dims"]),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise SerializationError(f"bad serialized type {obj!r}: {err}") from err


# -- instructions -------------------------------------------------------------


def _instruction_to_json(instr: Instruction) -> dict:
    obj = {
        "op": instr.op,
        "inputs": list(instr.inputs),
        "outputs": list(instr.outputs),
        "attrs": _encode_attr(dict(instr.attrs)),
        "kind": instr.kind.value,
        "uid": instr.uid,
    }
    # keep the common case compact: most instructions are unpartitioned
    if instr.partition is not None:
        obj["partition"] = list(instr.partition)
    if instr.origin is not None:
        obj["origin"] = instr.origin
    return obj


#: ``InstrKind`` by serialized value
_KINDS = {kind.value: kind for kind in InstrKind}


def _instruction_from_json(obj: dict) -> Instruction:
    try:
        op = str(obj["op"])
        get_op(op)  # unknown ops fail here, not deep inside a pass
        partition = obj.get("partition")
        origin = obj.get("origin")
        return Instruction(
            op=op,
            inputs=tuple(map(int, obj["inputs"])),
            outputs=tuple(map(int, obj["outputs"])),
            attrs=_decode_attr(obj.get("attrs", {})),
            kind=_KINDS[obj["kind"]],
            uid=int(obj["uid"]),
            partition=tuple(map(int, partition)) if partition else None,
            origin=int(origin) if origin is not None else None,
        )
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise SerializationError(
            f"bad serialized instruction {obj!r}: {err}"
        ) from err


# -- programs -----------------------------------------------------------------


def program_to_json(program: Program) -> dict:
    """Serialize a program to a JSON-compatible dict (see module doc)."""
    type_index: dict[TensorType, int] = {}
    values = []
    for v in program.values.values():
        idx = type_index.get(v.type)
        if idx is None:
            idx = type_index.setdefault(v.type, len(type_index))
        values.append([v.id, v.name, idx])
    return {
        "ir_version": IR_SCHEMA_VERSION,
        "name": program.name,
        "types": [_type_to_json(t) for t in type_index],
        "values": values,
        "instructions": [
            _instruction_to_json(i) for i in program.instructions
        ],
        "inputs": list(program.inputs),
        "params": list(program.params),
        "states": list(program.states),
        "outputs": list(program.outputs),
        # JSON object keys are strings; keep grads as pairs to preserve
        # the int->int mapping exactly
        "grads": [[k, v] for k, v in program.grads.items()],
    }


def program_from_json(obj: dict, check: bool = True) -> Program:
    """Reconstruct a program serialized by :func:`program_to_json`.

    Raises :class:`SerializationError` on malformed input (wrong IR
    schema version, unknown ops, missing fields) instead of building a
    half-valid program.  With ``check=True`` the result is additionally
    run through the IR validator.
    """
    if not isinstance(obj, dict):
        raise SerializationError(
            f"serialized program must be a dict, got {type(obj).__name__}"
        )
    version = obj.get("ir_version")
    if version != IR_SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported IR schema version {version!r} "
            f"(this build reads version {IR_SCHEMA_VERSION})"
        )
    try:
        p = Program(str(obj["name"]))
        types = [_type_from_json(to) for to in obj["types"]]
        for vid, name, tidx in obj["values"]:
            vid = int(vid)
            if vid in p.values:
                raise SerializationError(f"duplicate value id {vid}")
            if type(tidx) is not int or not 0 <= tidx < len(types):
                raise SerializationError(
                    f"value {vid} has bad type index {tidx!r}"
                )
            p.values[vid] = Value(vid, types[tidx], str(name))
        p.instructions = [_instruction_from_json(io) for io in obj["instructions"]]
        p.inputs = [int(v) for v in obj["inputs"]]
        p.params = [int(v) for v in obj["params"]]
        p.states = [int(v) for v in obj["states"]]
        p.outputs = [int(v) for v in obj["outputs"]]
        p.grads = {int(k): int(v) for k, v in obj["grads"]}
    except SerializationError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise SerializationError(f"malformed serialized program: {err}") from err

    # future values must allocate above every deserialized id, and the
    # process-global instruction counter must clear the loaded uids
    p._next_value_id = itertools.count(max(p.values, default=-1) + 1)
    ensure_uid_floor(max((i.uid for i in p.instructions), default=-1) + 1)

    if check:
        from .validate import validate

        try:
            validate(p)
        except Exception as err:
            raise SerializationError(
                f"deserialized program failed validation: {err}"
            ) from err
    return p


def structural_program_dict(program: Program) -> dict:
    """Uid-independent canonical form of a program, for fingerprinting.

    Identical to :func:`program_to_json` except that instruction uids
    are replaced by program positions (and ``origin`` references are
    remapped the same way, falling back to ``None`` for origins outside
    the program): two structurally identical programs built by different
    processes -- whose global uid counters differ -- hash identically.
    """
    obj = program_to_json(program)
    position_of = {i.uid: pos for pos, i in enumerate(program.instructions)}
    for pos, io in enumerate(obj["instructions"]):
        io["uid"] = pos
        if "origin" in io:
            origin = position_of.get(io["origin"])
            if origin is None:
                del io["origin"]
            else:
                io["origin"] = origin
    return obj
