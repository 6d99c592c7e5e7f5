"""Tensor types and values for the Lancet IR.

The IR is shape-static (as in RAF/TVM, the compilers Lancet builds on): every
value carries a concrete shape and dtype.  Dimensions additionally carry a
*role* (batch, sequence, hidden, expert, capacity, ...) because the operator
partition pass reasons about *which* dimension of a tensor is being split --
the paper's partition-axis inference (Sec. 5.2) distinguishes e.g. the batch
axis from the capacity axis, and has a special irregular axis ``A_irr`` for
MoE dispatch buffers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class DType(enum.Enum):
    """Element types supported by the simulated runtime."""

    F32 = "f32"
    F16 = "f16"
    I32 = "i32"
    I64 = "i64"
    BOOL = "bool"

    @property
    def nbytes(self) -> int:
        """Size of one element in bytes."""
        return _DTYPE_BYTES[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_DTYPE_BYTES = {
    DType.F32: 4,
    DType.F16: 2,
    DType.I32: 4,
    DType.I64: 8,
    DType.BOOL: 1,
}


class Dim(enum.Enum):
    """Semantic role of a tensor dimension.

    Roles are advisory metadata used by the partition pass to generate
    partition rules; shapes remain the source of truth for sizes.
    """

    BATCH = "B"
    SEQ = "S"
    HIDDEN = "H"
    FFN = "F"
    HEAD = "A"
    VOCAB = "V"
    EXPERT = "E"
    LOCAL_EXPERT = "El"
    CAPACITY = "C"
    TOKENS = "T"
    GENERIC = "*"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Sentinel partition axis meaning "tensor is not partitioned".
NOT_PARTITIONED = -1

#: Sentinel partition axis for the paper's irregular partition ``A_irr``
#: (Fig. 5c): MoE dispatch buffers split into variable-sized token groups.
AXIS_IRREGULAR = -2


def axis_name(axis: int) -> str:
    """Human-readable name for a partition axis value."""
    if axis == NOT_PARTITIONED:
        return "NP"
    if axis == AXIS_IRREGULAR:
        return "A_irr"
    return str(axis)


@dataclass(frozen=True)
class TensorType:
    """Static type of an IR value: shape, dtype and per-dim roles.

    Parameters
    ----------
    shape:
        Concrete dimension sizes.
    dtype:
        Element type.
    dims:
        Role of each dimension; defaults to :attr:`Dim.GENERIC` for all.
    """

    shape: tuple[int, ...]
    dtype: DType = DType.F16
    dims: tuple[Dim, ...] = field(default=())

    def __post_init__(self) -> None:
        if not all(isinstance(s, int) and s >= 0 for s in self.shape):
            raise ValueError(f"shape must be non-negative ints, got {self.shape}")
        if self.dims and len(self.dims) != len(self.shape):
            raise ValueError(
                f"dims {self.dims} must match shape rank {len(self.shape)}"
            )
        if not self.dims:
            object.__setattr__(self, "dims", (Dim.GENERIC,) * len(self.shape))

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def numel(self) -> int:
        """Total number of elements."""
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        """Total size in bytes."""
        return self.numel * self.dtype.nbytes

    def dim_index(self, role: Dim) -> int:
        """Index of the first dimension with the given role.

        Raises
        ------
        ValueError
            If no dimension has that role.
        """
        for i, d in enumerate(self.dims):
            if d == role:
                return i
        raise ValueError(f"no dimension with role {role} in {self}")

    def has_dim(self, role: Dim) -> bool:
        """Whether any dimension has the given role."""
        return role in self.dims

    def with_shape(self, shape: tuple[int, ...]) -> "TensorType":
        """Same dtype/roles with a new shape (rank must match)."""
        if len(shape) != self.rank:
            raise ValueError(f"rank mismatch: {shape} vs {self.shape}")
        return TensorType(shape, self.dtype, self.dims)

    def split(self, axis: int, parts: int, index: int) -> "TensorType":
        """Type of the ``index``-th chunk when splitting ``axis`` into ``parts``.

        Chunk sizes follow numpy's ``array_split`` convention: the first
        ``size % parts`` chunks get one extra element.
        """
        if not 0 <= axis < self.rank:
            raise ValueError(f"axis {axis} out of range for rank {self.rank}")
        size = self.shape[axis]
        if parts < 1 or parts > max(size, 1):
            raise ValueError(f"cannot split size {size} into {parts} parts")
        base, extra = divmod(size, parts)
        chunk = base + (1 if index < extra else 0)
        new_shape = self.shape[:axis] + (chunk,) + self.shape[axis + 1 :]
        return self.with_shape(new_shape)

    def __repr__(self) -> str:
        dims = ",".join(d.value for d in self.dims)
        return f"{self.dtype.value}[{dims}]{list(self.shape)}"


#: Type used for opaque routing metadata produced by MoE gates.  Numeric
#: execution stores a :class:`repro.moe.routing.RoutingInfo` in such values;
#: the timed executor only needs an (approximate) size for them.
def route_type(num_tokens: int) -> TensorType:
    """Type of the opaque routing-metadata value for ``num_tokens`` tokens."""
    return TensorType((num_tokens, 3), DType.I32, (Dim.TOKENS, Dim.GENERIC))


def is_route_type(t: TensorType) -> bool:
    """Whether a type is the opaque routing-metadata type."""
    return (
        t.rank == 2
        and t.dtype == DType.I32
        and t.dims[0] == Dim.TOKENS
        and t.shape[1] == 3
    )


@dataclass(frozen=True, slots=True)
class Value:
    """A single SSA value in the IR.

    Values are produced by exactly one instruction (or are program inputs /
    parameters) and may be consumed by any number of instructions.
    """

    id: int
    type: TensorType
    name: str = ""

    def __repr__(self) -> str:
        nm = self.name or f"v{self.id}"
        return f"%{nm}:{self.type!r}"
