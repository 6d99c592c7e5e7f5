"""Caching op profiler (paper Sec. 3, Fig. 7).

Lancet profiles every (partitioned) operator once per shape and caches
the result; the cached time is reused across the many cost queries the
DP partition search makes.  On real hardware profiling means running the
kernel; here it means querying the analytic device model -- the caching
structure and query surface are the same.

The profiler is this reproduction's one op model: the cost estimator
plans with it and the ground-truth simulator
(:class:`~repro.runtime.simulate.GroundTruthCost`) measures with it, so
predicted and simulated compute agree row for row (the ground truth
differs only on collectives and on block-sparse expert occupancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ir import Dim, Instruction, Program, TensorType, get_op
from ..runtime.device import FrameworkProfile, GPUSpec
from .cache import LRUCache

#: default bound of the (op, shapes, attrs) -> time cache.  Generous --
#: a model profiles a few thousand distinct shapes -- but finite, so a
#: long-lived profiler shared across many programs cannot leak.
DEFAULT_PROFILE_CACHE_SIZE = 65536

#: attr value types that enter the cache key
_SCALARS = (int, float, str, bool)

#: Ops whose kernel time is scaled by the framework's dispatch multiplier
#: (DeepSpeed's slow dispatch vs Tutel's fast kernels, paper Sec. 7).
DISPATCH_OPS = frozenset(
    {
        "moe_dispatch",
        "moe_combine",
        "moe_dispatch_dx",
        "moe_combine_dx",
        "moe_combine_dprobs",
        "routing",
        "routing_partial",
    }
)


def chunk_capacity(n: int, parts: int, occupancy: float = 1.0) -> int:
    """Capacity slots one of ``parts`` irregular chunks occupies out of
    ``n``: ``ceil(n * occupancy / parts)``, at least one.  The static-shape
    approximation of paper Sec. 3, optionally scaled by the realized
    occupancy a block-sparse expert kernel computes."""
    return max(1, math.ceil(n * occupancy / parts))


def scale_capacity(
    t: TensorType, parts: int, occupancy: float = 1.0
) -> TensorType:
    """Shrink the capacity (or token) dimension of an irregular chunk
    (:func:`chunk_capacity`)."""
    if t.has_dim(Dim.CAPACITY):
        i = t.dim_index(Dim.CAPACITY)
    elif t.has_dim(Dim.TOKENS):
        i = t.dim_index(Dim.TOKENS)
    else:
        return t
    shape = list(t.shape)
    shape[i] = chunk_capacity(shape[i], parts, occupancy)
    return t.with_shape(tuple(shape))


def chunk_attrs(attrs: dict, parts: int, occupancy: float = 1.0) -> dict:
    """``attrs`` of an irregular chunk: a ``capacity`` attr shrinks like
    the capacity dimension (:func:`chunk_capacity`)."""
    if "capacity" not in attrs:
        return attrs
    return {
        **attrs,
        "capacity": chunk_capacity(int(attrs["capacity"]), parts, occupancy),
    }


@dataclass
class CachingOpProfiler:
    """Measures (simulates) and caches per-op execution times.

    Attributes
    ----------
    gpu / framework:
        The device and execution stack being profiled.
    profile_count:
        Number of *actual* profiling runs performed (cache misses); tests
        use this to assert the cache works and the optimization loop to
        report profiling cost.
    """

    gpu: GPUSpec
    framework: FrameworkProfile
    profile_count: int = 0
    _cache: LRUCache = field(
        default_factory=lambda: LRUCache(
            DEFAULT_PROFILE_CACHE_SIZE, name="op-profiles"
        ),
        repr=False,
    )

    def op_time_ms(
        self,
        op: str,
        in_types: list[TensorType],
        attrs: dict | None = None,
    ) -> float:
        """Execution time of one op with the given input types, cached on
        (op, input shapes, scalar attrs)."""
        attrs = attrs or {}
        scalars = [kv for kv in attrs.items() if isinstance(kv[1], _SCALARS)]
        key = (op, tuple([t.shape for t in in_types]), tuple(sorted(scalars)))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        t = self._profile(op, in_types, attrs)
        self._cache.put(key, t)
        return t

    def instr_time_ms(
        self, instr: Instruction, program: Program, occupancy: float = 1.0
    ) -> float:
        """Execution time of a (non-communication) instruction.

        An irregular chunk (``irr_parts`` > 1, set by the partition
        rewriter) keeps its static ``[E, C, H]`` shape but computes only
        its share of the capacity slots, and a block-sparse expert
        kernel only the realized ``occupancy`` of them: both price at
        the shrunken shapes (:func:`scale_capacity`, :func:`chunk_attrs`).
        """
        in_types = [program.type_of(v) for v in instr.inputs]
        attrs = instr.attrs
        parts = int(attrs.get("irr_parts", 1))
        if parts > 1 or occupancy < 1.0:
            in_types = [scale_capacity(t, parts, occupancy) for t in in_types]
            attrs = chunk_attrs(attrs, parts, occupancy)
        return self.op_time_ms(instr.op, in_types, attrs)

    # -- internals -----------------------------------------------------------

    def _profile(self, op: str, in_types: list[TensorType], attrs: dict) -> float:
        """One profiling run (a device-model query in this reproduction)."""
        self.profile_count += 1
        spec = get_op(op)
        out_types = spec.infer(in_types, attrs)
        flops = spec.flops(in_types, out_types, attrs)
        nbytes = spec.membytes(in_types, out_types, attrs)
        t = self.gpu.op_time_ms(flops, nbytes) * self.framework.compute_mult
        if op in DISPATCH_OPS:
            t *= self.framework.dispatch_mult
        return t + self.framework.launch_ms(spec.kernels)

    def cache_size(self) -> int:
        """Number of distinct (op, shape) entries profiled so far."""
        return len(self._cache)
