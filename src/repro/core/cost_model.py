"""Communication cost model (paper Sec. 3).

Built by profiling collectives at geometrically spaced sizes (1 KB, 2 KB,
4 KB, ... up to the largest buffer the model communicates) and linearly
interpolating between the sampled points.

Irregular all-to-alls have runtime-dependent sizes unknown at compile
time; the paper uses a *static-shape approximation*: the cost of an
n-way-partitioned all-to-all with original capacity ``C`` is the profiled
(uniform) cost at capacity ``C / n``.  :meth:`CommCostModel.a2a_partitioned_ms`
implements exactly that, which is where the (small) prediction error of
Fig. 14 comes from.

Beyond the paper, :meth:`CommCostModel.a2a_skewed_ms` conditions the
estimate on a realized routing distribution: given a per-device load
vector (:class:`~repro.runtime.routing_model.RoutingSignature`, derived
from observed dispatch counts), the collective is priced at the
*bottleneck* device's bytes instead of the uniform mean.  With a
balanced signature this reduces to the legacy static-shape estimate
bit-for-bit, so skew-awareness is strictly opt-in.

Also beyond the paper, :meth:`CommCostModel.a2a_hierarchical_ms` prices
the 2-hop topology-aware all-to-all (intra-node gather, node-aggregated
inter-node exchange, intra-node scatter -- see
:mod:`repro.runtime.topology`) and :meth:`CommCostModel.a2a_best_ms`
resolves the per-collective flat/hierarchical choice the planner makes
when :attr:`CostEstimator.enable_hierarchical` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir import Instruction, Program
from ..runtime.cluster import ClusterSpec
from ..runtime.routing_model import RoutingSignature
from .cache import LRUCache
from .profiler import CachingOpProfiler

#: default bound of the signature-keyed all-to-all prediction cache.
#: Long runs with many distinct routing signatures otherwise grow it
#: without limit; 4096 entries comfortably cover every (bytes, parts)
#: pair of a large model times dozens of live signatures.
DEFAULT_A2A_CACHE_SIZE = 4096


@dataclass
class CommCostModel:
    """Piecewise-linear interpolated collective cost model."""

    cluster: ClusterSpec
    min_bytes: float = 1024.0
    max_bytes: float = 2.0**31  # 2 GB upper anchor
    _a2a_pts: tuple = field(default=None, repr=False)  # type: ignore[assignment]
    _ar_pts: tuple = field(default=None, repr=False)  # type: ignore[assignment]
    #: memoized uniform-traffic hierarchical phase coefficients
    _hier_uniform: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        sizes = [self.min_bytes]
        while sizes[-1] < self.max_bytes:
            sizes.append(sizes[-1] * 2)
        sizes = np.asarray(sizes)
        a2a = np.asarray([self.cluster.a2a_time_ms(s) for s in sizes])
        ar = np.asarray([self.cluster.allreduce_time_ms(s) for s in sizes])
        self._a2a_pts = (sizes, a2a)
        self._ar_pts = (sizes, ar)

    @staticmethod
    def _interp(pts: tuple, nbytes: float) -> float:
        sizes, times = pts
        if nbytes > sizes[-1]:
            # beyond the profiled range: extrapolate with the bandwidth
            # (slope) of the last profiled segment instead of clamping,
            # so multi-GB buffers are not priced as if they were 2 GB
            slope = (times[-1] - times[-2]) / (sizes[-1] - sizes[-2])
            return float(times[-1] + (nbytes - sizes[-1]) * slope)
        # below min_bytes np.interp clamps to the smallest sample, which
        # is the latency floor -- the right model for tiny buffers
        return float(np.interp(nbytes, sizes, times))

    def a2a_ms(self, nbytes: float) -> float:
        """Predicted uniform all-to-all time for a per-device buffer size."""
        return self._interp(self._a2a_pts, nbytes)

    def a2a_partitioned_ms(self, full_nbytes: float, parts: int) -> float:
        """Static-shape approximation for one chunk of an n-way partitioned
        (irregular) all-to-all: the uniform cost at capacity ``C / n``."""
        if parts < 1:
            raise ValueError("parts must be >= 1")
        return self.a2a_ms(full_nbytes / parts)

    def a2a_skewed_ms(
        self,
        full_nbytes: float,
        parts: int = 1,
        signature: RoutingSignature | None = None,
    ) -> float:
        """Routing-conditioned estimate of one (chunk of an) irregular
        all-to-all: the collective completes with its bottleneck device,
        so it is priced at that device's *realized* bytes,
        ``signature.mean_send_bytes * signature.bottleneck`` (falling
        back to the static ``full_nbytes`` scale when the signature
        carries no absolute volume).  Capacity clipping makes realized
        traffic differ from the padded size in both directions, which is
        exactly the error the uniform static-shape approximation makes.

        With ``signature=None`` or a balanced signature this is exactly
        :meth:`a2a_partitioned_ms` (same float ops, bit-for-bit).
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        if signature is None or signature.bottleneck == 1.0:
            return self.a2a_ms(full_nbytes / parts)
        base = (
            signature.mean_send_bytes
            if signature.mean_send_bytes > 0
            else full_nbytes
        )
        return self.a2a_ms(base * signature.bottleneck / parts)

    def allreduce_ms(self, nbytes: float) -> float:
        """Predicted all-reduce time for a gradient bucket."""
        return self._interp(self._ar_pts, nbytes)

    # -- hierarchical (2-hop) all-to-all pricing ------------------------------

    @property
    def hierarchy_helps(self) -> bool:
        """Whether the 2-hop algorithm can ever beat the flat exchange
        on this cluster: there must be a node boundary, and the NVLink
        detour must be faster than a GPU's NIC share.  When False every
        hierarchical estimate delegates to the flat one, so single-node
        (or bandwidth-symmetric) pricing is unchanged bit-for-bit."""
        return (
            self.cluster.multi_node
            and self.cluster.intra_bw_gbps > self.cluster.nic_per_gpu_gbps
        )

    def _uniform_hier_coeffs(self) -> tuple[float, float, float]:
        """Phase-load coefficients of perfectly uniform traffic (each GPU
        spreads its send bytes evenly over all peers, self included)."""
        if self._hier_uniform is None:
            g = self.cluster.num_gpus
            pair = np.full((g, g), 1.0 / g)
            self._hier_uniform = self.cluster.topology.phase_load_coefficients(
                pair
            )
        return self._hier_uniform

    def a2a_hierarchical_ms(
        self,
        full_nbytes: float,
        parts: int = 1,
        signature: RoutingSignature | None = None,
    ) -> float:
        """Predicted time of one (chunk of an) irregular all-to-all run
        with the 2-hop hierarchical algorithm.

        The three phases serialize; each is priced at its bottleneck
        load -- per-GPU NVLink stream for the intra phases, per-node
        aggregate NIC for the exchange phase -- scaled from the
        signature's phase-load coefficients (uniform-traffic coefficients
        when the signature carries none).  Reduces to the flat estimate
        when :attr:`hierarchy_helps` is False.
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        if not self.hierarchy_helps:
            return self.a2a_skewed_ms(full_nbytes, parts, signature)
        if signature is not None and signature.mean_send_bytes > 0:
            base = signature.mean_send_bytes
        else:
            base = full_nbytes
        if signature is not None and signature.hier_load is not None:
            g1, g2, g3 = signature.hier_load
        else:
            g1, g2, g3 = self._uniform_hier_coeffs()
            if signature is not None and not signature.is_uniform:
                # skewed realization summarized without a topology: the
                # phase structure is unknown, so scale the uniform
                # coefficients by the bottleneck load -- a conservative
                # estimate mirroring how flat pricing treats the same
                # signature (never the raw uniform price, which would
                # grossly underprice the 2-hop algorithm under skew)
                b = signature.bottleneck
                g1, g2, g3 = g1 * b, g2 * b, g3 * b
        b = base / parts
        cl = self.cluster
        transfer_s = (g1 + g3) * b / (cl.intra_bw_gbps * 1e9) + g2 * b / (
            cl.node_nic_gbps * 1e9
        )
        return cl.topology.latency_ms() + transfer_s * 1e3

    def a2a_best_ms(
        self,
        full_nbytes: float,
        parts: int = 1,
        signature: RoutingSignature | None = None,
    ) -> tuple[float, str]:
        """Cheapest algorithm for one (chunk of an) irregular all-to-all:
        ``(predicted ms, 'flat' | 'hierarchical')``.  This is the per-a2a
        decision the partition DP and the dW-schedule pass plan with when
        hierarchical collectives are enabled.

        The 2-hop algorithm is only *chosen* when its price is trustworthy:
        uniform traffic (exact uniform coefficients) or a signature that
        carries measured phase loads (``hier_load``).  A skewed signature
        summarized without a topology keeps the collective flat -- its
        hierarchical estimate is a guess, and acting on a guessed win
        could make the plan slower than flat.
        """
        flat = self.a2a_skewed_ms(full_nbytes, parts, signature)
        if not self.hierarchy_helps:
            return flat, "flat"
        if (
            signature is not None
            and not signature.is_uniform
            and signature.hier_load is None
        ):
            return flat, "flat"
        hier = self.a2a_hierarchical_ms(full_nbytes, parts, signature)
        if hier < flat:
            return hier, "hierarchical"
        return flat, "flat"


@dataclass
class CostEstimator:
    """Lancet's internal per-instruction cost oracle.

    Combines the caching op profiler (compute ops) and the communication
    cost model (collectives).  This is the cost the optimization passes
    *plan* with; the ground-truth simulator may disagree (irregular
    realized sizes, load imbalance), which is what the Fig. 14 accuracy
    experiment quantifies.

    When per-layer :class:`RoutingSignature` observations are installed
    via :meth:`set_signatures`, every irregular all-to-all estimate is
    conditioned on its layer's realized load distribution, which is what
    makes the dW-schedule pass and the partition DP optimize for the
    actual routing rather than the uniform approximation.
    """

    profiler: CachingOpProfiler
    comm: CommCostModel
    #: per-MoE-layer routing observations (layer key -> signature); the
    #: ``None`` key acts as the default for layers without their own entry
    signatures: dict | None = None
    #: LRU cap of the all-to-all prediction cache (``None`` = unbounded)
    a2a_cache_size: int | None = DEFAULT_A2A_CACHE_SIZE
    #: when True, every irregular all-to-all estimate is the cheaper of
    #: the flat and the 2-hop hierarchical algorithm (per chunk, per
    #: signature), and the chosen algorithm is available via
    #: :meth:`a2a_algorithm`.  Off by default: plans are then priced
    #: exactly as the flat-only legacy model.
    enable_hierarchical: bool = False
    #: memoized all-to-all predictions.  Keyed by (bytes, parts,
    #: signature key) -- the signature component guarantees entries
    #: cached under uniform routing are never reused once the estimator
    #: is re-targeted at a skewed realization (and vice versa).  Bounded:
    #: every distinct signature mints fresh keys, so an unbounded dict
    #: would leak across a long re-optimizing run.
    _a2a_cache: LRUCache = field(default=None, repr=False)  # type: ignore[assignment]
    #: rows :meth:`predict_iteration_ms` priced through
    #: :meth:`duration_ms` (memo misses and all-to-alls), cumulative
    rows_priced: int = field(default=0, repr=False)
    #: uid -> (attrs, price) of the last predicted program's rows
    _row_prices: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self._a2a_cache is None:
            self._a2a_cache = LRUCache(
                self.a2a_cache_size, name="a2a-estimates"
            )

    def set_signatures(self, signatures: dict | None) -> None:
        """Install (or clear, with ``None``) routing observations.

        The prediction cache is *not* flushed: its keys embed the
        signature, so stale uniform-routing entries cannot leak into
        skew-aware queries after a re-optimization.
        """
        self.signatures = dict(signatures) if signatures else None

    def signature_for(self, instr: Instruction) -> RoutingSignature | None:
        """The routing signature governing one all-to-all, if any."""
        if not self.signatures:
            return None
        key = instr.attrs.get("moe_layer", instr.origin or instr.uid)
        sig = self.signatures.get(key)
        if sig is None:
            sig = self.signatures.get(None)
        return sig

    def _a2a_choice(
        self,
        nbytes: float,
        parts: int,
        sig: RoutingSignature | None,
        algo: str | None = None,
    ) -> tuple[float, str]:
        """Memoized ``(predicted ms, algorithm)`` of one irregular
        all-to-all chunk.  ``algo`` pins the algorithm ('flat' or
        'hierarchical', e.g. from an annotated instruction); ``None``
        resolves it -- the cheaper of the two when
        :attr:`enable_hierarchical` is set, else always 'flat'."""
        if algo is None and not self.enable_hierarchical:
            algo = "flat"
        key = (nbytes, parts, None if sig is None else sig.key(digits=6), algo)
        hit = self._a2a_cache.get(key)
        if hit is None:
            if algo == "flat":
                hit = (self.comm.a2a_skewed_ms(nbytes, parts, sig), "flat")
            elif algo == "hierarchical":
                hit = (
                    self.comm.a2a_hierarchical_ms(nbytes, parts, sig),
                    "hierarchical",
                )
            else:
                hit = self.comm.a2a_best_ms(nbytes, parts, sig)
            self._a2a_cache.put(key, hit)
        return hit

    def _a2a_irregular_ms(
        self,
        nbytes: float,
        parts: int,
        sig: RoutingSignature | None,
        algo: str | None = None,
    ) -> float:
        return self._a2a_choice(nbytes, parts, sig, algo)[0]

    def a2a_chunk_ms(
        self, instr: Instruction, program: Program, parts: int, irregular: bool
    ) -> float:
        """Predicted duration of one chunk of a *planned* k-way split of
        an all-to-all (used by the pipeline scheduler before any IR is
        rewritten).  Irregular chunks use the static-shape approximation,
        conditioned on the layer's routing signature when one is set,
        and priced at the cheaper of the flat / hierarchical algorithm
        when hierarchical collectives are enabled (an explicit
        ``a2a_algo`` annotation on the instruction pins the choice)."""
        nbytes = float(program.type_of(instr.inputs[0]).nbytes)
        if irregular:
            return self._a2a_irregular_ms(
                nbytes,
                parts,
                self.signature_for(instr),
                instr.attrs.get("a2a_algo"),
            )
        return self.comm.a2a_ms(nbytes / parts)

    def _irregular_a2a_query(
        self, instr: Instruction, program: Program
    ) -> tuple[float, int]:
        """(effective full bytes, parts) of one irregular all-to-all.

        Irregular A2As move only realized tokens, not padding: the static
        buffer size is scaled by the expected fill fraction (tokens /
        total capacity slots); a partitioned chunk carries the original
        size priced at ``parts``-way splitting (static-shape
        approximation).
        """
        buf_t = program.type_of(instr.inputs[0])
        nbytes = float(buf_t.nbytes)
        tokens = instr.attrs.get("tokens")
        if tokens is not None and buf_t.rank == 3:
            slots = buf_t.shape[0] * buf_t.shape[1]
            nbytes *= min(1.0, tokens / slots)
        parts = 1
        if instr.partition is not None:
            parts = instr.partition[1]
        return nbytes, parts

    def a2a_algorithm(
        self,
        instr: Instruction,
        program: Program,
        respect_annotation: bool = True,
    ) -> str:
        """The algorithm one irregular all-to-all is planned to run with:
        its explicit ``a2a_algo`` annotation (unless
        ``respect_annotation=False``, which re-resolves the choice for
        the currently installed signature), or the cheaper of flat /
        hierarchical (always 'flat' when hierarchical collectives are
        disabled)."""
        if instr.op != "all_to_all" or not instr.attrs.get("irregular"):
            return "flat"
        nbytes, parts = self._irregular_a2a_query(instr, program)
        pinned = instr.attrs.get("a2a_algo") if respect_annotation else None
        return self._a2a_choice(
            nbytes, parts, self.signature_for(instr), pinned
        )[1]

    def duration_ms(self, instr: Instruction, program: Program) -> float:
        """Predicted duration of one instruction."""
        if instr.op == "all_to_all":
            if instr.attrs.get("irregular"):
                nbytes, parts = self._irregular_a2a_query(instr, program)
                return self._a2a_irregular_ms(
                    nbytes,
                    parts,
                    self.signature_for(instr),
                    instr.attrs.get("a2a_algo"),
                )
            return self.comm.a2a_ms(float(program.type_of(instr.inputs[0]).nbytes))
        if instr.op == "allreduce":
            nbytes = float(program.type_of(instr.inputs[0]).nbytes)
            return self.comm.allreduce_ms(nbytes)
        return self.profiler.instr_time_ms(instr, program)

    def predict_iteration_ms(self, program: Program) -> float:
        """Predicted end-to-end iteration time of a program.

        Runs the representative-device two-stream recurrence
        (:func:`~repro.runtime.simulate.two_stream_makespan`, the one
        :func:`~repro.runtime.simulate.simulate_program` runs) with
        predicted per-op costs -- the paper's cost-model output compared
        against measurement in Fig. 14 -- and reads the makespan off the
        stream clocks, building no timeline.

        Every row but an all-to-all (the only price that depends on the
        routing signature) keeps its price across calls, by instruction
        uid.  Within a process an instruction keeps its uid only through
        rewrites that keep its op, attrs and input types (a use remap,
        or a replayed partition segment), and a hit must also find the
        very ``attrs`` object it was priced with, so a program decoded
        from another process (whose uids may repeat local ones) prices
        afresh.  The memo holds only the current program's rows, so it
        stays bounded.
        """
        from ..runtime.simulate import two_stream_makespan

        memo = self._row_prices
        rows: dict[int, tuple[dict, float]] = {}
        durations = []
        fresh = 0
        for ins in program.instructions:
            if ins.op == "all_to_all":
                fresh += 1
                durations.append(self.duration_ms(ins, program))
                continue
            hit = memo.get(ins.uid)
            if hit is None or hit[0] is not ins.attrs:
                fresh += 1
                hit = (ins.attrs, self.duration_ms(ins, program))
            rows[ins.uid] = hit
            durations.append(hit[1])
        self._row_prices = rows
        self.rows_priced += fresh
        return two_stream_makespan(program, durations)
