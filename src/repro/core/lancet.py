"""Top-level Lancet optimizer (paper Fig. 7).

Wires the two optimization passes behind one entry point:

1. Weight Gradient Computation Schedule Pass (backward overlap, Sec. 4)
2. Operator Partition Pass (forward partition + pipeline, Sec. 5)

supported by the caching op profiler and the communication cost model.
Each pass can be disabled independently for the paper's ablation study
(Fig. 16), and pass wall-times are recorded for the optimization-time
measurement (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import PassManager, PassTiming, Program
from ..models.gpt2_moe import ModelGraph
from ..runtime.cluster import ClusterSpec
from ..runtime.device import COMPILED, FrameworkProfile
from .cost_model import DEFAULT_A2A_CACHE_SIZE, CommCostModel, CostEstimator
from .dw_schedule import DWScheduleReport, WeightGradSchedulePass
from .partition import DPResult, OperatorPartitionPass, PlannerState
from .policy import PlanPolicy
from .profiler import CachingOpProfiler


@dataclass
class LancetReport:
    """Everything the optimizer learned while optimizing one program."""

    pass_timings: list[PassTiming] = field(default_factory=list)
    dw_schedule: DWScheduleReport | None = None
    partition: DPResult | None = None
    predicted_iteration_ms: float = 0.0
    profiled_ops: int = 0
    #: per-MoE-layer routing signatures the passes optimized for
    #: (``None`` = the legacy uniform static-shape approximation)
    routing_signatures: dict | None = None
    #: hit/miss/eviction counters of every cache the optimizer leans on
    #: (op profiler, signature-keyed a2a estimates, planner warm-start
    #: state); cumulative over the optimizer's lifetime
    cache_stats: dict = field(default_factory=dict)
    #: per-algorithm count of the plan's irregular all-to-alls
    #: (``{'flat': ..., 'hierarchical': ...}``); ``None`` when
    #: hierarchical collectives were disabled, so every a2a ran flat
    a2a_algorithms: dict | None = None

    @property
    def skew_aware(self) -> bool:
        """Whether the plan was conditioned on observed routing."""
        return bool(self.routing_signatures)

    @property
    def hierarchical_a2a_count(self) -> int:
        """How many irregular all-to-alls the plan runs hierarchically."""
        return (self.a2a_algorithms or {}).get("hierarchical", 0)

    @property
    def warm_planned(self) -> bool:
        """Whether the partition DP reused a warm :class:`PlannerState`."""
        return bool(self.partition and self.partition.warm_start)

    @property
    def optimization_seconds(self) -> float:
        """Total optimization wall time (paper Fig. 15)."""
        return sum(t.seconds for t in self.pass_timings)

    def summary_dict(self) -> dict:
        """JSON-compatible summary of the optimizer run -- what a
        serialized :class:`~repro.api.Plan` records about its origin
        (the full report object holds live pass state and is not
        serializable itself)."""
        out = {
            "optimization_seconds": self.optimization_seconds,
            "pass_seconds": {t.name: t.seconds for t in self.pass_timings},
            "predicted_iteration_ms": self.predicted_iteration_ms,
            "profiled_ops": self.profiled_ops,
            "skew_aware": self.skew_aware,
            "warm_planned": self.warm_planned,
        }
        if self.dw_schedule is not None:
            out["num_dw_total"] = self.dw_schedule.num_dw_total
            out["num_dw_moved"] = self.dw_schedule.num_dw_moved
        if self.partition is not None:
            out["num_cost_evals"] = self.partition.num_cost_evals
            out["num_pipeline_sims"] = self.partition.num_pipeline_sims
            out["partition_degrees"] = [p.parts for p in self.partition.plans]
        if self.a2a_algorithms is not None:
            out["a2a_algorithms"] = dict(self.a2a_algorithms)
        return out


class LancetOptimizer:
    """Automatic MoE-training optimizer over the IR.

    Parameters
    ----------
    cluster:
        Target cluster (drives the profiler and communication cost model).
    framework:
        Execution-stack profile used for compute-cost profiling.
    policy:
        The :class:`~repro.core.policy.PlanPolicy` to plan under, kept
        as :attr:`policy`: which passes run (the ablation switches of
        paper Fig. 16, plus ``defer_allreduce``) and the rho / gamma /
        iota knobs of the partition DP (Sec. 6).  With
        ``enable_hierarchical_a2a`` every irregular all-to-all is priced
        at the cheaper of the flat and the 2-hop hierarchical algorithm
        (per chunk, conditioned on the routing signature), the DP plans
        against those prices, and the optimized program's all-to-alls
        are annotated with the chosen algorithm (``attrs['a2a_algo']``),
        which the ground-truth simulator honors.  On single-node (or
        bandwidth-symmetric) clusters the choice always reduces to
        flat, so plans are unchanged.  ``skew_aware`` is not read here:
        the optimizer plans against whatever signatures it is given.
    routing_signatures:
        Optional per-MoE-layer :class:`RoutingSignature` observations;
        when set, both passes price irregular all-to-alls at the
        bottleneck device's realized load instead of the uniform
        approximation.  Install later observations with
        :meth:`set_routing_signatures` or :meth:`observe_routing`.
    a2a_cache_size:
        LRU cap of the signature-keyed all-to-all estimate cache
        (``None`` keeps the default bound).
    placement:
        Optional expert placement (a bare
        :class:`~repro.placement.ExpertPlacement` or a
        ``{layer_key: placement}`` map) the cluster is assumed to run
        under.  Installed signatures are remapped through it
        (:meth:`RoutingSignature.remap
        <repro.runtime.RoutingSignature.remap>`) before pricing, so
        plans account for the placement's replica traffic splits.
        Signatures must carry count provenance to be remappable;
        :meth:`observe_routing` collects counts automatically when a
        placement is set.  Identity placements are exact no-ops.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        framework: FrameworkProfile = COMPILED,
        policy: PlanPolicy | None = None,
        routing_signatures: dict | None = None,
        a2a_cache_size: int | None = None,
        placement=None,
    ) -> None:
        from ..placement import normalize_placement

        self.cluster = cluster
        self.placement = normalize_placement(placement)
        self.framework = framework
        self.policy = policy or PlanPolicy()
        self.profiler = CachingOpProfiler(gpu=cluster.gpu, framework=framework)
        self.costs = CostEstimator(
            self.profiler,
            CommCostModel(cluster),
            a2a_cache_size=(
                a2a_cache_size
                if a2a_cache_size is not None
                else DEFAULT_A2A_CACHE_SIZE
            ),
            enable_hierarchical=self.policy.enable_hierarchical_a2a,
        )
        #: warm-start state: persists every signature-independent DP
        #: table, rewritten range and the dW labelling across
        #: :meth:`optimize` calls, so a re-plan after routing drift only
        #: re-prices what the new signature invalidates (self-validating
        #: -- see :class:`~repro.core.partition.PlannerState`)
        self.planner_state = PlannerState()
        if routing_signatures:
            self.costs.set_signatures(self._remapped(routing_signatures))

    def cache_stats(self) -> dict:
        """Counters of every cache the optimizer leans on."""
        stats = {
            "profiler": self.profiler._cache.stats(),
            "a2a_estimates": self.costs._a2a_cache.stats(),
        }
        stats.update(
            {f"planner_{k}": v for k, v in self.planner_state.stats().items()}
        )
        return stats

    def set_routing_signatures(self, signatures: dict | None) -> None:
        """Re-target the cost oracle at new routing observations (or back
        at the uniform approximation with ``None``).  Safe to call
        between :meth:`optimize` runs: prediction caches key on the
        signature, so stale entries are never reused.  With a
        ``placement`` set, signatures are remapped through it first."""
        self.costs.set_signatures(self._remapped(signatures))

    def set_placement(self, placement) -> None:
        """Install (or clear, with ``None``) the expert placement plans
        assume.  Takes effect on the next signature installation."""
        from ..placement import normalize_placement

        self.placement = normalize_placement(placement)

    def _remapped(self, signatures: dict | None) -> dict | None:
        """Signatures as the cost oracle should see them: folded through
        the active placement's traffic splits (no-op without one)."""
        from ..placement import placement_for, placement_map_is_identity

        if not signatures or placement_map_is_identity(self.placement):
            return signatures
        topology = self.cluster.topology
        out = {}
        for layer, sig in signatures.items():
            p = placement_for(self.placement, layer)
            out[layer] = sig.remap(p, topology=topology)
        return out

    def observe_routing(self, program_or_graph, routing) -> dict:
        """Extract per-layer signatures from a routing model's realization
        for this program, install them, and return them.

        ``routing`` is a :class:`SyntheticRoutingModel` (or any model
        with the same ``pair_bytes_for`` surface); on real hardware this
        step is replaced by reading the gate's dispatch counters.
        """
        from ..runtime.simulate import (
            SimulationConfig,
            observed_routing_signatures,
        )

        program = (
            program_or_graph.program
            if isinstance(program_or_graph, ModelGraph)
            else program_or_graph
        )
        config = SimulationConfig(
            cluster=self.cluster,
            framework=self.framework,
            padded_a2a=False,
            routing=routing,
        )
        signatures = observed_routing_signatures(
            program, config, with_counts=self.placement is not None
        )
        self.costs.set_signatures(self._remapped(signatures or None))
        return signatures

    def optimize(
        self, graph_or_program: ModelGraph | Program, check: bool = True
    ) -> tuple[Program, LancetReport]:
        """Optimize a training program; returns (new program, report).

        The input program is not modified.
        """
        program = (
            graph_or_program.program
            if isinstance(graph_or_program, ModelGraph)
            else graph_or_program
        )
        work = program.clone()

        policy = self.policy
        pm = PassManager(validate_each=check)
        dw_pass = part_pass = None
        state = self.planner_state
        if policy.enable_dw_schedule:
            dw_pass = WeightGradSchedulePass(self.costs, labels=state.dw)
            pm.add(dw_pass)
        if policy.enable_partition:
            part_pass = OperatorPartitionPass(self.costs, policy, state=state)
            pm.add(part_pass)
        if policy.defer_allreduce:
            # extension beyond the paper: prioritize all-to-all over
            # all-reduce by deferring gradient sync
            from .comm_priority import GradSyncDeferPass

            pm.add(GradSyncDeferPass())
        work = pm.run(work)

        a2a_algorithms = None
        if policy.enable_hierarchical_a2a:
            # pin the flat/hierarchical choice the plan was priced with
            # onto each irregular all-to-all, so the runtime (and the
            # prediction below) executes exactly what the DP assumed
            a2a_algorithms = self._annotate_a2a_algorithms(work)

        priced = self.costs.rows_priced
        predicted = self.costs.predict_iteration_ms(work)
        state.prediction_rows_priced += self.costs.rows_priced - priced
        report = LancetReport(
            pass_timings=list(pm.timings),
            dw_schedule=dw_pass.report if dw_pass else None,
            partition=part_pass.result if part_pass else None,
            predicted_iteration_ms=predicted,
            profiled_ops=self.profiler.profile_count,
            routing_signatures=(
                dict(self.costs.signatures) if self.costs.signatures else None
            ),
            cache_stats=self.cache_stats(),
            a2a_algorithms=a2a_algorithms,
        )
        return work, report

    def _annotate_a2a_algorithms(self, program: Program) -> dict:
        """Resolve and record the cheapest algorithm for every irregular
        all-to-all of ``program`` (in place; uids are preserved, so the
        planner warm-start state stays valid)."""
        counts = {"flat": 0, "hierarchical": 0}
        for i, ins in enumerate(program.instructions):
            if ins.op != "all_to_all" or not ins.attrs.get("irregular"):
                continue
            algo = self.costs.a2a_algorithm(
                ins, program, respect_annotation=False
            )
            counts[algo] += 1
            if ins.attrs.get("a2a_algo") != algo:
                program.instructions[i] = ins.with_(
                    attrs={**ins.attrs, "a2a_algo": algo}, uid=ins.uid
                )
        return counts

    def predict_iteration_ms(self, program: Program) -> float:
        """Cost-model prediction of a program's iteration time (Fig. 14)."""
        return self.costs.predict_iteration_ms(program)
