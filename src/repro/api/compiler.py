"""``compile()``: the single front door to Lancet planning.

Turns a workload -- a declarative :class:`~repro.api.scenario.Scenario`,
a built :class:`~repro.models.ModelGraph`, or a raw
:class:`~repro.ir.Program` -- into a :class:`~repro.api.plan.Plan`
artifact.  With a :class:`~repro.api.store.PlanStore` attached, compile
is a cache: a warm lookup returns a stored plan without constructing an
optimizer at all (zero cost-model evaluations), which is what makes
plans computed once reusable by every later process.

The function is split into two reusable layers so that higher-level
front ends (notably :class:`repro.serving.PlanServer`, which inserts
coalescing and nearest-signature steps between lookup and planning) can
share the exact same workload-identity and planning logic:

- :func:`resolve_workload` turns any accepted workload into a
  :class:`ResolvedWorkload` -- the canonical identity (source program,
  cluster, fingerprint, observed signatures) a store key is built from;
- :func:`plan_resolved` runs the optimizer over a resolved workload and
  wraps the result in a :class:`Plan`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from ..ir import Program
from ..models import ModelGraph
from ..runtime.cluster import ClusterSpec
from ..runtime.device import COMPILED, FrameworkProfile
from .fingerprint import graph_fingerprint
from .plan import Plan, PlanPolicy
from .scenario import Scenario
from .store import PlanIdentity, PlanStore, store_call


def _observed_signatures(program: Program, scenario: Scenario, cluster) -> dict | None:
    """The routing signatures a scenario's realization induces on a
    program (what the skew-aware planner conditions on)."""
    from ..runtime.simulate import SimulationConfig, observed_routing_signatures

    config = SimulationConfig(
        cluster=cluster,
        padded_a2a=False,
        routing=scenario.routing_model(),
    )
    return observed_routing_signatures(program, config) or None


@dataclass
class ResolvedWorkload:
    """A workload reduced to the canonical identity planning keys on.

    Produced by :func:`resolve_workload`; consumed by
    :func:`plan_resolved` and by the serving layer's lookup ladder
    (exact store key -> nearest signature bucket -> planner).
    """

    #: what the optimizer runs over (graph preferred: carries metadata)
    source: ModelGraph | Program
    cluster: ClusterSpec
    policy: PlanPolicy
    framework: FrameworkProfile
    #: structural fingerprint of the source program
    fingerprint: str
    #: per-layer routing signatures the plan will be conditioned on
    signatures: dict | None
    #: the declarative scenario, when the workload was one
    scenario: Scenario | None
    #: True when the scenario alone reproduces this workload (no
    #: cluster/signature overrides) -- only then may the result enter
    #: the store's scenario index
    scenario_pure: bool
    #: hybrid pipeline x expert parallel request (``{"num_stages",
    #: "microbatches", "schedule"}``, the :meth:`~repro.pipeline
    #: .StageMap.request_dict` shape) -- ``None`` for flat workloads.
    #: Folded into store keys; drives the staged planning branch.
    pipeline: dict | None = None
    #: expert placement the plan assumes (graph/program requests only)
    placement: dict | None = None

    @cached_property
    def identity(self) -> PlanIdentity:
        """The identity the store is consulted under (built once, so
        its digests are computed once per resolved workload)."""
        return PlanIdentity(
            self.fingerprint,
            self.cluster,
            self.policy,
            self.framework,
            self.signatures,
            self.placement,
            self.pipeline,
        )

    @property
    def program(self) -> Program:
        return (
            self.source.program
            if isinstance(self.source, ModelGraph)
            else self.source
        )


def resolve_workload(
    workload: Scenario | ModelGraph | Program,
    cluster: ClusterSpec | None = None,
    *,
    policy: PlanPolicy | None = None,
    signatures: dict | None = None,
    framework: FrameworkProfile = COMPILED,
    placement=None,
) -> ResolvedWorkload:
    """Reduce any accepted workload to its canonical planning identity.

    For a :class:`Scenario` this builds the graph, derives the cluster,
    and (under a skew-aware policy) observes the scenario's routing
    signatures; graphs/programs require an explicit ``cluster`` and may
    carry an expert ``placement`` (a scenario request with one raises
    ``TypeError``).
    """
    from ..placement import normalize_placement

    policy = policy or PlanPolicy()
    scenario = workload if isinstance(workload, Scenario) else None
    if scenario is not None and placement is not None:
        raise TypeError("scenario requests do not take an expert placement")
    # overrides make the result unreproducible from the scenario alone,
    # so such plans must never enter (or be served from) the scenario
    # index -- only the canonical fingerprint-keyed path applies
    scenario_pure = (
        scenario is not None and cluster is None and signatures is None
    )
    pipeline = None
    if scenario is not None:
        graph = scenario.build_graph()
        cluster = cluster or scenario.build_cluster()
        source: ModelGraph | Program = graph
        sig_cluster = cluster
        if scenario.staged:
            pipeline = {
                "num_stages": scenario.pipeline_stages,
                "microbatches": scenario.microbatches,
                "schedule": scenario.pipeline_schedule,
            }
            # the graph is built at stage-subgroup width, so signatures
            # must be observed on the subgroup cluster: an all-to-all
            # spans one stage's devices, never the whole cluster
            from ..pipeline.stage import _subcluster

            sig_cluster = _subcluster(
                cluster, 0, cluster.num_gpus // scenario.pipeline_stages
            )
        if signatures is None and policy.skew_aware:
            signatures = _observed_signatures(
                graph.program, scenario, sig_cluster
            )
    elif isinstance(workload, (ModelGraph, Program)):
        if cluster is None:
            raise TypeError(
                "compile(graph_or_program) requires an explicit cluster"
            )
        source = workload
    else:
        raise TypeError(
            f"workload must be a Scenario, ModelGraph, or Program; "
            f"got {type(workload).__name__}"
        )
    program = source.program if isinstance(source, ModelGraph) else source
    return ResolvedWorkload(
        source=source,
        cluster=cluster,
        policy=policy,
        framework=framework,
        fingerprint=graph_fingerprint(program),
        signatures=signatures,
        scenario=scenario,
        scenario_pure=scenario_pure,
        pipeline=pipeline,
        placement=normalize_placement(placement),
    )


def _plan_resolved_staged(resolved: ResolvedWorkload, check: bool) -> Plan:
    """The staged planning branch: pick pipeline boundaries, optimize
    each stage against its own subgroup, reassemble, and wrap.

    The plan's program is the *reassembled per-microbatch* schedule (one
    flat program with every stage's optimized segments stitched back
    together); the predicted iteration time is the staged pipeline
    makespan over all microbatches, including p2p and the gradient-sync
    tail -- what an iteration of the staged workload actually costs.
    """
    from ..pipeline import plan_stages

    t0 = time.perf_counter()
    request = resolved.pipeline
    policy = resolved.policy

    def optimizer_factory(stage_cluster):
        return policy.make_optimizer(
            stage_cluster, resolved.framework, resolved.signatures
        )

    routing = None
    if resolved.scenario is not None and policy.skew_aware:
        routing = resolved.scenario.routing_model()
    result = plan_stages(
        resolved.source,
        resolved.cluster,
        request["num_stages"],
        request["microbatches"],
        schedule=request["schedule"],
        optimizer_factory=optimizer_factory,
        framework=resolved.framework,
        routing=routing,
        padded_a2a=routing is None,
        check=check,
    )
    planner = {
        "compile_seconds": time.perf_counter() - t0,
        "stage_candidates": [
            {**c, "layer_counts": list(c["layer_counts"])}
            for c in result.candidates
        ],
        "stage_reports": result.stage_reports,
        # each stage's forward then backward pipelines, in stage order
        "partition_degrees": [
            degree
            for report in result.stage_reports
            for phase in ("forward", "backward")
            for degree in report.get(phase, {}).get("partition_degrees", [])
        ],
    }
    return Plan(
        program=result.program,
        cluster=resolved.cluster,
        policy=resolved.policy,
        fingerprint=resolved.fingerprint,
        predicted_iteration_ms=result.simulation.makespan,
        framework=resolved.framework,
        signatures=resolved.signatures,
        scenario=resolved.scenario,
        planner=planner,
        stage_map=result.stage_map,
    )


def plan_resolved(
    resolved: ResolvedWorkload, check: bool = True, optimizer=None
) -> Plan:
    """Run the optimizer over a resolved workload and wrap the result.

    ``optimizer`` is a :class:`~repro.core.LancetOptimizer` built for
    the resolved cluster, framework and policy -- a warm one re-plans
    incrementally, bit-identically to a cold one; ``None`` builds a
    fresh one.  Its placement and signatures are set from ``resolved``
    (placement first: signatures are remapped through it).  Everything
    above this function (store lookups, coalescing, nearest-signature
    serving) is cache machinery.  Staged workloads (``resolved.pipeline``
    set) route through the pipeline boundary planner, which runs one
    optimizer per stage, so they take no ``optimizer``.
    """
    if resolved.pipeline is not None:
        if optimizer is not None:
            raise TypeError("staged workloads build one optimizer per stage")
        return _plan_resolved_staged(resolved, check=check)
    t0 = time.perf_counter()
    if optimizer is None:
        optimizer = resolved.policy.make_optimizer(
            resolved.cluster, resolved.framework
        )
    optimizer.set_placement(resolved.placement)
    optimizer.set_routing_signatures(resolved.signatures)
    optimized, report = optimizer.optimize(resolved.source, check=check)
    compile_seconds = time.perf_counter() - t0

    planner = report.summary_dict()
    planner["compile_seconds"] = compile_seconds
    return Plan(
        program=optimized,
        cluster=resolved.cluster,
        policy=resolved.policy,
        fingerprint=resolved.fingerprint,
        predicted_iteration_ms=report.predicted_iteration_ms,
        framework=resolved.framework,
        # filed under the request's own signatures and placement (not
        # the placement-remapped ones the passes priced), so the
        # request key is the entry key
        signatures=resolved.signatures,
        scenario=resolved.scenario,
        planner=planner,
        report=report,
        placement=resolved.placement,
    )


def compile(
    workload: Scenario | ModelGraph | Program,
    cluster: ClusterSpec | None = None,
    *,
    policy: PlanPolicy | None = None,
    store: PlanStore | None = None,
    signatures: dict | None = None,
    framework: FrameworkProfile = COMPILED,
    check: bool = True,
) -> Plan:
    """Compile a workload into a :class:`~repro.api.plan.Plan`.

    Parameters
    ----------
    workload:
        A :class:`Scenario` (cluster and routing are derived from it),
        or a :class:`ModelGraph` / :class:`Program` with an explicit
        ``cluster``.
    cluster:
        Target cluster; required for graph/program workloads, optional
        override for scenarios.
    policy:
        Optimizer knobs (defaults to :class:`PlanPolicy`'s defaults:
        both passes on, skew-aware, flat collectives).
    store:
        Plan cache consulted before planning and updated after; a warm
        hit skips the planner entirely (``plan.from_store`` is True and
        no :class:`~repro.core.LancetOptimizer` is constructed).  A
        store I/O error, or an entry whose JSON or envelope is corrupt,
        costs a warned re-plan, never the compile
        (:func:`~repro.api.store.store_call`).  A warm hit is lazy: its
        program decodes on first ``plan.program``, so an entry whose
        program section alone is corrupt raises
        :class:`~repro.api.plan.PlanError` there, not here.  Callers
        that must never see that error serve through
        :class:`~repro.serving.PlanServer`, which decodes every store
        answer before handing it out.
    signatures:
        Explicit per-layer routing signatures to plan against
        (overrides the scenario-derived observation).
    framework:
        Execution-stack profile to price compute against.
    check:
        Validate the IR after each pass.
    """
    policy = policy or PlanPolicy()
    scenario = workload if isinstance(workload, Scenario) else None
    if (
        store is not None
        and scenario is not None
        and cluster is None
        and signatures is None
    ):
        # fast path: a pure scenario's store key is memoized, so a warm
        # lookup needs no graph build, no fingerprint, no observation
        plan = store_call(store.lookup_scenario, scenario, policy, framework)
        if plan is not None:
            return plan

    resolved = resolve_workload(
        workload,
        cluster,
        policy=policy,
        signatures=signatures,
        framework=framework,
    )
    if store is not None:
        plan = store_call(store.get, resolved.identity)
        if plan is not None:
            return plan

    plan = plan_resolved(resolved, check=check)
    if store is not None:
        store_call(store.put, plan, index_scenario=resolved.scenario_pure)
    return plan


def load_plan(path, materialize: bool = True) -> Plan:
    """Read a plan artifact from disk (alias of :meth:`Plan.load`)."""
    return Plan.load(path, materialize=materialize)
