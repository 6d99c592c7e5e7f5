"""Multi-step training driver over the numeric executor.

Runs real (small-scale) training iterations of a model graph on the
simulated multi-device runtime: feeds synthetic batches, executes the IR
numerically, and carries updated parameters / momentum into the next
step.  Works with any schedule -- original or Lancet-optimized -- which
is how the examples demonstrate that optimization leaves the training
trajectory bit-for-bit unchanged.

:class:`ReoptimizingTrainer` closes the loop between execution and
planning: each step it reads the gate's *observed* dispatch counts from
the numeric run, summarizes them as per-layer routing signatures,
measures drift against the signatures the current schedule was optimized
for, and re-plans when the workload (or the cluster's health) has
shifted enough that the plan is stale.  Because Lancet's transformations
are numerically exact, swapping schedules mid-training leaves the
trajectory bit-for-bit unchanged -- only the (simulated) iteration time
moves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..api.compiler import plan_resolved, resolve_workload
from ..api.fingerprint import graph_fingerprint
from ..api.plan import Plan
from ..faults.injector import derive_degraded
from ..faults.model import FaultSpec
from ..ir import Program
from ..models.gpt2_moe import ModelGraph
from ..models.init import init_param_values
from ..placement import (
    ExpertPlacement,
    MigrationEvent,
    migration_cost_ms,
    migration_pays_off,
    placement_for,
)
from ..runtime.executor import DeviceEnv, NumericExecutor
from ..runtime.routing_model import RoutingSignature
from .data import SyntheticCorpus


def _check_plan_matches(plan: Plan, graph: ModelGraph) -> None:
    """Refuse a plan compiled for a different graph: it would install a
    wrong (or crashing) schedule."""
    actual = graph_fingerprint(graph.program)
    if plan.fingerprint != actual:
        raise ValueError(
            f"plan was compiled for a different graph "
            f"(plan fingerprint {plan.fingerprint[:23]}..., "
            f"this graph {actual[:23]}...); re-compile for this workload"
        )


@dataclass
class StepResult:
    """Outcome of one training step."""

    step: int
    losses: list[float]

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))


class Trainer:
    """Step-by-step numeric training of a (possibly optimized) program.

    Parameters
    ----------
    graph:
        The built model graph (provides metadata: inputs, loss, devices).
    program:
        The schedule to execute; defaults to ``graph.program``.  Pass a
        Lancet-optimized program -- or a compiled
        :class:`~repro.api.Plan` artifact -- to train with the optimized
        schedule.
    seed:
        Controls parameter init and the synthetic corpus.
    parallel:
        Run per-device kernel segments concurrently (bit-identical to
        serial; see :class:`~repro.runtime.executor.NumericExecutor`).
        ``None`` auto-enables on multi-core hosts.
    """

    def __init__(
        self,
        graph: ModelGraph,
        program: Program | Plan | None = None,
        seed: int = 0,
        lr_corpus_alpha: float = 1.1,
        parallel: bool | None = None,
    ) -> None:
        self.graph = graph
        if isinstance(program, Plan):
            _check_plan_matches(program, graph)
            program = program.program
        self.program = program if program is not None else graph.program
        self.g = graph.num_gpus
        self.corpus = SyntheticCorpus(
            vocab_size=graph.cfg.vocab_size, zipf_alpha=lr_corpus_alpha, seed=seed
        )
        self.executor = NumericExecutor(self.program, self.g, parallel=parallel)
        self.state: list[dict[int, np.ndarray]] = init_param_values(graph, seed)
        self._updated = self._update_map()
        self.history: list[StepResult] = []

    def _update_map(self) -> dict[int, tuple[int, int, int]]:
        """param id -> (new w id, momentum id, new momentum id)."""
        out = {}
        for ins in self.program.instructions:
            if ins.op == "sgd_update":
                w, _g, m = ins.inputs
                w2, m2 = ins.outputs
                out[w] = (w2, m, m2)
        return out

    def step(self) -> StepResult:
        """Run one training iteration across all simulated devices."""
        step_idx = len(self.history)
        batches = self.corpus.device_batches(
            self.g, self.graph.batch, self.graph.seq, step=step_idx
        )
        ids_vid, labels_vid = self.program.inputs[:2]
        envs = []
        for d in range(self.g):
            vals = dict(self.state[d])
            vals[ids_vid], vals[labels_vid] = batches[d]
            envs.append(vals)
        results = self.executor.run(self.executor.make_envs(envs))
        self._observe_step(results)

        losses = [float(env[self.graph.loss]) for env in results]
        # carry updated params and momentum into the next step
        for d, env in enumerate(results):
            new_state = {}
            for pid, (w2, m, m2) in self._updated.items():
                new_state[pid] = env[w2]
                new_state[m] = env[m2]
            # keep params that have no update instruction (frozen)
            for pid in self.graph.program.params:
                if pid not in new_state:
                    new_state[pid] = env[pid]
            self.state[d] = new_state
        result = StepResult(step=step_idx, losses=losses)
        self.history.append(result)
        return result

    def _observe_step(self, results: list[DeviceEnv]) -> None:
        """Hook: inspect the finished step's device environments before
        they are discarded (overridden by :class:`ReoptimizingTrainer`
        to read the gate's dispatch counts)."""

    def run(self, steps: int) -> list[StepResult]:
        """Run several steps; returns the per-step results."""
        return [self.step() for _ in range(steps)]

    def loss_curve(self) -> list[float]:
        """Mean loss per executed step."""
        return [r.mean_loss for r in self.history]


@dataclass
class ReplanEvent:
    """Record of one re-plan of the trainer's schedule.

    ``trigger`` says why it ran (``"drift"``, ``"fault"`` or
    ``"recovery"``); ``source`` where the plan came from: ``"planned"``
    (a planner run: the trainer's own optimizer, or the server's), or a
    :class:`~repro.serving.PlanServer` tier (``ServeResult.origin``):
    ``"memory"``, ``"store"``, ``"nearest"`` -- or the degraded
    ``"stale"`` / ``"baseline"``, which are never installed.  Drift
    re-plans install every healthy answer; fault and recovery swaps
    redistribute parameters, so they are priced with
    :func:`~repro.placement.migration_pays_off` and ``migrated`` records
    the verdict.
    """

    step: int
    trigger: str
    source: str
    #: request key of the plan (its store entry key)
    key: str
    #: name of the :class:`~repro.runtime.cluster.ClusterSpec` planned for
    cluster: str
    #: predicted iteration time of the new schedule; for priced
    #: re-plans, as simulated on the target cluster for the pricing
    predicted_ms: float
    #: how long the trainer waited for the answer: the server round
    #: trip, or its own optimizer's planner run
    wall_seconds: float
    #: routing drift that triggered a drift re-plan (0.0 otherwise)
    drift: float = 0.0
    #: whether the planner run reused warm-start state
    #: (``plan.planner["warm_planned"]``; False unless planned)
    warm_start: bool = False
    #: whether the new schedule was installed
    migrated: bool = True
    #: priced re-plans: the *old* schedule's iteration time on the target
    predicted_stale_ms: float | None = None
    #: priced re-plans: one full all-reduce of the parameters there
    migration_cost_ms: float = 0.0
    #: fault and recovery re-plans: the triggering fault / recovery
    #: events, the estimated per-device slowdowns and the target
    #: cluster's name (``None`` for drift re-plans)
    context: dict | None = None


class ReoptimizingTrainer(Trainer):
    """Trainer that re-plans the schedule as the routing or the cluster
    health shifts.

    Every re-plan runs one sequence, whatever triggered it: ask for a
    plan (the :class:`~repro.serving.PlanServer` if one is given, else
    the trainer's own warm optimizer), price it (fault and recovery
    swaps only), install it, and record a :class:`ReplanEvent` in
    :attr:`events`.

    Parameters
    ----------
    graph:
        The model graph to train.
    optimizer:
        A configured :class:`~repro.core.LancetOptimizer`; its cost
        estimator is re-targeted at each new routing observation (the
        prediction caches key on the signature, so this is safe).  It
        also carries the expert placement plans assume.
    drift_threshold:
        Re-optimize when any layer's observed signature drifts more than
        this from the signature the current plan was optimized for
        (see :meth:`RoutingSignature.drift_from`).
    plan:
        Optional pre-compiled :class:`~repro.api.Plan` to start from
        (e.g. a :class:`~repro.api.PlanStore` warm load): the initial
        optimizer run is skipped and the plan's schedule, prediction,
        and routing signatures are installed directly.
    server:
        Optional :class:`~repro.serving.PlanServer`.  Every re-plan is
        then a :meth:`~repro.serving.PlanServer.serve` request for this
        graph, target cluster, policy, observed signatures and expert
        placement: the server's memory cache, shared store and
        nearest-signature tier answer before its warm planner runs, and
        whatever it plans is warm for every other client.  A nearest
        answer is installed (its signatures are what later drift is
        measured against, so the trainer re-plans until the exact plan
        lands); a degraded answer never is.
    fault_detector:
        Optional :class:`~repro.faults.StragglerDetector`.  Feed it
        observed per-device compute times via
        :meth:`observe_device_times`; when it flags a *persistent*
        degradation (as opposed to the transient routing drift the
        drift loop handles), the trainer re-plans against the degraded
        :class:`~repro.runtime.cluster.ClusterSpec` and prices the
        migration before swapping schedules.  ``None`` (the default)
        disables fault handling entirely -- the fault-free path is
        bit-identical to a trainer without this feature.
    migration_horizon_steps:
        How many future iterations a fault re-plan (or an expert
        migration) is amortized over when pricing (see
        :func:`~repro.placement.migration_pays_off`).
    placement_optimizer:
        Optional :class:`~repro.placement.PlacementOptimizer`.  When
        set, every drift-triggered re-plan first searches for a better
        expert placement under the observed dispatch counts and prices
        the switch (weight-transfer cost vs. steady-state bottleneck-a2a
        win over ``migration_horizon_steps``), emitting a
        :class:`~repro.placement.MigrationEvent` either way; accepted
        placements are installed into the Lancet optimizer (signatures
        are remapped before pricing) and qualify the plan's request
        key.  Requires the placement optimizer's cluster to span the
        same device count as the numeric run (layers observed at a
        different width are skipped).  ``None`` (the default) disables
        placement entirely -- the control loop is unchanged.
    expert_weight_bytes:
        Per-expert parameter bytes used to price placement migrations;
        defaults to the graph's expert FFN size (two ``hidden x
        ffn_hidden`` matrices at f32).
    """

    def __init__(
        self,
        graph: ModelGraph,
        optimizer,
        drift_threshold: float = 0.05,
        seed: int = 0,
        lr_corpus_alpha: float = 1.1,
        parallel: bool | None = None,
        plan: Plan | None = None,
        server=None,
        fault_detector=None,
        migration_horizon_steps: int = 50,
        placement_optimizer=None,
        expert_weight_bytes: float | None = None,
    ) -> None:
        self.optimizer = optimizer
        #: the healthy-cluster optimizer; :attr:`optimizer` is swapped
        #: to a degraded-target twin while a fault is flagged and back
        #: here on recovery
        self._nominal_optimizer = optimizer
        self.fault_detector = fault_detector
        self.migration_horizon_steps = migration_horizon_steps
        self.fault_events: list = []
        self.recovery_events: list = []
        self.placement_optimizer = placement_optimizer
        if expert_weight_bytes is None:
            # two [hidden, ffn_hidden] matrices per expert FFN, f32
            expert_weight_bytes = (
                2.0 * graph.cfg.hidden * graph.cfg.ffn_hidden * 4.0
            )
        self.expert_weight_bytes = float(expert_weight_bytes)
        #: telemetry of every priced placement-switch decision
        self.migration_events: list = []
        self.drift_threshold = drift_threshold
        self.server = server
        if plan is not None:
            _check_plan_matches(plan, graph)
            if plan.cluster != optimizer.cluster:
                raise ValueError(
                    f"plan was compiled for cluster {plan.cluster.name}, "
                    f"but the optimizer targets {optimizer.cluster.name}"
                )
            program = plan.program
            predicted = plan.predicted_iteration_ms
            initial_signatures = dict(plan.signatures or {})
        else:
            # initial schedule: optimized for the uniform approximation
            # (no routing has been observed yet)
            optimizer.set_routing_signatures(None)
            program, report = optimizer.optimize(graph)
            predicted = report.predicted_iteration_ms
            initial_signatures = {}
        super().__init__(
            graph,
            program=program,
            seed=seed,
            lr_corpus_alpha=lr_corpus_alpha,
            parallel=parallel,
        )
        #: signatures the *current* schedule was optimized for
        self.plan_signatures: dict[object, RoutingSignature] = initial_signatures
        self.predicted_ms = predicted
        #: every re-plan in order, whatever triggered it
        self.events: list[ReplanEvent] = []
        self._observed: dict[object, RoutingSignature] = {}
        self._routing_vids = self._find_routing_values()

    # -- observation -------------------------------------------------------------

    def _find_routing_values(self) -> dict[object, list[int]]:
        """Map each MoE layer to the output value ids of its gate
        instructions in the *current* program (``routing`` ops, or the
        ``routing_partial`` chunks a partitioned schedule splits them
        into)."""
        layer_of_uid = {ml.routing_uid: ml.layer for ml in self.graph.moe_layers}
        by_layer: dict[object, list[int]] = {}
        for ins in self.program.instructions:
            if ins.op not in ("routing", "routing_partial"):
                continue
            layer = layer_of_uid.get(ins.uid)
            if layer is None and ins.origin is not None:
                layer = layer_of_uid.get(ins.origin)
            if layer is None:
                continue
            by_layer.setdefault(layer, []).append(ins.outputs[0])
        return by_layer

    def _observe_step(self, results: list[DeviceEnv]) -> None:
        """Read the realized dispatch counts of every MoE layer from the
        step's routing info values -- the simulation counterpart of
        reading the gate's dispatch counters on real hardware."""
        self.observe_dispatch_counts(
            {
                layer: np.stack(
                    [
                        np.sum([env[v].expert_counts() for v in vids], axis=0)
                        for env in results
                    ]
                )
                for layer, vids in self._routing_vids.items()
            }
        )

    def observe_dispatch_counts(
        self, counts_by_layer: dict, bytes_per_token: float | None = None
    ) -> None:
        """Install externally recorded dispatch counts as the latest
        routing observation (``{layer: [devices, experts] counts}``) --
        the seam trace replay and real-hardware gate counters share with
        the numeric executor's own observation path."""
        if bytes_per_token is None:
            bytes_per_token = float(self.graph.cfg.hidden) * 2.0  # f16
        # attach the cluster topology so observed signatures also carry
        # the 2-hop phase loads (lets re-plans pick flat vs hierarchical
        # per a2a); skipped for layers observed at another device count
        topo = self.optimizer.cluster.topology
        self._observed = {}
        for layer, counts in counts_by_layer.items():
            counts = np.asarray(counts)
            t = topo if topo.num_gpus == counts.shape[0] else None
            self._observed[layer] = RoutingSignature.from_counts(
                counts, bytes_per_token=bytes_per_token, topology=t
            )

    def routing_drift(self) -> float:
        """Max drift of the latest observation vs the current plan's
        signatures (uniform where the plan has no entry for a layer)."""
        drift = 0.0
        for layer, sig in self._observed.items():
            ref = self.plan_signatures.get(
                layer, RoutingSignature.uniform(sig.num_devices)
            )
            drift = max(drift, sig.drift_from(ref))
        return drift

    # -- triggers ----------------------------------------------------------------

    def step(self) -> StepResult:
        result = super().step()
        self._on_routing(result.step)
        return result

    def replay_observation(
        self, counts_by_layer: dict, bytes_per_token: float | None = None
    ) -> float:
        """Drive one tick of the re-planning control loop from recorded
        dispatch counts, without executing a training step.

        Runs the exact drift -> placement-migration -> re-plan sequence
        :meth:`step` runs after a numeric step; returns the measured
        drift.  This is what replays a recorded routing trace through
        the trainer (the ExpertMigration-style drill).
        """
        self.observe_dispatch_counts(counts_by_layer, bytes_per_token)
        return self._on_routing(len(self.history))

    def _on_routing(self, step: int) -> float:
        """Decide on the latest routing observation: past the drift
        threshold, reconsider the expert placement, then re-plan."""
        drift = self.routing_drift()
        if self._observed and drift > self.drift_threshold:
            self._maybe_migrate_placement(step)
            self._replan(step, "drift", drift=drift)
        return drift

    def observe_device_times(self, device_times_ms) -> list[ReplanEvent]:
        """Feed one step's observed per-device compute times (e.g.
        :meth:`~repro.runtime.timeline.ClusterTimeline
        .per_device_compute_ms`) to the straggler detector.

        Transient blips are absorbed by the detector's EWMA + patience;
        only *persistent* degradation (or recovery from one) re-targets
        planning at the estimated cluster health and triggers a priced
        re-plan.  Returns the :class:`ReplanEvent` records of any
        re-plans this observation triggered (usually empty).
        """
        if self.fault_detector is None:
            raise ValueError(
                "no fault_detector configured; pass a StragglerDetector "
                "to ReoptimizingTrainer(fault_detector=...)"
            )
        step = max(0, len(self.history) - 1)
        faults, recoveries = self.fault_detector.observe(
            step, device_times_ms
        )
        self.fault_events.extend(faults)
        self.recovery_events.extend(recoveries)
        if not faults and not recoveries:
            return []
        # re-target planning at the estimated health: a same-policy twin
        # of the nominal optimizer on the degraded spec while any device
        # is flagged, the nominal optimizer once all have recovered; the
        # installed expert placement carries over either way
        slowdowns = dict(sorted(self.fault_detector.slowdowns().items()))
        target = nominal = self._nominal_optimizer
        if slowdowns:
            degraded = derive_degraded(
                nominal.cluster,
                [FaultSpec("straggler", d, s) for d, s in slowdowns.items()],
            )
            target = nominal.policy.make_optimizer(
                degraded.plan_spec, nominal.framework
            )
        target.set_placement(self.optimizer.placement)
        self.optimizer = target
        trigger = "fault" if faults else "recovery"
        context = {
            "trigger": trigger,
            "step": step,
            "fault_events": [e.to_dict() for e in faults],
            "recovery_events": [e.to_dict() for e in recoveries],
            "slowdowns": {str(d): s for d, s in slowdowns.items()},
            "cluster": self.optimizer.cluster.name,
        }
        return [self._replan(step, trigger, context=context)]

    # -- expert placement migration ---------------------------------------------

    def _maybe_migrate_placement(self, step: int) -> None:
        """Search for a better expert placement under the latest observed
        dispatch counts and switch iff the migration prices in.

        One joint decision across all observed MoE layers: the wins and
        weight-transfer costs are summed, mirroring how an actual
        migration would batch every layer's transfers into one step.  A
        :class:`~repro.placement.MigrationEvent` is recorded whether or
        not the switch is taken (``layer=None``, expert ids as
        ``(layer, expert)`` pairs).
        """
        if self.placement_optimizer is None or not self._observed:
            return
        popt = self.placement_optimizer
        g = popt.cluster.num_gpus
        before_total = after_total = transfer_ms = 0.0
        candidates: dict = {}
        moved: list = []
        replicated: list = []
        changed = False
        for layer, sig in sorted(
            self._observed.items(), key=lambda kv: str(kv[0])
        ):
            if sig.expert_counts is None:
                continue
            counts = np.asarray(sig.expert_counts)
            if counts.shape[0] != g:
                # observed at a different width than the placement
                # cluster models (e.g. small numeric run, big modelled
                # cluster): placement cannot be priced for this layer
                continue
            current = placement_for(self.optimizer.placement, layer)
            if current is None:
                current = ExpertPlacement.identity(counts.shape[1], g)
            bpt = sig.bytes_per_token or 1.0
            before_ms = popt.cost_ms(current, counts, bpt)
            result = popt.optimize(counts, bpt, start=current)
            candidate = result.placement
            before_total += before_ms
            after_total += result.bottleneck_ms
            candidates[layer] = candidate
            if candidate != current:
                changed = True
                transfer_ms += migration_cost_ms(
                    current, candidate, popt.cluster, self.expert_weight_bytes
                )
                moved.extend(
                    (layer, e) for e in candidate.moved_experts(current)
                )
            replicated.extend(
                (layer, e) for e in candidate.replicated_experts
            )
        if not changed:
            return
        migrated = migration_pays_off(
            before_total - after_total, self.migration_horizon_steps, transfer_ms
        )
        self.migration_events.append(
            MigrationEvent(
                step=step,
                layer=None,
                moved_experts=tuple(moved),
                replicated_experts=tuple(replicated),
                bottleneck_before_ms=before_total,
                bottleneck_after_ms=after_total,
                migration_cost_ms=transfer_ms,
                horizon_steps=self.migration_horizon_steps,
                migrated=migrated,
            )
        )
        if migrated:
            # plans from here on price against the remapped signatures
            identity = all(p.is_identity for p in candidates.values())
            self.optimizer.set_placement(None if identity else candidates)

    # -- the re-plan sequence ----------------------------------------------------

    def _replan(
        self, step: int, trigger: str, drift: float = 0.0, context=None
    ) -> ReplanEvent:
        """The one re-plan sequence.  Ask for a plan for the current
        target and observation (the server, else this trainer's own warm
        optimizer), price it (fault and recovery only), install it unless
        it is a degraded answer, and record the event."""
        opt = self.optimizer
        request = dict(
            # the optimizer plans against whatever signatures it is
            # given: the observed ones
            policy=replace(opt.policy, skew_aware=True),
            signatures=dict(self._observed) or None,
            framework=opt.framework,
            placement=opt.placement,
        )
        # resolved once: the server keys on it without a second
        # fingerprint of the graph
        resolved = resolve_workload(self.graph, opt.cluster, **request)
        t0 = time.perf_counter()
        if self.server is not None:
            answer = self.server.serve(resolved)
            plan, source, key = answer.plan, answer.origin, answer.key
            reason = answer.reason
        else:
            # the optimizer re-plans incrementally: its PlannerState
            # carries every signature-independent DP table over from
            # the previous plan, so only the drifted pricing is redone
            plan = plan_resolved(resolved, optimizer=opt)
            source, key, reason = "planned", resolved.identity.key(), None
        wall_seconds = time.perf_counter() - t0
        planned = source == "planned"
        event = ReplanEvent(
            step=step,
            trigger=trigger,
            source=source,
            key=key,
            cluster=opt.cluster.name,
            predicted_ms=plan.predicted_iteration_ms,
            wall_seconds=wall_seconds,
            drift=drift,
            warm_start=planned and bool(plan.planner.get("warm_planned")),
            # a degraded answer (stale, baseline) is never installed
            migrated=reason is None,
            context=context,
        )
        program = plan.program
        if trigger != "drift" and event.migrated:
            # price the swap on the target cluster: steady-state win
            # over the installed schedule vs a one-off parameter
            # redistribution (one full all-reduce of the parameters)
            from ..runtime.simulate import SimulationConfig, simulate_program

            old = self.program
            sim = SimulationConfig(cluster=opt.cluster, framework=opt.framework)
            event.predicted_stale_ms = simulate_program(old, config=sim).makespan
            event.predicted_ms = simulate_program(program, config=sim).makespan
            event.migration_cost_ms = opt.cluster.allreduce_time_ms(
                float(sum(old.type_of(p).nbytes for p in old.params))
            )
            event.migrated = migration_pays_off(
                event.predicted_stale_ms - event.predicted_ms,
                self.migration_horizon_steps,
                event.migration_cost_ms,
            )
        if event.migrated:
            self._install_program(program, plan.predicted_iteration_ms)
            self.plan_signatures = dict(plan.signatures or {})
        self.events.append(event)
        return event

    def _install_program(self, program: Program, predicted_ms: float) -> None:
        """Swap in a re-optimized schedule.  Lancet's rewrites are
        numerically exact and preserve parameter / state value ids, so
        the carried training state keeps working unchanged."""
        if program is self.program:
            return
        self.executor.close()
        self.program = program
        self.executor = NumericExecutor(
            program, self.g, parallel=self.executor.parallel
        )
        self._updated = self._update_map()
        self._routing_vids = self._find_routing_values()
        self.predicted_ms = predicted_ms

    @property
    def reoptimization_seconds(self) -> float:
        """Total time the trainer waited for re-plan answers (a cached
        answer costs its server round trip)."""
        return sum(e.wall_seconds for e in self.events)

    @property
    def num_reoptimizations(self) -> int:
        return len(self.events)
