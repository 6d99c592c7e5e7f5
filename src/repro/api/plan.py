"""The plan artifact: an optimized schedule you can ship.

Lancet's output is a *schedule*, and the schedule -- not the optimizer
run that produced it -- is the deployable artifact (production MoE
systems precompute and distribute their overlap schedules).  A
:class:`Plan` bundles everything needed to execute and audit one:

- the optimized :class:`~repro.ir.Program` (with its per-instruction
  annotations: ``a2a_algo`` choices, partition degrees, dW placement),
- the :class:`~repro.runtime.ClusterSpec` and framework profile it was
  priced against,
- the routing signatures it was conditioned on,
- the policy knobs and a summary of what the planner did,
- the cost model's predicted iteration time.

``Plan.save`` / ``Plan.load`` round-trip through a versioned JSON schema;
loading refuses files whose schema *major* version does not match (and
raises a clear :class:`PlanError` for corrupted documents instead of
deserializing garbage).  Program reconstruction is bit-identical: a
reloaded plan simulates to exactly the original timeline.

Loading can defer program reconstruction (``materialize=False``): the
envelope (metadata, predicted time, signatures) is validated eagerly and
the instruction stream is decoded on first ``.program`` access -- this is
what lets a :class:`~repro.api.store.PlanStore` hand out warm plans in
milliseconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from ..core.policy import PlanPolicy
from ..ir import Program, SerializationError, program_from_json, program_to_json
from ..runtime.cluster import ClusterSpec
from ..runtime.device import COMPILED, FrameworkProfile
from .codec import (
    cluster_from_json,
    cluster_to_json,
    framework_from_json,
    framework_to_json,
    signatures_from_json,
    signatures_to_json,
)
from .scenario import Scenario

#: identifies the document type
PLAN_SCHEMA = "repro.api/plan"

#: schema version of plan artifacts; bump the major on any breaking
#: layout change -- loaders refuse mismatched majors (1.1 added the
#: optional "placement" section; 1.2 the optional "pipeline" section
#: carrying a staged plan's stage map; documents without either section
#: are unchanged)
PLAN_SCHEMA_VERSION = "1.2"


class PlanError(Exception):
    """A plan artifact that cannot be read, written, or reconstructed."""


class PlanSchemaError(PlanError):
    """A plan artifact written under an incompatible schema version."""


def _major(version: str) -> int:
    try:
        return int(str(version).split(".", 1)[0])
    except ValueError as err:
        raise PlanSchemaError(f"malformed schema version {version!r}") from err


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write-to-temp + rename, with umask-respecting permissions.

    ``mkstemp`` creates files 0600, which would make entries of a
    shared (multi-user) plan store unreadable to everyone but their
    author; restore the mode a plain ``open`` would have produced.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        current_umask = os.umask(0)
        os.umask(current_umask)
        os.chmod(tmp, 0o666 & ~current_umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Plan:
    """A compiled, serializable Lancet schedule (see module docstring).

    Construct via :func:`repro.api.compile`, :meth:`load`, or
    :meth:`from_dict` rather than directly.
    """

    def __init__(
        self,
        *,
        cluster: ClusterSpec,
        policy: PlanPolicy,
        fingerprint: str,
        predicted_iteration_ms: float,
        program: Program | None = None,
        program_json: dict | None = None,
        framework: FrameworkProfile = COMPILED,
        signatures: dict | None = None,
        scenario: Scenario | None = None,
        planner: dict | None = None,
        meta: dict | None = None,
        report=None,
        placement=None,
        stage_map=None,
    ) -> None:
        from ..placement import normalize_placement
        if (program is None) == (program_json is None):
            raise ValueError("exactly one of program / program_json required")
        self._program = program
        self._program_json = program_json
        self.cluster = cluster
        self.policy = policy
        #: structural fingerprint of the *source* (unoptimized) graph
        self.fingerprint = fingerprint
        #: cost-model prediction of one iteration of this schedule
        self.predicted_iteration_ms = float(predicted_iteration_ms)
        self.framework = framework
        #: per-MoE-layer routing signatures the plan was conditioned on
        #: (``None`` = planned under the uniform approximation)
        self.signatures = dict(signatures) if signatures else None
        #: expert placement the plan assumes the cluster runs under
        #: (``{layer_key: ExpertPlacement}`` map; ``None`` = the default
        #: identity layout).  Part of the plan's identity: store keys are
        #: qualified by its fingerprint.
        self.placement = normalize_placement(placement)
        if stage_map is not None and isinstance(stage_map, dict):
            from ..pipeline import StageMap

            stage_map = StageMap.from_dict(stage_map)
        #: :class:`~repro.pipeline.StageMap` of a staged (hybrid
        #: pipeline x expert parallel) plan; ``None`` for flat plans.
        #: The request part (stages/microbatches/schedule) folds into
        #: store keys; the chosen boundaries ride along for audit.  For
        #: staged plans, ``program`` is the reassembled *per-microbatch*
        #: schedule and ``predicted_iteration_ms`` the full pipeline
        #: makespan over all microbatches.
        self.stage_map = stage_map
        self.scenario = scenario
        #: summary of the optimizer run that produced the plan
        self.planner = dict(planner or {})
        #: free-form metadata, persisted verbatim
        self.meta = dict(meta or {})
        #: full in-memory :class:`~repro.core.LancetReport` -- only
        #: available on freshly compiled plans, not after a reload
        self.report = report
        #: True when this plan came out of a :class:`PlanStore` instead
        #: of an optimizer run (set by :func:`repro.api.compile`)
        self.from_store = False

    # -- program access ------------------------------------------------------

    @property
    def program(self) -> Program:
        """The optimized schedule (decoded from JSON on first access for
        lazily loaded plans)."""
        if self._program is None:
            try:
                self._program = program_from_json(self._program_json)
            except SerializationError as err:
                raise PlanError(f"plan program failed to reconstruct: {err}") from err
            self._program_json = None
        return self._program

    @property
    def materialized(self) -> bool:
        """Whether the program has been decoded yet."""
        return self._program is not None

    # -- derived views -------------------------------------------------------

    def _instruction_summaries(self):
        """``(op, attrs)`` pairs without forcing program reconstruction:
        lazily loaded plans are summarized straight off the JSON."""
        if self._program is not None:
            return ((ins.op, ins.attrs) for ins in self._program.instructions)
        return (
            (io.get("op"), io.get("attrs", {}))
            for io in self._program_json.get("instructions", [])
        )

    def num_instructions(self) -> int:
        """Instruction count (cheap even before materialization)."""
        if self._program is not None:
            return len(self._program)
        return len(self._program_json.get("instructions", []))

    def a2a_algorithms(self) -> dict[str, int]:
        """Per-algorithm count of the plan's irregular all-to-alls."""
        counts: dict[str, int] = {}
        for op, attrs in self._instruction_summaries():
            if op == "all_to_all" and attrs.get("irregular"):
                algo = attrs.get("a2a_algo", "flat")
                counts[algo] = counts.get(algo, 0) + 1
        return counts

    def partition_degrees(self) -> list[int]:
        """Chunk counts of the plan's partitioned pipelines (one entry
        per MoE-layer pipeline, from the planner summary when available,
        else recovered from the instruction annotations)."""
        if "partition_degrees" in self.planner:
            return list(self.planner["partition_degrees"])
        degrees: dict[int, int] = {}
        for ins in self.program.instructions:
            if ins.partition is not None and ins.origin is not None:
                degrees[ins.origin] = max(
                    degrees.get(ins.origin, 0), ins.partition[1]
                )
        return sorted(degrees.values())

    def annotations(self) -> list[dict]:
        """Per-instruction schedule annotations (the plan's 'diff' vs a
        vanilla schedule): partitioned chunks and algorithm choices."""
        out = []
        for pos, ins in enumerate(self.program.instructions):
            entry = {}
            if ins.partition is not None:
                entry["partition"] = {
                    "index": ins.partition[0],
                    "parts": ins.partition[1],
                    "origin": ins.origin,
                }
            if ins.op == "all_to_all" and ins.attrs.get("irregular"):
                entry["a2a_algo"] = ins.attrs.get("a2a_algo", "flat")
            if ins.kind.value == "dw":
                entry["dw"] = True
            if entry:
                entry.update({"pos": pos, "op": ins.op, "uid": ins.uid})
                out.append(entry)
        return out

    # -- execution helpers ---------------------------------------------------

    def simulation_cluster(self) -> ClusterSpec:
        """The cluster the plan's *program* simulates against: the full
        cluster for flat plans, one stage subgroup for staged plans
        (whose program is the per-microbatch, subgroup-width schedule)."""
        if self.stage_map is None:
            return self.cluster
        from ..pipeline.stage import _subcluster

        return _subcluster(
            self.cluster, 0, self.cluster.num_gpus // self.stage_map.num_stages
        )

    def simulate(self, seed: int | None = None, routing=None, padded_a2a=False):
        """Ground-truth simulation of one iteration of this plan's
        program (for staged plans: one *microbatch* on one stage-width
        subgroup -- the pipeline-level figure is ``predicted_iteration_ms``).

        Uses the scenario's routing model when the plan has one (with
        ``seed`` overriding its seed); otherwise a fresh
        :class:`~repro.runtime.SyntheticRoutingModel`.
        """
        from ..runtime import SimulationConfig, SyntheticRoutingModel, simulate_program

        if routing is None:
            if self.scenario is not None:
                sc = self.scenario
                if seed is not None:
                    sc = sc.with_(routing_seed=seed)
                routing = sc.routing_model()
            else:
                routing = SyntheticRoutingModel(seed=1 if seed is None else seed)
        config = SimulationConfig(
            cluster=self.simulation_cluster(),
            framework=self.framework,
            padded_a2a=padded_a2a,
            routing=routing,
        )
        return simulate_program(self.program, config=config)

    def simulated_iteration_ms(self, seed: int | None = None) -> float:
        """Simulated makespan of one iteration (convenience)."""
        return self.simulate(seed=seed).makespan

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        import repro  # late: repro.__init__ imports this module

        from ..placement import placement_map_to_json

        program_json = (
            self._program_json
            if self._program_json is not None
            else program_to_json(self._program)
        )
        doc = {
            "schema": PLAN_SCHEMA,
            "schema_version": PLAN_SCHEMA_VERSION,
            "repro_version": getattr(repro, "__version__", "unknown"),
            "fingerprint": self.fingerprint,
            "predicted_iteration_ms": self.predicted_iteration_ms,
            "cluster": cluster_to_json(self.cluster),
            "framework": framework_to_json(self.framework),
            "policy": self.policy.to_dict(),
            "signatures": signatures_to_json(self.signatures),
            "scenario": self.scenario.to_dict() if self.scenario else None,
            "planner": self.planner,
            "meta": self.meta,
            "program": program_json,
        }
        if self.placement is not None:
            # key present only for placement-carrying plans: documents
            # written by placement-free pipelines stay byte-stable
            doc["placement"] = placement_map_to_json(self.placement)
        if self.stage_map is not None:
            # same optional-section pattern: flat plans stay byte-stable
            doc["pipeline"] = self.stage_map.to_dict()
        return doc

    @classmethod
    def from_dict(cls, obj: dict, materialize: bool = True) -> "Plan":
        """Reconstruct a plan from its serialized form.

        Validates the envelope eagerly; with ``materialize=True`` (the
        default) the program is decoded and validated immediately,
        otherwise on first ``.program`` access.
        """
        if not isinstance(obj, dict):
            raise PlanError(
                f"plan document must be a JSON object, got {type(obj).__name__}"
            )
        if obj.get("schema") != PLAN_SCHEMA:
            raise PlanError(
                f"not a plan document (schema={obj.get('schema')!r}, "
                f"expected {PLAN_SCHEMA!r})"
            )
        version = obj.get("schema_version", "0.0")
        if _major(version) != _major(PLAN_SCHEMA_VERSION):
            raise PlanSchemaError(
                f"plan was written under schema version {version}, which is "
                f"incompatible with this build (reads {PLAN_SCHEMA_VERSION}); "
                f"re-compile the plan"
            )
        from ..placement import placement_map_from_json

        try:
            program_json = obj["program"]
            if not isinstance(program_json, dict):
                raise PlanError("plan 'program' section must be an object")
            scenario = obj.get("scenario")
            plan = cls(
                placement=placement_map_from_json(obj.get("placement")),
                stage_map=obj.get("pipeline"),
                cluster=cluster_from_json(obj["cluster"]),
                policy=PlanPolicy.from_dict(obj["policy"]),
                fingerprint=str(obj["fingerprint"]),
                predicted_iteration_ms=float(obj["predicted_iteration_ms"]),
                program_json=program_json,
                framework=framework_from_json(obj["framework"]),
                signatures=signatures_from_json(obj.get("signatures")),
                scenario=Scenario.from_dict(scenario) if scenario else None,
                planner=obj.get("planner") or {},
                meta=obj.get("meta") or {},
            )
        except PlanError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise PlanError(f"malformed plan document: {err}") from err
        if materialize:
            plan.program  # decode + validate now; raises PlanError on garbage
        return plan

    def save(self, path) -> pathlib.Path:
        """Write the plan as versioned JSON (atomically) and return the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(self.to_dict(), separators=(",", ":")))
        return path

    @classmethod
    def load(cls, path, materialize: bool = True) -> "Plan":
        """Read a plan written by :meth:`save`.

        Raises :class:`PlanError` (with a pointed message) for files
        that are not valid plan JSON, and :class:`PlanSchemaError` for
        plans written under an incompatible schema major version.
        """
        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as err:
            raise PlanError(f"cannot read plan file {path}: {err}") from err
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise PlanError(
                f"{path} is not valid JSON (corrupted plan file?): {err}"
            ) from err
        return cls.from_dict(obj, materialize=materialize)

    # -- presentation --------------------------------------------------------

    def summary(self) -> str:
        """Human-readable overview (used by ``python -m repro inspect``)."""
        lines = [f"plan {self.fingerprint[:23]}  (schema v{PLAN_SCHEMA_VERSION})"]
        if self.scenario is not None:
            sc = self.scenario
            lines.append(
                f"  scenario: {sc.name}  batch={sc.resolved_batch()} "
                f"seq={sc.resolved_seq()} gate={sc.gate}"
            )
        lines.append(
            f"  cluster: {self.cluster.name} "
            f"({self.cluster.num_gpus}x {self.cluster.gpu.name}), "
            f"framework {self.framework.name}"
        )
        pol = ", ".join(f"{k}={v}" for k, v in self.policy.to_dict().items())
        lines.append(f"  policy: {pol}")
        if self.signatures:
            worst = max(sig.bottleneck for sig in self.signatures.values())
            lines.append(
                f"  routing: conditioned on {len(self.signatures)} layer "
                f"signature(s), worst bottleneck {worst:.2f}x"
            )
        else:
            lines.append("  routing: uniform approximation")
        if self.placement is not None:
            from ..placement import placement_map_fingerprint

            shadowed = sum(
                len(p.replicated_experts) for p in self.placement.values()
            )
            lines.append(
                f"  placement: {len(self.placement)} placement(s), "
                f"{shadowed} shadowed expert(s), "
                f"fingerprint {placement_map_fingerprint(self.placement)[:12]}"
            )
        if self.stage_map is not None:
            lines.append(f"  pipeline: {self.stage_map.describe()}")
        lines.append(
            f"  predicted iteration: {self.predicted_iteration_ms:.2f} ms"
        )
        if self.planner:
            keys = (
                "optimization_seconds",
                "num_dw_moved",
                "partition_degrees",
                "num_cost_evals",
            )
            shown = {k: self.planner[k] for k in keys if k in self.planner}
            if shown:
                lines.append(
                    "  planner: "
                    + ", ".join(f"{k}={v}" for k, v in shown.items())
                )
        # summarized off the serialized form when not yet materialized:
        # inspecting a plan must not require reconstructing it
        lines.append(
            f"  program: {self.num_instructions()} instructions, "
            f"a2a algorithms {self.a2a_algorithms() or '{}'}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        origin = "store" if self.from_store else "compile"
        return (
            f"Plan({self.fingerprint[:15]}..., "
            f"predicted={self.predicted_iteration_ms:.2f}ms, via {origin})"
        )
