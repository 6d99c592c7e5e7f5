"""Framework schedule builders used by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import PlanPolicy
from ..core.partition import RangePlan, apply_plans, infer_axes
from ..ir import Program
from ..models.gpt2_moe import ModelGraph
from ..runtime import (
    COMPILED,
    DEEPSPEED,
    TUTEL,
    ClusterSpec,
    FrameworkProfile,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_program,
)


@dataclass
class BaselineResult:
    """A prepared schedule plus metadata for the harness."""

    name: str
    program: Program
    profile: FrameworkProfile
    #: whether this framework transmits full padded buffers in A2A
    padded_a2a: bool
    info: dict = field(default_factory=dict)


class Framework:
    """Base interface: turn a model graph into an executable schedule."""

    name: str = "base"
    profile: FrameworkProfile = COMPILED
    padded_a2a: bool = True

    def prepare(self, graph: ModelGraph, cluster: ClusterSpec) -> BaselineResult:
        raise NotImplementedError


class DeepSpeedBaseline(Framework):
    """Eager stack, slow dispatch kernels, no overlap (paper: DeepSpeed
    0.5.8 without Tutel kernels)."""

    name = "deepspeed"
    profile = DEEPSPEED

    def prepare(self, graph: ModelGraph, cluster: ClusterSpec) -> BaselineResult:
        return BaselineResult(self.name, graph.program, self.profile, True)


class RAFBaseline(Framework):
    """Compiler stack, unmodified schedule (RAF without Lancet passes)."""

    name = "raf"
    profile = COMPILED

    def prepare(self, graph: ModelGraph, cluster: ClusterSpec) -> BaselineResult:
        return BaselineResult(self.name, graph.program, self.profile, True)


class TutelBaseline(Framework):
    """Capacity-dim overlap of all-to-all and experts (paper Sec. 2.2).

    For each run the overlap degree is searched over {1, 2, 4, 8} by
    simulating one iteration per degree and keeping the fastest -- the
    paper's exact methodology for Tutel numbers.
    """

    name = "tutel"
    profile = TUTEL
    degrees = (1, 2, 4, 8)

    def _partitioned(self, graph: ModelGraph, degree: int) -> Program | None:
        program = graph.program.clone()
        if degree == 1:
            return program
        pos = program.instr_index()
        plans: list[RangePlan] = []
        for ml in graph.moe_layers:
            start = pos[ml.a2a_first_uid]
            end = pos[ml.a2a_second_uid] + 1
            instrs = program.instructions[start:end]
            axes = infer_axes(instrs, program)
            if axes is None:
                return None
            capacity = program.type_of(instrs[0].inputs[0]).shape[1]
            if degree > capacity:
                return None
            plans.append(
                RangePlan(
                    start=start, end=end, parts=degree, axes=axes,
                    predicted_ms=0.0, sequential_ms=0.0,
                )
            )
        apply_plans(program, plans)
        return program

    def prepare(self, graph: ModelGraph, cluster: ClusterSpec) -> BaselineResult:
        best: tuple[float, int, Program] | None = None
        for degree in self.degrees:
            program = self._partitioned(graph, degree)
            if program is None:
                continue
            config = SimulationConfig(
                cluster=cluster,
                framework=self.profile,
                padded_a2a=True,
                routing=SyntheticRoutingModel(seed=0),
            )
            t = simulate_program(program, config=config).makespan
            if best is None or t < best[0]:
                best = (t, degree, program)
        assert best is not None
        t, degree, program = best
        return BaselineResult(
            self.name, program, self.profile, True, info={"degree": degree}
        )


class LancetFramework(Framework):
    """RAF + Lancet's two passes + irregular all-to-all, planned under
    ``policy`` (the Fig. 16 ablation switches its passes off)."""

    name = "lancet"
    profile = COMPILED
    padded_a2a = False

    def __init__(self, policy: PlanPolicy | None = None) -> None:
        self.policy = policy or PlanPolicy()

    def prepare(self, graph: ModelGraph, cluster: ClusterSpec) -> BaselineResult:
        opt = self.policy.make_optimizer(cluster, self.profile)
        program, report = opt.optimize(graph)
        return BaselineResult(
            self.name,
            program,
            self.profile,
            padded_a2a=False,
            info={
                "report": report,
                "optimization_seconds": report.optimization_seconds,
                "predicted_ms": report.predicted_iteration_ms,
            },
        )


def make_framework(name: str, **kwargs) -> Framework:
    """Factory by paper name: deepspeed / raf / tutel / lancet."""
    table = {
        "deepspeed": DeepSpeedBaseline,
        "raf": RAFBaseline,
        "tutel": TutelBaseline,
        "lancet": LancetFramework,
    }
    try:
        cls = table[name.lower()]
    except KeyError:
        raise ValueError(f"unknown framework {name!r}") from None
    return cls(**kwargs) if name.lower() == "lancet" else cls()
