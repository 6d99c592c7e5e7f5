"""Shared helpers for the per-figure experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field

from ...core import CachingOpProfiler, CommCostModel, CostEstimator
from ...runtime import (
    COMPILED,
    ClusterSpec,
    FrameworkProfile,
    SimulationConfig,
    SyntheticRoutingModel,
    Timeline,
    simulate_program,
)


@dataclass
class FigureResult:
    """Outcome of reproducing one paper figure."""

    figure: str
    description: str
    rows: list[dict] = field(default_factory=list)
    table: str = ""
    notes: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.figure}] {self.description}\n{self.table}"


def make_costs(
    cluster: ClusterSpec, framework: FrameworkProfile = COMPILED
) -> CostEstimator:
    """Cost estimator (profiler + comm model) for a cluster."""
    return CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=framework),
        CommCostModel(cluster),
    )


def simulate(
    program,
    cluster: ClusterSpec,
    framework: FrameworkProfile = COMPILED,
    padded_a2a: bool = True,
    seed: int = 1,
) -> Timeline:
    """One-iteration ground-truth simulation."""
    cfg = SimulationConfig(
        cluster=cluster,
        framework=framework,
        padded_a2a=padded_a2a,
        routing=SyntheticRoutingModel(seed=seed),
    )
    return simulate_program(program, config=cfg)
