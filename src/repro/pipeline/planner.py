"""Stage-split planner: choose pipeline boundaries, then let Lancet plan
each stage's partition/dW/a2a choices within its subgroup.

The search is two-phase, like the flat planner's candidate pruning:

1. **Heuristic ranking** -- per-layer costs (ground-truth op durations on
   the stage-subgroup cluster, with realized routing so hot-expert
   all-to-alls price high) are aggregated per candidate contiguous split
   and scored with the classic pipeline bound
   ``sum(t_s) + (M - 1) * max(t_s)``.
2. **Exact simulation** -- the top candidates (the even split always
   included) run through the full staged simulator, with one
   :class:`~repro.pipeline.simulate.SegmentPricer` for the whole call so
   a stage segment shared by several candidates is priced once; the
   winner's segments are then optimized in place per stage by
   :class:`~repro.core.LancetOptimizer` against the stage's own cluster
   and signatures, and the final pipeline makespan is re-simulated with
   only the rewritten segments priced again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..runtime.simulate import GroundTruthCost, SimulationConfig
from .partition import SplitProgram, split_stages
from .simulate import SegmentPricer, StagedSimulation, simulate_staged
from .stage import StagedCluster, StageMap

#: max contiguous splits enumerated exhaustively before falling back to
#: the even split's boundary neighborhood
MAX_EXHAUSTIVE_SPLITS = 256

#: candidates fully simulated after heuristic ranking
DEFAULT_TOP_K = 4


def layer_costs(program, cost: GroundTruthCost) -> dict[int, float]:
    """Total ground-truth duration of each layer's instructions, ms.

    Priced by ``cost`` on its cluster -- the *stage subgroup* cluster,
    where the layer would run -- with its realized routing, so a hot MoE
    layer's all-to-alls weigh as much as they will in the staged
    simulation."""
    totals: dict[int, float] = {}
    for instr in program.instructions:
        layer = instr.attrs.get("layer")
        if layer is None:
            raise ValueError(
                f"instruction {instr.op!r} carries no 'layer' attr; the "
                "stage planner needs layer-stamped programs"
            )
        totals[int(layer)] = totals.get(int(layer), 0.0) + cost.duration_ms(
            instr, program
        )
    return totals


def enumerate_layer_counts(
    num_layers: int, num_stages: int, limit: int = MAX_EXHAUSTIVE_SPLITS
) -> list[tuple[int, ...]]:
    """Candidate contiguous splits: all compositions of ``L`` into ``S``
    positive parts when that is small, else the even split's boundary
    neighborhood (every boundary independently shifted by -1/0/+1)."""
    import math

    total = math.comb(num_layers - 1, num_stages - 1)
    if total <= limit:
        out = []
        for cuts in itertools.combinations(
            range(1, num_layers), num_stages - 1
        ):
            edges = (0,) + cuts + (num_layers,)
            out.append(
                tuple(edges[i + 1] - edges[i] for i in range(num_stages))
            )
        return out

    q, r = divmod(num_layers, num_stages)
    even_edges = [0]
    for i in range(num_stages):
        even_edges.append(even_edges[-1] + q + (1 if i < r else 0))
    candidates = set()
    for deltas in itertools.product((-1, 0, 1), repeat=num_stages - 1):
        edges = list(even_edges)
        for i, d in enumerate(deltas):
            edges[i + 1] += d
        if all(edges[i + 1] > edges[i] for i in range(num_stages)):
            candidates.add(
                tuple(edges[i + 1] - edges[i] for i in range(num_stages))
            )
    return sorted(candidates)


def pipeline_bound_ms(
    stage_ms: list[float], microbatches: int
) -> float:
    """The classic pipeline makespan bound: one microbatch traverses
    every stage, then the bottleneck stage serializes the rest."""
    return sum(stage_ms) + (microbatches - 1) * max(stage_ms)


@dataclass
class StagedPlanResult:
    """Everything a staged planning run produced."""

    stage_map: StageMap
    staged: StagedCluster
    #: the chosen split with per-stage-optimized segments installed
    split: SplitProgram
    #: flat reassembled program (per-microbatch; serialized into Plans)
    program: object
    simulation: StagedSimulation
    #: heuristic ranking rows: {"layer_counts", "bound_ms", "simulated_ms"}
    candidates: list[dict] = field(default_factory=list)
    #: per-stage (forward_report, backward_report) Lancet summaries
    stage_reports: list[dict] = field(default_factory=list)

    @property
    def makespan_ms(self) -> float:
        return self.simulation.makespan


def _same_program(a, b) -> bool:
    """Whether ``b`` runs exactly ``a``'s instructions over ``a``'s
    values (instructions and values are immutable, so identity and
    equality decide it)."""
    return (
        len(a.instructions) == len(b.instructions)
        and all(x is y for x, y in zip(a.instructions, b.instructions))
        and a.values == b.values
    )


def _optimize_split(split, optimizer_factory, check: bool = False):
    """Run the per-stage optimizer over forward + backward segments.

    Returns the per-stage reports and the ``(stage, phase)`` keys of the
    segments the optimizer rewrote."""
    reports = []
    rewritten = set()
    for stage in split.staged.stages:
        summary = {"stage": stage.index}
        opt = optimizer_factory(stage.cluster)
        for phase in ("forward", "backward"):
            seg = split.segment(stage.index, phase)
            if not seg.program.instructions:
                continue
            optimized, report = opt.optimize(seg.program, check=check)
            if not _same_program(seg.program, optimized):
                rewritten.add((stage.index, phase))
            seg.program = optimized
            summary[phase] = report.summary_dict()
        reports.append(summary)
    return reports, rewritten


def plan_stages(
    graph_or_program,
    config: SimulationConfig,
    num_stages: int,
    microbatches: int,
    schedule: str = "1f1b",
    layer_counts: tuple[int, ...] | None = None,
    optimizer_factory=None,
    top_k: int = DEFAULT_TOP_K,
    check: bool = False,
) -> StagedPlanResult:
    """Plan a staged iteration: pick boundaries, optimize each stage.

    Parameters
    ----------
    graph_or_program:
        Layer-stamped training graph built for *one microbatch* at the
        stage-subgroup device count (``cluster.num_gpus / num_stages``).
    config:
        Ground truth to plan against: ``config.cluster`` is the whole
        (base) cluster the stages are cut from, and every price is taken
        under ``config`` with the stage subgroup cluster swapped in.
    layer_counts:
        Skip the search and force these boundaries (used by the naive
        even-split baseline, which still gets per-stage optimization).
    optimizer_factory:
        ``f(stage_cluster) -> LancetOptimizer`` for per-stage
        optimization; ``None`` plans boundaries only (unoptimized
        segments), which is also what the candidate search simulates.
    check:
        Validate the IR after each per-stage optimizer pass.
    """
    cluster = config.cluster
    program = getattr(graph_or_program, "program", graph_or_program)
    num_layers = 1 + max(
        int(i.attrs.get("layer", 0)) for i in program.instructions
    )
    if num_stages < 1 or num_stages > num_layers:
        raise ValueError(
            f"need 1 <= stages <= {num_layers} layers, got {num_stages}"
        )

    pricer = SegmentPricer(config)
    candidates: list[dict] = []
    if layer_counts is None:
        even = StagedCluster.even(cluster, num_layers, num_stages)
        per_layer = layer_costs(program, pricer.cost(even.stages[0].cluster))
        scored = []
        for counts in enumerate_layer_counts(num_layers, num_stages):
            edges = [0]
            for c in counts:
                edges.append(edges[-1] + c)
            stage_ms = [
                sum(per_layer.get(layer, 0.0) for layer in range(a, b))
                for a, b in zip(edges, edges[1:])
            ]
            scored.append(
                (pipeline_bound_ms(stage_ms, microbatches), counts)
            )
        scored.sort(key=lambda t: (t[0], t[1]))
        shortlist = [counts for _, counts in scored[:top_k]]
        if even.layer_counts not in shortlist:
            shortlist.append(even.layer_counts)

        best = None
        for counts in shortlist:
            staged = StagedCluster.from_layer_counts(cluster, counts)
            split = split_stages(graph_or_program, staged)
            sim = simulate_staged(
                split,
                microbatches,
                pricer.stage_costs(split),
                schedule=schedule,
            )
            bound = next(b for b, c in scored if c == counts)
            candidates.append(
                {
                    "layer_counts": counts,
                    "bound_ms": bound,
                    "simulated_ms": sim.makespan,
                }
            )
            if best is None or sim.makespan < best[0]:
                best = (sim.makespan, split)
        split = best[1]
        layer_counts = split.staged.layer_counts
    else:
        split = split_stages(
            graph_or_program,
            StagedCluster.from_layer_counts(cluster, layer_counts),
        )

    stage_reports, rewritten = [], set()
    if optimizer_factory is not None:
        stage_reports, rewritten = _optimize_split(
            split, optimizer_factory, check=check
        )
    simulation = simulate_staged(
        split,
        microbatches,
        pricer.stage_costs(split, fresh=rewritten),
        schedule=schedule,
    )
    from .partition import reassemble

    stage_map = StageMap(
        num_stages=num_stages,
        microbatches=microbatches,
        schedule=schedule,
        layer_counts=tuple(layer_counts),
        predicted_pipeline_ms=simulation.makespan,
    )
    return StagedPlanResult(
        stage_map=stage_map,
        staged=split.staged,
        split=split,
        program=reassemble(split),
        simulation=simulation,
        candidates=candidates,
        stage_reports=stage_reports,
    )
