"""Topology sweep: flat vs hierarchical (2-hop) all-to-all plans (extension).

Not a paper figure.  Lancet's evaluation clusters are bandwidth-
asymmetric -- NVLink inside a node, a much slower shared NIC across
nodes -- yet a flat all-to-all forces every GPU's cross-node bytes
through its 1/L share of the node NIC.  The hierarchical extension
(`runtime/topology.py`) decomposes each irregular all-to-all into
intra-node gather -> node-aggregated inter-node exchange -> intra-node
scatter, and the planner picks flat vs hierarchical **per a2a chunk**
from the routing signature (`CommCostModel.a2a_best_ms`).

This sweep quantifies the decision across node counts and hot-expert
intensities: for every scenario two skew-aware Lancet plans are produced
for the same program -- one restricted to flat all-to-alls, one free to
choose -- and both are simulated per-device (`simulate_cluster`) under
the same realized routing.  Expected shape:

- single-node rows: the choice reduces to flat, both plans are
  identical (bit-for-bit);
- multi-node balanced rows: flat stays cheaper (the 2-hop detour adds
  NVLink hops and latency without relieving any bottleneck), so the
  hierarchical-enabled plan never loses;
- multi-node skewed rows: hot-expert owners bottleneck the flat
  exchange on their NIC share; node-aggregating the exchange spreads
  that traffic over the node's full NIC, and iteration time drops
  >= 10% at scale.
"""

from __future__ import annotations

import dataclasses

from ...core import LancetOptimizer, PlanPolicy
from ...runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_cluster,
)
from ..formatting import format_table
from ..harness import model_by_name, paper_batch
from .common import FigureResult


def run(
    model: str = "GPT2-S-MoE",
    cluster_kind: str = "v100",
    node_counts=(1, 2, 4),
    num_layers: int | None = 4,
    hot_boosts=(0.0, 0.5, 0.7),
    concentration: float = 0.3,
    hot_experts: int = 1,
    seed: int = 1,
) -> FigureResult:
    """Sweep node count x hot-expert intensity; plan flat-only vs
    hierarchical-enabled each time (both skew-aware)."""
    from ...models import build_training_graph

    cfg = model_by_name(model)
    if num_layers is not None:
        cfg = dataclasses.replace(cfg, num_layers=num_layers)
    batch = paper_batch(cluster_kind, model)

    rows = []
    for nodes in node_counts:
        num_gpus = nodes * 8
        graph = build_training_graph(
            cfg, batch=batch, seq=512, num_gpus=num_gpus
        )
        cluster = ClusterSpec.for_gpus(cluster_kind, num_gpus)
        for boost in hot_boosts:
            routing = SyntheticRoutingModel(
                seed=seed,
                concentration=concentration,
                hot_experts=hot_experts if boost > 0 else 0,
                hot_boost=boost,
            )

            opt_flat = LancetOptimizer(cluster)
            signatures = opt_flat.observe_routing(graph, routing)
            prog_flat, rep_flat = opt_flat.optimize(graph)

            # both plans condition on the exact same observation
            opt_hier = LancetOptimizer(
                cluster, policy=PlanPolicy(enable_hierarchical_a2a=True)
            )
            opt_hier.set_routing_signatures(signatures or None)
            prog_hier, rep_hier = opt_hier.optimize(graph)

            def iter_ms(program):
                sim = SimulationConfig(
                    cluster=cluster,
                    framework=opt_flat.framework,
                    padded_a2a=False,
                    routing=routing,
                )
                return simulate_cluster(program, config=sim).makespan

            t_flat = iter_ms(prog_flat)
            t_hier = iter_ms(prog_hier)
            rows.append(
                {
                    "num_nodes": nodes,
                    "num_gpus": num_gpus,
                    "hot_boost": boost,
                    "iter_flat_plan_ms": t_flat,
                    "iter_hier_plan_ms": t_hier,
                    "speedup": t_flat / t_hier,
                    "predicted_flat_ms": rep_flat.predicted_iteration_ms,
                    "predicted_hier_ms": rep_hier.predicted_iteration_ms,
                    "a2a_algorithms": rep_hier.a2a_algorithms,
                    "hierarchical_a2a": rep_hier.hierarchical_a2a_count,
                }
            )

    table = format_table(
        ["Nodes", "Hot boost", "Flat plan ms", "Hier plan ms", "Speedup",
         "Hier a2a"],
        [
            [
                r["num_nodes"],
                r["hot_boost"],
                r["iter_flat_plan_ms"],
                r["iter_hier_plan_ms"],
                r["speedup"],
                r["hierarchical_a2a"],
            ]
            for r in rows
        ],
        title=f"Topology sweep: flat vs hierarchical a2a plans ({model}, "
        f"{cluster_kind}, 8 GPUs/node)",
    )
    multi_skew = [
        r for r in rows if r["num_nodes"] > 1 and r["hot_boost"] > 0
    ]
    notes = {
        "max_speedup": max(r["speedup"] for r in rows),
        "max_multi_node_skew_speedup": max(
            (r["speedup"] for r in multi_skew), default=1.0
        ),
        # lower-is-better gates for the CI regression check
        "regression_metrics": {
            f"hier_plan_ms@nodes={r['num_nodes']},boost={r['hot_boost']}":
                r["iter_hier_plan_ms"]
            for r in rows
        },
    }
    return FigureResult(
        "topology",
        "flat vs hierarchical (2-hop) all-to-all plans across node counts "
        "and hot-expert intensities",
        rows,
        table,
        notes,
    )
