"""The partition DP's branch-and-bound is exact.

The DP skips the two-stream recurrence of a candidate whose lower bound
(:meth:`RangeContext.lower_bound_ms`) plus boundary overhead cannot beat
the best prefix time it already holds.  That is exact only while the
bound never exceeds the recurrence it stands in for
(:meth:`RangeContext.simulate_ms`).  These tests check the inequality on
every (range, k) candidate the DP builds for the reference GPT2-S-MoE
scenario -- uniform and hot routing, flat and hierarchical all-to-alls
-- and, in a slow Hypothesis twin, on randomized programs and routing
signatures.  They also pin how many candidates the bound prunes on the
reference config.
"""

from dataclasses import replace

import pytest
from generators import PROGRAM_GRID, build_grid_graph, st_routing_model
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.dp_reference import chunk_durations

from repro import Scenario
from repro.bench.figures.opt_time import DRIFTS
from repro.core import (
    CachingOpProfiler,
    CommCostModel,
    CostEstimator,
    LancetOptimizer,
    PlannerState,
    PlanPolicy,
    plan_partitions,
)
from repro.core.partition import RangeContext
from repro.runtime import COMPILED, ClusterSpec
from repro.runtime.routing_model import SyntheticRoutingModel


def make_costs(cluster, signatures=None, hierarchical=False):
    costs = CostEstimator(
        CachingOpProfiler(gpu=cluster.gpu, framework=COMPILED),
        CommCostModel(cluster),
        enable_hierarchical=hierarchical,
    )
    costs.set_signatures(signatures)
    return costs


def check_bound(program, costs, policy=PlanPolicy()):
    """Plan ``program`` and compare the bound against the recurrence on
    every candidate the DP priced.  Returns (DP result, candidates
    checked, violations)."""
    state = PlannerState()
    result = plan_partitions(program, costs, policy, state=state)
    checked = 0
    violations = []
    for key, ctx in state.contexts._data.items():
        if not isinstance(ctx, RangeContext):
            continue  # axis inference proved the range unpartitionable
        for k in policy.k_candidates:
            if k > ctx.k_limit:
                continue
            a2a = ctx.a2a_durations(k, costs, {})
            bound = ctx.lower_bound_ms(k, a2a, costs, state.caches)
            exact = ctx.simulate_ms(chunk_durations(ctx, k, costs), k)
            checked += 1
            if not 0.0 < bound <= exact:
                violations.append((key, k, bound, exact))
    return result, checked, violations


def reference_scenario(name):
    scenario = Scenario.preset(name)
    graph = scenario.build_graph()
    cluster = scenario.build_cluster()
    signatures = None
    if scenario.hot_experts:
        signatures = LancetOptimizer(cluster).observe_routing(
            graph, scenario.routing_model()
        )
    return graph, cluster, signatures


@pytest.mark.parametrize(
    "name,hierarchical",
    [
        ("gpt2-s-moe/a100x16", False),
        ("gpt2-s-moe/a100x16-hot", False),
        ("gpt2-s-moe/a100x16-hot", True),
    ],
)
def test_bound_never_exceeds_the_recurrence(name, hierarchical):
    graph, cluster, signatures = reference_scenario(name)
    assert cluster.num_nodes == 2  # hierarchical pricing engages
    costs = make_costs(cluster, signatures, hierarchical)
    result, checked, violations = check_bound(graph.program, costs)
    # every candidate the DP counted was checked, pruned or not
    assert checked == result.num_cost_evals == 1140
    assert result.num_bounded > 0
    assert violations == []


@pytest.mark.slow
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grid=st.sampled_from(PROGRAM_GRID),
    routing=st.one_of(st.none(), st_routing_model()),
    hierarchical=st.booleans(),
    max_partitions=st.sampled_from([2, 4, 8]),
)
def test_bound_never_exceeds_the_recurrence_randomized(
    grid, routing, hierarchical, max_partitions
):
    layers, gpus, batch, seq, gate = grid
    cluster = ClusterSpec.p4de(2) if hierarchical else ClusterSpec.for_gpus(
        "a100", gpus
    )
    graph = build_grid_graph(layers, cluster.num_gpus, batch, seq, gate)
    signatures = None
    if routing is not None:
        signatures = LancetOptimizer(cluster).observe_routing(graph, routing)
    costs = make_costs(cluster, signatures, hierarchical)
    policy = replace(PlanPolicy(), max_partitions=max_partitions)
    result, checked, violations = check_bound(graph.program, costs, policy)
    assert checked == result.num_cost_evals
    assert violations == []


def test_reference_config_prune_counts():
    """The reference config (GPT2-S-MoE, 12 layers, 16 GPUs, batch 24,
    seq 512): of its 1140 candidates the cold plan simulates 523 and
    bounds 617; the warm re-plan after the last drift of the opt-time
    benchmark simulates 533 (1050 before the bound)."""
    cluster = ClusterSpec.for_gpus("a100", 16)
    graph = build_grid_graph(12, 16, 24, 512)
    opt = LancetOptimizer(cluster)
    _, report = opt.optimize(graph)
    cold = report.partition
    assert cold.num_cost_evals == 1140
    assert (cold.num_pipeline_sims, cold.num_bounded) == (523, 617)
    for drift in DRIFTS:
        opt.observe_routing(graph, SyntheticRoutingModel(**drift))
        _, report = opt.optimize(graph)
    warm = report.partition
    assert warm.warm_start and warm.num_cost_evals == 1140
    assert (warm.num_pipeline_sims, warm.num_bounded) == (533, 607)
