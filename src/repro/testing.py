"""Small helpers and randomized-scenario generators shared by the test
and benchmark suites.

Lives inside the package (rather than in a ``conftest.py``) so test
modules can import it unambiguously: ``tests/conftest.py`` and
``benchmarks/conftest.py`` are both imported under the module name
``conftest`` in pytest's rootdir mode, so ``from conftest import ...``
resolves to whichever directory was collected first.

The generators are the single source of randomized programs, clusters,
routing models and routed buffers for every differential suite
(``test_fast_replan``, ``test_hierarchical_a2a``,
``test_batch_simulate``): one grid, one drift sequence, one set of
hypothesis strategies.  ``hypothesis`` is imported lazily inside the
strategy factories so the package keeps numpy as its only hard runtime
dependency.
"""

from __future__ import annotations

import numpy as np


def fresh_values(values: list[dict]) -> list[dict]:
    """Deep-enough copy of per-device value dicts for one execution.

    The numeric executor mutates its environments in place; tests reuse
    one initialized value set across executions, so each run gets fresh
    top-level dicts (the tensors themselves are never written in place).
    """
    return [dict(v) for v in values]


# -- randomized program / cluster grids ------------------------------------

#: randomized-ish program grid: layer count, gpus, batch, seq, gate
PROGRAM_GRID = [
    (2, 4, 4, 64, "switch"),
    (3, 8, 8, 128, "switch"),
    (4, 8, 8, 128, "bpr"),
]


def build_grid_graph(layers: int, gpus: int, batch: int, seq: int,
                     gate: str = "switch"):
    """Training graph for one :data:`PROGRAM_GRID` row."""
    from .models import GPT2MoEConfig, build_training_graph

    return build_training_graph(
        GPT2MoEConfig.gpt2_s_moe(num_layers=layers, gate=gate),
        batch=batch,
        seq=seq,
        num_gpus=gpus,
    )


def cluster_grid(num_gpus: int) -> list:
    """Clusters to differentiate against at a device count: a flat
    single-node box plus the two multi-node topologies (which exercise
    hierarchical pricing and the 2-hop device-time model)."""
    from .runtime import ClusterSpec

    out = [ClusterSpec.for_gpus("a100", num_gpus)]
    for factory in (ClusterSpec.p4de, ClusterSpec.p3dn):
        for nodes in (2, 4):
            cl = factory(nodes)
            if cl.num_gpus == num_gpus:
                out.append(cl)
    return out


def routing_models(include_none: bool = False) -> list:
    """The canonical drift sequence: uniform routing plus synthetic
    realizations from balanced to heavily hot-expert-skewed.  Fresh
    instances per call -- synthetic models memoize their per-layer draws,
    so shared instances would couple callers.  ``include_none`` prepends
    ``None`` ("no signatures observed", the planner's static
    approximation)."""
    from .runtime import SyntheticRoutingModel, UniformRoutingModel

    models: list = [
        UniformRoutingModel(),
        SyntheticRoutingModel(
            seed=1, concentration=0.5, hot_experts=1, hot_boost=0.7
        ),
        SyntheticRoutingModel(
            seed=2, concentration=1.0, hot_experts=2, hot_boost=0.5
        ),
        SyntheticRoutingModel(seed=3, concentration=16.0),
    ]
    if include_none:
        models.insert(0, None)
    return models


def straggler_scenarios(num_gpus: int) -> list:
    """Straggler knobs to sweep: nominal, one slow device (the paper's
    30%-degraded straggler), and a mildly heterogeneous cluster."""
    rng = np.random.default_rng(7)
    return [
        None,
        {0: 1.0 / 0.7},
        list(rng.uniform(1.0, 1.3, size=num_gpus)),
    ]


# -- realized routing helpers (moved from test_hierarchical_a2a) -----------


def routed_buffers(rng, g, el, c, h, t, temperature=1.0):
    """Per-device dispatch buffers with realistic routing + their counts."""
    from .moe import dispatch, route_switch
    from .moe.layer import softmax

    e = g * el
    bufs, counts = [], np.zeros((g, e), dtype=np.int64)
    for d in range(g):
        probs = softmax(rng.standard_normal((t, e)) * temperature)
        info, _ = route_switch(probs, capacity=c)
        bufs.append(dispatch(rng.standard_normal((t, h)), info))
        counts[d] = info.expert_counts()
    return bufs, counts


def random_pair_bytes(rng, g, skew=1.0):
    """A positive pair-bytes matrix with a controllable hot column."""
    pair = np.abs(rng.standard_normal((g, g))) * 1e6
    hot = int(rng.integers(g))
    pair[:, hot] *= skew
    return pair


# -- hypothesis strategies (lazy: hypothesis is a test-only dependency) ----


def st_routing_model():
    """Strategy over routing models: uniform or a synthetic realization
    spanning balanced to single-hot-expert regimes."""
    from hypothesis import strategies as st

    from .runtime import SyntheticRoutingModel, UniformRoutingModel

    synthetic = st.builds(
        SyntheticRoutingModel,
        seed=st.integers(0, 2**16),
        concentration=st.sampled_from([0.3, 0.5, 1.0, 4.0, 16.0]),
        hot_experts=st.integers(0, 2),
        hot_boost=st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    )
    return st.one_of(st.builds(UniformRoutingModel), synthetic)


def st_exchange_params():
    """Strategy over randomized irregular-exchange scenarios, shared by
    the hierarchical-a2a bit-identity property and the batch-simulation
    differential harness (both stress ANY realized routing)."""
    from hypothesis import strategies as st

    return st.fixed_dictionaries(
        {
            "seed": st.integers(0, 2**16),
            "g": st.sampled_from([4, 8]),
            "el": st.integers(1, 2),
            "c": st.integers(2, 8),
            "t": st.integers(4, 32),
            "temperature": st.floats(0.25, 8.0),
            "direction": st.sampled_from(["scatter", "gather"]),
        }
    )


def st_expert_placement(num_experts: int, num_devices: int, max_replicas: int = 3):
    """Strategy over valid :class:`~repro.placement.ExpertPlacement`\\ s:
    every expert placed, replica device sets duplicate-free, traffic
    fractions positive and normalized -- the full artifact space the
    placement property suite quantifies over (identity included)."""
    from hypothesis import strategies as st

    from .placement import ExpertPlacement

    def build(seed):
        rng = np.random.default_rng(seed)
        assignments = []
        for _ in range(num_experts):
            r = int(rng.integers(1, min(max_replicas, num_devices) + 1))
            devices = rng.choice(num_devices, size=r, replace=False)
            weights = rng.random(r) + 0.05  # bounded away from 0
            fractions = weights / weights.sum()
            assignments.append(
                tuple(
                    (int(d), float(f)) for d, f in zip(devices, fractions)
                )
            )
        return ExpertPlacement(num_experts, num_devices, tuple(assignments))

    identity = st.just(None).map(
        lambda _: ExpertPlacement.identity(num_experts, num_devices)
        if num_experts % num_devices == 0
        else build(0)
    )
    return st.one_of(identity, st.integers(0, 2**16).map(build))


def st_dispatch_counts(num_devices: int, num_experts: int, max_tokens: int = 512):
    """Strategy over skewed integer dispatch-count matrices
    ``[num_devices, num_experts]``: a noise floor plus 0-2 hot expert
    columns, the traffic regime placement optimization targets."""
    from hypothesis import strategies as st

    def build(params):
        seed, hot_experts, boost = params
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, max_tokens // 4, size=(num_devices, num_experts))
        for h in rng.choice(num_experts, size=hot_experts, replace=False):
            counts[:, h] += int(boost * max_tokens)
        return counts

    return st.tuples(
        st.integers(0, 2**16),
        st.integers(0, min(2, num_experts)),
        st.sampled_from([0.5, 1.0, 2.0]),
    ).map(build)


def make_drift_trace(
    num_devices: int,
    num_experts: int,
    steps: int = 40,
    seed: int = 0,
    base_tokens: int = 50,
    hot_tokens: int = 700,
    episodes: tuple = ((8, 20, 1), (26, 38, 4)),
) -> list[np.ndarray]:
    """A recorded dispatch-count trace with hot-expert drift episodes.

    Steady near-balanced traffic, interrupted by ``episodes`` of
    ``(start_step, end_step, hot_expert)`` during which the named expert
    receives ``hot_tokens`` extra tokens per device -- the workload
    shape (sudden popularity shifts that persist for a while) that makes
    priced expert migration win.  Deterministic in ``seed``; the
    checked-in ``tests/fixtures/routing_trace.json`` is one of these.
    """
    rng = np.random.default_rng(seed)
    trace = []
    for step in range(steps):
        counts = rng.integers(
            max(1, base_tokens // 2),
            base_tokens,
            size=(num_devices, num_experts),
        )
        for start, end, hot in episodes:
            if start <= step < end:
                counts[:, hot % num_experts] += hot_tokens
        trace.append(counts.astype(np.int64))
    return trace


def st_staged_cluster():
    """Strategy over valid :class:`~repro.pipeline.StagedCluster`\\ s:
    single- and multi-node base clusters tiled into 2-4 stages with
    randomized per-stage layer counts -- the topology space the pipeline
    property suite quantifies over.  Every shape satisfies the stage
    constraints (stages divide the GPU count; subgroups align with node
    boundaries or divide a node)."""
    from hypothesis import strategies as st

    from .pipeline import StagedCluster
    from .runtime import ClusterSpec

    shapes = st.sampled_from(
        [
            ("a100", 4, 2),
            ("a100", 8, 2),
            ("a100", 8, 4),
            ("v100", 16, 2),
            ("v100", 16, 4),
        ]
    )

    def build(params):
        (kind, gpus, num_stages), seed = params
        rng = np.random.default_rng(seed)
        counts = [int(rng.integers(1, 4)) for _ in range(num_stages)]
        return StagedCluster.from_layer_counts(
            ClusterSpec.for_gpus(kind, gpus), counts
        )

    return st.tuples(shapes, st.integers(0, 2**16)).map(build)


def st_microbatch_count(max_microbatches: int = 8):
    """Strategy over pipeline microbatch counts (>= 1, small enough to
    keep staged-schedule properties fast)."""
    from hypothesis import strategies as st

    return st.integers(1, max_microbatches)


def st_simulation_scenario(num_gpus: int):
    """Strategy over (routing model, straggler map, protocol flags) --
    one scenario for the engine-vs-reference differential harness."""
    from hypothesis import strategies as st

    stragglers = st.one_of(
        st.none(),
        st.dictionaries(
            st.integers(0, num_gpus - 1),
            st.floats(0.5, 2.0),
            min_size=1,
            max_size=min(3, num_gpus),
        ),
    )
    return st.fixed_dictionaries(
        {
            "routing": st_routing_model(),
            "straggler_slowdown": stragglers,
            "padded_a2a": st.booleans(),
            "block_sparse_experts": st.booleans(),
        }
    )
