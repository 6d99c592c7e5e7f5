"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GPT2MoEConfig, build_training_graph
from repro.models import build_forward
from repro.models.init import init_device_values
from repro.runtime import ClusterSpec


@pytest.fixture(scope="session")
def tiny_cfg() -> GPT2MoEConfig:
    return GPT2MoEConfig.tiny()


@pytest.fixture(scope="session")
def tiny_graph(tiny_cfg):
    """A 2-device tiny training graph (forward+backward+sync+sgd)."""
    return build_training_graph(tiny_cfg, batch=4, seq=8, num_gpus=2)


@pytest.fixture(scope="session")
def tiny_forward(tiny_cfg):
    """Forward-only tiny graph."""
    return build_forward(tiny_cfg, batch=4, seq=8, num_gpus=2)


@pytest.fixture(scope="session")
def tiny_values(tiny_graph):
    """Initialized per-device values for the tiny graph (do not mutate:
    copy dicts before executing)."""
    return init_device_values(tiny_graph, seed=0)


@pytest.fixture(scope="session")
def small_cluster() -> ClusterSpec:
    return ClusterSpec.for_gpus("a100", 2)


@pytest.fixture(scope="session")
def tiny_swapped_placement(tiny_graph):
    """``{first MoE layer: placement}`` for the tiny graph that moves
    every expert to the other device (a non-identity layout)."""
    from repro.placement import ExpertPlacement

    g = tiny_graph.num_gpus
    identity = ExpertPlacement.identity(tiny_graph.cfg.num_experts(g), g)
    swapped = ExpertPlacement(
        identity.num_experts,
        g,
        tuple(
            tuple((g - 1 - d, f) for d, f in replicas)
            for replicas in identity.assignments
        ),
    )
    return {tiny_graph.moe_layers[0].layer: swapped}


@pytest.fixture(scope="session")
def a100_16() -> ClusterSpec:
    return ClusterSpec.p4de(2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def routing_trace() -> dict:
    """The recorded dispatch-count trace with hot-expert drift episodes
    (``fixtures/routing_trace.json``).  Keys: ``num_devices``,
    ``num_experts``, ``bytes_per_token``, and ``steps`` (a list of
    ``[num_devices, num_experts]`` int arrays)."""
    import json
    from pathlib import Path

    doc = json.loads(
        (Path(__file__).parent / "fixtures" / "routing_trace.json").read_text()
    )
    doc["steps"] = [np.asarray(s, dtype=np.int64) for s in doc["steps"]]
    return doc
