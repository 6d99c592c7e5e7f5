"""Shared experiment harness for all paper figures.

One entry point, :func:`run_setting`, prepares a framework's schedule for a
(model, cluster, GPU count, gate) setting and simulates one training
iteration, returning every quantity the paper's figures report.
Measurements are memoized so figures sharing grid points (e.g. Fig. 11 and
Fig. 14) don't recompute them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from ..api.scenario import PAPER_SEQ, model_by_name, paper_batch
from ..baselines import make_framework
from ..models import build_training_graph
from ..runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_program,
)

#: GPU counts evaluated in the paper's scaling experiments
PAPER_GPU_COUNTS = (16, 32, 64)

EXPERT_OPS_FWD = frozenset({"expert_ffn"})
EXPERT_OPS_ALL = frozenset({"expert_ffn", "expert_ffn_dx", "expert_ffn_dw"})


@dataclass(frozen=True)
class Setting:
    """One grid point of the evaluation."""

    model: str  # GPT2-S-MoE / GPT2-L-MoE
    cluster_kind: str  # a100 / v100
    num_gpus: int
    framework: str  # deepspeed / raf / tutel / lancet
    gate: str = "switch"
    batch: int | None = None
    seq: int = PAPER_SEQ

    def resolved_batch(self) -> int:
        return self.batch or paper_batch(self.cluster_kind, self.model)


@dataclass
class Measurement:
    """Everything one simulated iteration yields."""

    setting: Setting
    iteration_ms: float
    comm_only_ms: float
    comp_only_ms: float
    overlap_ms: float
    exposed_a2a_ms: float
    a2a_total_ms: float
    expert_fwd_ms: float
    expert_total_ms: float
    allreduce_ms: float
    memory_gb: float
    info: dict = field(default_factory=dict)

    @property
    def others_ms(self) -> float:
        """Everything that is neither all-to-all nor expert computation
        (the paper Fig. 2 'Others' bucket)."""
        return self.iteration_ms - self.exposed_a2a_ms - self.expert_total_ms


def estimate_memory_gb(graph, framework: str) -> float:
    """Rough per-GPU memory estimate: params + grads + fp32 momentum +
    retained forward activations, with a small framework overhead factor.

    Note: at the paper's batch sizes real frameworks run near the memory
    limit (they chose the largest fitting batch); an analytic model
    underestimates allocator overheads, so this is reported for relative
    comparison (DeepSpeed > others), not absolute OOM prediction.
    """
    p = graph.program
    param_bytes = sum(p.values[v].type.nbytes for v in p.params)
    act_bytes = 0
    for ins in p.instructions[: graph.forward_len]:
        for o in ins.outputs:
            act_bytes += p.values[o].type.nbytes
    overhead = {"deepspeed": 1.30, "tutel": 1.12}.get(framework, 1.0)
    total = (param_bytes * 2 + param_bytes * 2 + act_bytes) * overhead
    return total / 2**30


#: routing seed used when callers do not pass one; ``python -m repro
#: figures --seed N`` retargets it for the whole figure run
_DEFAULT_SEED = 1


def set_default_seed(seed: int) -> None:
    """Set the routing seed used by :func:`run_setting` when the caller
    does not pass one explicitly (the CLI's ``--seed``)."""
    global _DEFAULT_SEED
    _DEFAULT_SEED = int(seed)


def run_setting(setting: Setting, seed: int | None = None) -> Measurement:
    """Prepare the framework schedule and simulate one iteration.

    ``seed`` controls the synthetic routing realization; ``None`` uses
    the session default (see :func:`set_default_seed`).
    """
    return _run_setting(setting, _DEFAULT_SEED if seed is None else seed)


@functools.lru_cache(maxsize=None)
def _run_setting(setting: Setting, seed: int) -> Measurement:
    cfg = model_by_name(setting.model, setting.gate)
    batch = setting.resolved_batch()
    graph = build_training_graph(
        cfg, batch=batch, seq=setting.seq, num_gpus=setting.num_gpus
    )
    cluster = ClusterSpec.for_gpus(setting.cluster_kind, setting.num_gpus)

    t0 = time.perf_counter()
    fw = make_framework(setting.framework)
    result = fw.prepare(graph, cluster)
    prepare_seconds = time.perf_counter() - t0

    sim = SimulationConfig(
        cluster=cluster,
        framework=result.profile,
        padded_a2a=result.padded_a2a,
        routing=SyntheticRoutingModel(seed=seed),
    )
    tl = simulate_program(result.program, config=sim)
    bd = tl.breakdown()
    info = dict(result.info)
    info["prepare_seconds"] = prepare_seconds
    report = info.pop("report", None)
    if report is not None:
        info["pass_seconds"] = {
            t.name: t.seconds for t in report.pass_timings
        }
        info["predicted_ms"] = report.predicted_iteration_ms
        info["plans"] = [
            (pl.start, pl.end, pl.parts) for pl in report.partition.plans
        ]
    return Measurement(
        setting=setting,
        iteration_ms=bd.makespan,
        comm_only_ms=bd.comm_only,
        comp_only_ms=bd.comp_only,
        overlap_ms=bd.overlapped,
        exposed_a2a_ms=tl.exposed_time_of({"all_to_all"}),
        a2a_total_ms=tl.total_time_of({"all_to_all"}),
        expert_fwd_ms=tl.total_time_of(EXPERT_OPS_FWD),
        expert_total_ms=tl.total_time_of(EXPERT_OPS_ALL),
        allreduce_ms=tl.total_time_of({"allreduce"}),
        memory_gb=estimate_memory_gb(graph, setting.framework),
        info=info,
    )


def clear_cache() -> None:
    """Drop memoized measurements (for tests)."""
    _run_setting.cache_clear()
