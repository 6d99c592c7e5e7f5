"""Declarative workload specification: model x cluster x routing.

A :class:`Scenario` names everything :func:`repro.api.compile` needs to
produce a plan -- the model preset, the target cluster, the per-GPU
batch, and the *routing scenario* (how skewed the expert traffic is) the
plan should be conditioned on.  It is deliberately a plain, serializable
value object: the same scenario compiled in two processes yields the
same graph fingerprint, the same routing signatures, and therefore the
same :class:`~repro.api.store.PlanStore` key.

Named presets cover every workload the benchmark suite runs today
(paper models x clusters x GPU counts, each with a hot-expert variant,
plus the miniature ``tiny`` model used by tests and CI)::

    Scenario.preset("gpt2-s-moe/a100x16")        # paper headline setting
    Scenario.preset("gpt2-s-moe/v100x16-hot")    # heavy hot-expert skew
    Scenario.preset("tiny/a100x8")               # seconds-fast CI scenario
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from ..models import GPT2MoEConfig, ModelGraph, build_training_graph
from ..runtime import ClusterSpec, SyntheticRoutingModel
from .codec import field_dict

#: default sequence length of the paper's experiments (Sec. 7)
PAPER_SEQ = 512

#: per-GPU batch sizes used in the paper (Sec. 7): the largest that fits.
PAPER_BATCH = {
    ("a100", "GPT2-S-MoE"): 24,
    ("a100", "GPT2-L-MoE"): 48,
    ("v100", "GPT2-S-MoE"): 16,
    ("v100", "GPT2-L-MoE"): 8,
}

#: model names resolvable by :meth:`Scenario.model_config`
MODEL_BUILDERS = {
    "GPT2-S-MoE": GPT2MoEConfig.gpt2_s_moe,
    "GPT2-L-MoE": GPT2MoEConfig.gpt2_l_moe,
    "tiny": GPT2MoEConfig.tiny,
}

#: fallback batch sizes for models the paper table does not cover
_DEFAULT_BATCH = {"tiny": 4}
_DEFAULT_SEQ = {"tiny": 32}


def _resolve_model_name(name: str) -> str:
    if not isinstance(name, str):
        raise TypeError(f"model name must be a string, got {name!r}")
    for known in MODEL_BUILDERS:
        if name.lower() == known.lower():
            return known
    raise ValueError(
        f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}"
    )


def model_by_name(name: str, gate: str = "switch") -> GPT2MoEConfig:
    """Model preset by name (case-insensitive; see :data:`MODEL_BUILDERS`)."""
    return MODEL_BUILDERS[_resolve_model_name(name)](gate=gate)


def paper_batch(cluster_kind: str, model_name: str) -> int:
    """The paper's per-GPU batch for a cluster kind and model."""
    return PAPER_BATCH[(cluster_kind.lower(), model_name)]


@dataclass(frozen=True)
class Scenario:
    """One compile-ready workload: model + cluster + routing scenario.

    Attributes
    ----------
    model:
        Model preset name (``GPT2-S-MoE`` / ``GPT2-L-MoE`` / ``tiny``).
    cluster:
        Cluster kind (``a100`` / ``v100``, aka p4de / p3dn).
    num_gpus:
        Total device count (8 per node beyond one node).
    batch / seq:
        Per-GPU batch and sequence length; ``None`` picks the paper's
        setting for the model/cluster pair.
    gate:
        Gating method (affects which partition rules are legal).
    routing_seed / concentration / hot_experts / hot_boost:
        The synthetic routing realization the plan is conditioned on
        (see :class:`~repro.runtime.SyntheticRoutingModel`).
    pipeline_stages / microbatches / pipeline_schedule:
        Hybrid pipeline x expert parallelism (see :mod:`repro.pipeline`).
        ``pipeline_stages > 1`` splits the model into that many stages,
        each on a ``num_gpus / pipeline_stages`` device subgroup, and
        runs ``microbatches`` microbatches per iteration under the named
        schedule (``1f1b`` or ``gpipe``).  The graph is then built *per
        microbatch at subgroup width* -- expert parallelism (and its
        all-to-alls) lives inside a stage.
    """

    model: str = "GPT2-S-MoE"
    cluster: str = "a100"
    num_gpus: int = 16
    batch: int | None = None
    seq: int | None = None
    gate: str = "switch"
    routing_seed: int = 1
    concentration: float = 16.0
    hot_experts: int = 0
    hot_boost: float = 0.0
    pipeline_stages: int = 1
    microbatches: int = 1
    pipeline_schedule: str = "1f1b"

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _resolve_model_name(self.model))
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        from ..pipeline.stage import SCHEDULES

        if self.pipeline_stages < 1:
            raise ValueError(
                f"pipeline_stages must be >= 1, got {self.pipeline_stages}"
            )
        if self.num_gpus % self.pipeline_stages:
            raise ValueError(
                f"{self.pipeline_stages} pipeline stages must divide "
                f"{self.num_gpus} GPUs"
            )
        if self.microbatches < 1:
            raise ValueError(
                f"microbatches must be >= 1, got {self.microbatches}"
            )
        if self.pipeline_stages == 1 and self.microbatches != 1:
            raise ValueError(
                "microbatches > 1 requires pipeline_stages > 1 (a flat "
                "scenario has no pipeline to fill)"
            )
        if self.pipeline_schedule not in SCHEDULES:
            raise ValueError(
                f"unknown pipeline schedule {self.pipeline_schedule!r}; "
                f"pick from {SCHEDULES}"
            )

    # -- resolution ---------------------------------------------------------

    def model_config(self) -> GPT2MoEConfig:
        """The architecture config this scenario names."""
        return model_by_name(self.model, self.gate)

    def resolved_batch(self) -> int:
        if self.batch is not None:
            return self.batch
        if self.model in _DEFAULT_BATCH:
            return _DEFAULT_BATCH[self.model]
        return paper_batch(self.cluster, self.model)

    def resolved_seq(self) -> int:
        if self.seq is not None:
            return self.seq
        return _DEFAULT_SEQ.get(self.model, PAPER_SEQ)

    @property
    def staged(self) -> bool:
        """Whether this scenario requests pipeline parallelism."""
        return self.pipeline_stages > 1

    @property
    def name(self) -> str:
        """Canonical display name, e.g. ``gpt2-s-moe/a100x16`` (staged
        scenarios append ``-pp<stages>x<microbatches>``)."""
        suffix = "-hot" if self.hot_boost > 0 else ""
        if self.staged:
            suffix += f"-pp{self.pipeline_stages}x{self.microbatches}"
            if self.pipeline_schedule != "1f1b":
                suffix += f"-{self.pipeline_schedule}"
        return f"{self.model.lower()}/{self.cluster}x{self.num_gpus}{suffix}"

    # -- builders ------------------------------------------------------------

    def build_graph(self) -> ModelGraph:
        """The training-iteration IR of this scenario.

        Flat scenarios build the full iteration; staged scenarios build
        *one microbatch at stage-subgroup width* (``batch /
        microbatches`` per GPU on ``num_gpus / pipeline_stages``
        devices) -- the unit the stage partitioner and the staged
        simulator operate on.
        """
        batch = self.resolved_batch()
        if batch % self.microbatches:
            raise ValueError(
                f"{self.microbatches} microbatches must divide the "
                f"per-GPU batch {batch}"
            )
        return build_training_graph(
            self.model_config(),
            batch=batch // self.microbatches,
            seq=self.resolved_seq(),
            num_gpus=self.num_gpus // self.pipeline_stages,
        )

    def build_cluster(self) -> ClusterSpec:
        return ClusterSpec.for_gpus(self.cluster, self.num_gpus)

    def routing_model(self) -> SyntheticRoutingModel:
        """A fresh realization of this scenario's routing distribution."""
        return SyntheticRoutingModel(
            seed=self.routing_seed,
            concentration=self.concentration,
            hot_experts=self.hot_experts,
            hot_boost=self.hot_boost,
        )

    # -- identity / serialization -------------------------------------------

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        return cls(**obj)

    def with_(self, **changes) -> "Scenario":
        """Copy with the given fields replaced."""
        return replace(self, **changes)

    # -- presets -------------------------------------------------------------

    @classmethod
    def preset(cls, name: str) -> "Scenario":
        """Named scenario preset (see :func:`available_presets`)."""
        presets = _presets()
        if name not in presets:
            raise ValueError(
                f"unknown scenario preset {name!r}; "
                f"available: {', '.join(sorted(presets))}"
            )
        return presets[name]


@functools.cache
def _presets() -> dict[str, Scenario]:
    """The preset table, built once: scenarios are frozen, so callers
    share the objects (and the scenario-key memo hits on them)."""
    out: dict[str, Scenario] = {}
    for model in ("GPT2-S-MoE", "GPT2-L-MoE"):
        for cluster in ("a100", "v100"):
            for gpus in (16, 32, 64):
                base = Scenario(model=model, cluster=cluster, num_gpus=gpus)
                out[base.name] = base
                # hot-expert skew variant (the workload of the skew /
                # topology benchmarks: a few experts soak up most traffic)
                hot = base.with_(hot_experts=2, hot_boost=0.7)
                out[hot.name] = hot
    tiny = Scenario(model="tiny", cluster="a100", num_gpus=8)
    out[tiny.name] = tiny
    out[tiny.with_(hot_experts=2, hot_boost=0.7).name] = tiny.with_(
        hot_experts=2, hot_boost=0.7
    )
    # staged (hybrid pipeline x expert parallel) workloads: the CI-fast
    # tiny pipeline, its hot-expert variant, and one paper-scale setting
    staged_tiny = tiny.with_(pipeline_stages=2, microbatches=4)
    out[staged_tiny.name] = staged_tiny
    staged_hot = staged_tiny.with_(hot_experts=2, hot_boost=0.7)
    out[staged_hot.name] = staged_hot
    staged_s = Scenario(
        model="GPT2-S-MoE",
        cluster="a100",
        num_gpus=16,
        pipeline_stages=2,
        microbatches=4,
    )
    out[staged_s.name] = staged_s
    return out


def available_presets() -> list[str]:
    """Names accepted by :meth:`Scenario.preset`, sorted."""
    return sorted(_presets())
