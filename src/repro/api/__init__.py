"""repro.api: the compile()/Plan facade over the Lancet machinery.

The optimized *schedule* is the product; this package makes it a
first-class, shippable artifact:

- :class:`Scenario` -- declarative workload spec with named presets for
  every benchmark workload (``Scenario.preset("gpt2-s-moe/a100x16")``).
- :func:`compile` -- one front door: scenario (or graph) in, plan out.
- :class:`Plan` -- the optimized program plus everything needed to
  execute, audit, and re-verify it; ``save``/``load`` round-trip through
  a versioned JSON schema with bit-identical program reconstruction.
- :class:`PlanStore` -- disk-backed cross-process cache keyed by
  (graph fingerprint, cluster spec, policy, signature bucket): plan
  once, reuse everywhere.

Typical usage::

    from repro.api import PlanStore, Scenario, compile

    store = PlanStore("~/.cache/lancet-plans")
    plan = compile(Scenario.preset("gpt2-s-moe/a100x16"), store=store)
    plan.save("plan.json")          # or let the store keep it
    timeline = plan.simulate()      # ground-truth one-iteration replay

The pre-facade surface (:class:`~repro.core.LancetOptimizer`,
:class:`~repro.train.Trainer`, :func:`~repro.runtime.simulate_program`)
remains fully supported; the facade composes it rather than replacing it.
"""

from .compiler import compile, load_plan
from .fingerprint import canonical_digest, graph_fingerprint
from .plan import (
    PLAN_SCHEMA,
    PLAN_SCHEMA_VERSION,
    Plan,
    PlanError,
    PlanPolicy,
    PlanSchemaError,
)
from .scenario import Scenario, available_presets
from .store import PlanIdentity, PlanStore, bucket_distance, signature_bucket

__all__ = [
    "PLAN_SCHEMA",
    "PLAN_SCHEMA_VERSION",
    "Plan",
    "PlanError",
    "PlanIdentity",
    "PlanPolicy",
    "PlanSchemaError",
    "PlanStore",
    "Scenario",
    "available_presets",
    "bucket_distance",
    "canonical_digest",
    "compile",
    "graph_fingerprint",
    "load_plan",
    "signature_bucket",
]
