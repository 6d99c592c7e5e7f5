"""In-memory span tracing for the benchmark, installed from outside ``repro``.

Every traced layer is a public ``repro`` function wrapped at the module
that *calls* it: callers import names directly (``from .axis_inference
import infer_axes``), so patching the defining module would miss them.
:data:`LAYERS` lists each layer with the ``(module, attribute)`` sites
its callers read.

A span records its layer, start, end, parent and the op it belongs to.
Spans are aggregated as they close and, for the first
:data:`MAX_EVENTS`, kept for a Chrome trace-event export written when
the run ends.  Self time is a span's duration minus the time its child
spans cover.  The serving path hands a store hit to the plan server's
worker thread while the client waits; a span that opens on a thread with
no open span is parented to the current op span, so that wait is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: layer name -> call sites ``(module, attribute)`` or
#: ``(module, "Class.method")``; the first site's function is the one
#: wrapped, and every site is pointed at the wrapper
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    # core planner
    "core.optimize": (("repro.core.lancet", "LancetOptimizer.optimize"),),
    "core.observe_routing": (
        ("repro.core.lancet", "LancetOptimizer.observe_routing"),
    ),
    "core.dw_schedule": (
        ("repro.core.dw_schedule", "WeightGradSchedulePass.run"),
    ),
    "core.partition": (
        ("repro.core.partition.pass_", "OperatorPartitionPass.run"),
    ),
    "core.infer_axes": (("repro.core.partition.dp", "infer_axes"),),
    "core.resolve_pending": (("repro.core.partition.dp", "resolve_pending"),),
    "core.apply_plans": (("repro.core.partition.pass_", "apply_plans"),),
    # simulators
    "runtime.pack_lane": (("repro.core.partition.pipeline", "pack_lane"),),
    "runtime.simulate_lanes": (
        ("repro.core.partition.pipeline", "simulate_lanes"),
    ),
    "runtime.simulate_program": (
        ("repro.runtime.simulate", "simulate_program"),
    ),
    "runtime.simulate_cluster": (("repro.pipeline.simulate", "simulate_cluster"),),
    "runtime.simulate_cluster_batch": (
        ("repro.runtime.simulate", "simulate_cluster_batch"),
    ),
    "runtime.observed_routing_signatures": (
        ("repro.runtime.simulate", "observed_routing_signatures"),
    ),
    # pipeline (staged) planner
    "pipeline.plan_stages": (("repro.pipeline", "plan_stages"),),
    "pipeline.split_stages": (("repro.pipeline.planner", "split_stages"),),
    "pipeline.stage_costs": (("repro.pipeline.simulate", "stage_costs"),),
    "pipeline.schedule_jobs": (("repro.pipeline.simulate", "schedule_jobs"),),
    "pipeline.reassemble": (("repro.pipeline.partition", "reassemble"),),
    # facade, models, IR
    "models.build_training_graph": (
        ("repro.api.scenario", "build_training_graph"),
    ),
    "api.resolve_workload": (
        ("repro.api.compiler", "resolve_workload"),
        ("repro.serving.server", "resolve_workload"),
    ),
    "api.graph_fingerprint": (
        ("repro.api.compiler", "graph_fingerprint"),
        ("repro.serving.server", "graph_fingerprint"),
    ),
    # the planner's and graph builder's validation; the check run while
    # decoding a stored program counts toward ir.program_from_json
    "ir.validate": (
        ("repro.ir.passes", "validate"),
        ("repro.models.gpt2_moe", "validate"),
        ("repro.pipeline.partition", "validate"),
    ),
    # serving, store, codec
    "serving.submit": (("repro.serving.server", "PlanServer.submit"),),
    "serving.request_key": (("repro.serving.server", "PlanServer.request_key"),),
    "api.store.lookup_scenario": (
        ("repro.api.store", "PlanStore.lookup_scenario"),
    ),
    "api.plan.from_dict": (("repro.api.plan", "Plan.from_dict"),),
    "ir.program_from_json": (("repro.api.plan", "program_from_json"),),
}

#: the top-level span around one benchmark op
OP = "op"

#: spans kept for the Chrome trace (aggregation covers every span)
MAX_EVENTS = 100_000


def gen_long_name(prefix, raw_name, suffix=None) -> str:
    """dPRO-style qualified event name: ``prefix->raw_name[~>suffix]``."""
    name = raw_name if prefix is None else f"{prefix}->{raw_name}"
    return name if suffix is None else f"{name}~>{suffix}"


def _resolve(module: str, attr: str):
    """``(owner, name, current value)`` of one call site."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Patches:
    """Function replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, sites, make_wrapper) -> None:
        """Point every call site at ``make_wrapper(original function)``.

        Methods keep their descriptor kind: a classmethod is unwrapped,
        wrapped, and re-wrapped as a classmethod.
        """
        _, _, first = _resolve(*sites[0])
        is_cm = isinstance(first, classmethod)
        wrapped = make_wrapper(first.__func__ if is_cm else first)
        replacement = classmethod(wrapped) if is_cm else wrapped
        for module, attr in sites:
            owner, name, current = _resolve(module, attr)
            self._undo.append((owner, name, current))
            setattr(owner, name, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder with per-layer aggregates (see module docstring)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: layer -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        #: (layer, start_s, end_s, parent layer, thread id, op index)
        self.events: list[tuple] = []
        self._op_span = None
        self._op_index = -1
        self._patches = Patches()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            self._patches.wrap(sites, lambda fn, layer=layer: self._traced(layer, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def _traced(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        # [layer, start, child seconds, parent]
        span = [layer, time.perf_counter(), 0.0, parent]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        self._stack().pop()
        layer, start, child, parent = span
        dur = end - start
        with self._lock:
            agg = self.totals.setdefault(layer, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            if parent is not None:
                parent[2] += dur
            if len(self.events) < MAX_EVENTS:
                self.events.append(
                    (layer, start, end, parent and parent[0],
                     threading.get_ident(), self._op_index)
                )

    def begin_op(self, index: int) -> None:
        self._op_index = index
        self._op_span = self._open(OP)

    def end_op(self) -> None:
        span, self._op_span = self._op_span, None
        self._close(span)

    # -- reports ------------------------------------------------------------

    def layer_rows(self, ops: int) -> list[dict]:
        """Per-layer calls and self time per op, with share of op time."""
        op_total = self.totals.get(OP, [0, 0.0, 0.0])[1]
        rows = []
        for layer in [OP, *LAYERS]:
            calls, _total, self_s = self.totals.get(layer, (0, 0.0, 0.0))
            rows.append(
                {
                    "layer": layer,
                    "calls_per_op": calls / ops,
                    "self_ms_per_op": self_s * 1e3 / ops,
                    "share": self_s / op_total if op_total else 0.0,
                }
            )
        return rows

    def chrome_trace(self, pid: int, process: str) -> dict:
        """Chrome trace-event JSON: one pid per workload, one tid per layer."""
        tids = {layer: i for i, layer in enumerate([OP, *LAYERS])}
        origin = min((e[1] for e in self.events), default=0.0)
        events = [
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": process}},
        ]
        events += [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": layer}}
            for layer, tid in tids.items()
        ]
        for layer, start, end, parent, thread, op in self.events:
            events.append(
                {
                    "ph": "X",
                    "name": gen_long_name(process, layer),
                    "pid": pid,
                    "tid": tids[layer],
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"op": op, "parent": parent, "thread": thread},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, pid: int, process: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(pid, process), fh, separators=(",", ":"))


#: delay target -> call sites, as in :data:`LAYERS`
DELAY_SITES = {
    "infer_axes": LAYERS["core.infer_axes"],
    "pack_lane": LAYERS["runtime.pack_lane"],
    "simulate_cluster": LAYERS["runtime.simulate_cluster"],
    "request_key": LAYERS["serving.request_key"],
}


def install_delays(delays: dict[str, float]) -> Patches:
    """Busy-wait ``delays[name]`` milliseconds on entry to each named
    function (the sensitivity self-check).  Returns the patches to undo."""
    patches = Patches()
    for name, ms in delays.items():
        if name not in DELAY_SITES:
            raise ValueError(
                f"unknown delay target {name!r}; pick from {sorted(DELAY_SITES)}"
            )

        def make(fn, seconds=ms / 1e3):
            @functools.wraps(fn)
            def delayed(*args, **kwargs):
                until = time.perf_counter() + seconds
                while time.perf_counter() < until:
                    pass
                return fn(*args, **kwargs)

            return delayed

        patches.wrap(DELAY_SITES[name], make)
    return patches
