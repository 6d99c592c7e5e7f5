"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``plan``
    Compile a scenario into a :class:`~repro.api.Plan` artifact
    (optionally through a disk :class:`~repro.api.PlanStore`).
``run``
    Execute a plan (from a file, a store, or compiled on the spot):
    one ground-truth simulated iteration, reported vs the baseline.
``inspect``
    Summarize a saved plan artifact without executing it.
``figures [ids...] [--fast]``
    Reproduce paper figures (default: all) and print the tables.
``serve stats | serve warm``
    Plan-serving utilities over a shared store directory: ``stats``
    summarizes a store (entries, bytes, signature buckets); ``warm``
    batch-compiles presets through a coalescing
    :class:`~repro.serving.PlanServer` and prints its telemetry.
``list``
    List available figure ids and scenario presets.

Every command accepts ``--seed`` (the synthetic routing seed) and
commands that produce results accept ``--out`` to write them as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _write_json(path: str | None, payload: dict) -> None:
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


def _scenario_from_args(args: argparse.Namespace):
    from .api import Scenario

    if args.preset:
        scenario = Scenario.preset(args.preset)
        overrides = {}
        if args.batch is not None:
            overrides["batch"] = args.batch
        if args.gpus is not None:
            overrides["num_gpus"] = args.gpus
        if args.seq is not None:
            overrides["seq"] = args.seq
        if overrides:
            scenario = scenario.with_(**overrides)
    else:
        model = "GPT2-S-MoE" if args.model.upper().startswith("S") else "GPT2-L-MoE"
        scenario = Scenario(
            model=model,
            cluster=args.cluster,
            num_gpus=args.gpus if args.gpus is not None else 16,
            batch=args.batch,
            seq=args.seq,
        )
    if args.seed is not None:
        scenario = scenario.with_(routing_seed=args.seed)
    if getattr(args, "stages", None) is not None:
        scenario = scenario.with_(pipeline_stages=args.stages)
    if getattr(args, "microbatches", None) is not None:
        scenario = scenario.with_(microbatches=args.microbatches)
    if getattr(args, "schedule", None) is not None:
        scenario = scenario.with_(pipeline_schedule=args.schedule)
    return scenario


def _policy_from_args(args: argparse.Namespace):
    from .api import PlanPolicy

    return PlanPolicy(
        defer_allreduce=getattr(args, "defer_allreduce", False),
        enable_hierarchical_a2a=getattr(args, "hierarchical", False),
        skew_aware=not getattr(args, "uniform", False),
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    from .api import PlanStore, compile

    scenario = _scenario_from_args(args)
    store = PlanStore(args.store) if args.store else None
    t0 = time.perf_counter()
    plan = compile(scenario, policy=_policy_from_args(args), store=store)
    seconds = time.perf_counter() - t0
    origin = "plan store (warm)" if plan.from_store else "optimizer (cold)"
    print(plan.summary())
    print(f"  compiled in {seconds:.3f}s via {origin}")
    if store is not None:
        print(f"  store: {store.root} ({len(store)} plans)")
    if args.out:
        plan.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _load_or_compile_plan(args: argparse.Namespace):
    from .api import PlanStore, compile, load_plan

    if args.plan:
        return load_plan(args.plan)
    store = PlanStore(args.store) if args.store else None
    return compile(
        _scenario_from_args(args), policy=_policy_from_args(args), store=store
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .runtime import SimulationConfig, simulate_program

    plan = _load_or_compile_plan(args)
    scenario = plan.scenario
    staged = plan.stage_map is not None
    timeline = plan.simulate(seed=args.seed)
    # for staged plans the program (and hence the simulation and the
    # baseline below) is one *microbatch* on one stage-width subgroup;
    # the pipeline-level iteration is the plan's prediction
    unit = "microbatch" if staged else "iteration"
    result = {
        "fingerprint": plan.fingerprint,
        "scenario": scenario.to_dict() if scenario else None,
        "predicted_iteration_ms": plan.predicted_iteration_ms,
        f"simulated_{unit}_ms": timeline.makespan,
        "exposed_a2a_ms": timeline.exposed_time_of({"all_to_all"}),
        "from_store": plan.from_store,
        # what the planner did: dW moves, partition degrees, pass times
        "planner": plan.planner,
    }
    print(f"plan {plan.fingerprint[:23]}")
    print(f"  predicted iteration: {plan.predicted_iteration_ms:.2f} ms")
    if staged:
        print(f"  pipeline: {plan.stage_map.describe()}")
    print(f"  simulated {unit}: {timeline.makespan:.2f} ms")
    print(f"  exposed all-to-all:  {result['exposed_a2a_ms']:.2f} ms")
    if scenario is not None:
        # compare against the unoptimized schedule of the same scenario
        # (same realization the plan was simulated under)
        sc = scenario
        if args.seed is not None:
            sc = sc.with_(routing_seed=args.seed)
        baseline = simulate_program(
            sc.build_graph().program,
            config=SimulationConfig(
                cluster=plan.simulation_cluster(),
                framework=plan.framework,
                padded_a2a=True,
                routing=sc.routing_model(),
            ),
        )
        result[f"baseline_{unit}_ms"] = baseline.makespan
        result["speedup"] = baseline.makespan / timeline.makespan
        print(
            f"  baseline (unoptimized): {baseline.makespan:.2f} ms "
            f"-> {result['speedup']:.2f}x {unit} speedup"
        )
    _write_json(args.out, result)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .api import load_plan

    plan = load_plan(args.plan_file, materialize=not args.shallow)
    print(plan.summary())
    if args.annotations:
        for entry in plan.annotations():
            print(f"  {entry}")
    if args.out:
        payload = plan.to_dict()
        if args.shallow:
            payload.pop("program", None)
        _write_json(args.out, payload)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench import ALL_FIGURES, set_default_seed

    if args.seed is not None:
        set_default_seed(args.seed)
    wanted = args.ids or list(ALL_FIGURES)
    unknown = [w for w in wanted if w not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; available: {list(ALL_FIGURES)}")
        return 2
    fast_overrides = {
        "fig06": dict(range_points=(0.0, 1.0, 3.0, 8.0)),
        "fig11": dict(gpu_counts=(16, 32)),
        "fig12": dict(gpu_counts=(16, 32)),
        "fig14": dict(gpu_counts=(16, 32)),
        "fig15": dict(gpu_counts=(16, 32)),
        "fig16": dict(models=("GPT2-S-MoE",)),
        "headline": dict(gpu_counts=(16,)),
        "topology": dict(node_counts=(1, 2), hot_boosts=(0.0, 0.7)),
    }
    for fig in wanted:
        kwargs = fast_overrides.get(fig, {}) if args.fast else {}
        result = ALL_FIGURES[fig](**kwargs)
        print("=" * 72)
        print(result.table)
        for k, v in result.notes.items():
            if k != "reductions":
                print(f"  {k}: {v}")
    return 0


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    from .api import PlanStore
    from .api.plan import PlanError
    from .api.store import SIGNATURE_INDEX

    try:
        # read-only: stats over a missing root is a well-formed empty
        # report, not a freshly created directory as a side effect
        store = PlanStore(args.store, create=False)
    except PlanError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    buckets = store._read_sidecar(SIGNATURE_INDEX)
    payload = {
        "root": str(store.root),
        "exists": store.root.is_dir(),
        "entries": len(store),
        "bytes": store.total_bytes(),
        "max_entries": store.max_entries,
        "max_bytes": store.max_bytes,
        "digits": store.digits,
        "signature_bases": len(buckets),
        "signature_buckets": sum(len(v) for v in buckets.values()),
    }
    print(f"plan store {payload['root']}")
    print(f"  entries: {payload['entries']} "
          f"({payload['bytes'] / 1024:.1f} KiB)")
    print(f"  bounds:  max_entries={payload['max_entries']} "
          f"max_bytes={payload['max_bytes']}")
    print(f"  signature index: {payload['signature_buckets']} buckets "
          f"across {payload['signature_bases']} base identities "
          f"(digits={payload['digits']})")
    _write_json(args.out, payload)
    return 0


def _cmd_serve_warm(args: argparse.Namespace) -> int:
    from .api import PlanStore, Scenario
    from .serving import PlanServer

    store = PlanStore(args.store)
    scenarios = [Scenario.preset(name) for name in args.presets]
    if args.seed is not None:
        scenarios = [sc.with_(routing_seed=args.seed) for sc in scenarios]
    scenarios = scenarios * max(1, args.repeat)
    t0 = time.perf_counter()
    with PlanServer(
        store, policy=_policy_from_args(args), max_workers=args.jobs
    ) as server:
        futures = [server.submit(sc) for sc in scenarios]
        origins: dict[str, int] = {}
        for future in futures:
            origin = future.result().origin
            origins[origin] = origins.get(origin, 0) + 1
        server.drain()
        stats = server.stats()
    seconds = time.perf_counter() - t0
    print(f"warmed {len(scenarios)} requests in {seconds:.2f}s "
          f"({len(args.presets)} presets x{max(1, args.repeat)})")
    print(f"  origins: {origins}")
    print(f"  server:  {stats['server']}")
    print(f"  store:   {stats['store_entries']} entries, "
          f"{stats['store_bytes'] / 1024:.1f} KiB")
    _write_json(args.out, {"seconds": seconds, "origins": origins, **stats})
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .api import available_presets
    from .bench import ALL_FIGURES

    print("figures:")
    for fig in ALL_FIGURES:
        print(f"  {fig}")
    print("scenario presets:")
    for name in available_presets():
        print(f"  {name}")
    return 0


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", default=None,
        help="scenario preset name (see `python -m repro list`)",
    )
    parser.add_argument(
        "--model", default="S",
        help="S or L (default S; ignored when --preset is given)",
    )
    parser.add_argument("--cluster", default="a100", choices=["a100", "v100"])
    parser.add_argument("--gpus", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument(
        "--seq", type=int, default=None,
        help="sequence length (default: the scenario's; overrides presets)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="plan-store directory (warm lookups + publishing)",
    )
    parser.add_argument(
        "--uniform", action="store_true",
        help="plan against the uniform approximation (no routing conditioning)",
    )
    parser.add_argument(
        "--hierarchical", action="store_true",
        help="enable per-collective flat vs 2-hop all-to-all choice",
    )
    # part of the plan's policy identity: `plan` and `run` must accept
    # the same policy flags or store lookups between them silently miss
    parser.add_argument(
        "--defer-allreduce", action="store_true",
        help="enable the Lina-style a2a-priority extension",
    )
    # the pipeline request is part of the plan's identity too (folded
    # into scenario + store keys), so the same same-flags rule applies
    parser.add_argument(
        "--stages", type=int, default=None, metavar="N",
        help="pipeline stages (hybrid pipeline x expert parallelism; "
        "must divide the GPU count)",
    )
    parser.add_argument(
        "--microbatches", type=int, default=None, metavar="M",
        help="microbatches per iteration (requires --stages > 1; "
        "must divide the per-GPU batch)",
    )
    parser.add_argument(
        "--schedule", default=None, choices=["1f1b", "gpipe"],
        help="microbatch schedule for staged scenarios (default 1f1b)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Lancet (MLSys 2024) reproduction"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="synthetic routing seed (default: the scenario/plan's own, "
        "i.e. 1 unless the artifact says otherwise)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser(
        "plan", parents=[common], help="compile a scenario into a plan artifact"
    )
    _add_scenario_args(p_plan)
    p_plan.add_argument("--out", default=None, help="write the plan JSON here")
    p_plan.set_defaults(fn=_cmd_plan)

    p_run = sub.add_parser(
        "run", parents=[common], help="execute a plan (simulated iteration)"
    )
    p_run.add_argument(
        "--plan", default=None, metavar="FILE", help="saved plan artifact"
    )
    _add_scenario_args(p_run)
    p_run.add_argument("--out", default=None, help="write results JSON here")
    p_run.set_defaults(fn=_cmd_run)

    p_ins = sub.add_parser(
        "inspect", parents=[common], help="summarize a saved plan artifact"
    )
    p_ins.add_argument("plan_file", help="path to a plan JSON")
    p_ins.add_argument(
        "--annotations", action="store_true",
        help="list per-instruction schedule annotations",
    )
    p_ins.add_argument(
        "--shallow", action="store_true",
        help="skip program reconstruction (envelope only)",
    )
    p_ins.add_argument("--out", default=None, help="write the plan dict here")
    p_ins.set_defaults(fn=_cmd_inspect)

    p_fig = sub.add_parser(
        "figures", parents=[common], help="reproduce paper figures"
    )
    p_fig.add_argument("ids", nargs="*", help="figure ids (default: all)")
    p_fig.add_argument("--fast", action="store_true", help="reduced grids")
    p_fig.set_defaults(fn=_cmd_figures)

    p_srv = sub.add_parser(
        "serve", help="plan-serving utilities over a shared store"
    )
    srv_sub = p_srv.add_subparsers(dest="action", required=True)

    p_stats = srv_sub.add_parser(
        "stats", help="summarize a plan-store directory"
    )
    p_stats.add_argument(
        "--store", required=True, metavar="DIR", help="plan-store directory"
    )
    p_stats.add_argument("--out", default=None, help="write stats JSON here")
    p_stats.set_defaults(fn=_cmd_serve_stats)

    p_warm = srv_sub.add_parser(
        "warm", parents=[common],
        help="batch-compile presets through a coalescing PlanServer",
    )
    p_warm.add_argument(
        "presets", nargs="+",
        help="scenario preset names (see `python -m repro list`)",
    )
    p_warm.add_argument(
        "--store", required=True, metavar="DIR", help="plan-store directory"
    )
    p_warm.add_argument(
        "--repeat", type=int, default=1,
        help="submit each preset this many times (shows coalescing)",
    )
    p_warm.add_argument(
        "--jobs", type=int, default=None, help="planner thread-pool width"
    )
    p_warm.add_argument(
        "--uniform", action="store_true",
        help="plan against the uniform approximation (no routing conditioning)",
    )
    p_warm.add_argument(
        "--hierarchical", action="store_true",
        help="enable per-collective flat vs 2-hop all-to-all choice",
    )
    p_warm.add_argument(
        "--defer-allreduce", action="store_true",
        help="enable the Lina-style a2a-priority extension",
    )
    p_warm.add_argument("--out", default=None, help="write telemetry JSON here")
    p_warm.set_defaults(fn=_cmd_serve_warm)

    p_list = sub.add_parser(
        "list", parents=[common], help="list figure ids and scenario presets"
    )
    p_list.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    from .api import PlanError

    try:
        return args.fn(args)
    except PlanError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
