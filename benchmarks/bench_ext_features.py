"""Extension ablations (paper Sec. 8 discussion, implemented here).

Three techniques the paper names as complementary future work, measured
on top of full Lancet:

* **a2a-over-allreduce priority** (Lina): gradient all-reduces yield to
  the next all-to-all on the communication stream.
* **block-sparse expert kernels** (MegaBlocks): expert computation skips
  padded capacity slots.
* **shared-expert architectures** (PR-MoE / DeepSeek-MoE): a dense expert
  whose computation naturally hides under the all-to-all.
"""


from repro import GPT2MoEConfig, LancetOptimizer, PlanPolicy, build_training_graph
from repro.bench import format_table
from repro.runtime import (
    ClusterSpec,
    SimulationConfig,
    SyntheticRoutingModel,
    simulate_program,
)


def _measure(graph, cluster, block_sparse=False, **opt_flags):
    policy = PlanPolicy(**opt_flags)
    opt, _ = LancetOptimizer(cluster, policy=policy).optimize(graph)
    sim = SimulationConfig(
        cluster=cluster,
        padded_a2a=False,
        block_sparse_experts=block_sparse,
        routing=SyntheticRoutingModel(seed=1),
    )
    tl = simulate_program(opt, config=sim)
    return tl


def run_extension_ablation():
    cluster = ClusterSpec.for_gpus("v100", 32)
    graph = build_training_graph(
        GPT2MoEConfig.gpt2_l_moe(), batch=8, seq=512, num_gpus=32
    )
    shared_graph = build_training_graph(
        GPT2MoEConfig.gpt2_l_moe(shared_expert=True),
        batch=8,
        seq=512,
        num_gpus=32,
    )

    rows = []
    base = _measure(graph, cluster)
    rows.append(("lancet (paper)", base.makespan, 1.0))
    for name, graph_, kwargs in [
        ("+ a2a priority (Lina)", graph, dict(opt=dict(defer_allreduce=True))),
        ("+ block-sparse experts", graph, dict(block_sparse=True)),
        (
            "+ both",
            graph,
            dict(block_sparse=True, opt=dict(defer_allreduce=True)),
        ),
        ("shared-expert model", shared_graph, dict()),
    ]:
        opt_flags = kwargs.pop("opt", {})
        tl = _measure(graph_, cluster, **kwargs, **opt_flags)
        rows.append((name, tl.makespan, base.makespan / tl.makespan))
    return rows


def test_extension_ablation(benchmark):
    rows = benchmark.pedantic(
        run_extension_ablation, rounds=1, iterations=1, warmup_rounds=0
    )
    table = format_table(
        ["Configuration", "Iter (ms)", "Speedup vs Lancet"],
        [list(r) for r in rows],
        title="Extensions (GPT2-L-MoE, 32x V100)",
    )
    print(f"\n{table}")
    by_name = {r[0]: r for r in rows}
    # each extension helps on this comm-bound setting
    assert by_name["+ a2a priority (Lina)"][2] > 1.0
    assert by_name["+ block-sparse experts"][2] >= 0.99
    assert by_name["+ both"][2] >= by_name["+ a2a priority (Lina)"][2] * 0.99
