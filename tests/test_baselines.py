"""Tests for the baseline framework schedules."""

import numpy as np
import pytest

from generators import fresh_values
from repro import GPT2MoEConfig, build_training_graph, validate
from repro.baselines import (
    DeepSpeedBaseline,
    LancetFramework,
    RAFBaseline,
    TutelBaseline,
    make_framework,
)
from repro.runtime import ClusterSpec, run_program


@pytest.fixture(scope="module")
def setting():
    graph = build_training_graph(
        GPT2MoEConfig.gpt2_s_moe(num_layers=4), batch=8, seq=256, num_gpus=16
    )
    return graph, ClusterSpec.p4de(2)


class TestFactory:
    def test_known_names(self):
        for name, cls in [
            ("deepspeed", DeepSpeedBaseline),
            ("raf", RAFBaseline),
            ("tutel", TutelBaseline),
            ("lancet", LancetFramework),
        ]:
            assert isinstance(make_framework(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_framework("megatron")


class TestSimpleBaselines:
    def test_deepspeed_raf_unchanged_schedule(self, setting):
        graph, cluster = setting
        for fw in (DeepSpeedBaseline(), RAFBaseline()):
            res = fw.prepare(graph, cluster)
            assert res.program is graph.program
            assert res.padded_a2a

    def test_profiles_differ(self, setting):
        graph, cluster = setting
        ds = DeepSpeedBaseline().prepare(graph, cluster)
        raf = RAFBaseline().prepare(graph, cluster)
        assert ds.profile.launch_us > raf.profile.launch_us
        assert ds.profile.dispatch_mult > raf.profile.dispatch_mult


class TestTutel:
    def test_searches_degrees(self, setting):
        graph, cluster = setting
        res = TutelBaseline().prepare(graph, cluster)
        assert res.info["degree"] in (1, 2, 4, 8)
        validate(res.program)

    def test_capacity_dim_chunks(self, setting):
        graph, cluster = setting
        res = TutelBaseline().prepare(graph, cluster)
        degree = res.info["degree"]
        if degree == 1:
            pytest.skip("search picked no partitioning")
        chunked = [
            i
            for i in res.program.instructions
            if i.op == "all_to_all" and i.partition is not None
        ]
        assert chunked
        for i in chunked:
            assert i.partition[1] == degree
            assert not i.attrs["irregular"]  # padded capacity chunks

    def test_numeric_equivalence(self):
        """Tutel's capacity-split schedule is also mathematically exact."""
        from repro.models.init import init_device_values

        graph = build_training_graph(
            GPT2MoEConfig.tiny(), batch=8, seq=8, num_gpus=2
        )
        cluster = ClusterSpec.for_gpus("a100", 2)
        fw = TutelBaseline()
        program = fw._partitioned(graph, degree=2)
        validate(program)
        vals = init_device_values(graph, seed=0)
        base = run_program(graph.program, fresh_values(vals))
        out = run_program(program, fresh_values(vals))
        assert np.array_equal(base[0][graph.loss], out[0][graph.loss])

    def test_degree_capped_by_capacity(self):
        graph = build_training_graph(
            GPT2MoEConfig.tiny(capacity_factor=0.3), batch=2, seq=4, num_gpus=2
        )
        # capacity is tiny; high degrees must be rejected, not crash
        fw = TutelBaseline()
        cap = graph.program.type_of(
            next(
                i
                for i in graph.program.instructions
                if i.op == "all_to_all"
            ).inputs[0]
        ).shape[1]
        assert fw._partitioned(graph, degree=cap * 2) is None


class TestLancetFramework:
    def test_prepare(self, setting):
        graph, cluster = setting
        res = LancetFramework().prepare(graph, cluster)
        assert not res.padded_a2a
        assert res.info["optimization_seconds"] > 0
        validate(res.program)

    def test_ablation_flags_forwarded(self, setting):
        graph, cluster = setting
        res = LancetFramework(enable_partition=False).prepare(graph, cluster)
        assert res.info["report"].partition is None
