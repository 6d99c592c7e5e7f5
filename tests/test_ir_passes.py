"""Tests for the pass manager and visualization utilities."""

import pytest

from repro.ir import DType, Pass, PassManager, Program, Stream, TensorType
from repro.ir.validate import ValidationError
from repro.runtime import Timeline
from repro.runtime.timeline import Interval
from repro.runtime.visualize import overlap_summary, render_timeline


def small_program():
    p = Program("pm")
    x = p.add_input(TensorType((4, 4), DType.F16), "x")
    (y,) = p.add("gelu", [x.id])
    p.outputs.append(y.id)
    return p


class AppendRelu(Pass):
    name = "append-relu"

    def run(self, program):
        program.add("relu", [program.outputs[0]])
        return program


class BreakSSA(Pass):
    name = "break-ssa"

    def run(self, program):
        program.instructions.append(program.instructions[0])
        return program


class TestPassManager:
    def test_runs_passes_in_order(self):
        pm = PassManager().add(AppendRelu()).add(AppendRelu())
        p = pm.run(small_program())
        assert [i.op for i in p.instructions] == ["gelu", "relu", "relu"]

    def test_records_timings(self):
        pm = PassManager().add(AppendRelu())
        pm.run(small_program())
        assert len(pm.timings) == 1
        assert pm.timings[0].name == "append-relu"

    def test_validates_after_each_pass(self):
        pm = PassManager().add(BreakSSA())
        with pytest.raises(ValidationError):
            pm.run(small_program())

    def test_validation_can_be_disabled(self):
        pm = PassManager(validate_each=False).add(BreakSSA())
        pm.run(small_program())  # no exception

    def test_pass_name_defaults_to_class(self):
        class Anonymous(Pass):
            def run(self, program):
                return program

        assert Anonymous().name == "Anonymous"

    def test_base_pass_abstract(self):
        with pytest.raises(NotImplementedError):
            Pass().run(small_program())


def iv(op, stream, start, end):
    return Interval(uid=0, op=op, kind="forward", stream=stream,
                    start=start, end=end)


class TestVisualization:
    def test_render_shows_both_lanes(self):
        tl = Timeline(
            [
                iv("matmul", Stream.COMPUTE, 0, 5),
                iv("all_to_all", Stream.COMM, 2, 8),
            ]
        )
        out = render_timeline(tl, width=40)
        lines = out.split("\n")
        assert lines[1].startswith("comp |")
        assert lines[2].startswith("comm |")
        assert "#" in lines[1]
        assert "A" in lines[2]

    def test_glyph_classes(self):
        tl = Timeline(
            [
                iv("expert_ffn", Stream.COMPUTE, 0, 10),
                iv("matmul_dw", Stream.COMPUTE, 10, 20),
                iv("allreduce", Stream.COMM, 0, 20),
            ]
        )
        out = render_timeline(tl, width=20)
        comp = out.split("\n")[1]
        assert "E" in comp and "d" in comp
        assert "R" in out.split("\n")[2]

    def test_empty_timeline(self):
        assert "empty" in render_timeline(Timeline([]))

    def test_bad_window(self):
        tl = Timeline([iv("gelu", Stream.COMPUTE, 0, 1)])
        with pytest.raises(ValueError):
            render_timeline(tl, start_ms=5, end_ms=5)

    def test_overlap_summary(self):
        tl = Timeline(
            [
                iv("matmul", Stream.COMPUTE, 0, 4),
                iv("all_to_all", Stream.COMM, 2, 6),
            ]
        )
        s = overlap_summary(tl)
        assert "makespan 6.0 ms" in s
        assert "overlap 2.0" in s

    def test_render_on_real_model(self, tiny_graph, small_cluster):
        from repro.runtime import SimulationConfig, UniformRoutingModel, simulate_program

        tl = simulate_program(
            tiny_graph.program,
            config=SimulationConfig(
                cluster=small_cluster, routing=UniformRoutingModel()
            ),
        )
        out = render_timeline(tl, width=80)
        assert "A" in out  # the all-to-alls are visible


class TestDWStrategies:
    def test_unknown_strategy_rejected(self, a100_16):
        from repro.core import (
            CachingOpProfiler,
            CommCostModel,
            CostEstimator,
            WeightGradSchedulePass,
        )
        from repro.runtime import COMPILED

        costs = CostEstimator(
            CachingOpProfiler(gpu=a100_16.gpu, framework=COMPILED),
            CommCostModel(a100_16),
        )
        with pytest.raises(ValueError):
            WeightGradSchedulePass(costs, strategy="random")

    @pytest.mark.parametrize("strategy", ["best_fit", "first_fit", "largest_first"])
    def test_all_strategies_produce_valid_schedules(
        self, strategy, tiny_graph, a100_16
    ):
        from repro.core import (
            CachingOpProfiler,
            CommCostModel,
            CostEstimator,
            WeightGradSchedulePass,
        )
        from repro.ir import validate
        from repro.runtime import COMPILED

        costs = CostEstimator(
            CachingOpProfiler(gpu=a100_16.gpu, framework=COMPILED),
            CommCostModel(a100_16),
        )
        p = tiny_graph.program.clone()
        pas = WeightGradSchedulePass(costs, strategy=strategy)
        p = pas.run(p)
        validate(p)
        assert pas.report.num_dw_moved > 0
