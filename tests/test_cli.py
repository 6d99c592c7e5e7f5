"""The ``python -m repro`` front door, driven through ``main([...])``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def test_run_uniform_reports_the_planner_summary(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["run", "--preset", "tiny/a100x8", "--uniform", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    planner = result["planner"]
    assert planner["skew_aware"] is False
    assert planner["num_dw_moved"] <= planner["num_dw_total"]
    assert isinstance(planner["partition_degrees"], list)
    assert result["speedup"] == pytest.approx(
        result["baseline_iteration_ms"] / result["simulated_iteration_ms"]
    )
    assert result["from_store"] is False
    assert "baseline (unoptimized)" in capsys.readouterr().out


def test_optimize_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["optimize"])
    assert "invalid choice: 'optimize'" in capsys.readouterr().err
