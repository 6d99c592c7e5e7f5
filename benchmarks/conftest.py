"""Benchmark-suite helpers: run a figure once, record, and persist."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# the differential drills import the test oracles (``oracles.*``) and
# generators from tests/.  Appended, not prepended: tests/ holds its own
# ``conftest`` module, and the bench files' ``from conftest import
# run_figure`` must keep finding this one.
sys.path.append(str(pathlib.Path(__file__).parent.parent / "tests"))


def _jsonable(obj):
    """Best-effort conversion of figure rows/notes to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def write_bench_json(result) -> pathlib.Path:
    """Persist a FigureResult as a machine-readable ``BENCH_*.json``
    record (uploaded as a CI artifact and diffed against the checked-in
    baseline by ``check_regression.py``)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{result.figure}.json"
    record = {
        "figure": result.figure,
        "description": result.description,
        "rows": _jsonable(result.rows),
        "notes": _jsonable(result.notes),
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return out


def run_figure(benchmark, runner, **kwargs):
    """Benchmark one figure runner (single round: these are experiment
    harnesses, not micro-benchmarks) and persist its table + JSON record."""
    result = benchmark.pedantic(
        lambda: runner(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{result.figure}.txt"
    notes = "\n".join(
        f"  {k}: {v}" for k, v in result.notes.items() if k != "reductions"
    )
    out.write_text(f"{result.table}\n\nnotes:\n{notes}\n")
    write_bench_json(result)
    print(f"\n{result.table}\nnotes:\n{notes}")
    return result


@pytest.fixture(autouse=True)
def _shared_measurement_cache():
    """Benchmarks share the harness measurement cache within a session
    (figures legitimately reuse grid points, as in the paper)."""
    yield
