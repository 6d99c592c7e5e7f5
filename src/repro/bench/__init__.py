"""Benchmark harness reproducing every table and figure of the paper."""

from ..api.scenario import PAPER_BATCH, model_by_name, paper_batch
from .figures import ALL_FIGURES, FigureResult
from .formatting import format_table
from .harness import (
    PAPER_GPU_COUNTS,
    Measurement,
    Setting,
    estimate_memory_gb,
    run_setting,
    set_default_seed,
)

__all__ = [
    "ALL_FIGURES",
    "FigureResult",
    "Measurement",
    "PAPER_BATCH",
    "PAPER_GPU_COUNTS",
    "Setting",
    "estimate_memory_gb",
    "format_table",
    "model_by_name",
    "paper_batch",
    "run_setting",
    "set_default_seed",
]
