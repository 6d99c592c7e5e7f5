"""Figure 14: accuracy of Lancet's cost model.

Paper: predicted vs actual iteration time aggregated over all benchmarked
models and clusters; average percentile error 3.83%.  Here "actual" is
the ground-truth simulation (realized irregular sizes, load imbalance)
and "predicted" is the cost model's static-shape/interpolated estimate --
the same two quantities the paper compares.
"""

from __future__ import annotations

from ..formatting import format_table
from ..harness import Setting, run_setting
from .common import FigureResult


def run(
    models=("GPT2-S-MoE", "GPT2-L-MoE"),
    clusters=("v100", "a100"),
    gpu_counts=(16, 32, 64),
    gates=("switch", "bpr"),
) -> FigureResult:
    rows = []
    for gate in gates:
        for model in models:
            for cluster in clusters:
                for gpus in gpu_counts:
                    m = run_setting(
                        Setting(
                            model=model,
                            cluster_kind=cluster,
                            num_gpus=gpus,
                            framework="lancet",
                            gate=gate,
                        )
                    )
                    predicted = m.info.get("predicted_ms")
                    if predicted is None:
                        continue
                    err = abs(predicted - m.iteration_ms) / m.iteration_ms
                    rows.append(
                        {
                            "model": model,
                            "cluster": cluster,
                            "gpus": gpus,
                            "gate": gate,
                            "predicted_ms": predicted,
                            "actual_ms": m.iteration_ms,
                            "abs_pct_error": 100.0 * err,
                        }
                    )

    avg_err = sum(r["abs_pct_error"] for r in rows) / len(rows)
    table = format_table(
        ["Model", "Cluster", "GPUs", "Gate", "Predicted", "Actual", "Err %"],
        [
            [
                r["model"],
                r["cluster"],
                r["gpus"],
                r["gate"],
                r["predicted_ms"],
                r["actual_ms"],
                r["abs_pct_error"],
            ]
            for r in rows
        ],
        title="Fig. 14 - cost model prediction accuracy",
    )
    max_err = max(r["abs_pct_error"] for r in rows)
    notes = {
        "avg_pct_error": avg_err,
        "max_pct_error": max_err,
        "paper_avg_pct_error": 3.83,
        # simulated errors (deterministic), lower is better
        "regression_metrics": {
            "avg_pct_error": avg_err,
            "max_pct_error": max_err,
        },
    }
    return FigureResult("fig14", "cost model accuracy", rows, table, notes)
