"""Simulator throughput: one vectorized batch vs per-scenario calls.

The batch simulation core exists to make scenario sweeps (warm re-plans,
figure grids) cheap; this gate holds it to that claim.  The batch path
must be bit-identical to per-scenario ``simulate_cluster`` calls (each
a one-scenario run of the same engine) -- interval for interval -- *and*
at least 5x faster on the warm-cache workload it was built for.  The
``batch_over_scalar_time_ratio`` metric ("scalar" names the
per-scenario side) is additionally tracked against the checked-in
baseline by ``check_regression.py``.
"""

from conftest import run_figure
from repro.bench.figures import sim_throughput


def test_sim_throughput(benchmark):
    result = run_figure(benchmark, sim_throughput.run)
    (row,) = result.rows

    # correctness first: every batched scenario must reproduce its own
    # one-scenario run exactly
    assert result.notes["bit_identical"]
    assert result.notes["makespans_equal"]

    # the headline target: >= 5x sims/sec over per-scenario calls
    assert row["speedup"] >= 5.0, (
        f"batch speedup {row['speedup']:.1f}x below the 5x target "
        f"(scalar {row['scalar_sims_per_s']:.1f} sims/s, "
        f"batch {row['batch_sims_per_s']:.1f} sims/s)"
    )
    assert row["scenarios"] >= 8
