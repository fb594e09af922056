"""Benchmark P1 — process-parallel execution of an experiment grid.

The paper's figures come from running the same simulator over many
configuration points; ``Session.run_all(..., jobs=N)`` shards such a grid
across worker processes.  This benchmark runs a 6-point ablation grid
(2 configurations x 3 problem sizes) serially and through the parallel
executor, asserts the two results serialize byte-identically (the
executor's core contract), and records the wall-clock comparison.
"""

import time

import pytest

from benchmarks.conftest import BENCH_JOBS, print_table, run_experiments
from repro.analysis import comparison_table
from repro.experiments import Experiment

GRID = Experiment.grid(
    kind="dynamic",
    configs=["gf100", "gk104"],
    workloads=["vecadd"],
    params={"n": [2048, 4096, 8192]},
)


@pytest.mark.benchmark(group="parallel-executor")
def test_parallel_grid_matches_serial(benchmark):
    start = time.perf_counter()
    serial = run_experiments(GRID, jobs=1)
    serial_seconds = time.perf_counter() - start

    parallel = benchmark.pedantic(
        lambda: run_experiments(GRID, jobs=BENCH_JOBS),
        rounds=1, iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.mean

    assert parallel.to_json() == serial.to_json()

    rows = [
        {
            "mode": "serial (jobs=1)",
            "wall-clock (s)": f"{serial_seconds:.2f}",
            "speedup": "1.00x",
        },
        {
            "mode": f"parallel (jobs={BENCH_JOBS})",
            "wall-clock (s)": f"{parallel_seconds:.2f}",
            "speedup": f"{serial_seconds / parallel_seconds:.2f}x",
        },
    ]
    print_table(
        comparison_table(
            f"{len(GRID)}-point vecadd ablation grid: serial vs "
            f"process-parallel execution (byte-identical results)",
            rows,
            ["mode", "wall-clock (s)", "speedup"],
        ),
    )

    # No wall-clock ratio assert: shared CI runners make relative-timing
    # asserts flaky, and regressions are gated by check_regression.py
    # against the recorded mean instead.
