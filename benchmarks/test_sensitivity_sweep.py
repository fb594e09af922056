"""Benchmark S1 — the paper's headline experiment as a one-call sweep.

The paper answers "how much memory latency does a throughput core
tolerate?" by perturbing latencies and measuring the exposed slowdown.
``SensitivityStudy`` runs that experiment end to end: derive perturbed
configurations with declarative transforms, simulate every sweep point
through the experiment layer, and fit tolerance metrics.  The first
benchmark records the cost of the canonical serial BFS x DRAM-latency
sweep (asserting the physics: a monotone non-decreasing cycles curve
and a positive cycles-per-injected-cycle slope); the second shards a
sweep across worker processes and asserts the result is byte-identical
to the serial run — the determinism contract the CLI's ``--jobs``
relies on.
"""

import time

import pytest

from benchmarks.conftest import BENCH_JOBS, print_table, save_and_print
from repro.analysis import comparison_table, metrics_summary, sensitivity_table
from repro.experiments import Session
from repro.sensitivity import SensitivityStudy

#: The canonical sweep: BFS (the paper's exemplar latency-sensitive
#: workload) on the Fermi GF106 configuration, DRAM timings scaled 1-4x.
DRAM_STUDY = SensitivityStudy(
    config="gf106",
    workload="bfs",
    transforms=("scale_dram_latency",),
    scales=(1.0, 2.0, 4.0),
    params={"num_nodes": 1024, "avg_degree": 8},
)

#: Smaller four-point sweep used for the parallel-identity benchmark.
PARALLEL_STUDY = SensitivityStudy(
    config="gf106",
    workload="bfs",
    transforms=("scale_dram_latency",),
    scales=(1.0, 2.0, 4.0, 8.0),
    params={"num_nodes": 512, "avg_degree": 8},
)


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_dram_sweep(benchmark):
    result = benchmark.pedantic(
        lambda: DRAM_STUDY.run(session=Session(cache=False)),
        rounds=1, iterations=1,
    )
    curve = result.curve("scale_dram_latency")

    cycles = [point.cycles for point in curve.points]
    assert cycles == sorted(cycles), "injecting latency must not speed BFS up"
    assert curve.metrics.slope_cycles_per_injected > 0
    assert curve.metrics.slope_cycles_per_scale > 0
    injected = [point.injected_latency for point in curve.points]
    assert injected == sorted(injected) and injected[-1] > 0

    save_and_print(
        "sensitivity_dram_sweep",
        sensitivity_table(curve) + "\n\n" + metrics_summary(curve.metrics),
    )


@pytest.mark.benchmark(group="sensitivity")
def test_sensitivity_parallel_matches_serial(benchmark):
    start = time.perf_counter()
    serial = PARALLEL_STUDY.run(session=Session(cache=False))
    serial_seconds = time.perf_counter() - start

    parallel = benchmark.pedantic(
        lambda: PARALLEL_STUDY.run(session=Session(cache=False),
                                   jobs=BENCH_JOBS),
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
            f"{len(PARALLEL_STUDY.scales)}-point BFS DRAM-latency sweep: "
            f"serial vs process-parallel (byte-identical results)",
            rows,
            ["mode", "wall-clock (s)", "speedup"],
        ),
    )

    # No wall-clock ratio assert: shared CI runners make relative-timing
    # asserts flaky; regressions are gated by check_regression.py.
