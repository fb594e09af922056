"""Benchmark M1 — the synthetic-microbench latency-tolerance atlas.

The atlas is the controlled-kernel version of the paper's headline
sweep: the synthetic ``microbench`` workload dials one axis at a time
while a configuration transform injects latency.  The first benchmark
records the cost of the canonical ILP x DRAM-latency atlas and asserts
its physics: raising instruction-level parallelism (more independent
dependency chains per warp at a fixed serial budget) must *lower* the
cycles-per-injected-cycle slope, and raising memory-level parallelism
(more outstanding loads per chain step at constant serial depth) must
not *reduce* total cycles — the extra loads only add MSHR/bandwidth
pressure.  The second benchmark shards the same atlas across worker
processes and asserts the result is byte-identical to the serial run,
the determinism contract behind ``repro atlas --jobs``.
"""

import time

import pytest

from benchmarks.conftest import BENCH_JOBS, print_table, save_and_print
from repro.analysis import atlas_metrics_table, format_atlas_report
from repro.experiments import Experiment, Session
from repro.sensitivity import LatencyToleranceAtlas

#: The canonical atlas: ILP 1-4 against DRAM timings scaled 1-4x on the
#: Fermi GF106 configuration (the acceptance sweep, one size down).
ILP_ATLAS = LatencyToleranceAtlas(
    config="gf106",
    axis="ilp",
    values=(1, 2, 4),
    transform="scale_dram_latency",
    scales=(1.0, 2.0, 4.0),
    params={"iters": 32},
)

#: MLP sweep for the monotone-cycles assertion (no transform sweep
#: needed: the unperturbed configuration is the point of comparison).
MLP_VALUES = (1, 2, 4, 8)


@pytest.mark.benchmark(group="microbench-atlas")
def test_microbench_ilp_atlas(benchmark):
    result = benchmark.pedantic(
        lambda: ILP_ATLAS.run(session=Session(cache=False)),
        rounds=1, iterations=1,
    )

    slopes = [slope for _value, slope in result.slopes()]
    assert all(slope is not None and slope > 0 for slope in slopes)
    assert slopes == sorted(slopes, reverse=True), (
        f"more ILP must mean a smaller latency-sensitivity slope: {slopes}"
    )
    for row in result.rows:
        cycles = [point.cycles for point in row.curve.points]
        assert cycles == sorted(cycles), (
            f"injecting DRAM latency must not speed the microbench up "
            f"(ilp={row.value}): {cycles}"
        )

    save_and_print(
        "microbench_ilp_atlas",
        format_atlas_report(result),
    )


@pytest.mark.benchmark(group="microbench-atlas")
def test_microbench_mlp_monotone_cycles(benchmark):
    def run_mlp_sweep():
        session = Session(cache=False)
        return [
            session.run(Experiment.dynamic("gf106", "microbench",
                                           mlp=mlp, iters=32)).total_cycles
            for mlp in MLP_VALUES
        ]

    cycles = benchmark.pedantic(run_mlp_sweep, rounds=1, iterations=1)
    assert cycles == sorted(cycles), (
        f"extra outstanding loads at constant serial depth must not "
        f"reduce cycles: {cycles}"
    )

    rows = [{"mlp": str(mlp), "cycles": str(count)}
            for mlp, count in zip(MLP_VALUES, cycles)]
    from repro.analysis import comparison_table
    save_and_print(
        "microbench_mlp_sweep",
        comparison_table(
            "Microbench cycles vs outstanding loads per chain step "
            "(gf106, serial depth fixed)",
            rows, ["mlp", "cycles"],
        ),
    )


@pytest.mark.benchmark(group="microbench-atlas")
def test_microbench_atlas_parallel_matches_serial(benchmark):
    start = time.perf_counter()
    serial = ILP_ATLAS.run(session=Session(cache=False))
    serial_seconds = time.perf_counter() - start

    parallel = benchmark.pedantic(
        lambda: ILP_ATLAS.run(session=Session(cache=False),
                              jobs=BENCH_JOBS),
        rounds=1, iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.mean

    assert parallel.to_json() == serial.to_json()

    from repro.analysis import comparison_table
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
            f"{len(ILP_ATLAS.values)}x{len(ILP_ATLAS.scales)} "
            f"microbench atlas: serial vs process-parallel "
            f"(byte-identical results)",
            rows, ["mode", "wall-clock (s)", "speedup"],
        ),
    )

    # No wall-clock ratio assert: shared CI runners make relative-timing
    # asserts flaky; regressions are gated by check_regression.py.

    save_and_print(
        "microbench_atlas_metrics",
        atlas_metrics_table(parallel),
    )
