"""Benchmark M1 — the synthetic-microbench latency-tolerance atlas.

The atlas is the controlled-kernel version of the paper's headline
sweep: the synthetic ``microbench`` workload dials one axis at a time
while a configuration transform injects latency.  The benchmarks run
the canonical ILP x DRAM-latency atlas and assert its physics: raising
instruction-level parallelism (more independent dependency chains per
warp at a fixed serial budget) must *lower* the
cycles-per-injected-cycle slope, and raising memory-level parallelism
(more outstanding loads per chain step at constant serial depth) must
not *reduce* total cycles — the extra loads only add MSHR/bandwidth
pressure.  The last benchmark shards the same atlas across worker
processes and asserts the result is byte-identical to the serial run,
the determinism contract behind ``repro atlas --jobs``.
"""

from benchmarks.conftest import save_and_print
from repro.analysis import (
    atlas_metrics_table,
    comparison_table,
    format_atlas_report,
)
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


def test_microbench_ilp_atlas():
    result = ILP_ATLAS.run(session=Session(cache=False))

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


def test_microbench_mlp_monotone_cycles():
    session = Session(cache=False)
    cycles = [
        session.run(Experiment.dynamic("gf106", "microbench",
                                       mlp=mlp, iters=32)).total_cycles
        for mlp in MLP_VALUES
    ]
    assert cycles == sorted(cycles), (
        f"extra outstanding loads at constant serial depth must not "
        f"reduce cycles: {cycles}"
    )

    rows = [{"mlp": str(mlp), "cycles": str(count)}
            for mlp, count in zip(MLP_VALUES, cycles)]
    save_and_print(
        "microbench_mlp_sweep",
        comparison_table(
            "Microbench cycles vs outstanding loads per chain step "
            "(gf106, serial depth fixed)",
            rows, ["mlp", "cycles"],
        ),
    )


def test_microbench_atlas_parallel_matches_serial():
    serial = ILP_ATLAS.run(session=Session(cache=False))
    parallel = ILP_ATLAS.run(session=Session(cache=False), jobs=2)
    assert parallel.to_json() == serial.to_json()

    save_and_print(
        "microbench_atlas_metrics",
        atlas_metrics_table(parallel),
    )
