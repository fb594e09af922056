"""Benchmark S1 — the paper's headline experiment as a one-call sweep.

The paper answers "how much memory latency does a throughput core
tolerate?" by perturbing latencies and measuring the exposed slowdown.
``SensitivityStudy`` runs that experiment end to end: derive perturbed
configurations with declarative transforms, simulate every sweep point
through the experiment layer, and fit tolerance metrics.  The first
benchmark runs the canonical serial BFS x DRAM-latency sweep
(asserting the physics: a monotone non-decreasing cycles curve
and a positive cycles-per-injected-cycle slope); the second shards a
sweep across worker processes and asserts the result is byte-identical
to the serial run — the determinism contract the CLI's ``--jobs``
relies on.
"""

from benchmarks.conftest import save_and_print
from repro.analysis import metrics_summary, sensitivity_table
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


def test_sensitivity_dram_sweep():
    result = DRAM_STUDY.run(session=Session(cache=False))
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


def test_sensitivity_parallel_matches_serial():
    serial = PARALLEL_STUDY.run(session=Session(cache=False))
    parallel = PARALLEL_STUDY.run(session=Session(cache=False), jobs=2)
    assert parallel.to_json() == serial.to_json()
