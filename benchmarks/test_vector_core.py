"""Benchmark V1 — the ``estimator`` core on the acceptance atlas sweep.

The ``estimator`` backend is the ``fast`` core with LD/ST completion
times rounded up to a time quantum.  This benchmark asserts its
accuracy contract per atlas cell: cycle counts within the documented
two-sided 10% bound of one ``fast`` run of the atlas.  How much work the
gated drive loop skips is gated in ``tests/test_count_gates.py``.
"""

from benchmarks.conftest import save_and_print
from repro.analysis import comparison_table
from repro.experiments import Session
from repro.sensitivity import LatencyToleranceAtlas
from repro.simt.vector import ESTIMATOR_CYCLE_ERROR_BOUND

#: The acceptance sweep: ILP 1-8 against DRAM timings scaled 1-8x on the
#: Fermi GF106 configuration (16 cells).
VECTOR_ATLAS = LatencyToleranceAtlas(
    config="gf106",
    axis="ilp",
    values=(1, 2, 4, 8),
    transform="scale_dram_latency",
    scales=(1.0, 2.0, 4.0, 8.0),
    params={"iters": 32},
)


def run_atlas(core):
    return VECTOR_ATLAS.run(session=Session(cache=False, core=core))


def test_estimator_atlas_bounded_error():
    fast_atlas = run_atlas("fast")
    estimated = run_atlas("estimator")

    worst = 0.0
    for exact_row, est_row in zip(fast_atlas.rows, estimated.rows):
        for exact_point, est_point in zip(exact_row.curve.points,
                                          est_row.curve.points):
            error = (abs(est_point.cycles - exact_point.cycles)
                     / exact_point.cycles)
            assert error <= ESTIMATOR_CYCLE_ERROR_BOUND, (
                f"estimator error {error:.2%} beyond the documented "
                f"{ESTIMATOR_CYCLE_ERROR_BOUND:.0%} bound at "
                f"ilp={exact_row.value}, scale={exact_point.scale}"
            )
            worst = max(worst, error)

    save_and_print(
        "vector_core_estimator",
        comparison_table(
            f"Estimator cycle error across the "
            f"{len(VECTOR_ATLAS.values)}x{len(VECTOR_ATLAS.scales)} "
            f"atlas (bound: {ESTIMATOR_CYCLE_ERROR_BOUND:.0%})",
            [{"metric": "worst relative cycle error",
              "value": f"{worst:.2%}"}],
            ["metric", "value"],
        ),
    )
