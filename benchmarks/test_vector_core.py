"""Benchmark V1 — the vector core on the acceptance atlas sweep.

The ``vector`` backend batches each scheduler's warp bookkeeping into
NumPy arrays (PCs, scoreboard bitmasks, ready masks) and skips quiescent
SM cycles wholesale; its reason to exist is being *faster* than the
``fast`` core on sweep-shaped work while staying byte-identical.  The
first benchmark pins both halves of that claim on the canonical
ILP x DRAM-latency atlas (the acceptance sweep from PR 7): the vector
run is the gated benchmark, the fast run is timed inline, and the
results must be byte-identical.  The second benchmark gates the
``estimator`` variant and asserts its accuracy contract per atlas cell:
cycle counts within the documented two-sided 10% bound.
"""

import time

import pytest

from benchmarks.conftest import print_table, save_and_print
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


@pytest.mark.benchmark(group="vector-core")
def test_fast_atlas_baseline(benchmark):
    """The fast core on the same atlas, as its own gated benchmark.

    Timing the fast run as a first-class benchmark entry (rather than
    only inline inside the vector benchmark) lets check_regression.py
    gate the vector-vs-fast *ratio* from baseline.json: both means come
    from the same run on the same machine, so the ratio gate is immune
    to runner-speed drift that the absolute gates must tolerate.
    """
    result = benchmark.pedantic(lambda: run_atlas("fast"),
                                rounds=1, iterations=1)
    assert len(result.rows) == len(VECTOR_ATLAS.values)


@pytest.mark.benchmark(group="vector-core")
def test_vector_atlas_matches_fast(benchmark):
    start = time.perf_counter()
    fast = run_atlas("fast")
    fast_seconds = time.perf_counter() - start

    vector = benchmark.pedantic(lambda: run_atlas("vector"),
                                rounds=1, iterations=1)
    vector_seconds = benchmark.stats.stats.mean

    # Byte-identity is the contract that lets the store serve either
    # core's results for the other; speed is the reason vector exists.
    assert vector.to_json() == fast.to_json()

    rows = [
        {
            "core": "fast",
            "wall-clock (s)": f"{fast_seconds:.2f}",
            "speedup": "1.00x",
        },
        {
            "core": "vector",
            "wall-clock (s)": f"{vector_seconds:.2f}",
            "speedup": f"{fast_seconds / vector_seconds:.2f}x",
        },
    ]
    print_table(
        comparison_table(
            f"{len(VECTOR_ATLAS.values)}x{len(VECTOR_ATLAS.scales)} "
            f"ILP x DRAM-latency atlas (gf106): fast vs vector core "
            f"(byte-identical results)",
            rows, ["core", "wall-clock (s)", "speedup"],
        ),
    )

    # No wall-clock ratio assert: shared CI runners make relative-timing
    # asserts flaky; regressions are gated by check_regression.py.


@pytest.mark.benchmark(group="vector-core")
def test_estimator_atlas_bounded_error(benchmark):
    exact = run_atlas("fast")
    estimated = benchmark.pedantic(lambda: run_atlas("estimator"),
                                   rounds=1, iterations=1)

    worst = 0.0
    for exact_row, est_row in zip(exact.rows, estimated.rows):
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
