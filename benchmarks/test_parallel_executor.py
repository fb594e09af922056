"""Benchmark P1 — process-parallel execution of an experiment grid.

The paper's figures come from running the same simulator over many
configuration points; ``Session.run_all(..., jobs=N)`` shards such a grid
across worker processes.  This benchmark runs a 6-point ablation grid
(2 configurations x 3 problem sizes) serially and through the parallel
executor and asserts the two results serialize byte-identically (the
executor's core contract).
"""

from benchmarks.conftest import run_experiments
from repro.experiments import Experiment

GRID = Experiment.grid(
    kind="dynamic",
    configs=["gf100", "gk104"],
    workloads=["vecadd"],
    params={"n": [2048, 4096, 8192]},
)


def test_parallel_grid_matches_serial():
    serial = run_experiments(GRID, jobs=1)
    parallel = run_experiments(GRID, jobs=2)
    assert parallel.to_json() == serial.to_json()
