"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation the paper motivates), prints the rows/series it produced, and
saves the same text under ``benchmarks/results/`` so the committed
numbers can be re-derived.  Every table is deterministic, so a run
leaves the tracked copies byte-identical.  No benchmark times the host:
speed-ups are guarded by the work-count gates in
``tests/test_count_gates.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import Experiment, Session
from repro.gpu import fermi_gf100

#: Where benchmark output tables are written.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Problem size for the Figure 1 / Figure 2 BFS run: the graph (CSR arrays
#: plus the level array) is ~2.5x the aggregate L2 capacity of the GF100
#: configuration, so a realistic share of traffic reaches DRAM.
FIG_BFS_NODES = 4096
FIG_BFS_DEGREE = 8

#: Problem size for the ablation BFS runs (smaller: several are compared).
ABLATION_BFS_NODES = 2048
ABLATION_BFS_DEGREE = 8


def save_and_print(name: str, text: str) -> None:
    """Print a result table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def sum_stat(stats: dict, suffix: str) -> float:
    """Sum every counter whose (component-prefixed) name ends with ``suffix``."""
    return sum(value for key, value in stats.items() if key.endswith(suffix))


def run_bfs(config, num_nodes: int, avg_degree: int, seed: int = 13):
    """Run BFS to completion on a fresh GPU; returns (gpu, workload, results).

    The run goes through the experiment layer: the (possibly ablated)
    configuration becomes a session-local config and the BFS run one
    declarative experiment, so benchmarks exercise the same orchestration
    path as the CLI and the examples.  Verification happens inside the
    session (a failure raises).
    """
    session = Session(cache=False)
    name = session.add_config(config)
    record = session.run(Experiment.dynamic(
        name, "bfs", num_nodes=num_nodes, avg_degree=avg_degree,
        block_dim=128, seed=seed))
    return record.gpu, record.workload, record.results


def run_experiments(specs, jobs: int = 1):
    """Run a list of experiment specs through a fresh session.

    ``jobs > 1`` shards the specs across worker processes via
    :meth:`Session.run_all`; the returned :class:`RunSet` is identical to
    a serial run either way (that property is itself benchmarked in
    ``test_parallel_executor.py``).
    """
    return Session(cache=False).run_all(specs, jobs=jobs)


@pytest.fixture(scope="session")
def bfs_gf100_run():
    """The shared BFS run behind the Figure 1 and Figure 2 benchmarks
    (and the DRAM ablation's FR-FCFS row, GF100's own scheduler)."""
    return run_bfs(fermi_gf100(), FIG_BFS_NODES, FIG_BFS_DEGREE)


@pytest.fixture(scope="session")
def bfs_gf100_ablation_run():
    """The shared ablation-size BFS run on GF100 as configured: the L1
    ablation's ``fermi`` row and the warp ablation's ``gto`` row."""
    return run_bfs(fermi_gf100(), ABLATION_BFS_NODES, ABLATION_BFS_DEGREE)
