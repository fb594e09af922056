"""Parallel ablation sweeps: shard an Experiment.grid across processes.

The paper's figures come from running the same simulator over many
configuration points.  ``Session.run_all(specs, jobs=N)`` runs such a
grid on a pool of worker processes — each worker owns a long-lived
session — and merges the streamed results into a RunSet that is
byte-identical to a serial run.  This example times both paths on a BFS
ablation grid (two GPU generations x two graph sizes), verifies the
determinism contract, and shows that the parent session's cache was
warmed by the workers.

Run it with::

    python examples/parallel_sweep.py [--nodes 512 1024] [--jobs 4]

Worker processes only pay off when the machine has spare cores and each
grid point is a non-trivial simulation; on a single-core machine (or for
tiny kernels) the sharding overhead makes ``--jobs 1`` the right choice.
"""

import argparse
import os
import time

from repro.experiments import Experiment, Session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="*",
                        default=[512, 1024],
                        help="BFS graph sizes to sweep (one grid axis)")
    parser.add_argument("--degree", type=int, default=4,
                        help="average out-degree of the BFS graphs")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the parallel run")
    args = parser.parse_args()

    grid = Experiment.grid(
        kind="dynamic",
        configs=["gf100", "gk104"],
        workloads=["bfs"],
        params={"num_nodes": args.nodes, "avg_degree": args.degree,
                "buckets": 12},
    )
    print(f"ablation grid: {len(grid)} experiments "
          f"(2 configs x {len(args.nodes)} graph sizes)")

    start = time.perf_counter()
    serial = Session().run_all(grid, jobs=1)
    serial_seconds = time.perf_counter() - start
    print(f"serial (jobs=1): {serial_seconds:.2f}s")

    session = Session()
    start = time.perf_counter()
    parallel = session.run_all(
        grid, jobs=args.jobs,
        progress=lambda done, total, record, source:
        print(f"  [{done}/{total}] {source}: {record.summary()}"))
    parallel_seconds = time.perf_counter() - start
    print(f"parallel (jobs={args.jobs}): {parallel_seconds:.2f}s "
          f"({serial_seconds / parallel_seconds:.2f}x)")

    identical = parallel.to_json() == serial.to_json()
    print(f"byte-identical to serial: {identical}")

    # Worker results were merged into the parent session's cache, so
    # re-running any grid point is now free.
    session.run(grid[0])
    print(f"parent cache after merge: {session.cache_info()}")

    for record in parallel:
        exposed = record.payload["exposure"]["overall_exposed_fraction"]
        spec = record.experiment
        print(f"  {spec['configs'][0]:>6s} nodes={spec['params']['num_nodes']:>5d}: "
              f"{record.total_cycles:>8d} cycles, "
              f"exposed fraction {exposed:.3f}")


if __name__ == "__main__":
    main()
