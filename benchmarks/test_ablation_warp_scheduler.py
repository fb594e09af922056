"""Ablation A3 — warp scheduling policy and exposed latency.

Latency only hurts once it is exposed (Figure 2), and how much of it the SM
can hide depends on which warps the scheduler keeps issuable.  This
ablation runs BFS under the greedy-then-oldest (GTO) and loose round-robin
(LRR) warp schedulers and reports runtime, the overall exposed-latency
fraction, and the mean global-load latency for both.
"""

import dataclasses

from benchmarks.conftest import (
    ABLATION_BFS_DEGREE,
    ABLATION_BFS_NODES,
    run_bfs,
    save_and_print,
)
from repro.analysis import comparison_table
from repro.core.exposure import compute_exposure
from repro.gpu import fermi_gf100


def config_with_warp_scheduler(policy: str):
    base = fermi_gf100()
    core = dataclasses.replace(base.core, warp_scheduler=policy)
    return base.replace(core=core, name=f"gf100-{policy}")


def measure(policy: str, run):
    gpu, workload, results = run
    exposure = compute_exposure(gpu.tracker, num_buckets=16)
    loads = gpu.tracker.global_loads()
    return {
        "scheduler": policy,
        "cycles": sum(r.cycles for r in results),
        "exposed_fraction": exposure.overall_exposed_fraction,
        "mostly_exposed_loads": exposure.fraction_of_loads_mostly_exposed(50.0),
        "mean_load_latency": sum(load.latency for load in loads) / len(loads),
    }


def test_ablation_warp_scheduler(bfs_gf100_ablation_run):
    # GTO is GF100's own warp scheduler, so that row reuses the shared run.
    assert (config_with_warp_scheduler("gto").replace(name="gf100")
            == fermi_gf100())
    lrr_run = run_bfs(config_with_warp_scheduler("lrr"), ABLATION_BFS_NODES,
                      ABLATION_BFS_DEGREE)
    rows = [measure("gto", bfs_gf100_ablation_run), measure("lrr", lrr_run)]
    formatted = [
        {
            "warp scheduler": row["scheduler"],
            "cycles": row["cycles"],
            "exposed fraction": f"{row['exposed_fraction']:.3f}",
            "loads >50% exposed": f"{row['mostly_exposed_loads']:.3f}",
            "mean load latency": f"{row['mean_load_latency']:.1f}",
        }
        for row in rows
    ]
    save_and_print(
        "ablation_warp_scheduler",
        comparison_table(
            "BFS: warp scheduler ablation (GTO vs LRR)",
            formatted,
            ["warp scheduler", "cycles", "exposed fraction",
             "loads >50% exposed", "mean load latency"],
        ),
    )

    gto, lrr = rows
    # Both schedulers execute the same work; runtimes stay within a factor
    # of two of each other and exposure remains the dominant regime for
    # this latency-bound workload under either policy.
    assert gto["cycles"] < 2 * lrr["cycles"]
    assert lrr["cycles"] < 2 * gto["cycles"]
    for row in rows:
        assert 0.4 < row["exposed_fraction"] <= 1.0
        assert row["mostly_exposed_loads"] > 0.4
