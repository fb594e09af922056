"""Ablation A2 — the generational L1 policy change (Fermi/Kepler/Maxwell).

Table I's most striking architectural trend is what happened to the L1 on
the global path: Fermi caches global loads, Kepler restricts the L1 to
local accesses, and Maxwell removes it entirely.  This ablation isolates
that policy change: the same BFS workload runs on three configurations that
are identical except for the L1 policy, and the benchmark reports the L1
hit rate and the mean global-load latency for each.
"""

import dataclasses

import pytest

from benchmarks.conftest import (
    ABLATION_BFS_DEGREE,
    ABLATION_BFS_NODES,
    run_bfs,
    save_and_print,
    sum_stat,
)
from repro.analysis import comparison_table
from repro.gpu import fermi_gf100


def config_with_l1_policy(policy: str):
    base = fermi_gf100()
    if policy == "fermi":
        l1 = dataclasses.replace(base.core.l1, enabled=True, cache_global=True)
    elif policy == "kepler":
        l1 = dataclasses.replace(base.core.l1, enabled=True, cache_global=False)
    elif policy == "maxwell":
        l1 = dataclasses.replace(base.core.l1, enabled=False,
                                 cache_global=False)
    else:
        raise ValueError(policy)
    core = dataclasses.replace(base.core, l1=l1)
    return base.replace(core=core, name=f"gf100-l1-{policy}")


def measure(policy: str, run):
    gpu, workload, results = run
    stats = gpu.collect_stats().as_dict()
    hits = sum_stat(stats, "l1d.hits")
    misses = sum_stat(stats, "l1d.misses")
    loads = gpu.tracker.global_loads()
    mean_load_latency = sum(load.latency for load in loads) / len(loads)
    return {
        "policy": policy,
        "cycles": sum(r.cycles for r in results),
        "l1_hit_rate": hits / max(hits + misses, 1),
        "mean_load_latency": mean_load_latency,
        "loads": len(loads),
    }


def test_ablation_l1_policy(bfs_gf100_ablation_run):
    # The Fermi policy is GF100's own, so that row reuses the shared run.
    assert (config_with_l1_policy("fermi").replace(name="gf100")
            == fermi_gf100())
    rows = {"fermi": measure("fermi", bfs_gf100_ablation_run)}
    for policy in ("kepler", "maxwell"):
        rows[policy] = measure(policy, run_bfs(
            config_with_l1_policy(policy), ABLATION_BFS_NODES,
            ABLATION_BFS_DEGREE))
    formatted = [
        {
            "L1 policy": policy,
            "cycles": row["cycles"],
            "L1 hit rate": f"{row['l1_hit_rate']:.3f}",
            "mean global-load latency": f"{row['mean_load_latency']:.1f}",
        }
        for policy, row in rows.items()
    ]
    save_and_print(
        "ablation_l1_policy",
        comparison_table(
            "BFS: L1 policy ablation (Fermi caches global, Kepler is "
            "local-only, Maxwell has no L1)",
            formatted,
            ["L1 policy", "cycles", "L1 hit rate", "mean global-load latency"],
        ),
    )

    fermi, kepler, maxwell = rows["fermi"], rows["kepler"], rows["maxwell"]
    # Only the Fermi policy can hit in the L1 for global loads.
    assert fermi["l1_hit_rate"] > 0.2
    assert kepler["l1_hit_rate"] == 0.0
    assert maxwell["l1_hit_rate"] == 0.0
    # Losing the L1 on the global path raises the mean global-load latency —
    # the latency cost behind Table I's Kepler/Maxwell entries.
    assert fermi["mean_load_latency"] < kepler["mean_load_latency"]
    assert fermi["mean_load_latency"] < maxwell["mean_load_latency"]
    # With BFS using no local memory, the Kepler and Maxwell policies are
    # equivalent; their results must agree closely.
    assert kepler["mean_load_latency"] == pytest.approx(
        maxwell["mean_load_latency"], rel=0.15
    )
