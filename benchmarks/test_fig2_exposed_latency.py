"""Experiment E3 — Figure 2: exposed vs hidden load latency for BFS.

Reproduces the paper's Figure 2: warp-level global loads of the BFS run are
bucketed by latency, and each bucket's latency is split into the share the
SM hid behind other work and the share that was exposed (no instruction
issued).  The benchmark prints the per-bucket series and asserts the
paper's finding that "the fraction of latency that is exposed is
significant, sometimes close to 100% and more than 50% for most of the
global memory load instructions".
"""

from benchmarks.conftest import save_and_print
from repro.analysis import exposure_chart
from repro.core.exposure import compute_exposure

#: Same bucket count as the paper's figure.
NUM_BUCKETS = 24


def test_fig2_exposed_latency(bfs_gf100_run):
    gpu, workload, results = bfs_gf100_run
    result = compute_exposure(gpu.tracker, num_buckets=NUM_BUCKETS)

    lines = [
        f"Figure 2 reproduction: BFS ({workload.graph.num_nodes} nodes), "
        f"GF100-like configuration",
        f"global load instructions tracked: {result.total_loads}",
        f"overall exposed fraction: {result.overall_exposed_fraction:.3f}",
        "fraction of loads >50% exposed: "
        f"{result.fraction_of_loads_mostly_exposed(50.0):.3f}",
        "",
        result.format_table(),
        "",
        exposure_chart(result, width=50),
    ]
    save_and_print("fig2_exposed_latency", "\n".join(lines))

    assert result.total_loads > 2000
    # Paper: exposure is significant — more than 50% for most loads.
    assert result.overall_exposed_fraction > 0.5
    assert result.fraction_of_loads_mostly_exposed(50.0) > 0.5
    # Paper: "sometimes close to 100%".
    assert max(bucket.exposed_percent
               for bucket in result.non_empty_buckets()) > 90.0
    # Exposure grows with latency: the slowest quartile of buckets is more
    # exposed than the fastest quartile.
    buckets = result.non_empty_buckets()
    quarter = max(len(buckets) // 4, 1)

    def exposed_share(selection):
        exposed = sum(bucket.exposed_cycles for bucket in selection)
        total = sum(bucket.total_cycles for bucket in selection)
        return exposed / total

    assert exposed_share(buckets[-quarter:]) > exposed_share(buckets[:quarter])
