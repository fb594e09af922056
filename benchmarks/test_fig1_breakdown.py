"""Experiment E2 — Figure 1: memory-request latency breakdown for BFS.

Reproduces the paper's Figure 1: completed memory fetches of a BFS run on
the Fermi GF100-like configuration are bucketed by total latency and each
bucket's lifetime is split across the eight memory-pipeline stages.  The
benchmark prints the per-bucket stacked percentages (the figure's series)
and asserts the shape the paper reports: left-hand buckets are pure
"SM Base" (L1 hits), and queueing/arbitration stages dominate the
long-latency buckets.
"""

from benchmarks.conftest import save_and_print
from repro.analysis import breakdown_chart
from repro.core.breakdown import breakdown_from_tracker
from repro.core.stages import Stage

#: Same bucket count as the paper's figure.
NUM_BUCKETS = 48


def test_fig1_latency_breakdown(bfs_gf100_run):
    gpu, workload, results = bfs_gf100_run
    result = breakdown_from_tracker(gpu.tracker, num_buckets=NUM_BUCKETS)

    lines = [
        f"Figure 1 reproduction: BFS ({workload.graph.num_nodes} nodes, "
        f"{workload.graph.num_edges} edges), GF100-like configuration",
        f"kernel launches: {len(results)}, total cycles: "
        f"{sum(r.cycles for r in results)}",
        f"tracked memory fetches: {result.total_requests}",
        "",
        result.format_table(),
        "",
        breakdown_chart(result, width=50),
    ]
    save_and_print("fig1_breakdown", "\n".join(lines))

    buckets = result.non_empty_buckets()
    assert result.total_requests > 10000

    # Shape check 1 (paper): "several latency buckets on the left are
    # entirely filled with SM base time" — L1 hits.
    first = buckets[0]
    assert first.percentages()[Stage.SM_BASE] > 95.0

    # Shape check 2 (paper): in the long-latency buckets every pipeline
    # stage is present and the SM itself no longer dominates.
    tail = buckets[3 * len(buckets) // 4:]
    tail_total = sum(bucket.total_cycles for bucket in tail)
    tail_sm_base = sum(bucket.stage_cycles[Stage.SM_BASE] for bucket in tail)
    assert tail_sm_base / tail_total < 0.5

    # Shape check 3 (paper): queueing and arbitration — the miss queue,
    # the queues in front of the L2/DRAM, and DRAM scheduling — contribute
    # a far larger share to long-latency fetches than to short ones.
    queue_stages = (Stage.L1_TO_ICNT, Stage.ROP_TO_L2Q, Stage.L2Q_TO_DRAMQ,
                    Stage.DRAM_Q_TO_SCH)

    def queue_fraction(selection):
        total = sum(bucket.total_cycles for bucket in selection)
        queued = sum(bucket.stage_cycles[stage]
                     for bucket in selection for stage in queue_stages)
        return queued / total

    head = buckets[:len(buckets) // 4]
    assert queue_fraction(tail) > 2 * queue_fraction(head)
    assert queue_fraction(tail) > 0.15
    # The slowest bucket of all (which includes the clipped stragglers) is
    # where queueing and arbitration dominate most clearly.
    assert queue_fraction(buckets[-1:]) > 0.25
