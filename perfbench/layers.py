"""Per-layer metrics and the self-time table of a traced run."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Self-time metrics (seconds per traced iteration) and the tracer metric
#: each one reads, in table order.
TIME_METRICS: Tuple[Tuple[str, str], ...] = (
    ("simt.sm_cycle_s", "simt.sm_cycle"),
    ("simt.ldst_s", "simt.ldst"),
    ("simt.next_event_s", "simt.next_event"),
    ("memory.cycle_s", "memory.cycle"),
    ("memory.next_event_s", "memory.next_event"),
    ("memory.port_s", "memory.port"),
    ("memory.icnt_s", "memory.icnt"),
    ("memory.partition_s", "memory.partition"),
    ("memory.l2_s", "memory.l2"),
    ("memory.dram_s", "memory.dram"),
    ("memory.addr_s", "memory.addr"),
    ("gpu.drive_self_s", "gpu.drive"),
    ("gpu.collect_stats_s", "gpu.collect_stats"),
    ("core.tracker_s", "core.tracker"),
    ("core.analysis_s", "core.analysis"),
    ("workloads.create_s", "workloads.create"),
    ("workloads.prepare_s", "workloads.prepare"),
    ("workloads.verify_s", "workloads.verify"),
    ("workloads.run_self_s", "workloads.run"),
    ("experiments.session_self_s", "experiments.session"),
    ("experiments.pool_s", "experiments.pool"),
    ("experiments.worker_wait_s", "experiments.worker_wait"),
    ("experiments.serialize_s", "experiments.serialize"),
    ("store.key_s", "store.key"),
    ("store.get_s", "store.get"),
    ("store.put_s", "store.put"),
    ("sensitivity.derive_s", "sensitivity.derive"),
    ("sensitivity.assemble_s", "sensitivity.assemble"),
)

#: Layers left unwrapped on purpose, with the reason.
UNWRAPPED = {
    "memory.addr_s": "AddressMapping runs ~22M times per bfs pass inside the "
                     "DRAM scheduler's queue scan; a wrapper would cost "
                     "several times the work it times, so that time stays "
                     "in memory.dram_s",
}

#: Tracer metrics that measure waiting on another thread rather than
#: work, so they stay out of the table that sums to the wall time.
WAIT_METRICS = ("serve.broker",)

UNITS = {"_s": "s", "_calls": "count", "_frac": "ratio", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _merge(into: Dict[str, float], source: Dict[str, float]) -> None:
    for key, value in source.items():
        into[key] = into.get(key, 0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_seconds(totals: Dict[str, Any], metric: str) -> float:
    return sum(end - start for name, start, end, *_ in totals["spans"]
               if name == metric) / 1e9


def per_layer(parent: Dict[str, Any], workers: List[Dict[str, Any]],
              traced_wall_s: float, untraced_wall_s: float, iterations: int,
              registry_load_s: float) -> Dict[str, Any]:
    """Every per-layer metric, per traced iteration.

    ``parent`` and ``workers`` are :meth:`Tracer.totals` dicts of the
    benchmark process and of its forked workers; the wall times are
    summed over ``iterations`` traced (and as many untraced) iterations.
    Returns ``{"metrics": {...}, "table": [...], "workers": [...],
    "measured": {...}}``.
    """
    work = dict(parent["self_s"].get("work", {}))
    worker_work: Dict[str, float] = {}
    calls: Dict[str, float] = dict(parent["calls"])
    counts: Dict[str, float] = dict(parent["counts"])
    for worker in workers:
        _merge(worker_work, worker["self_s"].get("work", {}))
        _merge(calls, worker["calls"])
        _merge(counts, worker["counts"])
    n = max(1, iterations)
    metrics: Dict[str, float] = {}
    measured: Dict[str, bool] = {}
    for name, source in TIME_METRICS:
        metrics[name] = (work.get(source, 0.0)
                         + worker_work.get(source, 0.0)) / n
        measured[name] = calls.get(source, 0) > 0
    metrics["workloads.registry_load_s"] = registry_load_s
    measured["workloads.registry_load_s"] = True

    broker_total = _span_seconds(parent, "serve.broker")
    client_total = _span_seconds(parent, "serve.request")
    metrics["serve.broker_self_s"] = work.get("serve.broker", 0.0) / n
    metrics["serve.http_s"] = max(0.0, client_total - broker_total) / n
    measured["serve.broker_self_s"] = calls.get("serve.broker", 0) > 0
    measured["serve.http_s"] = calls.get("serve.request", 0) > 0

    table_work = sum(seconds for metric, seconds in work.items()
                     if metric not in WAIT_METRICS)
    metrics["unattributed_s"] = (traced_wall_s - table_work) / n
    metrics["trace_overhead_s"] = (traced_wall_s - untraced_wall_s) / n
    metrics["traced_wall_s"] = traced_wall_s / n

    sm_calls = calls.get("simt.sm_cycle", 0)
    memory_calls = calls.get("memory.cycle", 0)
    sim_cycles = counts.get("gpu.sim_cycles", 0)
    ok = counts.get("memory.inject_ok", 0)
    retries = counts.get("memory.inject_retry", 0)
    gets = calls.get("store.get", 0)
    metrics.update({
        "simt.sm_cycle_calls": sm_calls / n,
        "simt.sm_skip_frac": 1.0 - _ratio(sm_calls,
                                          counts.get("gpu.sm_slots", 0))
        if counts.get("gpu.sm_slots") else 0.0,
        "simt.warp_insts": counts.get("stat.warp_insts", 0) / n,
        "simt.issue_idle_frac": _ratio(counts.get("stat.issue_idle", 0),
                                       counts.get("gpu.scheduler_slots", 0)),
        "memory.cycle_calls": memory_calls / n,
        "memory.requests": ok / n,
        "memory.inject_stall_frac": _ratio(retries, ok + retries),
        "memory.l2_hit_ratio": _ratio(
            counts.get("stat.l2_hits", 0),
            counts.get("stat.l2_hits", 0) + counts.get("stat.l2_misses", 0)),
        "memory.dram_row_hit_ratio": _ratio(
            counts.get("stat.dram_row_hits", 0),
            counts.get("stat.dram_requests", 0)),
        "gpu.sim_cycles": sim_cycles / n,
        "gpu.skip_frac": 1.0 - _ratio(memory_calls, sim_cycles)
        if sim_cycles else 0.0,
        "core.tracker_events": counts.get("core.tracker_events", 0) / n,
        "experiments.cells": counts.get("experiments.cells", 0) / n,
        "store.gets": gets / n,
        "store.puts": calls.get("store.put", 0) / n,
        "store.hit_ratio": _ratio(counts.get("store.hits", 0), gets),
        "serve.dedup_ratio": _ratio(counts.get("serve.in_flight", 0),
                                    counts.get("serve.requests", 0)),
    })

    names = dict(TIME_METRICS)
    table = [(name, work.get(source, 0.0) / n,
              parent["calls"].get(source, 0) > 0)
             for name, source in TIME_METRICS]
    table.append(("unattributed_s", metrics["unattributed_s"], True))
    worker_table = [(name, worker_work.get(names[name], 0.0) / n)
                    for name, _ in TIME_METRICS
                    if worker_work.get(names[name])]
    return {"metrics": metrics, "measured": measured, "table": table,
            "workers": worker_table}


def format_table(report: Dict[str, Any], workers: int) -> str:
    """The self-time table (sums to the traced wall time) plus extras."""
    wall = report["metrics"]["traced_wall_s"]
    lines = [f"{'layer self time (this process)':34s} {'s/iter':>10s} "
             f"{'share':>7s}"]
    total = 0.0
    for name, seconds, measured in report["table"]:
        total += seconds
        shown = f"{seconds:10.4f}" if measured else f"{'-':>10s}"
        share = f"{100 * seconds / wall:6.1f}%" if wall and measured else ""
        lines.append(f"  {name:32s} {shown} {share:>7s}")
    lines.append(f"  {'sum = traced wall':32s} {total:10.4f} "
                 f"(traced wall {wall:.4f})")
    if report["workers"]:
        lines.append(f"self time inside {workers} forked worker process(es)"
                     f" (not part of the sum above)")
        for name, seconds in report["workers"]:
            lines.append(f"  {name:32s} {seconds:10.4f}")
    metrics = report["metrics"]
    lines.append("waiting (not part of the sum): "
                 f"serve.broker_self_s={metrics['serve.broker_self_s']:.4f} "
                 f"serve.http_s={metrics['serve.http_s']:.4f}")
    lines.append("'-' = unmeasured, not zero: no call reached the wrapper, "
                 "so the layer is off this workload's path or its caller "
                 "inlines it")
    for name, reason in UNWRAPPED.items():
        lines.append(f"{name} is unmeasured: {reason}")
    return "\n".join(lines)
