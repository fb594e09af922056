"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload atlas_ilp_dram --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` times cold and warm passes untraced and prints every
end-to-end metric; ``--trace 1`` alternates untraced and traced
iterations and prints every per-layer metric and the self-time table.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (every
summary with its sample count, the machine fingerprint) goes to
``.perfbench/results/``, and traced runs write a Chrome trace-event file
to ``.perfbench/traces/``; both are untracked.  The exit code is 1 when
any operation failed and 2 when the simulator cannot be imported.

``--record-reference`` re-records the result digests every run is
checked against (``perfbench/reference.json``); do that only for a
change meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5

#: An untraced plus a traced iteration take about this many untraced
#: iterations' time.
TRACED_PAIR = 3.0

#: Busy seconds before anything is timed.  The host CPU runs faster for
#: the first fraction of a second after idling, so without this the first
#: samples of a run would read fast.
SPIN_SECONDS = 1.0

#: Every end-to-end metric the table prints: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warp_insts_per_s": "1/s",
    "warm_wall_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

#: The end-to-end metrics of the JSON line, which a change is gated on.
#: On the shared benchmark host ``warm_wall_s`` and ``request_p90_ms``
#: vary across runs by more than any usable bound, and ``failed_frac`` is
#: 0 when all is well; the JSON carries failures as attempted/failed.
GATED = ("setup_s", "wall_s", "warp_insts_per_s", "request_p50_ms",
         "peak_rss_mb")

#: Per-layer metrics reported in the JSON line of a traced run: every
#: count, and every self time measured on all four workloads.  The
#: self-time table also shows the times only some workloads reach.
PER_LAYER = (
    "simt.sm_cycle_s", "simt.ldst_s", "simt.next_event_s",
    "simt.sm_cycle_calls", "simt.sm_skip_frac", "simt.warp_insts",
    "simt.issue_idle_frac",
    "memory.cycle_s", "memory.next_event_s", "memory.port_s",
    "memory.icnt_s", "memory.partition_s", "memory.l2_s", "memory.dram_s",
    "memory.cycle_calls", "memory.requests",
    "memory.inject_stall_frac", "memory.l2_hit_ratio",
    "memory.dram_row_hit_ratio",
    "gpu.drive_self_s", "gpu.collect_stats_s", "gpu.sim_cycles",
    "gpu.skip_frac",
    "core.tracker_s", "core.tracker_events", "core.analysis_s",
    "workloads.create_s", "workloads.prepare_s", "workloads.verify_s",
    "workloads.registry_load_s",
    "experiments.session_self_s", "experiments.serialize_s",
    "experiments.cells",
    "store.key_s", "store.get_s", "store.gets", "store.puts",
    "store.hit_ratio",
    "serve.dedup_ratio",
    "unattributed_s", "trace_overhead_s",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_reference and not args.probe and not args.workload:
        parser.error("--workload is required")
    return args


# ----------------------------------------------------------------------
# Set-up probes: fresh processes, timed from spawn to ready
# ----------------------------------------------------------------------
def probe_child(name: str, tmp: str, seed: int) -> int:
    """Body of a set-up probe process: build, print ``ready``, exit."""
    from perfbench.workloads import WORKLOADS

    WORKLOADS[name](seed, tmp).probe()
    print("ready", flush=True)
    return 0


def probe(name: str, tmp: str, seed: int, importtime: bool = False
          ) -> Dict[str, Any]:
    """Spawn one probe; returns its set-up seconds (and import profile)."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += [str(HERE / "run.py"), "--probe", name, "--seed", str(seed)]
    env = dict(os.environ, PERFBENCH_TMP=tmp)
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, env=env,
                             cwd=str(ROOT))
    try:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return {"seconds": seconds, "importtime": err if importtime else ""}


def registry_load_seconds(importtime: str) -> float:
    """Self import time of ``repro.workloads``, whose module body
    registers the builder workloads and discovers the trace bundles."""
    for line in importtime.splitlines():
        parts = [part.strip() for part in line.split("|")]
        if len(parts) == 3 and parts[2] == "repro.workloads":
            return int(parts[0].split(":")[1]) / 1e6
    raise RuntimeError("repro.workloads missing from the import profile")


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT),
                               *args], capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "dirty": bool(status) if status is not None else None,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_iteration(workload, tracer, reference):
    """One iteration; an exception fails it instead of ending the run."""
    from perfbench.workloads import Iteration

    try:
        return workload.iteration(tracer=tracer, reference=reference)
    except Exception as exc:  # the run reports the failure and goes on
        import traceback

        failed = Iteration(attempted=1)
        failed.fail(1, "".join(traceback.format_exception_only(exc)).strip())
        traceback.print_exc(file=sys.stderr)
        return failed


def spin(seconds: float) -> None:
    """Keep one core busy for ``seconds``."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(10_000))


def repetitions(seconds: float, nominal_s: float) -> int:
    """How many steps of ``nominal_s`` fill ``seconds`` (at least one).

    The count depends on the arguments only, never on how fast this run
    happens to go, so every run of a workload pools the same number of
    samples.
    """
    return max(1, round(seconds / nominal_s))


def end_to_end(iterations, setup: List[float]) -> Dict[str, Dict[str, Any]]:
    ok = [it for it in iterations if not it.failed and it.wall_s > 0]
    requests = [ms for it in ok for ms in it.request_ms]
    summaries: Dict[str, Dict[str, Any]] = {
        "setup_s": stats.summarize(setup),
        "peak_rss_mb": {"median": peak_rss_mb(), "n": 1},
    }
    if ok:
        summaries["wall_s"] = stats.summarize([it.wall_s for it in ok])
        summaries["warm_wall_s"] = stats.summarize(
            [it.warm_wall_s for it in ok])
        summaries["warp_insts_per_s"] = stats.summarize(
            [it.warp_insts / it.wall_s for it in ok])
        summaries["request_p50_ms"] = stats.summarize(requests)
        summaries["request_p90_ms"] = {
            "median": stats.percentile(requests, 90), "n": len(requests),
            "beyond": stats.beyond(len(requests), 90)}
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    summaries["failed_frac"] = {"median": failed / max(1, attempted),
                                "n": attempted}
    return summaries


def format_end_to_end(summaries: Dict[str, Dict[str, Any]]) -> str:
    lines = [f"{'metric':18s} {'unit':6s} {'median':>14s} "
             f"{'tail (percentile)':>26s} {'n':>6s}"]
    for name, unit in END_TO_END.items():
        summary = summaries.get(name)
        if summary is None:
            lines.append(f"{name:18s} {unit:6s} {'(no successful pass)':>14s}")
            continue
        tail = ""
        if summary.get("tail") is not None:
            tail = f"{summary['tail']:.6g} (p{summary['tail_q']:g})"
        elif "beyond" in summary:
            tail = f"{summary['beyond']} samples beyond"
        elif summary["n"] > 1 and name != "failed_frac":
            tail = f"< {stats.MIN_BEYOND + 1} samples: none"
        lines.append(f"{name:18s} {unit:6s} {summary['median']:14.6g} "
                     f"{tail:>26s} {summary['n']:6d}")
    return "\n".join(lines)


def measured_run(workload, args, reference, tmp) -> Dict[str, Any]:
    spin(SPIN_SECONDS)
    setup = [probe(workload.name, tmp, args.seed)["seconds"]
             for _ in range(SETUP_PROBES)]
    iterations = [run_iteration(workload, None, reference)
                  for _ in range(repetitions(args.seconds, workload.nominal_s))]
    summaries = end_to_end(iterations, setup)
    print(format_end_to_end(summaries))
    metrics = {name: {"value": summaries[name]["median"],
                      "unit": END_TO_END[name]}
               for name in GATED if name in summaries}
    return {"iterations": iterations, "summaries": summaries,
            "metrics": metrics}


def traced_run(workload, args, reference, tmp) -> Dict[str, Any]:
    from perfbench.layers import format_table, per_layer, unit_of
    from perfbench.tracing import Tracer

    profile = probe(workload.name, tmp, args.seed, importtime=True)
    workers = os.path.join(tmp, "workers")
    os.makedirs(workers, exist_ok=True)
    tracer = Tracer(worker_dir=workers)
    spin(SPIN_SECONDS)
    pairs = [(run_iteration(workload, None, reference),
              run_iteration(workload, tracer, reference))
             for _ in range(repetitions(args.seconds,
                                        TRACED_PAIR * workload.nominal_s))]
    untraced = [pair[0] for pair in pairs]
    traced = [pair[1] for pair in pairs]
    for plain, wrapped in pairs:
        if wrapped.digest != plain.digest:
            wrapped.fail(wrapped.attempted, "traced digest differs from the "
                                            "untraced digest")
    report = per_layer(
        tracer.totals(), tracer.workers,
        traced_wall_s=sum(it.timed_s for it in traced),
        untraced_wall_s=sum(it.timed_s for it in untraced),
        iterations=len(traced),
        registry_load_s=registry_load_seconds(profile["importtime"]))
    print(format_table(report, len(tracer.workers)))
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"traceEvents": tracer.chrome_events(),
                                      "displayTimeUnit": "ms"}))
    print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    metrics = {name: {"value": report["metrics"][name],
                      "unit": unit_of(name)} for name in PER_LAYER}
    return {"iterations": untraced + traced, "layers": report,
            "metrics": metrics}


def record_reference(tmp: str) -> int:
    from perfbench.workloads import WORKLOADS, BfsDram8

    reference: Dict[str, Dict[str, str]] = {}
    for name, cls in WORKLOADS.items():
        seeds = range(BfsDram8.GRAPHS) if cls is BfsDram8 else [0]
        for seed in seeds:
            workload = cls(seed, tmp)
            result = workload.iteration()
            if result.failed:
                print(f"error: {name} seed {seed}: {result.problems}",
                      file=sys.stderr)
                return 1
            reference.setdefault(name, {})[workload.reference_key()] = \
                result.digest
            print(f"{name} [{workload.reference_key()}] {result.digest}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                         + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe_child(args.probe, os.environ["PERFBENCH_TMP"], args.seed)
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the simulator from src/: {exc}",
              file=sys.stderr)
        return 2
    if not args.record_reference and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            return record_reference(str(tmp))
        workload = WORKLOADS[args.workload](args.seed, str(tmp))
        reference = json.loads(REFERENCE.read_text()).get(
            workload.name, {}).get(workload.reference_key())
        print(f"perfbench {workload.name} seed={args.seed} "
              f"trace={args.trace}: {workload.why}")
        print("every cell builds a fresh GPU: modelled caches start empty")
        runner = traced_run if args.trace else measured_run
        outcome = runner(workload, args, reference, str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    iterations = outcome["iterations"]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    if reference is None:
        failed = attempted
        print(f"error: no reference digest for {workload.name} "
              f"[{workload.reference_key()}]", file=sys.stderr)
    for it in iterations:
        for problem in it.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    machine = fingerprint()
    print("machine: " + " ".join(f"{key}={value}"
                                 for key, value in machine.items()))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "iterations": len(iterations),
        "attempted": attempted, "failed": failed, "machine": machine,
        "summaries": outcome.get("summaries"),
        "layers": outcome.get("layers"),
    }
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": outcome["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
