"""Layer tracer: wraps the simulator's public layer boundaries from outside.

Nothing in the simulator knows about this module.  :class:`Tracer`
replaces the public methods and functions named in :data:`TARGETS` with
wrappers that time every call, subtract the time of nested wrapped calls
(so each layer gets its *self* time), count calls, and keep coarse spans
in memory for a Chrome trace-event file.  ``uninstall`` puts the original
objects back.

Install before any ``GPU`` is built: components cache bound methods at
construction, and only methods looked up after installation are wrapped.

Worker processes forked while the tracer is installed inherit the
wrappers; each one writes its own totals to ``worker_dir`` when it exits,
and :meth:`Tracer.collect_workers` merges them into the parent's report.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_ns = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    """One layer boundary: the callables whose time goes to ``metric``.

    ``owner`` names a class (every subclass that overrides one of
    ``names`` is wrapped too) or is ``None`` for module-level functions
    (patched in every ``repro`` module that imported them).  ``names``
    of ``("*",)`` means every public function the class defines.  Hot
    targets run millions of times per pass: their time is accumulated
    but no span is kept.
    """

    metric: str
    module: str
    owner: Optional[str]
    names: Tuple[str, ...]
    hot: bool = False
    hook: Optional[str] = None


ALL = ("*",)

#: The layer boundaries, grouped by the simulator package they belong to.
TARGETS: Tuple[Target, ...] = (
    Target("simt.sm_cycle", "repro.simt.core", "StreamingMultiprocessor",
           ("cycle",), hot=True),
    Target("simt.next_event", "repro.simt.core", "StreamingMultiprocessor",
           ("next_event_time",), hot=True),
    Target("simt.ldst", "repro.simt.ldst", "LoadStoreUnit",
           ("issue", "cycle"), hot=True),
    Target("simt.next_event", "repro.simt.ldst", "LoadStoreUnit",
           ("next_event_time",), hot=True),
    Target("memory.cycle", "repro.memory.subsystem", "MemorySystem",
           ("cycle",), hot=True),
    Target("memory.next_event", "repro.memory.subsystem", "MemorySystem",
           ("next_event_time",), hot=True),
    Target("memory.port", "repro.memory.subsystem", "MemorySystem",
           ("can_inject", "pop_response", "has_response"), hot=True),
    Target("memory.port", "repro.memory.subsystem", "MemorySystem",
           ("try_inject",), hot=True, hook="inject"),
    Target("memory.icnt", "repro.memory.interconnect", "Interconnect", ALL,
           hot=True),
    Target("memory.partition", "repro.memory.partition", "MemoryPartition",
           ALL, hot=True),
    Target("memory.l2", "repro.memory.l2cache", "L2Slice", ALL, hot=True),
    Target("memory.dram", "repro.memory.dram", "DramChannel", ALL, hot=True),
    Target("gpu.drive", "repro.gpu.gpu", "GPU", ("launch", "run_until_idle"),
           hook="gpu"),
    Target("gpu.drive", "repro.gpu.gpu", "GPU", ("submit",)),
    Target("gpu.collect_stats", "repro.gpu.gpu", "GPU", ("collect_stats",)),
    Target("core.tracker", "repro.core.tracker", "LatencyTracker",
           ("record_event",), hot=True, hook="tracker_event"),
    Target("core.tracker", "repro.core.tracker", "LatencyTracker",
           ("finish_request", "record_load", "note_issue_cycle"), hot=True),
    Target("core.analysis", "repro.core.breakdown", None,
           ("breakdown_from_tracker",)),
    Target("core.analysis", "repro.core.exposure", None,
           ("compute_exposure",)),
    Target("workloads.create", "repro.workloads", None, ("create_workload",)),
    Target("workloads.prepare", "repro.workloads.base", "Workload",
           ("prepare",)),
    Target("workloads.verify", "repro.workloads.base", "Workload",
           ("verify",)),
    Target("workloads.run", "repro.workloads.base", "Workload", ("run",)),
    Target("experiments.session", "repro.experiments.session", "Session",
           ("run", "run_all"), hook="cells"),
    Target("experiments.session", "repro.experiments.session", "Session",
           ("run_many",)),
    Target("experiments.pool", "repro.experiments.parallel",
           "ParallelExecutor", ("__enter__", "__exit__")),
    Target("experiments.worker_wait", "repro.experiments.parallel",
           "ParallelExecutor", ("imap",)),
    Target("experiments.serialize", "repro.experiments.results", "RunRecord",
           ("to_dict", "from_dict", "to_json", "from_json")),
    Target("experiments.serialize", "repro.experiments.results", "RunSet",
           ("to_dict", "from_dict", "to_json", "from_json")),
    Target("experiments.serialize", "repro.experiments.results", None,
           ("rehydrate_artifacts",)),
    Target("store.key", "repro.experiments.session", "Session",
           ("store_key",)),
    Target("store.get", "repro.store.base", "ResultStore", ("get",),
           hook="store_get"),
    Target("store.put", "repro.store.base", "ResultStore", ("put",)),
    Target("sensitivity.derive", "repro.sensitivity.transforms", "Transform",
           ("apply",)),
    Target("sensitivity.derive", "repro.sensitivity.transforms",
           "TransformChain", ("apply",)),
    Target("sensitivity.derive", "repro.gpu.config", "GPUConfig",
           ("derive",)),
    Target("sensitivity.assemble", "repro.sensitivity.study",
           "SensitivityStudy", ("assemble",)),
    Target("serve.broker", "repro.store.serve", "RequestBroker", ("run",),
           hook="broker"),
)

#: Modules whose subclasses must exist before installation, so that
#: every override of a wrapped method is found.
PRELOAD = (
    "repro.simt.vector",
    "repro.store.sqlite",
    "repro.store.memory",
    "repro.store.serve",
    "repro.sensitivity.atlas",
    "repro.experiments.smoke",
    "repro.experiments.parallel",
)

#: Simulated statistics summed from every kernel result, by key suffix.
STAT_SUFFIXES = {
    ".issue_idle_cycles": "stat.issue_idle",
    ".l2.hits": "stat.l2_hits",
    ".l2.misses": "stat.l2_misses",
    ".row_hits": "stat.dram_row_hits",
}


def _add(counts: Dict[str, float], name: str, amount: float) -> None:
    counts[name] = counts.get(name, 0) + amount


def _gpu_pre(args: tuple) -> int:
    return args[0].cycle


def _gpu_post(counts: Dict[str, float], args: tuple, result: Any,
              start_cycle: int) -> None:
    gpu = args[0]
    cycles = gpu.cycle - start_cycle
    _add(counts, "gpu.sim_cycles", cycles)
    _add(counts, "gpu.sm_slots", cycles * len(gpu.sms))
    _add(counts, "gpu.scheduler_slots",
         cycles * len(gpu.sms) * gpu.config.core.num_schedulers)
    for kernel in (result if isinstance(result, list) else [result]):
        _add(counts, "stat.warp_insts", kernel.instructions)
        for key, value in kernel.stats.items():
            for suffix, name in STAT_SUFFIXES.items():
                if key.endswith(suffix):
                    _add(counts, name, value)
            head, _, last = key.rpartition(".")
            if last == "requests" and head.rpartition(".")[2].startswith(
                    "dram"):
                _add(counts, "stat.dram_requests", value)


def _inject_post(counts, args, result, token) -> None:
    _add(counts, "memory.inject_ok" if result else "memory.inject_retry", 1)


def _tracker_event_post(counts, args, result, token) -> None:
    _add(counts, "core.tracker_events", 1)


def _cells_post(counts, args, result, token) -> None:
    records = getattr(result, "records", None)
    _add(counts, "experiments.cells", 1 if records is None else len(records))


def _store_get_post(counts, args, result, token) -> None:
    _add(counts, "store.hits" if result is not None else "store.misses", 1)


def _broker_post(counts, args, result, token) -> None:
    _add(counts, "serve.requests", 1)
    if result[1] == "in-flight":
        _add(counts, "serve.in_flight", 1)


#: name -> (pre(args) -> token or None, post(counts, args, result, token)).
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "gpu": (_gpu_pre, _gpu_post),
    "inject": (None, _inject_post),
    "tracker_event": (None, _tracker_event_post),
    "cells": (None, _cells_post),
    "store_get": (None, _store_get_post),
    "broker": (None, _broker_post),
}


class ThreadState:
    """Per-thread stack and totals (threads never share one)."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.tid = threading.get_ident()
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []


def _class_and_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


class Tracer:
    """Self-time accounting over :data:`TARGETS`; see the module docstring.

    ``role`` labels a thread's time: ``"work"`` (the default) is part of
    the per-layer table; ``"client"`` marks load-generator threads whose
    spans measure waiting, not work.
    """

    def __init__(self, worker_dir: Optional[str] = None,
                 targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.worker_dir = worker_dir
        self.active = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._reset_state()
        self.workers: List[Dict[str, Any]] = []
        if worker_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset_state(self) -> None:
        # Wrappers hold on to ``_local``: clear it rather than replace it.
        if not hasattr(self, "_local"):
            self._local = threading.local()
        self._local.__dict__.clear()
        self._lock = threading.Lock()
        self.states: List[ThreadState] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def state(self, role: str = "work") -> ThreadState:
        """This thread's state, created on first use with ``role``."""
        try:
            return self._local.state
        except AttributeError:
            state = ThreadState(role)
            self._local.state = state
            with self._lock:
                self.states.append(state)
            return state

    def enter(self, metric: str, keep_span: bool) -> Tuple[ThreadState,
                                                           list]:
        """Open a span of ``metric`` on this thread's stack."""
        state = self.state()
        stack = state.stack
        parent = stack[-1][3] if stack else 0
        span_id = next(self._ids) if keep_span else parent
        entry = [metric, perf_ns(), 0, span_id, parent]
        stack.append(entry)
        return state, entry

    def exit(self, state: ThreadState, entry: list) -> None:
        """Close ``entry``: charge its self time and its parent's child time."""
        end = perf_ns()
        stack = state.stack
        stack.pop()
        metric, start, child, span_id, parent = entry
        elapsed = end - start
        state.self_ns[metric] = state.self_ns.get(metric, 0) + elapsed - child
        if stack:
            stack[-1][2] += elapsed
            if stack[-1][0] == metric:
                return  # an override calling super(): one logical call
        state.calls[metric] = state.calls.get(metric, 0) + 1
        if span_id != parent:
            state.spans.append((metric, start, end, span_id, parent))

    def record(self, metric: str, start_ns: int, end_ns: int,
               role: str) -> None:
        """Record a span timed by the caller (e.g. a client request)."""
        state = self.state(role)
        state.self_ns[metric] = state.self_ns.get(metric, 0) + end_ns - start_ns
        state.calls[metric] = state.calls.get(metric, 0) + 1
        state.spans.append((metric, start_ns, end_ns, next(self._ids), 0))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        metric, keep = target.metric, not target.hot
        pre, post = HOOKS[target.hook] if target.hook else (None, None)
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        state, entry = enter(metric, keep)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            exit_(state, entry)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        if target.hot and post is None:
            return self._wrap_hot(fn, metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            state, entry = enter(metric, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(state, entry)
            if post is not None:
                post(state.counts, args, result, token)
            return result

        return wrapper

    def _wrap_hot(self, fn: Callable, metric: str) -> Callable:
        """:meth:`enter` + :meth:`exit` inlined, without spans: hot
        targets run millions of times, so every saved operation counts."""
        local, state_of, perf = self._local, self.state, perf_ns

        @functools.wraps(fn)
        def hot_wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            entry = [metric, 0, 0, stack[-1][3] if stack else 0, 0]
            entry[4] = entry[3]
            stack.append(entry)
            entry[1] = start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_ns = state.self_ns
                self_ns[metric] = self_ns.get(metric, 0) + elapsed - entry[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += elapsed
                    if parent[0] != metric:
                        calls = state.calls
                        calls[metric] = calls.get(metric, 0) + 1
                else:
                    calls = state.calls
                    calls[metric] = calls.get(metric, 0) + 1

        return hot_wrapper

    def _resolve(self, target: Target) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` for every patch of ``target``."""
        module = importlib.import_module(target.module)
        patches = []
        if target.owner is None:
            for name in target.names:
                original = getattr(module, name)
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, name, None) is original):
                        patches.append((loaded, name, original))
            return patches
        for cls in _class_and_subclasses(getattr(module, target.owner)):
            own = vars(cls)
            names = ([name for name, value in own.items()
                      if not name.startswith("_") and inspect.isfunction(value)]
                     if target.names == ALL else target.names)
            for name in names:
                if name in own:
                    patches.append((cls, name, own[name]))
        return patches

    def install(self) -> None:
        """Wrap every target (a second install before :meth:`uninstall`
        raises)."""
        if self.active:
            raise RuntimeError("tracer already installed")
        for module in PRELOAD:
            importlib.import_module(module)
        try:
            for target in self.targets:
                for owner, name, original in self._resolve(target):
                    self._patch(owner, name, original, target)
        except BaseException:
            self.uninstall()
            raise
        self.active = True

    def _patch(self, owner, name, original, target) -> None:
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self._wrap(original.__func__,
                                                    target))
        else:
            replacement = self._wrap(original, target)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every original callable, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.active = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self.active:
            return
        self._reset_state()
        self.workers = []
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        multiprocessing.util.Finalize(self, self._dump_worker, args=(path,),
                                      exitpriority=10)

    def _dump_worker(self, path: str) -> None:
        totals = self.totals()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), **totals}, handle)

    def collect_workers(self) -> None:
        """Merge (and delete) the totals written by exited workers."""
        pattern = os.path.join(self.worker_dir, "worker-*.json")
        for path in sorted(glob.glob(pattern)):
            with open(path, encoding="utf-8") as handle:
                self.workers.append(json.load(handle))
            os.remove(path)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Any]:
        """This process's totals: self seconds per role, calls, counts,
        and kept spans (as ``[metric, start_ns, end_ns, id, parent,
        tid, role]``)."""
        self_s: Dict[str, Dict[str, float]] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, float] = {}
        spans: List[list] = []
        with self._lock:
            states = list(self.states)
        for state in states:
            role = self_s.setdefault(state.role, {})
            for metric, ns in state.self_ns.items():
                role[metric] = role.get(metric, 0.0) + ns / 1e9
            for metric, n in state.calls.items():
                calls[metric] = calls.get(metric, 0) + n
            for name, value in state.counts.items():
                _add(counts, name, value)
            spans.extend(list(span) + [state.tid, state.role]
                         for span in state.spans)
        return {"self_s": self_s, "calls": calls, "counts": counts,
                "spans": spans}

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Kept spans of this process and its workers as trace events."""
        events = []
        for pid, totals in ([(os.getpid(), self.totals())]
                            + [(w["pid"], w) for w in self.workers]):
            for metric, start, end, span_id, parent, tid, role in \
                    totals["spans"]:
                events.append({
                    "name": metric, "cat": metric.split(".")[0], "ph": "X",
                    "ts": start / 1e3, "dur": (end - start) / 1e3,
                    "pid": pid, "tid": tid,
                    "args": {"id": span_id, "parent": parent, "role": role},
                })
        return events
