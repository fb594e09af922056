"""Process-parallel execution of experiment grids and serve misses.

Each spec is a pure function of its inputs — the simulator is
deterministic — so a sweep is embarrassingly parallel.  This module holds
the one worker pool, :class:`WorkerPool`, that :meth:`Session.run_all`
(through :class:`ParallelExecutor`) and ``repro serve`` (through
:class:`~repro.store.serve.RequestBroker`) both simulate in:

* workers are forked on demand, up to the pool's ``size``, and each owns
  one long-lived :class:`~repro.experiments.Session` that only simulates
  (:meth:`Session.simulate`);
* specs cross the process boundary as plain dicts over a pipe and results
  come back as record dicts plus their plain-data analysis artifacts, so
  nothing unpicklable crosses;
* :meth:`WorkerPool.run` lends one worker to one spec and turns its reply
  back into a :class:`~repro.experiments.RunRecord`, with an optional
  wall-clock budget after which the worker is killed; a worker that dies
  is reaped and the next spec forks a replacement;
* :meth:`ParallelExecutor.imap` lends every worker at once, with no
  budget, and streams results back in completion order, while
  :meth:`ParallelExecutor.run` and :meth:`Session.run_all` reassemble
  them in submission order, so the merged
  :class:`~repro.experiments.RunSet` is byte-identical to a serial run;
* the result store never enters the pool: the parent looks each spec up
  (:meth:`Session.lookup`) before it reaches a worker and adopts each
  simulated record (:meth:`Session.adopt`), keeping the store
  single-writer.

Typical usage goes through the session front door::

    runs = Session().run_all(Experiment.grid(...), jobs=4)

Workers are forked where the platform supports it (so runtime
``register_config``/``register_workload`` calls made by the parent are
visible to them); under ``spawn`` only import-time registrations and the
explicitly passed session-local configs carry over.  Workers ignore
SIGINT: Ctrl-C signals the whole process group, and the parent stops its
workers itself when the pool closes.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.results import RunRecord, RunSet, light_artifacts
from repro.experiments.spec import Experiment
from repro.gpu.config import GPUConfig
from repro.utils.errors import ExperimentError

def default_jobs() -> int:
    """The default worker count: the machine's CPU count (at least 1)."""
    return max(os.cpu_count() or 1, 1)


def _start_method() -> str:
    """The default start method for worker processes.

    On Linux we prefer ``fork``: it is cheap and workers inherit runtime
    ``register_config``/``register_workload`` calls.  Elsewhere the
    platform default is used (``fork`` is unreliable with threads on
    macOS and unavailable on Windows), so under ``spawn`` only
    import-time registrations and explicitly passed session-local
    configs reach the workers.
    """
    methods = multiprocessing.get_all_start_methods()
    if sys.platform.startswith("linux") and "fork" in methods:
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


#: How often (seconds) a pool worker checks that its parent is alive.
_PARENT_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    """Exit this process once its parent is gone.

    A parent killed outright (SIGKILL) never shuts its pool down, and its
    workers are re-parented; polling ``os.getppid`` catches that.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_main(conn, configs: Dict[str, GPUConfig],
                 core: Optional[str]) -> None:
    """Body of one pool worker: simulate each spec dict it is sent.

    The worker builds one long-lived session and only simulates
    (:meth:`Session.simulate`); the parent looks specs up and adopts the
    records.  It replies ``(True, (record dict, light artifacts))`` — the
    record as data plus its plain-data analysis objects — or ``(False,
    "ErrorType: message")``.  ``None`` (or the parent closing the pipe)
    ends it, and so does the parent dying without closing the pool.
    """
    from repro.experiments.session import Session  # deferred: avoid cycle

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-orphan-watch", daemon=True).start()
    session = Session(configs=configs, core=core)
    while True:
        try:
            spec_dict = conn.recv()
        except EOFError:
            return
        if spec_dict is None:
            return
        try:
            record = session.simulate(Experiment.from_dict(spec_dict))
            reply = (True, (record.to_dict(),
                            light_artifacts(record.artifacts)))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        conn.send(reply)


#: Seconds a stopping worker gets to exit on its own before it is killed.
_STOP_GRACE_S = 5


class WorkerError(ExperimentError):
    """A pooled simulation that returned no record; ``reason`` is
    ``"raised"``, ``"died"`` (see ``exitcode``), ``"budget"`` or
    ``"closed"``."""

    def __init__(self, reason: str, message: str,
                 exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.exitcode = exitcode


class _Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, context, configs, core) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child, configs, core),
            name="repro-worker", daemon=True)
        self.process.start()
        child.close()

    def reap(self, kill: bool) -> None:
        """Kill (or ask to stop) and join the process; close the pipe."""
        if not kill:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(_STOP_GRACE_S)
        self.process.kill()  # a no-op once the process is reaped
        self.process.join()
        self.conn.close()


class WorkerPool:
    """Long-lived simulation workers, forked on demand up to :attr:`size`.

    Each worker builds one session with the given session-local
    ``configs`` and ``core`` (as they are when it forks).  A worker is
    idle or lent to exactly one :meth:`run` call.  A lent worker is
    reaped only by the thread it is lent to and an idle one only by
    :meth:`close`, so no two threads ever join one process; a worker
    keeps its slot until it is reaped, so at most ``size`` workers are
    ever alive.  ``size`` defaults to :func:`default_jobs`.
    """

    def __init__(self, configs: Optional[Mapping[str, GPUConfig]] = None,
                 core: Optional[str] = None,
                 size: Optional[int] = None) -> None:
        self.size = size or default_jobs()
        self._args = (dict(configs or {}), core)
        self._context = multiprocessing.get_context(_start_method())
        self._ready = threading.Condition()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._closed = False

    def run(self, spec_dict: Dict[str, Any], budget: Optional[float] = None
            ) -> RunRecord:
        """Simulate one spec in a worker; returns its record, carrying
        the plain-data analysis artifacts but no live simulator state.

        Waits for an idle worker (or forks one) first.  Raises
        :class:`WorkerError` when the simulation raised, the worker died,
        the worker was still busy after ``budget`` seconds (it is
        killed; ``None`` waits forever) or the pool is closed.
        """
        worker = self._acquire()
        reply = None
        timed_out = False
        try:
            worker.conn.send(spec_dict)
            timed_out = not worker.conn.poll(budget)
            if not timed_out:
                reply = worker.conn.recv()
        except (EOFError, OSError):
            pass  # the worker died: reply stays None
        finally:
            if reply is None:
                self._retire(worker, kill=True)
            else:
                self._release(worker)
        if timed_out:
            raise WorkerError("budget", f"simulation exceeded the "
                                        f"{budget:g} s request budget; its "
                                        f"worker was stopped")
        if reply is None:
            if self._closed:
                raise WorkerError("closed", "worker pool is closed")
            exitcode = worker.process.exitcode
            raise WorkerError("died", f"worker process ended while "
                                      f"simulating (exit code {exitcode})",
                              exitcode)
        ok, result = reply
        if not ok:
            raise WorkerError("raised", result)
        record_dict, artifacts = result
        record = RunRecord.from_dict(record_dict)
        record.artifacts.update(artifacts)
        return record

    def _acquire(self) -> _Worker:
        with self._ready:
            while True:
                if self._closed:
                    raise WorkerError("closed", "worker pool is closed")
                if self._idle:
                    return self._idle.pop()
                if len(self._workers) < self.size:
                    worker = _Worker(self._context, *self._args)
                    self._workers.append(worker)
                    return worker
                self._ready.wait()

    def _release(self, worker: _Worker) -> None:
        with self._ready:
            if not self._closed:
                self._idle.append(worker)
                self._ready.notify()
                return
        self._retire(worker, kill=False)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        worker.reap(kill)
        with self._ready:
            self._workers.remove(worker)
            self._ready.notify_all()

    def close(self) -> None:
        """Stop every worker and wait until all are reaped (idempotent).

        Idle workers are asked to exit; busy ones are killed, and the
        thread each is lent to reaps it and raises ``"closed"``.
        """
        with self._ready:
            self._closed = True
            idle, self._idle = self._idle, []
            busy = [worker for worker in self._workers
                    if worker not in idle]
            self._ready.notify_all()
        for worker in busy:
            worker.process.kill()
        for worker in idle:
            self._retire(worker, kill=False)
        with self._ready:
            while self._workers:
                self._ready.wait()


@dataclass(frozen=True)
class CompletedRun:
    """One experiment's result as it streams back from the pool.

    ``index`` is the position of the experiment in the submitted list,
    ``spec_hash`` the :meth:`Experiment.spec_hash` of its spec, and
    ``record`` the artifact-free :class:`RunRecord` rebuilt in the parent.
    """

    index: int
    spec_hash: str
    record: RunRecord


class ParallelExecutor:
    """Shard experiments across a :class:`WorkerPool` of ``jobs`` workers.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to :func:`default_jobs`.  ``jobs=1``
        still goes through a (single-worker) pool, which is mainly useful
        for testing the machinery; callers that want a true in-process
        serial run should use :meth:`Session.run_all` with ``jobs=1``.
    configs:
        Session-local configuration overrides to install in every worker's
        session (the parallel analogue of :meth:`Session.add_config`).
    core:
        Optional core-backend name propagated into every worker's
        session (see :class:`~repro.experiments.session.Session`).

    The pool is built on first use and reused by every :meth:`imap` and
    :meth:`run` until :meth:`shutdown` (or ``__exit__``) closes it.
    """

    def __init__(self, jobs: Optional[int] = None,
                 configs: Optional[Mapping[str, GPUConfig]] = None,
                 core: Optional[str] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self._configs = dict(configs or {})
        self._core = core
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        self._ensure_pool()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self._configs, self._core,
                                    size=self.jobs)
        return self._pool

    def shutdown(self) -> None:
        """Stop the worker pool and reap every worker (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def imap(self, experiments: Iterable[Union[Experiment, Mapping[str, Any]]]
             ) -> Iterator[CompletedRun]:
        """Run experiments, yielding :class:`CompletedRun` as they finish.

        Results arrive in **completion** order — use the ``index`` field
        (or :meth:`run`, which does it for you) to restore submission
        order.  One thread per worker lends it spec after spec.  A
        failure in any worker, or the caller leaving the loop early,
        cancels the remaining work, shuts the pool down (killing the
        busy workers) and, for a failure, raises :class:`ExperimentError`
        naming the failing spec; a worker process that dies outright
        (crash, kill) surfaces the same way instead of hanging the parent.
        """
        specs = [experiment if isinstance(experiment, Experiment)
                 else Experiment.from_dict(experiment)
                 for experiment in experiments]
        if not specs:
            return
        pool = self._ensure_pool()
        todo: "queue.SimpleQueue[int]" = queue.SimpleQueue()
        for index in range(len(specs)):
            todo.put(index)
        done: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()

        def lend() -> None:
            while True:
                try:
                    index = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    done.put((index, pool.run(specs[index].to_dict()), None))
                except Exception as exc:  # e.g. a fork that failed
                    done.put((index, None, exc))
                    return

        lenders = [threading.Thread(target=lend, name="repro-lender",
                                    daemon=True)
                   for _ in range(min(self.jobs, len(specs)))]
        for lender in lenders:
            lender.start()
        received = 0
        try:
            while received < len(specs):
                index, result, error = done.get()
                received += 1
                if error is not None:
                    raise self._failure(specs[index], error) from error
                yield CompletedRun(index=index,
                                   spec_hash=specs[index].spec_hash(),
                                   record=result)
        finally:
            while True:  # cancel what no worker has taken yet
                try:
                    todo.get_nowait()
                except queue.Empty:
                    break
            if received < len(specs):
                self.shutdown()
            for lender in lenders:
                lender.join()

    @staticmethod
    def _failure(spec: Experiment, error: Exception) -> ExperimentError:
        if getattr(error, "reason", None) == "died":
            return ExperimentError(
                f"worker process died during parallel execution while "
                f"simulating {spec.describe()!r} "
                f"(exit code {error.exitcode})")
        return ExperimentError(f"worker failed on {spec.describe()!r}: "
                               f"{error}")

    def run(self, experiments: Iterable[Union[Experiment, Mapping[str, Any]]]
            ) -> RunSet:
        """Run experiments and return their records in submission order."""
        indexed: List[Tuple[int, RunRecord]] = [
            (done.index, done.record) for done in self.imap(experiments)
        ]
        return RunSet.from_indexed(indexed)
