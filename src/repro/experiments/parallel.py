"""Process-parallel execution of experiment grids.

:class:`Experiment.grid` expands an ablation study into dozens of
independent specs, and each spec is a pure function of its inputs — the
simulator is deterministic — so a sweep is embarrassingly parallel.  This
module shards a list of experiments across a pool of worker processes:

* each worker owns one **long-lived** :class:`~repro.experiments.Session`
  (created once by the pool initializer), so GPU/workload construction
  machinery, registry lookups, and the worker-local result cache are
  reused across every spec assigned to that worker;
* specs cross the process boundary as plain dicts and results come back
  as artifact-free record dicts keyed by :meth:`Experiment.spec_hash`,
  so nothing unpicklable (live GPUs, trackers) ever crosses;
* results **stream back in completion order** (:meth:`ParallelExecutor.imap`)
  for progress reporting, while :meth:`ParallelExecutor.run` and
  :meth:`Session.run_all` reassemble them in *submission* order, so the
  merged :class:`~repro.experiments.RunSet` is byte-identical to a serial
  run regardless of worker count or completion timing;
* the persistent result store (:mod:`repro.store`) never enters the
  pool: :meth:`Session.run_all` serves store hits in the parent before
  sharding (only genuine misses cross a process boundary) and writes
  completed records through from the parent's streaming loop, keeping
  the store single-writer even under ``--jobs N``.

Typical usage goes through the session front door::

    session = Session()
    runs = session.run_all(Experiment.grid(...), jobs=4)

but the executor can also be driven directly::

    with ParallelExecutor(jobs=4) as executor:
        for done in executor.imap(experiments):
            print(done.index, done.record.summary())

Worker processes are forked where the platform supports it (so runtime
``register_config``/``register_workload`` calls made by the parent are
visible to workers); under the ``spawn`` start method only import-time
registrations and the explicitly passed session-local configs carry over.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
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

#: The per-process session owned by each pool worker.  Module-level so the
#: pool initializer can build it once and every task reuses it.
_WORKER_SESSION = None


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


def _init_worker(configs: Dict[str, GPUConfig],
                 core: Optional[str] = None) -> None:
    """Pool initializer: build this worker's long-lived session once.

    Also starts a daemon thread that ends the worker if the parent dies
    without shutting the pool down.
    """
    global _WORKER_SESSION
    from repro.experiments.session import Session  # deferred: avoid cycle

    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-orphan-watch", daemon=True).start()
    _WORKER_SESSION = Session(cache=True, configs=configs, core=core)


def _run_in_worker(
    spec_dict: Dict[str, Any]
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Run one spec on this worker's session; returns its result as data.

    The return value is ``(spec hash, record dict, light artifacts)``:
    the record's ``to_dict`` form plus the plain-data analysis objects
    (breakdown, exposure, table, surface, hierarchy — everything except
    the live GPU/workload state), keyed by the spec's content hash so the
    parent can merge it into its own cache without trusting completion
    order.
    """
    session = _WORKER_SESSION
    if session is None:  # pool built without initializer (defensive)
        from repro.experiments.session import Session

        session = Session(cache=True)
    experiment = Experiment.from_dict(spec_dict)
    record = session.run(experiment)
    return (experiment.spec_hash(), record.to_dict(),
            light_artifacts(record.artifacts))


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
    """Shard experiments across a pool of worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to :func:`default_jobs`.  ``jobs=1``
        still goes through a (single-worker) pool, which is mainly useful
        for testing the machinery; callers that want a true in-process
        serial run should use :meth:`Session.run` directly.
    configs:
        Session-local configuration overrides to install in every worker's
        session (the parallel analogue of :meth:`Session.add_config`).
    mp_context:
        Optional :mod:`multiprocessing` context (or start-method name)
        overriding the platform default (``fork`` where available).
    core:
        Optional core-backend name propagated into every worker's
        session (see :class:`~repro.experiments.session.Session`).
    """

    def __init__(self, jobs: Optional[int] = None,
                 configs: Optional[Mapping[str, GPUConfig]] = None,
                 mp_context: Union[str, Any, None] = None,
                 core: Optional[str] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self._configs = dict(configs or {})
        self._core = core
        if mp_context is None:
            mp_context = _start_method()
        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp_context = mp_context
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        self._ensure_pool()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=self._mp_context,
                initializer=_init_worker,
                initargs=(self._configs, self._core),
            )
        return self._pool

    def shutdown(self) -> None:
        """Tear the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def imap(self, experiments: Iterable[Union[Experiment, Mapping[str, Any]]]
             ) -> Iterator[CompletedRun]:
        """Run experiments, yielding :class:`CompletedRun` as they finish.

        Results arrive in **completion** order — use the ``index`` field
        (or :meth:`run`, which does it for you) to restore submission
        order.  A failure in any worker cancels the remaining work and
        re-raises as :class:`ExperimentError` naming the failing spec; a
        worker process that dies outright (crash, kill) surfaces the same
        way instead of hanging the parent.
        """
        specs = [experiment if isinstance(experiment, Experiment)
                 else Experiment.from_dict(experiment)
                 for experiment in experiments]
        if not specs:
            return
        pool = self._ensure_pool()
        futures = {
            pool.submit(_run_in_worker, spec.to_dict()): index
            for index, spec in enumerate(specs)
        }
        try:
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    spec_hash, record_dict, artifacts = future.result()
                except concurrent.futures.process.BrokenProcessPool as exc:
                    # A dead worker breaks every outstanding future at
                    # once, so the spec that actually killed it cannot be
                    # identified — name one and say how many are in doubt.
                    outstanding = sum(1 for f in futures if not f.done())
                    raise ExperimentError(
                        f"worker process died during parallel execution "
                        f"(one of {outstanding + 1} outstanding spec(s), "
                        f"e.g. {specs[index].describe()!r}): {exc}"
                    ) from exc
                except Exception as exc:
                    raise ExperimentError(
                        f"worker failed on {specs[index].describe()!r}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                record = RunRecord.from_dict(record_dict)
                record.artifacts.update(artifacts)
                yield CompletedRun(index=index, spec_hash=spec_hash,
                                   record=record)
        finally:
            for future in futures:
                future.cancel()

    def run(self, experiments: Iterable[Union[Experiment, Mapping[str, Any]]]
            ) -> RunSet:
        """Run experiments and return their records in submission order."""
        indexed: List[Tuple[int, RunRecord]] = [
            (done.index, done.record) for done in self.imap(experiments)
        ]
        return RunSet.from_indexed(indexed)
