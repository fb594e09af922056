"""The Session facade: one programmatic front door over the simulator.

A :class:`Session` owns everything the CLI, examples, and benchmarks used
to hand-wire per call site: GPU construction from registered (or
session-local) configurations, workload instantiation with validated
parameters, tracker lifetime, the paper's three analyses, and a result
cache keyed by the experiment's canonical spec so repeated runs are free.

Typical usage::

    from repro.experiments import Experiment, Session

    session = Session()
    table = session.run(Experiment.static())              # Table I
    sweep = session.run(Experiment.sweep("gf106"))        # hierarchy
    bfs = session.run(Experiment.dynamic(
        "gf100", "bfs", num_nodes=2048, avg_degree=8))    # Figures 1/2
    print(bfs.breakdown.format_table())
    runs = session.run_many(Experiment.grid(
        kind="dynamic", configs=["gf100", "gk104"], workloads=["bfs"],
        params={"num_nodes": [512, 1024]}))
    runs.to_json()                                        # persist
"""

from __future__ import annotations

import inspect
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Union,
)

from repro.core.breakdown import breakdown_from_tracker
from repro.core.exposure import compute_exposure
from repro.core.hierarchy import infer_hierarchy
from repro.core.pointer_chase import default_footprints, sweep_chase_latency
from repro.core.static import measure_generation, TableIResult
from repro.experiments.results import (
    RunRecord,
    RunSet,
    breakdown_to_dict,
    exposure_to_dict,
    launch_to_dict,
    light_artifacts,
    rehydrate_artifacts,
    scenario_launch_to_dict,
    sweep_to_dict,
    table_to_dict,
)
from repro.experiments.spec import (
    KIND_PARAMS,
    Experiment,
    coerce_workload_params,
    split_dynamic_params,
)
from repro.gpu import GPU, get_config, table_i_generations
from repro.gpu.config import GPUConfig
from repro.simt.backend import core_backend_is_exact
from repro.utils.errors import ExperimentError
from repro.workloads import create_workload
from repro.workloads.base import Workload


def _param(experiment: Experiment, name: str) -> Any:
    """An experiment parameter, falling back to the kind's default."""
    if name in experiment.params and experiment.params[name] is not None:
        return experiment.params[name]
    return KIND_PARAMS[experiment.kind][name][1]


def _progress_notifier(progress: Optional[Callable]) -> Callable:
    """Adapt a user progress callback to the 4-arg notify convention.

    New-style callbacks take ``(done, total, record, source)`` where
    ``source`` is ``"cache"``, ``"store"``, or ``"simulated"``; legacy
    3-arg callbacks (and anything whose signature cannot be inspected)
    are called without the source, so existing callers keep working.
    """
    if progress is None:
        return lambda done, total, record, source: None
    wants_source = False
    try:
        parameters = inspect.signature(progress).parameters.values()
        positional = sum(
            1 for parameter in parameters
            if parameter.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                  inspect.Parameter.POSITIONAL_OR_KEYWORD))
        variadic = any(
            parameter.kind is inspect.Parameter.VAR_POSITIONAL
            for parameter in parameters)
        wants_source = variadic or positional >= 4
    except (TypeError, ValueError):
        wants_source = False
    if wants_source:
        return progress

    def notify(done: int, total: int, record: RunRecord,
               source: str) -> None:
        progress(done, total, record)

    return notify


class Session:
    """Facade that runs :class:`Experiment` specs and caches the results.

    Parameters
    ----------
    cache:
        When ``True`` (the default), results are memoized by the
        experiment's canonical JSON spec, so running the same experiment
        twice returns a :class:`RunRecord` without re-simulating.  Cached
        records keep the analysis artifacts (``breakdown``, ``exposure``,
        ``table``, ...) but drop the live simulator state (``gpu``,
        ``workload``, ``results``) so a long session does not pin one
        full GPU per distinct experiment; the record returned by the
        *first* (miss) run carries everything.
    configs:
        Optional session-local configuration overrides: a mapping of name
        to :class:`GPUConfig` consulted before the global registry.  Use
        :meth:`add_config` to add ad-hoc variants (ablation studies).
    core:
        Optional simulation-core backend name: ``"reference"``,
        ``"fast"``, ``"vector"`` (an alias of ``"fast"``),
        ``"estimator"``, or anything registered through
        :func:`~repro.simt.backend.register_core_backend`.  When set,
        every configuration this session resolves runs on that backend;
        when ``None`` (the default) each configuration's own
        ``core_backend`` field decides.  This is the programmatic face
        of the CLI's ``--core`` flag.
    store:
        Optional persistent result store: a
        :class:`~repro.store.ResultStore` instance, or a target string /
        path for :func:`~repro.store.open_store` (``results.sqlite``,
        ``sqlite:/path/to.db``, ``memory:name``).  With a store attached
        the session reads through it before simulating and writes every
        fresh result back, so sweeps survive process restarts: a re-run
        simulates only what the store does not already hold for the
        current code version.  Store hits are counted separately from
        in-memory cache hits (see :meth:`counters`).
    """

    def __init__(self, cache: bool = True,
                 configs: Optional[Mapping[str, GPUConfig]] = None,
                 core: Optional[str] = None,
                 store: Union[None, str, os.PathLike, Any] = None) -> None:
        self.cache_enabled = cache
        self.core = core
        self._cache: Dict[str, RunRecord] = {}
        self._local_configs: Dict[str, GPUConfig] = dict(configs or {})
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.simulated_runs = 0
        if isinstance(store, (str, os.PathLike)):
            # Deferred import: repro.store pulls in repro.experiments.
            from repro.store import open_store

            store = open_store(os.fspath(store))
        self.store = store

    # ------------------------------------------------------------------
    # Session-local configurations
    # ------------------------------------------------------------------
    def add_config(self, config: GPUConfig,
                   name: Optional[str] = None) -> str:
        """Register ``config`` for this session only; returns its name.

        Session-local configurations shadow same-named registry entries
        for experiments run through this session, which makes ad-hoc
        ablation variants (``config.replace(...)``) first-class without
        touching the global registry.
        """
        resolved = name or config.name
        self._local_configs[resolved] = config
        return resolved

    def resolve_config(self, name: str) -> GPUConfig:
        """Session-local configuration if present, else the registry's."""
        if name in self._local_configs:
            config = self._local_configs[name]
        else:
            config = get_config(name)
        if self.core is not None and config.core_backend != self.core:
            config = config.replace(core_backend=self.core)
        return config

    # ------------------------------------------------------------------
    # Running experiments
    # ------------------------------------------------------------------
    def run(self, experiment: Union[Experiment, Mapping[str, Any]],
            use_cache: bool = True) -> RunRecord:
        """Run one experiment (spec object or plain dict) to a RunRecord."""
        if not isinstance(experiment, Experiment):
            experiment = Experiment.from_dict(experiment)
        record, _source = self._resolve(experiment, use_cache)
        return record

    def _resolve(self, experiment: Experiment,
                 use_cache: bool) -> tuple:
        """Resolve one spec to ``(record, source)``.

        Resolution order: :meth:`lookup` (in-memory cache, then the
        persistent store), then simulation, whose record :meth:`adopt`
        writes through to the store so a later run, or another process,
        finds the result.
        """
        record, source = self.lookup(experiment, use_cache)
        if record is None:
            runner = {
                "static": self._run_static,
                "sweep": self._run_sweep,
                "dynamic": self._run_dynamic,
                "scenario": self._run_scenario,
            }[experiment.kind]
            record = runner(experiment)
            self.adopt(experiment, record)
            source = "simulated"
        return record, source

    def lookup(self, experiment: Experiment, use_cache: bool = True,
               store_key=None) -> tuple:
        """Find ``experiment``'s record without simulating it.

        Returns ``(record, "cache")`` or ``(record, "store")`` on a hit,
        rehydrating store records' artifacts so they print like fresh
        runs, and ``(None, None)`` on a miss, which the caller resolves
        by simulating and passing the record to :meth:`adopt`.
        ``use_cache=False`` skips both reads (a forced re-run).
        ``store_key`` spares recomputing a key the caller already holds.
        """
        key = self._cache_key(experiment)
        if self.cache_enabled and use_cache and key in self._cache:
            self.cache_hits += 1
            return self._cache[key], "cache"
        self.cache_misses += 1
        if self.store is not None and use_cache:
            stored = self.store.get(store_key
                                    or self.store_key(experiment))
            if stored is not None:
                self.store_hits += 1
                record = rehydrate_artifacts(RunRecord.from_dict(stored))
                if self.cache_enabled:
                    self._cache[key] = record
                return record, "store"
            self.store_misses += 1
        return None, None

    def adopt(self, experiment: Experiment, record: RunRecord,
              store_key=None) -> None:
        """Take in a freshly simulated record of ``experiment``.

        Counts the simulation, writes the record through to the store
        (always, so a forced re-run refreshes it rather than bypassing
        it) and caches its light form.  Records simulated here, in a
        :meth:`run_all` worker or in a ``repro serve`` worker all pass
        through this one step.
        """
        self.simulated_runs += 1
        if self.store is not None:
            self.store.put(store_key or self.store_key(experiment),
                           record.to_dict())
        if self.cache_enabled:
            self._cache[self._cache_key(experiment)] = \
                self._cacheable(record)

    def run_many(self, experiments: Iterable[Union[Experiment,
                                                   Mapping[str, Any]]],
                 use_cache: bool = True) -> RunSet:
        """Run several experiments; returns their records as a RunSet."""
        return RunSet(records=[self.run(experiment, use_cache=use_cache)
                               for experiment in experiments])

    def run_all(self, experiments: Iterable[Union[Experiment,
                                                  Mapping[str, Any]]],
                jobs: Optional[int] = 1, use_cache: bool = True,
                progress: Optional[Callable[[int, int, RunRecord], None]]
                = None) -> RunSet:
        """Run several experiments, optionally across worker processes.

        With ``jobs`` of ``None``/``0``/``1`` this is a plain serial
        :meth:`run_many`.  With ``jobs > 1`` the specs are deduplicated,
        parent-cache hits are served locally, and the remaining unique
        specs are sharded across a pool of worker processes, each owning a
        long-lived session (see :class:`~repro.experiments.parallel
        .ParallelExecutor`).  Workers return plain-data records (plus
        their picklable analysis artifacts) keyed by spec hash; the
        parent merges them into its own result cache, so a later
        :meth:`run` of the same spec is a cache hit.  The returned
        :class:`RunSet` is ordered by submission index and serializes
        byte-identically to the serial result regardless of worker count
        or completion order.

        ``progress``, if given, is called as ``progress(done, total,
        record, source)`` each time a record resolves, where ``source``
        is ``"cache"``, ``"store"``, or ``"simulated"``; callbacks that
        accept only three positional arguments are called without the
        source.

        With a persistent store attached, store hits (including those
        for specs whose simulation another process already completed)
        are served in the parent without ever reaching the worker pool —
        only genuine misses cross a process boundary — and every
        simulated result is written through to the store as it streams
        back, so an interrupted parallel sweep keeps each completed
        cell.
        """
        specs = [experiment if isinstance(experiment, Experiment)
                 else Experiment.from_dict(experiment)
                 for experiment in experiments]
        total = len(specs)
        notify = _progress_notifier(progress)
        if jobs is None or jobs <= 1:
            records = []
            for spec in specs:
                record, source = self._resolve(spec, use_cache)
                records.append(record)
                notify(len(records), total, record, source)
            return RunSet(records=records)

        from repro.experiments.parallel import ParallelExecutor

        records_by_index: List[Optional[RunRecord]] = [None] * total
        done = 0
        # Serve parent-cache and store hits locally and dedupe the misses
        # by spec hash, so each distinct simulation runs exactly once no
        # matter how often it appears in the grid, and only genuine store
        # misses are sharded across the worker pool.
        pending: Dict[str, List[int]] = {}
        # Store-served records for cache-disabled sessions: duplicates of
        # an already-served spec must not re-read (or re-count) the store
        # entry once per occurrence differently from the serial path.
        store_served: Dict[str, RunRecord] = {}
        for index, spec in enumerate(specs):
            key = self._cache_key(spec)
            if self.cache_enabled and use_cache and key in self._cache:
                self.cache_hits += 1
                records_by_index[index] = self._cache[key]
                done += 1
                notify(done, total, self._cache[key], "cache")
                continue
            spec_hash = spec.spec_hash()
            if spec_hash in pending:
                pending[spec_hash].append(index)
                continue
            if spec_hash in store_served:
                self.cache_misses += 1
                self.store_hits += 1
                records_by_index[index] = store_served[spec_hash]
                done += 1
                notify(done, total, store_served[spec_hash], "store")
                continue
            if self.store is not None and use_cache:
                stored = self.store.get(self.store_key(spec))
                if stored is not None:
                    self.cache_misses += 1
                    self.store_hits += 1
                    record = rehydrate_artifacts(
                        RunRecord.from_dict(stored))
                    if self.cache_enabled:
                        self._cache[key] = record
                    else:
                        store_served[spec_hash] = record
                    records_by_index[index] = record
                    done += 1
                    notify(done, total, record, "store")
                    continue
                self.store_misses += 1
            pending[spec_hash] = [index]
        if pending:
            unique = [specs[indices[0]] for indices in pending.values()]
            with ParallelExecutor(jobs=jobs,
                                  configs=self._local_configs,
                                  core=self.core) as executor:
                for completed in executor.imap(unique):
                    indices = pending[completed.spec_hash]
                    record = completed.record
                    # Write through before announcing progress, so any
                    # observer of the progress stream (or a crash right
                    # after it) finds the cell durably stored.
                    self.adopt(specs[indices[0]], record)
                    # Counter parity with the serial path: with caching
                    # active, one miss plus a hit per deduplicated
                    # occurrence; with it off, every occurrence would
                    # have been a miss.
                    if self.cache_enabled and use_cache:
                        self.cache_misses += 1
                        self.cache_hits += len(indices) - 1
                    else:
                        self.cache_misses += len(indices)
                    for index in indices:
                        records_by_index[index] = record
                        done += 1
                        notify(done, total, record, "simulated")
        return RunSet(records=list(records_by_index))

    def run_json(self, text: str, use_cache: bool = True,
                 jobs: Optional[int] = 1,
                 progress: Optional[Callable[[int, int, RunRecord], None]]
                 = None) -> RunSet:
        """Run experiment spec(s) from a JSON string (object or array)."""
        import json

        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ExperimentError(f"invalid experiment JSON: {exc}") from exc
        if isinstance(data, Mapping):
            data = [data]
        if not isinstance(data, list):
            raise ExperimentError(
                "experiment JSON must be an object or an array of objects"
            )
        return self.run_all(data, use_cache=use_cache, jobs=jobs,
                            progress=progress)

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the session result cache."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
        }

    def counters(self) -> Dict[str, int]:
        """All resolution counters: memory cache, store, and simulations.

        ``simulated`` counts actual simulator invocations (including
        those sharded to worker processes); ``store_hits`` +
        ``store_misses`` only move when a store is attached.  A warmed
        store shows up here as ``simulated == 0`` on a repeat run.
        """
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "simulated": self.simulated_runs,
        }

    def store_key(self, experiment: Union[Experiment, Mapping[str, Any]]):
        """The content-addressed store key of ``experiment`` here and now.

        "Here and now" because two of the three components are
        session/state dependent: ``config_hash`` fingerprints the
        *resolved* configurations (session-local overrides and all) and
        ``code_version`` fingerprints the currently installed simulator
        source.  Only ``spec_hash`` is a pure function of the spec.
        """
        from repro.store import StoreKey, config_fingerprint, code_version

        if not isinstance(experiment, Experiment):
            experiment = Experiment.from_dict(experiment)
        names = list(experiment.configs)
        if experiment.kind == "static" and not names:
            names = table_i_generations()
        return StoreKey(
            spec_hash=experiment.spec_hash(),
            config_hash=config_fingerprint(
                self.resolve_config(name) for name in names),
            code_version=code_version(),
        )

    def clear_cache(self) -> None:
        """Drop all cached results (counters are kept)."""
        self._cache.clear()

    def _cacheable(self, record: RunRecord) -> RunRecord:
        # Live simulator state is dropped from cached records so a session
        # does not pin one full GPU (global-memory backing store, tracker
        # records, ...) per grid point; the analysis objects and the JSON
        # payload — what makes reruns free — are kept.
        light = light_artifacts(record.artifacts)
        if len(light) == len(record.artifacts):
            return record
        return RunRecord(
            experiment=record.experiment,
            kind=record.kind,
            total_cycles=record.total_cycles,
            launches=record.launches,
            payload=record.payload,
            artifacts=light,
        )

    def _cache_key(self, experiment: Experiment) -> str:
        key = experiment.cache_key()
        # Session-local configs change what a name means, so their full
        # (deterministic dataclass) repr joins the key.  A static
        # experiment with no explicit configs resolves the Table I
        # generations, so those names count too.
        names = list(experiment.configs)
        if experiment.kind == "static" and not names:
            names = table_i_generations()
        for name in names:
            if name in self._local_configs:
                key += f"|{name}={self._local_configs[name]!r}"
        return key

    # ------------------------------------------------------------------
    # Kind-specific runners
    # ------------------------------------------------------------------
    def _run_static(self, experiment: Experiment) -> RunRecord:
        names = list(experiment.configs) or table_i_generations()
        stride = _param(experiment, "stride")
        accesses = _param(experiment, "accesses")
        table = TableIResult(generations=[
            measure_generation(self.resolve_config(name),
                               stride_bytes=stride,
                               measure_accesses=accesses)
            for name in names
        ])
        return RunRecord(
            experiment=experiment.to_dict(),
            kind="static",
            payload=table_to_dict(table),
            artifacts={"table": table},
        )

    def _run_sweep(self, experiment: Experiment) -> RunRecord:
        config = self.resolve_config(experiment.configs[0])
        stride = _param(experiment, "stride")
        space = _param(experiment, "space")
        accesses = _param(experiment, "accesses")
        footprints = experiment.params.get("footprints")
        if not footprints:
            footprints = default_footprints(config)
        surface = sweep_chase_latency(
            config, footprints, strides=[stride], space=space,
            measure_accesses=accesses,
        )
        hierarchy = infer_hierarchy(surface, stride_bytes=stride)
        return RunRecord(
            experiment=experiment.to_dict(),
            kind="sweep",
            payload=sweep_to_dict(surface, hierarchy),
            artifacts={"surface": surface, "hierarchy": hierarchy},
        )

    def _run_dynamic(self, experiment: Experiment) -> RunRecord:
        session_params, workload_params = split_dynamic_params(
            experiment.params)
        workload_kwargs = coerce_workload_params(experiment.workload,
                                                 workload_params)
        buckets = session_params.get(
            "buckets", KIND_PARAMS["dynamic"]["buckets"][1])
        verify = session_params.get(
            "verify", KIND_PARAMS["dynamic"]["verify"][1])
        config = self.resolve_config(experiment.configs[0])
        gpu = GPU(config)
        workload = create_workload(experiment.workload, **workload_kwargs)
        results = workload.run(gpu)
        if verify and not workload.verify(gpu):
            raise ExperimentError(
                f"workload {experiment.workload!r} failed verification on "
                f"{config.name!r}"
            )
        breakdown = breakdown_from_tracker(gpu.tracker, num_buckets=buckets)
        exposure = compute_exposure(gpu.tracker, num_buckets=buckets)
        payload = {
            "config": config.name,
            "workload": experiment.workload,
            "verified": bool(verify),
            "breakdown": breakdown_to_dict(breakdown),
            "exposure": exposure_to_dict(exposure),
        }
        # Approximate backends label their results so nothing downstream
        # mistakes estimated cycle counts for exact ones.  Exact backends
        # add no key: their payloads stay byte-identical to each other
        # (and to records produced before backends existed).
        if not core_backend_is_exact(config.core_backend):
            payload["core"] = config.core_backend
            payload["estimated_cycles"] = True
        return RunRecord(
            experiment=experiment.to_dict(),
            kind="dynamic",
            total_cycles=sum(result.cycles for result in results),
            launches=[launch_to_dict(result) for result in results],
            payload=payload,
            artifacts={
                "gpu": gpu,
                "workload": workload,
                "results": results,
                "breakdown": breakdown,
                "exposure": exposure,
            },
        )

    def _run_scenario(self, experiment: Experiment) -> RunRecord:
        """Run several kernels concurrently on one GPU with attribution.

        All workloads are instantiated and prepared (inputs allocated
        and uploaded) first, then every kernel is submitted to its
        stream/SM partition and the device runs until idle.  Each
        launch's record carries its *attributed* stats; the payload
        additionally holds the whole-device delta and the unattributed
        residual, so ``sum(per-kernel) + unattributed == device delta``
        holds key-for-key — the invariant the scenario tests pin.
        """
        config = self.resolve_config(experiment.configs[0])
        kernels = experiment.params["kernels"]
        verify = experiment.params.get(
            "verify", KIND_PARAMS["scenario"]["verify"][1])
        gpu = GPU(config)
        workloads = []
        for entry in kernels:
            kwargs = coerce_workload_params(entry["workload"],
                                            entry.get("params") or {})
            workload = create_workload(entry["workload"], **kwargs)
            if type(workload).run is not Workload.run:
                # bfs/reduction drive their own multi-launch loops with
                # host logic between launches; there is no single grid
                # to co-schedule.
                raise ExperimentError(
                    f"workload {entry['workload']!r} drives its own "
                    f"launch loop and cannot join a scenario"
                )
            workloads.append(workload)
        specs = [workload.prepare(gpu) for workload in workloads]
        start_cycle = gpu.cycle
        start_stats = gpu.collect_stats().as_dict()
        for entry, workload, spec in zip(kernels, workloads, specs):
            gpu.submit(
                workload.program,
                grid_dim=spec.grid_dim,
                block_dim=spec.block_dim,
                params=spec.params,
                stream=entry.get("stream", 0),
                sm_mask=entry.get("sm_mask"),
            )
        results = gpu.run_until_idle(attribute=True)
        if verify:
            for entry, workload in zip(kernels, workloads):
                if not workload.verify(gpu):
                    raise ExperimentError(
                        f"workload {entry['workload']!r} failed "
                        f"verification on {config.name!r} in scenario"
                    )
        end_stats = gpu.collect_stats().as_dict()
        device_stats = {
            key: end_stats[key] - start_stats.get(key, 0)
            for key in sorted(end_stats)
        }
        attributed: Dict[str, float] = {}
        for result in results:
            for key, value in result.stats.items():
                attributed[key] = attributed.get(key, 0) + value
        unattributed = {
            key: device_stats[key] - attributed.get(key, 0)
            for key in device_stats
            if device_stats[key] - attributed.get(key, 0) != 0
        }
        # run_until_idle advanced past the last simulated cycle; the
        # wall clock covers everything including the memory-drain tail.
        wall_cycles = gpu.cycle - 1 - start_cycle
        payload = {
            "config": config.name,
            "verified": bool(verify),
            "wall_cycles": wall_cycles,
            "primary_cycles": results[0].cycles,
            "sum_kernel_cycles": sum(result.cycles for result in results),
            "device_stats": device_stats,
            "unattributed": unattributed,
        }
        if not core_backend_is_exact(config.core_backend):
            payload["core"] = config.core_backend
            payload["estimated_cycles"] = True
        return RunRecord(
            experiment=experiment.to_dict(),
            kind="scenario",
            total_cycles=wall_cycles,
            launches=[scenario_launch_to_dict(result)
                      for result in results],
            payload=payload,
            artifacts={
                "gpu": gpu,
                "workload": workloads,
                "results": results,
            },
        )
