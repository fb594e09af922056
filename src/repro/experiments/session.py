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
    runs = session.run_all(Experiment.grid(
        kind="dynamic", configs=["gf100", "gk104"], workloads=["bfs"],
        params={"num_nodes": [512, 1024]}))
    runs.to_json()                                        # persist
"""

from __future__ import annotations

import contextlib
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
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
from repro.gpu.configs import CONFIG_REGISTRY
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


def _config_names(experiment: Experiment) -> Tuple[str, ...]:
    """The config names an experiment resolves: its own, or the Table I
    generations for a static experiment that names none."""
    if experiment.kind == "static" and not experiment.configs:
        return tuple(table_i_generations())
    return tuple(experiment.configs)


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
        self._local_reprs: Dict[str, str] = {
            name: repr(config) for name, config in self._local_configs.items()}
        # Memoized config fingerprints (see store_key).
        self._fingerprints: Dict[tuple, str] = {}
        self._fingerprint_revision = CONFIG_REGISTRY.revision
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
        self._local_reprs[resolved] = repr(config)
        self._fingerprints.clear()
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
        return self.run_all([experiment], use_cache=use_cache)[0]

    def lookup(self, experiment: Experiment, use_cache: bool = True,
               store_key=None, spec_hash: Optional[str] = None) -> tuple:
        """Find ``experiment``'s record without simulating it.

        Returns ``(record, "cache")`` or ``(record, "store")`` on a hit,
        rehydrating store records' artifacts so they print like fresh
        runs, and ``(None, None)`` on a miss, which the caller resolves
        by simulating and passing the record to :meth:`adopt`.
        ``use_cache=False`` skips both reads (a forced re-run).
        ``store_key`` and ``spec_hash`` spare recomputing keys the caller
        already holds; the spec is hashed at most once either way.
        """
        spec_hash = (store_key.spec_hash if store_key is not None
                     else spec_hash or experiment.spec_hash())
        key = self._cache_key(experiment, spec_hash)
        if self.cache_enabled and use_cache and key in self._cache:
            self.cache_hits += 1
            return self._cache[key], "cache"
        self.cache_misses += 1
        if self.store is not None and use_cache:
            stored = self.store.get(store_key
                                    or self.store_key(experiment, spec_hash))
            if stored is not None:
                self.store_hits += 1
                record = rehydrate_artifacts(RunRecord.from_dict(stored))
                if self.cache_enabled:
                    self._cache[key] = record
                return record, "store"
            self.store_misses += 1
        return None, None

    def adopt(self, experiment: Experiment, record: RunRecord,
              store_key=None, spec_hash: Optional[str] = None) -> None:
        """Take in a freshly simulated record of ``experiment``.

        Counts the simulation, writes the record through to the store
        (always, so a forced re-run refreshes it rather than bypassing
        it) and caches its light form.  Records simulated in this
        process, in a :meth:`run_all` worker or in a ``repro serve``
        worker all pass through this one step.
        """
        spec_hash = (store_key.spec_hash if store_key is not None
                     else spec_hash or experiment.spec_hash())
        self.simulated_runs += 1
        if self.store is not None:
            self.store.put(store_key or self.store_key(experiment, spec_hash),
                           record.to_dict())
        if self.cache_enabled:
            self._cache[self._cache_key(experiment, spec_hash)] = \
                self._cacheable(record)

    def run_all(self, experiments: Iterable[Union[Experiment,
                                                  Mapping[str, Any]]],
                jobs: Optional[int] = 1, use_cache: bool = True,
                progress: Optional[Callable[[int, int, RunRecord, str],
                                            None]] = None) -> RunSet:
        """Run several experiments, optionally across worker processes.

        Every entry point resolves specs through this one loop, whatever
        ``jobs`` is:

        1. each distinct spec is looked up once, in order of first
           appearance (:meth:`lookup`: memory cache, then store), and
           every hit is reported as it is found;
        2. the misses are simulated once each (:meth:`simulate`): in
           this process when ``jobs`` is ``None``, ``0`` or ``1``, else
           across a :class:`~repro.experiments.parallel.ParallelExecutor`
           of ``jobs`` workers;
        3. each simulated record is taken in with :meth:`adopt` as it
           arrives, so an interrupted sweep keeps every completed cell.

        **Repeats.**  A spec that appears again in the same call (same
        :meth:`Experiment.spec_hash`) is never looked up or simulated
        again: it shares its first appearance's record and counts as the
        lookup a caching session would make, that is a cache hit
        reported as ``"cache"`` when caching is active (``cache=True``
        and ``use_cache=True``), and otherwise a cache miss reported
        with the first appearance's source.

        The returned :class:`RunSet` is ordered by submission index, and
        its counters, sources and JSON are the same for every ``jobs``.
        Records simulated in this process keep their live ``gpu``,
        ``workload`` and ``results``; records from workers carry only
        the plain-data analysis artifacts.

        ``progress``, if given, is called as ``progress(done, total,
        record, source)`` each time a record resolves, where ``source``
        is ``"cache"``, ``"store"``, or ``"simulated"``.
        """
        specs = [experiment if isinstance(experiment, Experiment)
                 else Experiment.from_dict(experiment)
                 for experiment in experiments]
        total = len(specs)
        records: List[Optional[RunRecord]] = [None] * total
        caching = self.cache_enabled and use_cache
        done = 0

        def resolve(indices: List[int], record: RunRecord,
                    source: str) -> None:
            nonlocal done
            for index in indices:
                if index != indices[0]:  # a repeat: see the docstring
                    if caching:
                        self.cache_hits += 1
                        source = "cache"
                    else:
                        self.cache_misses += 1
                records[index] = record
                done += 1
                if progress is not None:
                    progress(done, total, record, source)

        occurrences: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            occurrences.setdefault(spec.spec_hash(), []).append(index)
        misses: List[Tuple[str, List[int]]] = []
        for spec_hash, indices in occurrences.items():
            record, source = self.lookup(specs[indices[0]], use_cache,
                                         spec_hash=spec_hash)
            if record is None:
                misses.append((spec_hash, indices))
            else:
                resolve(indices, record, source)
        if misses:
            unique = [specs[indices[0]] for _spec_hash, indices in misses]
            with contextlib.closing(self._simulate_all(unique, jobs)) \
                    as completed:
                for position, record in completed:
                    spec_hash, indices = misses[position]
                    # Write through before announcing progress, so any
                    # observer of the progress stream (or a crash right
                    # after it) finds the cell durably stored.
                    self.adopt(specs[indices[0]], record,
                               spec_hash=spec_hash)
                    resolve(indices, record, "simulated")
        return RunSet(records=records)

    def _simulate_all(self, specs: List[Experiment], jobs: Optional[int]
                      ) -> Iterator[Tuple[int, RunRecord]]:
        """Simulate ``specs``; yields ``(position, record)`` pairs in
        completion order (submission order when ``jobs`` is at most 1)."""
        if jobs is None or jobs <= 1:
            for position, spec in enumerate(specs):
                yield position, self.simulate(spec)
            return
        from repro.experiments.parallel import ParallelExecutor

        with ParallelExecutor(jobs=jobs, configs=self._local_configs,
                              core=self.core) as executor:
            for completed in executor.imap(specs):
                yield completed.index, completed.record

    def simulate(self, experiment: Experiment) -> RunRecord:
        """Simulate ``experiment`` here and now, whatever its kind.

        Neither reads nor writes the cache, the store or the counters:
        :meth:`run_all` resolves, and pool workers call this directly.
        """
        runner = {
            "static": self._run_static,
            "sweep": self._run_sweep,
            "dynamic": self._run_dynamic,
            "scenario": self._run_scenario,
        }[experiment.kind]
        return runner(experiment)

    def run_json(self, text: str, use_cache: bool = True,
                 jobs: Optional[int] = 1,
                 progress: Optional[Callable[[int, int, RunRecord, str],
                                             None]] = None) -> RunSet:
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

    def store_key(self, experiment: Union[Experiment, Mapping[str, Any]],
                  spec_hash: Optional[str] = None):
        """The content-addressed store key of ``experiment`` here and now.

        "Here and now" because two of the three components are
        session/state dependent: ``config_hash`` fingerprints the
        *resolved* configurations (session-local overrides and all) and
        ``code_version`` fingerprints the currently installed simulator
        source.  Only ``spec_hash`` is a pure function of the spec; pass
        it when already computed.  The config fingerprint is memoized per
        tuple of names until :meth:`add_config` or a change to the config
        registry.
        """
        from repro.store import StoreKey, code_version

        if not isinstance(experiment, Experiment):
            experiment = Experiment.from_dict(experiment)
        return StoreKey(
            spec_hash=spec_hash or experiment.spec_hash(),
            config_hash=self._config_hash(_config_names(experiment)),
            code_version=code_version(),
        )

    def _config_hash(self, names: Tuple[str, ...]) -> str:
        """:func:`~repro.store.config_fingerprint` of the resolved
        ``names``, memoized (see :meth:`store_key`)."""
        if self._fingerprint_revision != CONFIG_REGISTRY.revision:
            self._fingerprints.clear()
            self._fingerprint_revision = CONFIG_REGISTRY.revision
        memo_key = (self.core, names)
        fingerprint = self._fingerprints.get(memo_key)
        if fingerprint is None:
            from repro.store import config_fingerprint

            fingerprint = config_fingerprint(
                self.resolve_config(name) for name in names)
            self._fingerprints[memo_key] = fingerprint
        return fingerprint

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

    def _cache_key(self, experiment: Experiment,
                   spec_hash: Optional[str] = None) -> str:
        key = spec_hash or experiment.spec_hash()
        # Session-local configs change what a name means, so their full
        # (deterministic dataclass) repr joins the key.  A static
        # experiment with no explicit configs resolves the Table I
        # generations, so those names count too.
        for name in _config_names(experiment):
            if name in self._local_configs:
                key += f"|{name}={self._local_reprs[name]}"
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
        device_stats = gpu._stats_delta(start_stats)
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
