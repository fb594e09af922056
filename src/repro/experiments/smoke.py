"""Registry-wide smoke runs: every workload x every configuration.

The benchmark suite and the examples only touch a handful of the
registered workload x configuration pairs; everything else used to be
exercised only when somebody happened to pick it.  :func:`run_smoke`
closes that gap: it runs a *tiny* verified experiment for every pair in
the two registries and returns a JSON-ready report, which the CI
``smoke`` job uploads and asserts counts against — so adding or removing
a registry entry is immediately visible in CI (registry drift), and a
pair that stops simulating or verifying fails the run.

Every workload needs an entry in :data:`SMOKE_PARAMS` (problem sizes
small enough that the full cross product stays in CI-friendly
territory).  A registered workload without one — or a stale entry for an
unregistered workload — raises :class:`ExperimentError` before anything
runs; that is the drift check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.experiments.results import RunRecord
from repro.experiments.spec import Experiment
from repro.gpu import available_configs
from repro.utils.errors import ExperimentError
from repro.workloads import (
    available_workloads,
    bundle_workload_names,
    workload_source,
)

#: Tiny per-workload parameters for the smoke cross product.  Keep these
#: as small as each kernel allows: the smoke matrix runs every entry on
#: every registered configuration.
SMOKE_PARAMS: Dict[str, Dict[str, Any]] = {
    "bfs": {"num_nodes": 96, "avg_degree": 4, "block_dim": 32, "seed": 7},
    "matmul": {"n": 8, "block_dim": 64},
    "microbench": {"ilp": 2, "mlp": 2, "arith_per_load": 2, "stride": 128,
                   "footprint": 4096, "ctas": 2, "warps_per_cta": 2,
                   "iters": 8},
    "microbench_mlp4": {"footprint": 8192, "ctas": 2, "iters": 8},
    "pointer_chase": {"footprint_bytes": 2048, "stride_bytes": 128,
                      "n_accesses": 32},
    "reduction": {"n": 256, "block_dim": 64},
    "spmv": {"num_rows": 48, "nnz_per_row": 4},
    "stencil": {"n": 256, "block_dim": 64},
    "vecadd": {"n": 256, "block_dim": 64},
}

#: Analysis buckets for the smoke runs (coarse: the analyses are not the
#: point here, completing and verifying is).
SMOKE_BUCKETS = 4


def check_registry_coverage() -> None:
    """Raise :class:`ExperimentError` when :data:`SMOKE_PARAMS` and the
    workload registry have drifted apart.

    Only *builder* workloads need a :data:`SMOKE_PARAMS` entry: trace
    bundles fix their own launch geometry and inputs on disk, take no
    constructor parameters, and join the smoke grid automatically (see
    :func:`smoke_workloads`) — so a user bundle directory can never
    trip the drift check.
    """
    registered = (set(available_workloads())
                  - set(bundle_workload_names()))
    missing = registered - set(SMOKE_PARAMS)
    if missing:
        raise ExperimentError(
            f"registry drift: no smoke parameters for registered "
            f"workload(s) {sorted(missing)}; add them to "
            f"repro.experiments.smoke.SMOKE_PARAMS"
        )
    stale = set(SMOKE_PARAMS) - registered
    if stale:
        raise ExperimentError(
            f"registry drift: smoke parameters for unregistered "
            f"workload(s) {sorted(stale)}; remove them from "
            f"repro.experiments.smoke.SMOKE_PARAMS"
        )


#: Core backends the smoke matrix exercises by default.  ``vector`` is
#: an alias of ``fast`` (the one gated exact core), so with a store its
#: pass is served the ``fast`` pass's records.  The reference core is
#: deliberately absent (it is the slow golden baseline, pinned by the
#: equivalence tests instead); a session constructed with an explicit
#: ``core`` restricts the matrix to that one backend.
SMOKE_CORES = ("fast", "vector")


def _core_session(session, core: str):
    """``session`` itself when it runs on ``core``, else a session on
    ``core`` that shares its cache setting, local configs and store."""
    if core == session.core:
        return session
    from repro.experiments.session import Session  # deferred: avoid cycle

    return Session(cache=session.cache_enabled,
                   configs=session._local_configs, core=core,
                   store=session.store)


def smoke_workloads() -> Dict[str, Dict[str, Any]]:
    """Workload name -> smoke parameters for the whole smoke grid.

    Every builder workload contributes its :data:`SMOKE_PARAMS` entry;
    every registered trace bundle contributes itself with no parameters
    (a bundle *is* its launch: geometry, inputs, and expected outputs
    all live in its files).  Because registered bundles join here
    automatically, ``repro smoke`` matrixes over the packaged corpus —
    and over any user corpus on ``$REPRO_BUNDLE_PATH`` — with outputs
    verified against each bundle's ``expected.csv``.
    """
    check_registry_coverage()
    grid: Dict[str, Dict[str, Any]] = dict(SMOKE_PARAMS)
    for name in bundle_workload_names():
        grid[name] = {}
    return grid


def smoke_experiments() -> Dict[tuple, Experiment]:
    """The smoke grid: one tiny dynamic experiment per workload x config."""
    grid: Dict[tuple, Experiment] = {}
    workloads = smoke_workloads()
    for workload in sorted(workloads):
        for config in available_configs():
            grid[(workload, config)] = Experiment.dynamic(
                config, workload, label="smoke",
                buckets=SMOKE_BUCKETS, **workloads[workload])
    return grid


def run_smoke(session, jobs: Optional[int] = 1,
              progress: Optional[Callable[[int, int, RunRecord, str], None]]
              = None, cores: Optional[tuple] = None) -> Dict[str, Any]:
    """Run the whole smoke grid on every smoke core; returns a report.

    The matrix is workload x configuration x **core backend**: the grid
    of tiny experiments runs once per entry in ``cores`` (default
    :data:`SMOKE_CORES`, or just the session's own core when it was
    constructed with one), each pass on a per-core session that shares
    the caller's store and local configs.  Verification failures raise
    (the session verifies every dynamic run), so a passing report means
    every registered pair simulated to completion *and* produced correct
    results on every core.  The report's counts are what the CI job
    asserts against, making registry additions and removals visible.

    With a store attached, later exact cores are served the first exact
    core's results (byte-identical backends share a store key class by
    design), so a stored smoke run stays cheap; the core dimension only
    re-simulates where it must.
    """
    if cores is None:
        cores = (session.core,) if session.core is not None else SMOKE_CORES
    grid = smoke_experiments()
    report_runs = []
    counters: Dict[str, int] = {}
    for core in cores:
        core_session = _core_session(session, core)
        before = core_session.counters()
        runs = core_session.run_all(list(grid.values()), jobs=jobs,
                                    progress=progress)
        after = core_session.counters()
        for name in after:
            counters[name] = (counters.get(name, 0)
                              + after[name] - before[name])
        for (workload, config), record in zip(grid.keys(), runs):
            report_runs.append({
                "workload": workload,
                "config": config,
                "core": core,
                "source": workload_source(workload),
                "cycles": record.total_cycles,
                "instructions": sum(launch.get("instructions", 0)
                                    for launch in record.launches),
                "launches": len(record.launches),
                "verified": bool(record.payload.get("verified", False)),
            })
    estimator = _estimator_accuracy(session, grid, report_runs, cores,
                                    jobs=jobs, progress=progress)
    workloads = sorted({workload for workload, _ in grid})
    bundles = sorted(bundle_workload_names())
    configs = available_configs()
    return {
        "workloads": workloads,
        "bundle_workloads": bundles,
        "configs": configs,
        "cores": list(cores),
        "workload_count": len(workloads),
        "bundle_count": len(bundles),
        "config_count": len(configs),
        "core_count": len(cores),
        "total_runs": len(report_runs),
        "all_verified": all(run["verified"] for run in report_runs),
        # Resolution-counter deltas for this grid: how many runs actually
        # simulated vs. were served from the memory cache or a persistent
        # store.  CI's store step asserts "simulated == 0" on a warm run.
        "counters": counters,
        "runs": report_runs,
        # Estimator accuracy leg (see _estimator_accuracy): not part of
        # the exact matrix, so it contributes to none of the counts
        # above.  None when the leg does not apply.
        "estimator": estimator,
    }


def _estimator_accuracy(session, grid, exact_runs, cores,
                        jobs: Optional[int] = 1,
                        progress: Optional[
                            Callable[[int, int, RunRecord, str], None]] = None
                        ) -> Optional[Dict[str, Any]]:
    """Run the smoke grid on the ``estimator`` core and report its error.

    The estimator trades exactness for speed (LD/ST completion times
    rounded to quantum boundaries), and its documented contract is a
    cycle-count error within :data:`repro.simt.vector.
    ESTIMATOR_CYCLE_ERROR_BOUND` of an exact core.  This leg re-runs the
    whole smoke grid with ``core="estimator"`` and compares each cell's
    ``total_cycles`` against the first (exact) core's pass, so the CI
    smoke job can assert the bound holds across the *entire* registry
    cross product — not just the four benchmark workloads.

    Returns ``None`` (and runs nothing) when the leg does not apply:
    the first smoke core is not an exact backend, or the estimator
    backend is not registered.  The estimator runs are deliberately
    *not* appended to the report's ``runs``/``total_runs`` — those
    counts describe the exact matrix that CI asserts against.
    """
    from repro.simt.backend import CORE_BACKENDS, core_backend_is_exact
    from repro.simt.vector import (
        ESTIMATOR_CYCLE_ERROR_BOUND,
        adaptive_quantum_for_partition,
    )

    if "estimator" not in CORE_BACKENDS:
        return None
    if not cores or not core_backend_is_exact(cores[0]):
        return None
    est_session = _core_session(session, "estimator")
    runs = est_session.run_all(list(grid.values()), jobs=jobs,
                               progress=progress)
    cells = []
    worst = 0.0
    for index, ((workload, config), record) in enumerate(
            zip(grid.keys(), runs)):
        exact_cycles = exact_runs[index]["cycles"]
        estimated = record.total_cycles
        error = (abs(estimated - exact_cycles) / exact_cycles
                 if exact_cycles else 0.0)
        worst = max(worst, error)
        quantum = adaptive_quantum_for_partition(
            est_session.resolve_config(config).partition)
        cells.append({
            "workload": workload,
            "config": config,
            "exact_cycles": exact_cycles,
            "estimated_cycles": estimated,
            "error": error,
            "time_quantum": quantum,
        })
    return {
        "bound": ESTIMATOR_CYCLE_ERROR_BOUND,
        "worst_error": worst,
        "within_bound": all(cell["error"] <= ESTIMATOR_CYCLE_ERROR_BOUND
                            for cell in cells),
        "cell_count": len(cells),
        "cells": cells,
    }


#: Configuration the scenario smoke runs on: gf106 has 4 SMs, enough to
#: split two kernels across disjoint 2-SM partitions.
SCENARIO_SMOKE_CONFIG = "gf106"

#: The two co-located kernels of the scenario smoke (tiny problem sizes,
#: mirroring :data:`SMOKE_PARAMS`).
SCENARIO_SMOKE_KERNELS = (
    {"workload": "vecadd", "params": {"n": 256, "block_dim": 64},
     "stream": 0},
    {"workload": "stencil", "params": {"n": 256, "block_dim": 64},
     "stream": 1},
)


def scenario_smoke_experiments() -> Dict[str, Experiment]:
    """The scenario smoke grid: shared-SM and SM-partitioned co-location.

    Both scenarios co-locate the same two kernels on separate streams of
    one :data:`SCENARIO_SMOKE_CONFIG` device; ``shared`` lets the CTA
    dispatcher place them anywhere, ``partitioned`` pins each kernel to
    a disjoint half of the SMs.
    """
    first, second = (dict(entry) for entry in SCENARIO_SMOKE_KERNELS)
    return {
        "shared": Experiment.scenario(
            SCENARIO_SMOKE_CONFIG, [first, second], label="smoke-shared"),
        "partitioned": Experiment.scenario(
            SCENARIO_SMOKE_CONFIG,
            [dict(first, sm_mask=[0, 1]), dict(second, sm_mask=[2, 3])],
            label="smoke-partitioned"),
    }


def run_scenario_smoke(session, jobs: Optional[int] = 1,
                       progress: Optional[
                           Callable[[int, int, RunRecord, str], None]] = None,
                       cores: Optional[tuple] = None) -> Dict[str, Any]:
    """Run the concurrent-kernel smoke scenarios; returns a report.

    Each scenario in :func:`scenario_smoke_experiments` runs once per
    core backend (default :data:`SMOKE_CORES`).  Besides the verified
    flag, every run reports its per-kernel attribution — cycles,
    instructions, overlap — and ``attribution_exact``: whether the
    per-kernel stats plus the unattributed residual sum back to the
    whole-device delta key-for-key.  The CI scenario leg asserts the
    per-kernel counts and that every run attributes exactly.
    """
    if cores is None:
        cores = (session.core,) if session.core is not None else SMOKE_CORES
    grid = scenario_smoke_experiments()
    report_runs = []
    for core in cores:
        core_session = _core_session(session, core)
        runs = core_session.run_all(list(grid.values()), jobs=jobs,
                                    progress=progress)
        for mode, record in zip(grid.keys(), runs):
            attributed: Dict[str, int] = dict(
                record.payload.get("unattributed", {}))
            for launch in record.launches:
                for key, value in launch.get("stats", {}).items():
                    attributed[key] = attributed.get(key, 0) + value
            device = record.payload.get("device_stats", {})
            exact = (attributed == {key: value
                                    for key, value in device.items()
                                    if value != 0})
            report_runs.append({
                "mode": mode,
                "config": SCENARIO_SMOKE_CONFIG,
                "core": core,
                "wall_cycles": record.total_cycles,
                "sum_kernel_cycles":
                    record.payload.get("sum_kernel_cycles", 0),
                "verified": bool(record.payload.get("verified", False)),
                "attribution_exact": exact,
                "kernels": [
                    {
                        "workload": entry["workload"],
                        "launch_id": launch["launch_id"],
                        "stream": launch["stream"],
                        "sm_mask": entry["sm_mask"],
                        "cycles": launch["cycles"],
                        "instructions": launch["instructions"],
                        "overlap_cycles": launch["overlap_cycles"],
                    }
                    for entry, launch in zip(
                        record.experiment["params"]["kernels"],
                        record.launches)
                ],
            })
    return {
        "config": SCENARIO_SMOKE_CONFIG,
        "modes": sorted(grid),
        "cores": list(cores),
        "scenario_count": len(grid),
        "core_count": len(cores),
        "total_runs": len(report_runs),
        "all_verified": all(run["verified"] for run in report_runs),
        "all_attributed": all(run["attribution_exact"]
                              for run in report_runs),
        "runs": report_runs,
    }
