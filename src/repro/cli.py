"""Command-line interface for the reproduction.

The CLI is a thin wrapper over the :mod:`repro.experiments` layer: every
experiment subcommand builds a declarative
:class:`~repro.experiments.Experiment` and hands it to a
:class:`~repro.experiments.Session`, so the CLI, the Python API, and the
benchmarks all exercise the same code path.

``repro configs``
    List the registered GPU configurations and their cache/latency
    headline numbers.
``repro workloads``
    List the registered workloads with their provenance (``builder``
    for code-defined workloads, ``bundle`` for on-disk trace bundles);
    ``--json`` emits the machine-readable list.
``repro bundle``
    Work with trace bundles — on-disk kernels in the documented
    five-file format (see ``docs/kernel-bundles.md``): ``list`` the
    registered corpus, ``describe`` or ``validate`` a bundle,
    ``run`` one (by name, directory, or ``-`` for a stream on stdin),
    and ``export`` a builder workload as a new bundle (a directory, or
    a single stream on stdout for piping into ``repro bundle run -``).
    The top-level ``--bundle-dir DIR`` option registers extra bundle
    directories for any subcommand.
``repro table1``
    Reproduce Table I (static L1/L2/DRAM latencies per generation).
``repro sweep``
    Run a footprint/stride pointer-chase sweep on one or more
    configurations (``--config`` is repeatable) and infer each memory
    hierarchy from the latency plateaus.
``repro dynamic``
    Run a workload on a configuration and print the Figure 1 latency
    breakdown and the Figure 2 exposed/hidden analysis.  Workload
    parameters pass through generically as ``--param key=value``.
``repro run``
    Execute experiment spec(s) from a JSON file (an object or an array)
    and optionally persist the results as a JSON run set.
``repro sensitivity``
    Sweep one or more configuration transforms (``--transform``, e.g.
    ``scale_dram_latency``) across scale factors (``--scales 1,2,4,8``)
    for a workload x configuration pair and report the fitted latency
    tolerance metrics (cycles-vs-injected-latency slope, half-tolerance
    point, exposed-fraction curve).
``repro microbench``
    Run (or, with ``--describe``, just print) one synthetic microbench
    spec: axes pass as ``--set key=value`` or load from a JSON file via
    ``--spec``.
``repro atlas``
    The 2-D latency-tolerance atlas: sweep one microbench axis
    (``--axis ilp=1,2,4,8``) against one transform axis across scale
    factors, and report per-row tolerance metrics in one table.
``repro scenario``
    Run several kernels **concurrently** on one GPU: each positional
    token is ``workload[:key=value,...]`` with the special keys
    ``stream=N`` (launches on the same stream serialize, streams overlap)
    and ``sm_mask=0+1`` (pin the kernel to an SM partition).  Prints the
    per-kernel attribution table — cycles, instructions, and overlap —
    plus the whole-device totals the per-kernel stats sum back to.
``repro smoke``
    Run a tiny verified experiment for **every** registered workload x
    configuration pair; ``--json`` emits the machine-readable report
    the CI smoke job asserts against.
``repro cache``
    Inspect or maintain a persistent result store: ``stats`` (entry and
    byte counts per code version and kind), ``prune`` (drop entries from
    other code versions, or everything with ``--everything``), and
    ``verify`` (integrity-check every stored record).
``repro serve``
    Long-running JSON API over a session and its store: ``POST /run`` an
    experiment spec and get the stored or freshly simulated record back;
    concurrent requests for the same result collapse onto one
    simulation.

Each subcommand prints plain text; pass ``--help`` to any of them for its
options.  Experiment subcommands accept ``--output FILE`` to save their
results as JSON (reloadable with ``repro.experiments.RunSet.load``);
output files are written atomically (temp file + rename), so an
interrupted run never leaves a torn file behind.  ``repro run`` and
``repro sweep`` accept ``--jobs N`` to shard their experiments across N
worker processes; the printed order and any ``--output`` file are
identical to a serial run.  Every experiment subcommand accepts
``--store TARGET`` to attach a persistent result store (a sqlite file
path, or ``scheme:target``): results already stored are served without
simulating — the stderr progress stream labels each record ``cache``,
``store``, or ``simulated``, and a final stderr line counts them — and
fresh results are written back, which makes interrupted sweeps
resumable.  Every experiment subcommand also accepts ``--core NAME`` to
pick the simulation-core backend (``repro cores`` lists them):
``reference`` and ``fast`` (with its alias ``vector``) are
byte-identical and share stored results; ``estimator`` trades exact
cycle counts for speed and is stored separately.  ``--core`` is the
only command-line choice of core; without it each configuration's
``core_backend`` decides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import (
    breakdown_chart,
    exposure_chart,
    format_atlas_report,
    format_sensitivity_report,
    format_table,
)
from repro.experiments import (
    Experiment,
    RunRecord,
    RunSet,
    Session,
    parse_param_tokens,
    parse_scenario_kernel_token,
    run_scenario_smoke,
    run_smoke,
)
from repro.gpu import available_configs, get_config
from repro.simt.backend import CORE_BACKENDS, available_core_backends
from repro.sensitivity import (
    TRANSFORM_REGISTRY,
    LatencyToleranceAtlas,
    SensitivityStudy,
    available_transforms,
    parse_axis_token,
)
from repro.utils.atomic import atomic_write_text
from repro.utils.errors import (
    BundleError,
    ExperimentError,
    ReproError,
)
from repro.workloads import (
    WORKLOAD_REGISTRY,
    MicrobenchSpec,
    available_workloads,
    build_microbench_kernel,
    bundle_workload_names,
    export_workload,
    tracebundle,
    workload_class,
    workload_source,
)


def _write_output(args: argparse.Namespace, records: List[RunRecord]) -> None:
    """Persist records as a canonical-JSON RunSet when --output was given."""
    output = getattr(args, "output", None)
    if output:
        RunSet(records=records).save(output)
        print(f"\nsaved {len(records)} run record(s) to {output}")


def _cmd_configs(args: argparse.Namespace) -> int:
    rows = []
    for name in available_configs():
        config = get_config(name)
        l1_bytes = config.l1_bytes()
        rows.append([
            name,
            config.num_sms,
            f"{l1_bytes // 1024} KiB" if l1_bytes else "-",
            ("global+local" if config.core.l1.cache_global
             else "local only") if config.core.l1.enabled else "-",
            (f"{config.total_l2_bytes() // 1024} KiB"
             if config.partition.l2_enabled else "-"),
            config.partition.dram.scheduler,
            config.description,
        ])
    print(format_table(
        ["name", "SMs", "L1/SM", "L1 policy", "L2 total", "DRAM sched",
         "description"],
        rows,
        title="Registered GPU configurations",
    ))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    names = available_workloads()
    if args.json:
        report = {
            "workloads": [
                {
                    "name": name,
                    "source": workload_source(name),
                    "description": WORKLOAD_REGISTRY.describe(name),
                }
                for name in names
            ],
            "workload_count": len(names),
            "bundle_count": len(bundle_workload_names()),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = [[name, workload_source(name), WORKLOAD_REGISTRY.describe(name)]
            for name in names]
    print(format_table(["name", "source", "description"], rows,
                       title="Registered workloads"))
    return 0


def _load_bundle_target(target: str) -> "tracebundle.KernelBundle":
    """Resolve a ``repro bundle`` target to a validated bundle.

    ``-`` reads a bundle stream from stdin, an existing directory loads
    from disk, and anything else must be a registered bundle workload
    name (``repro bundle list``).
    """
    if target == "-":
        files = tracebundle.read_bundle_stream(sys.stdin.read(),
                                               origin="<stdin>")
        return tracebundle.load_bundle_files(files, origin="<stdin>")
    path = Path(target)
    if path.is_dir():
        return tracebundle.load_bundle(path)
    if target in bundle_workload_names():
        return workload_class(target).bundle
    raise BundleError(
        f"{target!r} is neither a registered bundle workload, a bundle "
        f"directory, nor '-' (stdin stream); see 'repro bundle list'"
    )


def _warn_bundle_load_errors() -> None:
    """Surface lenient-discovery failures ($REPRO_BUNDLE_PATH) on stderr."""
    for directory, error in tracebundle.BUNDLE_LOAD_ERRORS:
        print(f"warning: skipped bundle directory {directory}: {error}",
              file=sys.stderr)


def _cmd_bundle_list(args: argparse.Namespace) -> int:
    names = bundle_workload_names()
    if args.json:
        report = {
            "bundles": [
                {
                    "name": name,
                    "source": workload_source(name),
                    "grid_dim": workload_class(name).bundle.grid_dim,
                    "block_dim": workload_class(name).bundle.block_dim,
                    "instructions":
                        len(workload_class(name).bundle.instructions),
                    "fingerprint": workload_class(name).bundle.fingerprint,
                    "description": workload_class(name).bundle.description,
                }
                for name in names
            ],
            "bundle_count": len(names),
            "load_errors": [
                {"directory": directory, "error": error}
                for directory, error in tracebundle.BUNDLE_LOAD_ERRORS
            ],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = []
    for name in names:
        bundle = workload_class(name).bundle
        rows.append([name, workload_source(name), str(bundle.grid_dim),
                     str(bundle.block_dim), str(len(bundle.instructions)),
                     bundle.fingerprint[:12], bundle.description])
    print(format_table(
        ["name", "source", "grid", "block", "insts", "fingerprint",
         "description"],
        rows,
        title=f"Registered trace bundles ({len(names)})",
    ))
    _warn_bundle_load_errors()
    return 0


def _cmd_bundle_describe(args: argparse.Namespace) -> int:
    bundle = _load_bundle_target(args.bundle)
    if args.json:
        report = {
            "name": bundle.name,
            "description": bundle.description,
            "grid_dim": bundle.grid_dim,
            "block_dim": bundle.block_dim,
            "program": bundle.program_name,
            "instructions": len(bundle.instructions),
            "registers": bundle.num_registers,
            "predicates": bundle.num_predicates,
            "shared_bytes": bundle.shared_bytes,
            "local_bytes": bundle.local_bytes,
            "image_bytes": bundle.image_bytes,
            "memory_words": len(bundle.memory_words),
            "expected_words": len(bundle.expected_words),
            "tolerance": bundle.tolerance,
            "params": {
                name: {"type": bundle.param_types[name],
                       "value": bundle.inputs[name]}
                for name in bundle.param_types
            },
            "fingerprint": bundle.fingerprint,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"kernel {bundle.name!r}: {bundle.description}")
    print(f"launch: grid_dim={bundle.grid_dim} block_dim={bundle.block_dim} "
          f"({bundle.grid_dim * bundle.block_dim} threads)")
    print(f"program {bundle.program_name!r}: "
          f"{len(bundle.instructions)} instruction(s), "
          f"{bundle.num_registers} register(s), "
          f"{bundle.num_predicates} predicate(s), "
          f"{bundle.shared_bytes} shared byte(s), "
          f"{bundle.local_bytes} local byte(s)")
    print(f"image: {bundle.image_bytes} bytes at base "
          f"{tracebundle.IMAGE_BASE}, "
          f"{len(bundle.memory_words)} initialized word(s)")
    print(f"verify: {len(bundle.expected_words)} expected word(s), "
          f"tolerance {tracebundle.format_number(bundle.tolerance)}")
    print(f"fingerprint: {bundle.fingerprint}")
    if bundle.param_types:
        print()
        rows = [[name, bundle.param_types[name],
                 tracebundle.format_number(bundle.inputs[name])]
                for name in bundle.param_types]
        print(format_table(["param", "type", "value"], rows))
    if args.program:
        print()
        print(bundle.files["program.csv"], end="")
    return 0


def _cmd_bundle_validate(args: argparse.Namespace) -> int:
    status = 0
    for target in args.bundles:
        try:
            bundle = _load_bundle_target(target)
        except ReproError as exc:
            print(f"{target}: FAILED — {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{target}: ok — kernel {bundle.name!r}, "
              f"{len(bundle.instructions)} instruction(s), "
              f"fingerprint {bundle.fingerprint[:12]}")
    return status


def _cmd_bundle_run(args: argparse.Namespace) -> int:
    target = args.bundle
    bundle = _load_bundle_target(target)
    if target == "-" or Path(target).is_dir():
        # A bundle read from stdin or a directory joins the registry, so
        # the session can build it by name.
        origin = ("<stdin>" if target == "-"
                  else str(Path(target).resolve()))
        tracebundle.register_bundle(bundle, source=f"bundle:{origin}",
                                    overwrite=True)
    experiment = Experiment.dynamic(args.config, bundle.name,
                                    buckets=args.buckets)
    record = args.session.run(experiment)
    if args.json:
        print(record.to_json(indent=2))
    else:
        _print_dynamic(record)
    _write_output(args, [record])
    return 0


def _cmd_bundle_export(args: argparse.Namespace) -> int:
    kwargs = parse_param_tokens(args.param or [])
    files = export_workload(args.workload, config=args.config,
                            bundle_name=args.name,
                            workload_kwargs=kwargs or None)
    if args.out:
        path = tracebundle.write_bundle_dir(files, args.out)
        print(f"wrote bundle to {path}")
        return 0
    sys.stdout.write(tracebundle.write_bundle_stream(files))
    return 0


def _print_static(record: RunRecord) -> None:
    print(record.table.format_table())


def _print_sweep(record: RunRecord, args: argparse.Namespace) -> None:
    spec = record.experiment
    stride = spec["params"].get("stride", 128)
    rows = [[footprint, f"{latency:.1f}"]
            for footprint, latency in record.surface.curve(stride)]
    print(format_table(["footprint (bytes)", "cycles / access"], rows,
                       title=f"Pointer-chase sweep on {spec['configs'][0]!r} "
                             f"({spec['params'].get('space', 'global')} "
                             f"space, stride {stride})"))
    print()
    print(record.hierarchy.describe())


def _print_dynamic(record: RunRecord) -> None:
    spec = record.experiment
    print(f"{spec['workload']} on {spec['configs'][0]!r}: "
          f"{record.total_cycles} cycles over "
          f"{len(record.launches)} launch(es)")
    print()
    figure1 = record.breakdown
    print("Figure 1 — latency breakdown per bucket:")
    print(figure1.format_table())
    print()
    print(breakdown_chart(figure1, width=50))
    print()
    figure2 = record.exposure
    print("Figure 2 — exposed vs hidden load latency:")
    print(f"overall exposed fraction: {figure2.overall_exposed_fraction:.3f}")
    print(figure2.format_table())
    print()
    print(exposure_chart(figure2, width=50))


def _print_scenario(record: RunRecord) -> None:
    spec = record.experiment
    kernels = spec["params"]["kernels"]
    payload = record.payload
    rows = []
    for entry, launch in zip(kernels, record.launches):
        mask = entry.get("sm_mask")
        rows.append([
            str(launch["launch_id"]),
            launch["kernel"],
            str(launch["stream"]),
            "+".join(str(sm) for sm in mask) if mask else "all",
            str(launch["cycles"]),
            str(launch["instructions"]),
            str(launch["overlap_cycles"]),
        ])
    print(format_table(
        ["id", "kernel", "stream", "SMs", "cycles", "instructions",
         "overlap"],
        rows,
        title=f"Scenario on {spec['configs'][0]!r}: "
              f"{len(kernels)} concurrent kernel(s)",
    ))
    print()
    print(f"wall cycles: {record.total_cycles}  "
          f"(sum of kernel windows: {payload['sum_kernel_cycles']})")
    if payload.get("core"):
        print(f"core: {payload['core']} (estimated cycle counts)")
    unattributed = payload.get("unattributed", {})
    attributed = sum(sum(launch["stats"].values())
                     for launch in record.launches)
    print(f"attribution: {attributed} attributed counter increments, "
          f"{len(unattributed)} residual device counter(s) "
          f"(memory-system internals + idle cycles)")


def _print_record(record: RunRecord, args: argparse.Namespace) -> None:
    if record.kind == "static":
        _print_static(record)
    elif record.kind == "sweep":
        _print_sweep(record, args)
    elif record.kind == "scenario":
        _print_scenario(record)
    else:
        _print_dynamic(record)


def _cmd_table1(args: argparse.Namespace) -> int:
    experiment = Experiment.static(configs=args.configs,
                                   accesses=args.accesses,
                                   stride=args.stride)
    record = args.session.run(experiment)
    _print_static(record)
    _write_output(args, [record])
    return 0


def _progress_to_stderr(done: int, total: int, record: RunRecord,
                        source: str) -> None:
    """Streamed completion lines (stderr keeps stdout byte-deterministic).

    ``source`` distinguishes records served from the in-memory cache or
    the persistent store from those actually simulated.
    """
    print(f"[{done}/{total}] {source}: {record.summary()}", file=sys.stderr)


def _progress_callback(args: argparse.Namespace):
    """Stream per-record progress whenever it can carry information:
    parallel runs (completion order is live feedback) and store-attached
    runs (the cache/store/simulated split is the point)."""
    if getattr(args, "jobs", 1) > 1 or getattr(args, "store", None):
        return _progress_to_stderr
    return None


def _report_counters(args: argparse.Namespace) -> None:
    """Final stderr counter line for store-attached runs."""
    session = getattr(args, "session", None)
    if session is None or getattr(args, "store", None) is None:
        return
    counters = session.counters()
    if not any(counters.values()):
        return  # maintenance commands (cache, serve) resolve nothing
    print(f"store {args.store}: {counters['store_hits']} hit(s), "
          f"{counters['store_misses']} miss(es), "
          f"{counters['simulated']} run(s) simulated", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = args.config or ["gf106"]
    experiments = [
        Experiment.sweep(config, stride=args.stride, space=args.space,
                         accesses=args.accesses, footprints=args.footprints)
        for config in configs
    ]
    progress = _progress_callback(args)
    runs = args.session.run_all(experiments, jobs=args.jobs,
                                progress=progress)
    for index, record in enumerate(runs):
        if index:
            print()
            print("=" * 72)
        _print_sweep(record, args)
    _write_output(args, list(runs))
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    params = parse_param_tokens(args.param or [])
    params.setdefault("buckets", args.buckets)
    experiment = Experiment.dynamic(args.config, args.workload, **params)
    record = args.session.run(experiment)
    _print_dynamic(record)
    _write_output(args, [record])
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        text = handle.read()
    progress = _progress_callback(args)
    runs = args.session.run_json(text, jobs=args.jobs, progress=progress)
    for index, record in enumerate(runs):
        if index:
            print()
            print("=" * 72)
        print(f"[{index + 1}/{len(runs)}] {record.summary()}")
        print()
        _print_record(record, args)
    _write_output(args, list(runs))
    return 0


def _parse_scales(text: str) -> List[float]:
    """Parse the ``--scales`` option: a comma-separated list of numbers."""
    try:
        scales = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ExperimentError(
            f"malformed --scales {text!r}; expected comma-separated "
            f"numbers, e.g. 1,2,4,8"
        ) from None
    if not scales:
        raise ExperimentError(f"--scales {text!r} names no scale factors")
    return scales


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    study = SensitivityStudy(
        config=args.config,
        workload=args.workload,
        transforms=tuple(args.transform or ["scale_dram_latency"]),
        scales=tuple(_parse_scales(args.scales)),
        params=parse_param_tokens(args.param or []),
        neighbor=(parse_scenario_kernel_token(args.neighbor)
                  if args.neighbor else None),
    )
    progress = _progress_callback(args)
    result = study.run(session=args.session, jobs=args.jobs,
                       progress=progress)
    print(format_sensitivity_report(result))
    if args.output:
        result.save(args.output)
        print(f"\nsaved sensitivity result to {args.output}")
    return 0


def _microbench_spec(args: argparse.Namespace) -> MicrobenchSpec:
    """Build the spec from ``--spec FILE`` plus ``--set`` overrides."""
    axes = {}
    if args.spec:
        with open(args.spec) as handle:
            axes = dict(MicrobenchSpec.from_json(handle.read()).to_dict())
    axes.update(parse_param_tokens(args.set or []))
    return MicrobenchSpec.from_dict(axes)


def _cmd_microbench(args: argparse.Namespace) -> int:
    spec = _microbench_spec(args)
    print(spec.describe())
    print(f"spec hash: {spec.spec_hash()}")
    if args.describe:
        program = build_microbench_kernel(spec)
        print(f"serial steps/chain: {spec.depth}  "
              f"loads/warp: {spec.loads_per_warp}  "
              f"ring slots: {spec.num_slots}  "
              f"diverged warps: {spec.diverged_warps}/{spec.total_warps}")
        print()
        print(spec.to_json(indent=2))
        print()
        print(program.disassemble())
        return 0
    experiment = Experiment.dynamic(args.config, "microbench",
                                    buckets=args.buckets, **spec.to_dict())
    record = args.session.run(experiment)
    print()
    _print_dynamic(record)
    _write_output(args, [record])
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    axis, values = parse_axis_token(args.axis)
    atlas = LatencyToleranceAtlas(
        config=args.config,
        axis=axis,
        values=tuple(values),
        transform=args.transform,
        scales=tuple(_parse_scales(args.scales)),
        workload=args.workload,
        params=parse_param_tokens(args.param or []),
        neighbor=(parse_scenario_kernel_token(args.neighbor)
                  if args.neighbor else None),
    )
    progress = _progress_callback(args)
    result = atlas.run(session=args.session, jobs=args.jobs,
                       progress=progress)
    print(format_atlas_report(result))
    if args.output:
        result.save(args.output)
        print(f"\nsaved atlas result to {args.output}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    kernels = [parse_scenario_kernel_token(token) for token in args.kernels]
    experiment = Experiment.scenario(args.config, kernels,
                                     verify=not args.no_verify)
    record = args.session.run(experiment)
    if args.json:
        print(record.to_json(indent=2))
    else:
        print(record.summary())
        print()
        _print_scenario(record)
    _write_output(args, [record])
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    progress = _progress_callback(args)
    if args.scenarios:
        report = run_scenario_smoke(args.session, jobs=args.jobs,
                                    progress=progress)
    else:
        report = run_smoke(args.session, jobs=args.jobs, progress=progress)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        atomic_write_text(args.output, text + "\n")
        print(f"saved smoke report to {args.output}", file=sys.stderr)
    if args.json:
        print(text)
        return 0
    if args.scenarios:
        rows = [[run["mode"], run["core"], kernel["workload"],
                 str(kernel["stream"]),
                 ("+".join(str(sm) for sm in kernel["sm_mask"])
                  if kernel["sm_mask"] else "all"),
                 str(kernel["cycles"]), str(kernel["instructions"]),
                 str(kernel["overlap_cycles"]),
                 "yes" if run["attribution_exact"] else "NO"]
                for run in report["runs"] for kernel in run["kernels"]]
        print(format_table(
            ["mode", "core", "kernel", "stream", "SMs", "cycles",
             "instructions", "overlap", "exact"],
            rows,
            title=f"Scenario smoke on {report['config']!r}: "
                  f"{report['scenario_count']} scenario(s) x "
                  f"{report['core_count']} core(s)",
        ))
        ok = report["all_verified"] and report["all_attributed"]
        return 0 if ok else 1
    rows = [[run["workload"], run["config"], run["core"],
             str(run["cycles"]), str(run["instructions"]),
             "yes" if run["verified"] else "NO"]
            for run in report["runs"]]
    print(format_table(
        ["workload", "config", "core", "cycles", "instructions", "verified"],
        rows,
        title=f"Smoke matrix: {report['workload_count']} workload(s) x "
              f"{report['config_count']} configuration(s) x "
              f"{report['core_count']} core(s) = "
              f"{report['total_runs']} runs",
    ))
    return 0 if report["all_verified"] else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    store = args.session.store
    if args.cache_command == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if args.cache_command == "prune":
        from repro.store import code_version

        keep = None if args.everything else code_version()
        pruned = store.prune(keep)
        kept = len(store)
        what = ("all entries" if args.everything
                else f"entries not at code version {keep}")
        print(f"pruned {pruned} entr{'y' if pruned == 1 else 'ies'} "
              f"({what}); {kept} remaining")
        return 0
    report = store.verify()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store import ReproServer

    server = ReproServer((args.host, args.port), args.session)
    print(f"repro serve listening on {server.describe()}", file=sys.stderr)
    print("POST /run an experiment spec; GET /stats; GET /healthz; "
          "Ctrl-C to stop", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_transforms(args: argparse.Namespace) -> int:
    rows = [[name, f"{TRANSFORM_REGISTRY.get(name).identity:g}",
             TRANSFORM_REGISTRY.describe(name)]
            for name in available_transforms()]
    print(format_table(["name", "identity", "description"], rows,
                       title="Registered configuration transforms"))
    return 0


def _cmd_cores(args: argparse.Namespace) -> int:
    if args.json:
        report = {
            "cores": [
                {
                    "name": name,
                    "exact": CORE_BACKENDS.get(name).exact,
                    "description": CORE_BACKENDS.describe(name),
                }
                for name in available_core_backends()
            ],
            "core_count": len(available_core_backends()),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = [[name, "yes" if CORE_BACKENDS.get(name).exact else "no",
             CORE_BACKENDS.describe(name)]
            for name in available_core_backends()]
    print(format_table(["name", "exact", "description"], rows,
                       title="Registered simulation-core backends"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On Latency in GPU Throughput "
                    "Microarchitectures' (ISPASS 2015)",
    )
    parser.add_argument(
        "--bundle-dir", action="append", metavar="DIR",
        help="extra kernel-bundle directory to register before the "
             "command runs (repeatable; equivalent to listing DIR on "
             "$REPRO_BUNDLE_PATH, which parallel workers inherit)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    configs = subparsers.add_parser("configs",
                                    help="list registered GPU configurations")
    configs.set_defaults(func=_cmd_configs)

    workloads = subparsers.add_parser("workloads",
                                      help="list registered workloads")
    workloads.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable workload list (name, source, "
             "description) instead of a table")
    workloads.set_defaults(func=_cmd_workloads)

    def add_core_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--core", metavar="NAME",
            help="simulation-core backend to run on (see 'repro cores'); "
                 "reference and fast (alias vector) are byte-identical "
                 "and share stored results, estimator is approximate "
                 "and stored separately (default: each configuration's "
                 "own choice, normally 'fast')")

    def add_store_flag(subparser: argparse.ArgumentParser,
                       required: bool = False) -> None:
        subparser.add_argument(
            "--store", metavar="TARGET", required=required,
            help="persistent result store: a sqlite file path or "
                 "scheme:target (e.g. memory:name); already-stored "
                 "results are served without simulating and fresh "
                 "results are written back, so interrupted runs resume")

    bundle = subparsers.add_parser(
        "bundle",
        help="inspect, validate, run, and export on-disk kernel bundles",
        description="Work with trace bundles: on-disk kernels in the "
                    "five-file format (bundle.toml, program.csv, "
                    "memory.csv, inputs.csv, expected.csv).  Bundles "
                    "register as ordinary workloads, so every "
                    "experiment subcommand accepts them by name; this "
                    "group adds corpus maintenance on top.",
        epilog="Bundle format reference: docs/kernel-bundles.md (the "
               "normative spec: every file, every column, every "
               "bundle.toml key, and the memory-image relocation "
               "rules).")
    bundle_sub = bundle.add_subparsers(dest="bundle_command", required=True)

    bundle_list = bundle_sub.add_parser(
        "list", help="list registered trace bundles (and any skipped "
                     "$REPRO_BUNDLE_PATH directories)")
    bundle_list.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable bundle list, including "
             "fingerprints and lenient-discovery load errors")
    bundle_list.set_defaults(func=_cmd_bundle_list)

    bundle_describe = bundle_sub.add_parser(
        "describe", help="print a bundle's launch geometry, program "
                         "shape, image layout, params, and fingerprint")
    bundle_describe.add_argument(
        "bundle", help="registered bundle name, bundle directory, or "
                       "'-' for a bundle stream on stdin")
    bundle_describe.add_argument(
        "--program", action="store_true",
        help="also print the bundle's program.csv")
    bundle_describe.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable description instead of text")
    bundle_describe.set_defaults(func=_cmd_bundle_describe)

    bundle_validate = bundle_sub.add_parser(
        "validate", help="validate bundle directories (or '-' for a "
                         "stream on stdin); exit 1 when any fails")
    bundle_validate.add_argument(
        "bundles", nargs="+", metavar="BUNDLE",
        help="bundle directory, registered bundle name, or '-'")
    bundle_validate.set_defaults(func=_cmd_bundle_validate)

    bundle_run = bundle_sub.add_parser(
        "run", help="run one bundle and print the Figure 1/2 analyses")
    bundle_run.add_argument(
        "bundle", help="registered bundle name, bundle directory, or "
                       "'-' for a bundle stream on stdin (pipe from "
                       "'repro bundle export')")
    bundle_run.add_argument(
        "--config", default="gf106",
        help="configuration to run on (see 'repro configs')")
    bundle_run.add_argument("--buckets", type=int, default=24)
    bundle_run.add_argument(
        "--json", action="store_true",
        help="emit the full run record as JSON instead of the analyses")
    bundle_run.add_argument("--output",
                            help="save the run as a JSON run set")
    add_core_flag(bundle_run)
    add_store_flag(bundle_run)
    bundle_run.set_defaults(func=_cmd_bundle_run)

    bundle_export = bundle_sub.add_parser(
        "export", help="capture a builder workload as a bundle (stream "
                       "on stdout, or a directory with --out)")
    bundle_export.add_argument(
        "workload", help="registered builder workload to export "
                         "(see 'repro workloads')")
    bundle_export.add_argument(
        "--config", default="gf106",
        help="configuration the capture run executes on; exact cores "
             "make the result config-independent (default: gf106)")
    bundle_export.add_argument(
        "--name", metavar="BUNDLE_NAME",
        help="kernel name recorded in the bundle (default: the "
             "workload's own name)")
    bundle_export.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter for the captured run, e.g. --param "
             "n=128 (repeatable)")
    bundle_export.add_argument(
        "--out", metavar="DIR",
        help="write the five bundle files into DIR instead of "
             "streaming to stdout")
    bundle_export.set_defaults(func=_cmd_bundle_export)

    table1 = subparsers.add_parser("table1",
                                   help="reproduce Table I (static latencies)")
    table1.add_argument("--configs", nargs="*",
                        help="generations to measure (default: the paper's)")
    table1.add_argument("--accesses", type=int, default=256,
                        help="measured chain accesses per data point")
    table1.add_argument("--stride", type=int, default=128,
                        help="pointer-chase stride in bytes")
    table1.add_argument("--output", help="save results as a JSON run set")
    add_core_flag(table1)
    add_store_flag(table1)
    table1.set_defaults(func=_cmd_table1)

    sweep = subparsers.add_parser("sweep",
                                  help="pointer-chase footprint sweep + "
                                       "hierarchy inference")
    sweep.add_argument("--config", action="append",
                       help="configuration to sweep; repeatable for a "
                            "multi-config sweep (default: gf106)")
    sweep.add_argument("--stride", type=int, default=128)
    sweep.add_argument("--space", default="global", choices=["global", "local"])
    sweep.add_argument("--accesses", type=int, default=192)
    sweep.add_argument("--footprints", nargs="*", type=int,
                       help="footprints in bytes (default: span the caches)")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes to shard the sweeps across "
                            "(default: 1, serial)")
    sweep.add_argument("--output", help="save results as a JSON run set")
    add_core_flag(sweep)
    add_store_flag(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    dynamic = subparsers.add_parser("dynamic",
                                    help="run a workload and print the "
                                         "Figure 1/2 analyses")
    dynamic.add_argument("--config", default="gf100",
                         help="configuration to run on (see 'repro configs')")
    dynamic.add_argument("--workload", default="bfs",
                         help="workload to run (see 'repro workloads')")
    dynamic.add_argument("--param", action="append", metavar="KEY=VALUE",
                         help="workload parameter, e.g. --param "
                              "num_nodes=2048 (repeatable; unknown keys "
                              "list the workload's valid parameters)")
    dynamic.add_argument("--buckets", type=int, default=24)
    dynamic.add_argument("--output", help="save results as a JSON run set")
    add_core_flag(dynamic)
    add_store_flag(dynamic)
    dynamic.set_defaults(func=_cmd_dynamic)

    run = subparsers.add_parser("run",
                                help="run experiment spec(s) from a JSON "
                                     "file")
    run.add_argument("spec", help="path to a JSON experiment spec (one "
                                  "object or an array of objects)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes to shard the experiments "
                          "across (default: 1, serial)")
    run.add_argument("--output", help="save results as a JSON run set")
    add_core_flag(run)
    add_store_flag(run)
    run.set_defaults(func=_cmd_run)

    transforms = subparsers.add_parser(
        "transforms", help="list registered configuration transforms")
    transforms.set_defaults(func=_cmd_transforms)

    cores = subparsers.add_parser(
        "cores", help="list registered simulation-core backends")
    cores.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable backend list instead of a table")
    cores.set_defaults(func=_cmd_cores)

    sensitivity = subparsers.add_parser(
        "sensitivity",
        help="latency-sensitivity sweep: perturb a configuration and fit "
             "tolerance metrics")
    sensitivity.add_argument(
        "--config", default="gf106",
        help="base configuration to perturb (see 'repro configs')")
    sensitivity.add_argument(
        "--workload", default="bfs",
        help="workload to run at every sweep point (see 'repro workloads')")
    sensitivity.add_argument(
        "--transform", action="append", metavar="NAME[:VALUE][+NAME...]",
        help="transform axis to sweep; repeatable, members compose with "
             "'+' (default: scale_dram_latency; see 'repro transforms')")
    sensitivity.add_argument(
        "--scales", default="1,2,4,8", metavar="S1,S2,...",
        help="comma-separated sweep scale factors (default: 1,2,4,8)")
    sensitivity.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter, e.g. --param num_nodes=2048 (repeatable)")
    sensitivity.add_argument(
        "--neighbor", metavar="KERNEL",
        help="co-locate a second kernel at every sweep point (same "
             "syntax as 'repro scenario' kernels, default stream 1); "
             "the curve then tracks the primary kernel's attributed "
             "cycles under contention")
    sensitivity.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to shard the sweep points across "
             "(default: 1, serial)")
    sensitivity.add_argument(
        "--output", help="save the sensitivity result as JSON")
    add_core_flag(sensitivity)
    add_store_flag(sensitivity)
    sensitivity.set_defaults(func=_cmd_sensitivity)

    microbench = subparsers.add_parser(
        "microbench",
        help="run or describe one synthetic microbenchmark spec")
    microbench.add_argument(
        "--config", default="gf106",
        help="configuration to run on (see 'repro configs')")
    microbench.add_argument(
        "--set", action="append", metavar="AXIS=VALUE",
        help="spec axis override, e.g. --set ilp=4 (repeatable; unknown "
             "axes list the valid ones)")
    microbench.add_argument(
        "--spec", metavar="FILE",
        help="load the spec from a JSON file (--set overrides on top)")
    microbench.add_argument(
        "--describe", action="store_true",
        help="print the spec, its derived geometry, and the generated "
             "program instead of running it (run-only options such as "
             "--output and --config are ignored)")
    microbench.add_argument("--buckets", type=int, default=24)
    microbench.add_argument("--output",
                            help="without --describe: save the run as a "
                                 "JSON run set")
    add_core_flag(microbench)
    add_store_flag(microbench)
    microbench.set_defaults(func=_cmd_microbench)

    atlas = subparsers.add_parser(
        "atlas",
        help="2-D latency-tolerance atlas: microbench axis x transform "
             "scales")
    atlas.add_argument(
        "--config", default="gf106",
        help="base configuration to perturb (see 'repro configs')")
    atlas.add_argument(
        "--axis", default="ilp=1,2,4,8", metavar="NAME=V1,V2,...",
        help="workload axis swept along the rows "
             "(default: ilp=1,2,4,8)")
    atlas.add_argument(
        "--transform", default="scale_dram_latency",
        metavar="NAME[:VALUE][+NAME...]",
        help="transform axis swept along the columns "
             "(default: scale_dram_latency; see 'repro transforms')")
    atlas.add_argument(
        "--scales", default="1,2,4,8", metavar="S1,S2,...",
        help="comma-separated transform scale factors (default: 1,2,4,8)")
    atlas.add_argument(
        "--workload", default="microbench",
        help="workload providing the row axis (default: microbench)")
    atlas.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter held constant across the grid "
             "(repeatable)")
    atlas.add_argument(
        "--neighbor", metavar="KERNEL",
        help="co-locate a second kernel at every grid point (same "
             "syntax as 'repro scenario' kernels, default stream 1)")
    atlas.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to shard the whole 2-D grid across "
             "(default: 1, serial)")
    atlas.add_argument("--output", help="save the atlas result as JSON")
    add_core_flag(atlas)
    add_store_flag(atlas)
    atlas.set_defaults(func=_cmd_atlas)

    scenario = subparsers.add_parser(
        "scenario",
        help="run several kernels concurrently with per-kernel "
             "attribution")
    scenario.add_argument(
        "kernels", nargs="+", metavar="KERNEL",
        help="kernel spec 'workload[:key=value,...]'; special keys "
             "stream=N (same stream serializes, streams overlap) and "
             "sm_mask=0+1 (pin to an SM partition), everything else is "
             "a workload parameter, e.g. vecadd:n=2048,stream=1")
    scenario.add_argument(
        "--config", default="gf106",
        help="configuration to run on (see 'repro configs')")
    scenario.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-kernel output verification")
    scenario.add_argument(
        "--json", action="store_true",
        help="emit the full run record as JSON instead of the "
             "attribution table")
    scenario.add_argument("--output", help="save the run as a JSON run set")
    add_core_flag(scenario)
    add_store_flag(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    smoke = subparsers.add_parser(
        "smoke",
        help="tiny verified run for every registered workload x "
             "configuration pair")
    smoke.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (what the CI smoke job "
             "asserts against) instead of a table")
    smoke.add_argument(
        "--scenarios", action="store_true",
        help="run the concurrent-kernel scenarios (shared-SM and "
             "SM-partitioned co-location) instead of the workload x "
             "configuration matrix")
    smoke.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to shard the matrix across "
             "(default: 1, serial)")
    smoke.add_argument("--output",
                       help="save the JSON report to a file (with or "
                            "without --json)")
    add_core_flag(smoke)
    add_store_flag(smoke)
    smoke.set_defaults(func=_cmd_smoke)

    cache = subparsers.add_parser(
        "cache",
        help="inspect or maintain a persistent result store")
    add_store_flag(cache, required=True)
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry/byte counts, split by code version and kind")
    prune = cache_sub.add_parser(
        "prune",
        help="drop entries stored under other code versions")
    prune.add_argument(
        "--everything", action="store_true",
        help="drop ALL entries, including the current code version's")
    cache_sub.add_parser(
        "verify",
        help="integrity-check every stored record (exit 1 on corruption)")
    cache.set_defaults(func=_cmd_cache)

    serve = subparsers.add_parser(
        "serve",
        help="HTTP JSON API serving stored (or freshly simulated) results")
    add_store_flag(serve, required=True)
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="port to bind (default: 8023; 0 picks a free "
                            "port)")
    add_core_flag(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def _register_bundle_dirs(directories: List[str]) -> None:
    """Register ``--bundle-dir`` directories and export them to workers.

    Each directory is appended to ``$REPRO_BUNDLE_PATH`` *before* its
    bundles register, so spawned parallel workers — which re-import
    :mod:`repro.workloads` and rerun env discovery — reconstruct the
    identical registry.  Unlike env discovery, an explicitly named
    directory registers strictly: a broken bundle fails the command
    with an error naming the offending file.
    """
    for directory in directories:
        path = Path(directory)
        if not path.is_dir():
            raise BundleError(f"--bundle-dir {directory}: not a directory")
        resolved = str(path.resolve())
        entries = [entry for entry
                   in os.environ.get(tracebundle.BUNDLE_PATH_ENV, "")
                   .split(os.pathsep) if entry.strip()]
        if resolved in entries:
            continue  # already registered by import-time env discovery
        os.environ[tracebundle.BUNDLE_PATH_ENV] = os.pathsep.join(
            entries + [resolved])
        tracebundle.discover_bundles(resolved, source=f"bundle:{resolved}",
                                     strict=True)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _register_bundle_dirs(args.bundle_dir or [])
        args.session = Session(
            core=getattr(args, "core", None),
            store=getattr(args, "store", None))
        result = args.func(args)
        _report_counters(args)
        return result
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
