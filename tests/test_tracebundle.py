"""Trace-bundle frontend tests: loader diagnostics, export round-trips,
and store-key stability.

Three properties pin the bundle format contract:

* a malformed bundle fails at load time with a :class:`BundleError`
  naming the offending *file* (and where possible the line/column), so
  bundle authors never need the loader's source to fix an artifact;
* ``export_workload`` captures a builder workload into files that load
  back into a byte-identical simulation (same cycles, instructions, and
  verified outputs) and survive the stream envelope unchanged;
* a bundle's store identity is its *content* fingerprint: the same
  bytes at a different path hash identically, different bytes do not.
"""

from __future__ import annotations

import io
import json
import sys

import pytest

from repro.cli import main
from repro.experiments import Experiment
from repro.gpu import GPU, get_config
from repro.utils.errors import BundleError
from repro.workloads import (
    available_workloads,
    bundle_workload_names,
    create_workload,
    export_workload,
    load_bundle,
    register_bundle,
    tracebundle,
    unregister_workload,
    workload_source,
)
from repro.workloads.base import Workload
from repro.workloads.tracebundle import (
    builtin_bundle_dir,
    load_bundle_files,
    read_bundle_stream,
    write_bundle_dir,
    write_bundle_stream,
)

#: SMOKE_PARAMS-sized capture parameters for the export round-trip; the
#: coverage test below keeps this in sync with the registry.
EXPORT_PARAMS = {
    "vecadd": {"n": 256, "block_dim": 64},
    "stencil": {"n": 256, "block_dim": 64},
    "matmul": {"n": 8, "block_dim": 64},
    "spmv": {"num_rows": 48, "nnz_per_row": 4},
    "pointer_chase": {"footprint_bytes": 2048, "stride_bytes": 128,
                      "n_accesses": 32},
    "microbench": {"ilp": 2, "mlp": 2, "arith_per_load": 2, "stride": 128,
                   "footprint": 4096, "ctas": 2, "warps_per_cta": 2,
                   "iters": 8},
    "microbench_mlp4": {"footprint": 8192, "ctas": 2, "iters": 8},
}

#: Builder workloads the exporter must *reject*: their ``run`` overrides
#: the single-launch default, so one captured launch cannot replay them.
MULTI_LAUNCH = ("bfs", "reduction")


def corpus_files(name="saxpy"):
    """A copy of a known-good corpus bundle's files to mutate."""
    return dict(load_bundle(builtin_bundle_dir() / name).files)


class TestCorpus:
    def test_corpus_ships_at_least_six_bundles(self):
        assert len(bundle_workload_names()) >= 6

    def test_corpus_registers_with_bundle_source(self):
        for name in bundle_workload_names():
            assert workload_source(name).startswith("bundle")

    def test_corpus_runs_verified_on_both_exact_cores(self):
        for name in bundle_workload_names():
            cycles = {}
            for core in ("reference", "fast"):
                config = get_config("gf106").replace(core_backend=core)
                gpu = GPU(config)
                workload = create_workload(name)
                workload.run(gpu)
                assert workload.verify(gpu), f"{name} on {core}"
                cycles[core] = gpu.cycle
            assert cycles["fast"] == cycles["reference"], name


class TestLoaderDiagnostics:
    """Every malformed-bundle error names the offending file."""

    def test_missing_file(self):
        files = corpus_files()
        del files["expected.csv"]
        with pytest.raises(BundleError, match="expected.csv"):
            load_bundle_files(files)

    def test_unknown_format_version(self):
        files = corpus_files()
        files["bundle.toml"] = files["bundle.toml"].replace(
            "format = 1", "format = 99")
        with pytest.raises(BundleError, match="bundle.toml") as excinfo:
            load_bundle_files(files)
        assert "format" in str(excinfo.value)

    def test_bad_column_name(self):
        files = corpus_files()
        files["program.csv"] = files["program.csv"].replace(
            "pc,opcode", "pc,mnemonic", 1)
        with pytest.raises(BundleError, match="program.csv"):
            load_bundle_files(files)

    def test_bad_column_value_names_file_line_and_column(self):
        files = corpus_files()
        files["program.csv"] = files["program.csv"].replace(
            "ld", "teleport", 1)
        with pytest.raises(BundleError) as excinfo:
            load_bundle_files(files)
        message = str(excinfo.value)
        assert "program.csv" in message
        assert "opcode" in message

    def test_launch_dim_mismatch(self):
        files = corpus_files()
        files["bundle.toml"] = files["bundle.toml"].replace(
            "grid_dim = 3", "grid_dim = 0")
        with pytest.raises(BundleError, match="bundle.toml") as excinfo:
            load_bundle_files(files)
        assert "grid_dim" in str(excinfo.value)

    def test_misaligned_expected_offset(self):
        files = corpus_files()
        # Offsets must be word-aligned (multiples of 4).
        files["expected.csv"] += "2,1.0\n"
        with pytest.raises(BundleError, match="expected.csv"):
            load_bundle_files(files)

    def test_undeclared_input_param(self):
        files = corpus_files()
        files["inputs.csv"] += "ghost,1\n"
        with pytest.raises(BundleError, match="inputs.csv"):
            load_bundle_files(files)

    def test_unknown_toml_key(self):
        files = corpus_files()
        files["bundle.toml"] += "\n[kernel]\ncolour = \"blue\"\n"
        with pytest.raises(BundleError, match="bundle.toml"):
            load_bundle_files(files)

    def test_toml_syntax_error_keeps_line_and_column(self):
        files = corpus_files()
        files["bundle.toml"] += "\n[verify\n"
        with pytest.raises(BundleError, match="bundle.toml") as excinfo:
            load_bundle_files(files)
        assert "line" in str(excinfo.value)
        assert "column" in str(excinfo.value)

    @pytest.mark.parametrize("old,new,key", [
        ("[kernel]\n", '[kernel]\ncolour = ["blue"]\n', "kernel.colour"),
        ("[kernel]\n", '[kernel]\ncolour = {shade = "blue"}\n',
         "kernel.colour"),
        ("[kernel]\n", "[kernel]\nbuilt = 2026-10-17\n", "kernel.built"),
        ("[verify]\n", "[launch.extra]\nx = 1\n\n[verify]\n",
         "launch.extra"),
        ("format = 1\n", 'format = 1\ntags = ["x"]\n', "tags"),
    ])
    def test_non_scalar_toml_value_names_key(self, old, new, key):
        files = corpus_files()
        assert old in files["bundle.toml"]
        files["bundle.toml"] = files["bundle.toml"].replace(old, new, 1)
        with pytest.raises(BundleError, match="bundle.toml") as excinfo:
            load_bundle_files(files)
        assert repr(key) in str(excinfo.value)

    def test_wrong_expected_outputs_fail_verification(self):
        # Structurally valid but numerically wrong expected.csv loads
        # fine and then fails verify() — the runtime half of the check.
        files = corpus_files()
        lines = files["expected.csv"].splitlines(keepends=True)
        header, first = lines[0], lines[1]
        offset, value = first.strip().split(",")
        lines[1] = f"{offset},{float(value) + 1}\n"
        files["expected.csv"] = "".join(lines)
        bundle = load_bundle_files(files)
        workload = tracebundle.make_trace_workload(bundle)()
        gpu = GPU(get_config("gf106"))
        workload.run(gpu)
        assert not workload.verify(gpu)
        assert header.startswith("offset")


class TestExportRoundTrip:
    def test_export_params_cover_single_launch_builders(self):
        builders = {name for name in available_workloads()
                    if workload_source(name) == "builder"}
        single = {name for name in builders
                  if not self._overrides_run(name)}
        assert single == set(EXPORT_PARAMS)
        assert set(MULTI_LAUNCH) == builders - single

    @staticmethod
    def _overrides_run(name):
        from repro.workloads import workload_class

        return workload_class(name).run is not Workload.run

    @pytest.mark.parametrize("name", sorted(EXPORT_PARAMS))
    def test_export_load_run_is_byte_identical(self, name):
        params = EXPORT_PARAMS[name]
        files = export_workload(name, workload_kwargs=dict(params))

        # Baseline: the builder workload on a fresh gf106.
        gpu = GPU(get_config("gf106"))
        builder = create_workload(name, **params)
        baseline = builder.run(gpu)
        assert builder.verify(gpu)

        # The loaded bundle replays the same launch bit-for-bit.
        bundle = load_bundle_files(files, origin=f"<export:{name}>")
        replay_gpu = GPU(get_config("gf106"))
        replay = tracebundle.make_trace_workload(bundle)().run(replay_gpu)
        assert len(replay) == len(baseline) == 1
        assert replay[0].cycles == baseline[0].cycles
        assert replay[0].instructions == baseline[0].instructions
        assert replay[0].stats == baseline[0].stats

    @pytest.mark.parametrize("name", sorted(EXPORT_PARAMS))
    def test_stream_envelope_preserves_bytes(self, name):
        files = export_workload(name, workload_kwargs=dict(EXPORT_PARAMS[name]))
        assert read_bundle_stream(write_bundle_stream(files)) == files

    @pytest.mark.parametrize("name", MULTI_LAUNCH)
    def test_multi_launch_builders_rejected(self, name):
        with pytest.raises(BundleError, match=name):
            export_workload(name)


class TestStoreKeyStability:
    def test_fingerprint_is_path_independent(self, tmp_path):
        files = corpus_files()
        a = load_bundle(write_bundle_dir(files, tmp_path / "here"))
        b = load_bundle(write_bundle_dir(files, tmp_path / "elsewhere"))
        assert a.fingerprint == b.fingerprint

    def test_spec_hash_stable_across_paths(self, tmp_path):
        files = corpus_files()
        experiment = Experiment.dynamic("gf106", "tmp_saxpy", buckets=4)
        hashes = []
        for sub in ("one", "two"):
            bundle = load_bundle(write_bundle_dir(files, tmp_path / sub))
            # Rename so we never shadow the packaged corpus entry.
            bundle.name = "tmp_saxpy"
            register_bundle(bundle, source=f"bundle:{tmp_path / sub}",
                            overwrite=True)
            try:
                hashes.append(experiment.spec_hash())
            finally:
                unregister_workload("tmp_saxpy")
        assert hashes[0] == hashes[1]

    def test_spec_hash_changes_with_bundle_content(self):
        files = corpus_files()
        mutated = files["bundle.toml"].replace("tolerance = 0.0",
                                               "tolerance = 0.5")
        assert mutated != files["bundle.toml"]
        experiment = Experiment.dynamic("gf106", "tmp_saxpy2", buckets=4)
        hashes = []
        for toml in (files["bundle.toml"], mutated):
            bundle = load_bundle_files(dict(files, **{"bundle.toml": toml}))
            bundle.name = "tmp_saxpy2"
            register_bundle(bundle, source="bundle:test", overwrite=True)
            try:
                hashes.append(experiment.spec_hash())
            finally:
                unregister_workload("tmp_saxpy2")
        assert hashes[0] != hashes[1]


class TestBundleCli:
    def test_workloads_json_reports_source(self, capsys):
        assert main(["workloads", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        sources = {entry["name"]: entry["source"]
                   for entry in report["workloads"]}
        assert sources["vecadd"] == "builder"
        assert sources["saxpy"] == "bundle"
        assert report["bundle_count"] >= 6

    def test_bundle_list_json(self, capsys):
        assert main(["bundle", "list", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in report["bundles"]]
        assert "saxpy" in names and len(names) >= 6
        for entry in report["bundles"]:
            assert len(entry["fingerprint"]) == 64

    def test_bundle_validate_names_offending_file(self, tmp_path, capsys):
        files = corpus_files()
        del files["memory.csv"]
        broken = tmp_path / "broken"
        broken.mkdir()
        for filename, content in files.items():
            (broken / filename).write_text(content)
        assert main(["bundle", "validate", str(broken)]) == 1
        assert "memory.csv" in capsys.readouterr().err

    def test_export_pipe_run_round_trips(self, capsys, monkeypatch):
        # The acceptance pipe: repro bundle export vecadd | repro bundle
        # run -  reproduces the builder workload's cycle count.
        gpu = GPU(get_config("gf106"))
        builder = create_workload("vecadd")
        baseline = builder.run(gpu)
        assert builder.verify(gpu)

        assert main(["bundle", "export", "vecadd"]) == 0
        stream = capsys.readouterr().out
        assert stream.startswith(tracebundle.STREAM_HEADER)

        # 'bundle run -' registers the streamed bundle over the builder
        # name for the rest of this process; restore it afterwards.
        from repro.workloads import VecAddWorkload, register_workload

        try:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
            assert main(["bundle", "run", "-", "--json"]) == 0
            replayed = json.loads(capsys.readouterr().out)
        finally:
            register_workload(VecAddWorkload, overwrite=True)
        assert replayed["total_cycles"] == baseline[0].cycles

    def test_bundle_run_by_registered_name(self, capsys):
        assert main(["bundle", "run", "saxpy", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["experiment"]["workload"] == "saxpy"
        assert workload_source("saxpy") == "bundle"

    def test_bundle_run_rejects_unknown_target(self, capsys):
        assert main(["bundle", "run", "no_such_bundle"]) == 1
        err = capsys.readouterr().err
        assert "'no_such_bundle' is neither a registered bundle" in err

    def test_bundle_dir_flag_registers_and_runs(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.delenv(tracebundle.BUNDLE_PATH_ENV, raising=False)
        files = export_workload("vecadd", bundle_name="tmp_vecadd",
                                workload_kwargs={"n": 128, "block_dim": 32})
        write_bundle_dir(files, tmp_path / "tmp_vecadd")
        try:
            assert main(["--bundle-dir", str(tmp_path), "bundle", "list",
                         "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            names = [entry["name"] for entry in report["bundles"]]
            assert "tmp_vecadd" in names
        finally:
            unregister_workload("tmp_vecadd")
            monkeypatch.delenv(tracebundle.BUNDLE_PATH_ENV, raising=False)
