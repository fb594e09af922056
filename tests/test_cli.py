"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_registered(self):
        parser = build_parser()
        for command in ("configs", "workloads", "table1", "sweep", "dynamic"):
            args = parser.parse_args([command] if command in
                                     ("configs", "workloads") else [command])
            assert args.command == command

    def test_run_subcommand_registered(self):
        args = build_parser().parse_args(["run", "spec.json"])
        assert args.command == "run"
        assert args.spec == "spec.json"


class TestCommands:
    def test_configs_lists_all_presets(self, capsys):
        assert main(["configs"]) == 0
        output = capsys.readouterr().out
        for name in ("gt200", "gf106", "gf100", "gk104", "gm107"):
            assert name in output

    def test_workloads_lists_bfs(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "bfs" in output
        assert "pointer_chase" in output

    def test_unknown_config_rejected(self, capsys):
        assert main(["sweep", "--config", "gtx9000",
                     "--footprints", "4096"]) == 1
        err = capsys.readouterr().err
        assert "gtx9000" in err

    def test_table1_single_generation(self, capsys):
        assert main(["table1", "--configs", "gt200", "--accesses", "64"]) == 0
        output = capsys.readouterr().out
        assert "Tesla" in output
        assert "DRAM" in output
        assert "440" in output

    def test_sweep_with_explicit_footprints(self, capsys):
        assert main([
            "sweep", "--config", "gt200", "--accesses", "64",
            "--footprints", "4096", "16384",
        ]) == 0
        output = capsys.readouterr().out
        assert "cycles / access" in output
        assert "detected 1 level(s)" in output

    def test_dynamic_bfs_small(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "bfs",
            "--param", "num_nodes=256", "--param", "avg_degree=4",
            "--buckets", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "Figure 2" in output
        assert "exposed fraction" in output

    def test_dynamic_vecadd(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--buckets", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "vecadd" in output

    def test_dynamic_unknown_param_lists_valid_ones(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--param", "bogus=1",
        ]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "block_dim" in err and "n" in err

    def test_dynamic_param_buckets_not_clobbered_by_default(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--param", "n=128", "--param", "buckets=3",
        ]) == 0
        output = capsys.readouterr().out
        # Three buckets requested via --param must survive the --buckets
        # argparse default; the exposure table then has at most 3 rows.
        table = output.split("Figure 2")[1]
        data_rows = [line for line in table.splitlines()
                     if line and line[0].isdigit()]
        assert 0 < len(data_rows) <= 3

    def test_run_spec_malformed_json_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment JSON")

    def test_dynamic_malformed_param_rejected(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--param", "nonsense",
        ]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"kind": "dynamic", "configs": ["gf100"], "workload": "vecadd",
             "params": {"n": 128, "buckets": 8}},
            {"kind": "sweep", "configs": ["gt200"],
             "params": {"accesses": 48, "footprints": [4096, 16384]}},
        ]))
        output = tmp_path / "results.json"
        assert main(["run", str(spec), "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "Figure 1" in out
        assert "detected" in out
        saved = json.loads(output.read_text())
        assert len(saved["records"]) == 2

    def test_run_spec_missing_file(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cores_lists_registered_backends(self, capsys):
        assert main(["cores"]) == 0
        output = capsys.readouterr().out
        for name in ("reference", "fast", "vector", "estimator"):
            assert name in output
        assert "exact" in output

    def test_cores_json_machine_readable(self, capsys):
        assert main(["cores", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [core["name"] for core in report["cores"]]
        assert report["core_count"] == len(names)
        for name in ("reference", "fast", "vector", "estimator"):
            assert name in names
        by_name = {core["name"]: core for core in report["cores"]}
        assert by_name["reference"]["exact"] is True
        assert by_name["estimator"]["exact"] is False
        assert all("options" not in core for core in report["cores"])

    def test_scenario_two_kernels(self, capsys):
        assert main([
            "scenario", "vecadd:n=256", "stencil:n=256,stream=1",
            "--config", "gf106",
        ]) == 0
        output = capsys.readouterr().out
        assert "2 concurrent kernel(s)" in output
        assert "vecadd" in output and "stencil3" in output
        assert "wall cycles" in output

    def test_scenario_json_record(self, capsys):
        assert main([
            "scenario", "vecadd:n=256",
            "stencil:n=256,stream=1,sm_mask=2+3",
            "--config", "gf106", "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "scenario"
        assert len(record["launches"]) == 2
        assert record["launches"][1]["stream"] == 1
        kernels = record["experiment"]["params"]["kernels"]
        assert kernels[1]["sm_mask"] == [2, 3]

    def test_scenario_rejects_multi_launch_workload(self, capsys):
        assert main(["scenario", "bfs", "--config", "gf106"]) == 1
        assert "launch loop" in capsys.readouterr().err

    def test_core_flag_on_all_experiment_subcommands(self):
        parser = build_parser()
        for argv in (["table1"], ["sweep"], ["dynamic"],
                     ["run", "spec.json"], ["sensitivity"], ["microbench"],
                     ["atlas"], ["smoke"], ["scenario", "vecadd"]):
            args = parser.parse_args(argv + ["--core", "vector"])
            assert args.core == "vector"

    def test_core_flag_selects_backend(self, capsys):
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--param", "n=128", "--buckets", "8", "--core", "vector",
        ]) == 0
        assert "vecadd" in capsys.readouterr().out

    def test_unknown_core_rejected(self, capsys):
        # A core is picked by name alone: an option suffix makes an
        # unknown name too.
        for core in ("warpdrive", "estimator:time_quantum=16"):
            assert main([
                "dynamic", "--config", "gf100", "--workload", "vecadd",
                "--core", core,
            ]) == 1
            err = capsys.readouterr().err
            assert core in err
            assert "available" in err and "estimator" in err

    def test_ctrl_c_exits_130_without_traceback(self, capsys, monkeypatch):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_configs", interrupted)
        assert main(["configs"]) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"
        assert "Traceback" not in err


class TestSmokeCoreMatrix:
    def test_smoke_report_counts_cores(self, capsys, monkeypatch):
        from repro.experiments import smoke as smoke_module

        monkeypatch.setattr(smoke_module, "SMOKE_PARAMS",
                            {"vecadd": {"n": 96, "block_dim": 64}})
        monkeypatch.setattr(smoke_module, "bundle_workload_names",
                            lambda: [])
        monkeypatch.setattr(smoke_module, "check_registry_coverage",
                            lambda: None)
        assert main(["smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cores"] == ["fast", "vector"]
        assert report["core_count"] == 2
        assert report["total_runs"] == (report["workload_count"]
                                        * report["config_count"]
                                        * report["core_count"])
        assert report["all_verified"] is True
        for core in report["cores"]:
            assert any(run["core"] == core for run in report["runs"])

    def test_smoke_with_explicit_core_runs_single_pass(self, capsys,
                                                       monkeypatch):
        from repro.experiments import smoke as smoke_module

        monkeypatch.setattr(smoke_module, "SMOKE_PARAMS",
                            {"vecadd": {"n": 96, "block_dim": 64}})
        monkeypatch.setattr(smoke_module, "bundle_workload_names",
                            lambda: [])
        monkeypatch.setattr(smoke_module, "check_registry_coverage",
                            lambda: None)
        assert main(["smoke", "--json", "--core", "vector"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cores"] == ["vector"]
        assert report["core_count"] == 1
        assert report["all_verified"] is True

    def test_smoke_scenarios_json(self, capsys):
        assert main(["smoke", "--scenarios", "--json",
                     "--core", "fast"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == "gf106"
        assert report["modes"] == ["partitioned", "shared"]
        assert report["all_verified"] is True
        assert report["all_attributed"] is True
        for run in report["runs"]:
            assert [k["workload"] for k in run["kernels"]] == [
                "vecadd", "stencil"]
            if run["mode"] == "partitioned":
                assert [k["sm_mask"] for k in run["kernels"]] == [
                    [0, 1], [2, 3]]

    def test_smoke_scenarios_table(self, capsys):
        assert main(["smoke", "--scenarios", "--core", "fast"]) == 0
        output = capsys.readouterr().out
        assert "Scenario smoke" in output
        assert "partitioned" in output and "shared" in output

    def test_dynamic_output_roundtrips(self, tmp_path, capsys):
        from repro.experiments import RunSet

        output = tmp_path / "run.json"
        assert main([
            "dynamic", "--config", "gf100", "--workload", "vecadd",
            "--param", "n=128", "--buckets", "8",
            "--output", str(output),
        ]) == 0
        loaded = RunSet.load(output)
        assert len(loaded) == 1
        assert loaded[0].kind == "dynamic"
        assert loaded[0].to_json() == RunSet.from_json(
            output.read_text()).records[0].to_json()
