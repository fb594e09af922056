"""Tests for the synthetic microbenchmark generator.

Covers spec validation and JSON round-trips (including hypothesis
property tests for ``to_dict``/``from_dict`` and ``spec_hash``
stability), kernel correctness against the NumPy reference model,
registry integration (the pre-registered workloads and
``register_microbench``), flow through the experiment layer, and the
``repro microbench`` / ``repro smoke`` CLI surfaces with their error
paths.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import (
    SMOKE_PARAMS,
    Experiment,
    Session,
    check_registry_coverage,
    run_smoke,
    smoke_experiments,
    workload_param_spec,
)
from repro.gpu import GPU, available_configs
from repro.utils.errors import ConfigurationError, ExperimentError
from repro.workloads import (
    MicrobenchSpec,
    MicrobenchWorkload,
    available_workloads,
    create_workload,
    microbench_expected,
    microbench_ring,
    register_microbench,
    unregister_workload,
)
from tests.conftest import make_fast_config

#: Hypothesis strategy over valid (small) microbench specs.  Strides and
#: footprints are drawn as multiples so the ring constraint holds by
#: construction.
SPEC_STRATEGY = st.builds(
    MicrobenchSpec,
    ilp=st.integers(min_value=1, max_value=4),
    mlp=st.integers(min_value=1, max_value=4),
    arith_per_load=st.integers(min_value=0, max_value=4),
    stride=st.sampled_from([4, 32, 64, 128, 256]),
    footprint=st.integers(min_value=1, max_value=8).map(lambda n: n * 1024),
    divergence=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    ctas=st.integers(min_value=1, max_value=3),
    warps_per_cta=st.integers(min_value=1, max_value=3),
    iters=st.integers(min_value=1, max_value=24),
)


class TestSpecValidation:
    @pytest.mark.parametrize("axis,value", [
        ("ilp", 0), ("ilp", 33), ("mlp", 0), ("arith_per_load", -1),
        ("ctas", 0), ("warps_per_cta", 0), ("iters", 0),
        ("stride", 0), ("footprint", 0),
    ])
    def test_out_of_range_axis_rejected(self, axis, value):
        with pytest.raises(ConfigurationError, match=axis):
            MicrobenchSpec(**{axis: value})

    def test_non_integer_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="ilp"):
            MicrobenchSpec(ilp=2.5)

    def test_integral_float_accepted(self):
        assert MicrobenchSpec(ilp=2.0).ilp == 2

    def test_stride_must_be_word_multiple(self):
        with pytest.raises(ConfigurationError, match="multiple of 4"):
            MicrobenchSpec(stride=130)

    def test_footprint_must_be_stride_multiple(self):
        with pytest.raises(ConfigurationError, match="footprint"):
            MicrobenchSpec(stride=128, footprint=1000)

    @pytest.mark.parametrize("divergence", [-0.1, 1.5, float("nan"), "half"])
    def test_bad_divergence_rejected(self, divergence):
        with pytest.raises(ConfigurationError, match="divergence"):
            MicrobenchSpec(divergence=divergence)

    def test_unknown_axis_lists_valid_ones(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MicrobenchSpec.from_dict({"ilp": 2, "bogus": 1})
        assert "bogus" in str(excinfo.value)
        assert "mlp" in str(excinfo.value)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="object"):
            MicrobenchSpec.from_json("[1, 2]")
        with pytest.raises(ConfigurationError, match="invalid"):
            MicrobenchSpec.from_json("not json")


class TestSpecGeometry:
    def test_depth_splits_iter_budget_across_chains(self):
        assert MicrobenchSpec(ilp=1, iters=32).depth == 32
        assert MicrobenchSpec(ilp=4, iters=32).depth == 8
        assert MicrobenchSpec(ilp=8, iters=32).depth == 4
        assert MicrobenchSpec(ilp=3, iters=32).depth == 11  # rounds up

    def test_launch_geometry(self):
        spec = MicrobenchSpec(ctas=3, warps_per_cta=2)
        assert spec.block_dim == 64
        assert spec.total_warps == 6
        assert spec.total_threads == 192

    def test_diverged_warp_count_rounds(self):
        assert MicrobenchSpec(divergence=0.0).diverged_warps == 0
        assert MicrobenchSpec(divergence=1.0, ctas=4,
                              warps_per_cta=2).diverged_warps == 8
        assert MicrobenchSpec(divergence=0.5, ctas=2,
                              warps_per_cta=1).diverged_warps == 1


class TestSpecRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(spec=SPEC_STRATEGY)
    def test_dict_round_trip(self, spec):
        assert MicrobenchSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=SPEC_STRATEGY)
    def test_json_round_trip_and_hash_stability(self, spec):
        rebuilt = MicrobenchSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
        # Canonical form: serialize -> parse -> serialize is a fixpoint.
        assert rebuilt.to_json() == spec.to_json()

    @settings(max_examples=25, deadline=None)
    @given(spec=SPEC_STRATEGY)
    def test_hash_changes_with_any_axis(self, spec):
        bumped = MicrobenchSpec.from_dict(
            {**spec.to_dict(), "iters": spec.iters + 1})
        assert bumped.spec_hash() != spec.spec_hash()

    def test_hash_is_stable_across_processes(self):
        # Pinned value: the hash must not depend on dict order, PYTHONHASHSEED,
        # or dataclass internals (worker processes rely on that).
        assert MicrobenchSpec().spec_hash() == (
            MicrobenchSpec.from_json(MicrobenchSpec().to_json()).spec_hash())
        assert json.loads(MicrobenchSpec().to_json())["ilp"] == 2


class TestKernelCorrectness:
    def run_spec(self, **axes):
        workload = MicrobenchWorkload(**axes)
        gpu = GPU(make_fast_config())
        results = workload.run(gpu)
        assert workload.verify(gpu)
        return results[0]

    def test_default_spec_runs_and_verifies(self):
        result = self.run_spec()
        assert result.cycles > 0
        assert result.instructions > 0

    def test_single_chain_no_arithmetic(self):
        self.run_spec(ilp=1, mlp=1, arith_per_load=0, iters=8)

    def test_divergent_half_warps(self):
        self.run_spec(ilp=2, mlp=2, divergence=0.5, iters=12)

    def test_full_divergence_all_warps(self):
        self.run_spec(divergence=1.0, ctas=2, warps_per_cta=3, iters=10)

    def test_wide_mlp_small_stride(self):
        # Lane offsets wrap inside the slot when 32 * mlp * 4 > stride.
        self.run_spec(mlp=4, stride=64, footprint=4096, iters=8)

    def test_cycles_decrease_with_ilp_at_fixed_budget(self):
        cycles = [self.run_spec(ilp=ilp, mlp=1, iters=32, ctas=2,
                                warps_per_cta=2).cycles
                  for ilp in (1, 2, 4, 8)]
        assert cycles == sorted(cycles, reverse=True)
        assert cycles[0] > cycles[-1]

    @settings(max_examples=10, deadline=None)
    @given(spec=SPEC_STRATEGY)
    def test_random_specs_verify(self, spec):
        workload = MicrobenchWorkload(**spec.to_dict())
        gpu = GPU(make_fast_config())
        workload.run(gpu)
        assert workload.verify(gpu)

    def test_ring_holds_next_slot_offsets(self):
        spec = MicrobenchSpec(stride=128, footprint=512)
        ring = microbench_ring(spec)
        assert len(ring) == 128
        # Every word of slot 0 points at slot 1, the last slot wraps to 0.
        assert all(ring[w] == 128 for w in range(32))
        assert all(ring[-32:] == 0)

    def test_expected_model_shape(self):
        spec = MicrobenchSpec(ctas=2, warps_per_cta=2)
        assert microbench_expected(spec).shape == (spec.total_threads,)


class TestRegistryIntegration:
    def test_workload_defaults_match_spec_defaults(self):
        # MicrobenchWorkload.__init__ restates the MicrobenchSpec defaults
        # (the explicit signature is what the registry, workload_param_spec,
        # and Experiment.dynamic see); this pins the two sets together so
        # a change to one without the other fails loudly.
        spec_defaults = MicrobenchSpec().to_dict()
        workload_defaults = {name: default for name, (_target, default)
                             in workload_param_spec("microbench").items()}
        assert workload_defaults == spec_defaults

    def test_microbench_workloads_registered(self):
        names = available_workloads()
        assert "microbench" in names
        assert "microbench_mlp4" in names

    def test_generated_variant_exposes_spec_defaults(self):
        spec = workload_param_spec("microbench_mlp4")
        assert spec["mlp"] == (int, 4)
        assert spec["ilp"] == (int, 1)
        workload = create_workload("microbench_mlp4")
        assert workload.spec.mlp == 4

    def test_generated_variant_accepts_overrides(self):
        workload = create_workload("microbench_mlp4", iters=4, ctas=1)
        assert workload.spec.iters == 4
        assert workload.spec.mlp == 4  # default kept

    def test_generated_variant_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            create_workload("microbench_mlp4", bogus=1)

    def test_register_microbench_round_trip(self):
        spec = MicrobenchSpec(ilp=4, iters=8, ctas=1)
        generated = register_microbench(spec)
        try:
            name = spec.default_name()
            assert name in available_workloads()
            workload = create_workload(name)
            assert workload.spec == spec
            gpu = GPU(make_fast_config())
            workload.run(gpu)
            assert workload.verify(gpu)
            assert generated.name == name
        finally:
            unregister_workload(spec.default_name())

    def test_register_microbench_collision_raises(self):
        from repro.utils.errors import RegistryError

        spec = MicrobenchSpec(ilp=3, iters=6, ctas=1)
        register_microbench(spec, name="microbench_dup_test")
        try:
            with pytest.raises(RegistryError):
                register_microbench(spec, name="microbench_dup_test")
        finally:
            unregister_workload("microbench_dup_test")


class TestExperimentFlow:
    def test_microbench_through_session_and_grid(self):
        session = Session(cache=False)
        session.add_config(make_fast_config())
        grid = Experiment.grid(
            kind="dynamic", configs=["fast"], workloads=["microbench"],
            params={"ilp": [1, 2], "iters": 8, "ctas": 1},
        )
        assert len(grid) == 2
        runs = session.run_all(grid)
        assert all(record.payload["verified"] for record in runs)

    def test_parallel_jobs_byte_identical(self):
        def run(jobs):
            session = Session(cache=False)
            session.add_config(make_fast_config())
            return session.run_all(
                Experiment.grid(kind="dynamic", configs=["fast"],
                                workloads=["microbench"],
                                params={"mlp": [1, 2], "iters": 8,
                                        "ctas": 1}),
                jobs=jobs)

        assert run(1).to_json() == run(2).to_json()

    def test_axis_params_coerce_from_cli_strings(self):
        session = Session(cache=False)
        session.add_config(make_fast_config())
        record = session.run(Experiment.dynamic(
            "fast", "microbench", ilp="2", iters="8", ctas="1"))
        assert record.payload["verified"]


class TestSmoke:
    def test_registry_coverage_check_passes(self):
        check_registry_coverage()

    def test_smoke_grid_covers_cross_product(self):
        from repro.experiments import smoke_workloads

        grid = smoke_experiments()
        assert len(grid) == len(smoke_workloads()) * len(available_configs())
        assert len(smoke_workloads()) > len(SMOKE_PARAMS)  # + trace bundles
        workloads = {workload for workload, _config in grid}
        assert workloads == set(available_workloads())

    def test_missing_smoke_params_detected_as_drift(self, monkeypatch):
        from repro.experiments import smoke as smoke_module

        trimmed = {name: params for name, params
                   in smoke_module.SMOKE_PARAMS.items() if name != "vecadd"}
        monkeypatch.setattr(smoke_module, "SMOKE_PARAMS", trimmed)
        with pytest.raises(ExperimentError, match="registry drift"):
            check_registry_coverage()

    def test_stale_smoke_params_detected_as_drift(self, monkeypatch):
        from repro.experiments import smoke as smoke_module

        padded = dict(smoke_module.SMOKE_PARAMS, ghost={"n": 1})
        monkeypatch.setattr(smoke_module, "SMOKE_PARAMS", padded)
        with pytest.raises(ExperimentError, match="ghost"):
            check_registry_coverage()

    def test_run_smoke_report_structure(self):
        report = run_smoke(Session(cache=False))
        assert report["workload_count"] == len(available_workloads())
        assert report["config_count"] == len(available_configs())
        assert report["total_runs"] == (report["workload_count"]
                                        * report["config_count"]
                                        * report["core_count"])
        assert report["all_verified"]
        assert all(run["cycles"] > 0 for run in report["runs"])
        # The estimator accuracy leg rides along without inflating the
        # exact matrix's counts, and holds its documented error bound
        # across the whole registry cross product.
        estimator = report["estimator"]
        assert estimator["cell_count"] == (report["workload_count"]
                                           * report["config_count"])
        assert estimator["within_bound"]
        assert estimator["worst_error"] <= estimator["bound"]
        assert all(cell["time_quantum"] >= 1
                   for cell in estimator["cells"])
        # JSON-native end to end.
        json.dumps(report)


class TestMicrobenchCLI:
    def test_describe_prints_spec_and_program(self, capsys):
        assert main(["microbench", "--describe", "--set", "ilp=4"]) == 0
        output = capsys.readouterr().out
        assert "ilp=4" in output
        assert "spec hash:" in output
        assert ".kernel microbench" in output

    def test_run_small_spec(self, capsys):
        assert main(["microbench", "--config", "gf106",
                     "--set", "iters=4", "--set", "ctas=1",
                     "--buckets", "4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "Figure 2" in output

    def test_unknown_axis_clean_error(self, capsys):
        assert main(["microbench", "--set", "bogus=3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err and "valid fields" in err and "mlp" in err

    def test_invalid_axis_value_clean_error(self, capsys):
        assert main(["microbench", "--set", "stride=130"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "stride" in err

    def test_divergence_out_of_range_clean_error(self, capsys):
        assert main(["microbench", "--set", "divergence=2.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "divergence" in err

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            MicrobenchSpec(ilp=4, iters=4, ctas=1).to_json())
        assert main(["microbench", "--spec", str(spec_file),
                     "--describe"]) == 0
        assert "ilp=4" in capsys.readouterr().out

    def test_smoke_json_report(self, capsys):
        assert main(["smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_verified"]
        assert report["workload_count"] == len(available_workloads())

    def test_smoke_table(self, capsys):
        assert main(["smoke"]) == 0
        output = capsys.readouterr().out
        assert "Smoke matrix" in output
        assert "microbench_mlp4" in output
