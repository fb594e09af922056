"""Tests for the latency-sensitivity subsystem (repro.sensitivity)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.experiments import Experiment, Session
from repro.gpu import get_config
from repro.sensitivity import (
    INTERCONNECT_HOP_CYCLES,
    SensitivityPoint,
    SensitivityResult,
    SensitivityStudy,
    Transform,
    TransformChain,
    available_transforms,
    chain_from_label,
    chain_label,
    fit_tolerance,
    injected_latency,
    nominal_dram_latency,
    ols_slope,
    parse_transform,
    register_transform,
)
from repro.sensitivity.transforms import TRANSFORM_REGISTRY
from repro.utils.errors import ConfigurationError, ExperimentError

BUILTIN_TRANSFORMS = [
    "add_interconnect_hops",
    "scale_dram_latency",
    "scale_l2_hit_latency",
    "scale_max_warps",
    "scale_mshr_count",
]

#: Strategy for transform values that survive repr/parse round trips and
#: keep every builtin transform applicable to the gf106 preset.
transform_values = st.floats(min_value=0.25, max_value=16.0,
                             allow_nan=False, allow_infinity=False)
transform_strategy = st.builds(
    Transform,
    name=st.sampled_from(BUILTIN_TRANSFORMS),
    value=transform_values,
)
chain_strategy = st.builds(
    TransformChain,
    transforms=st.lists(transform_strategy, min_size=0,
                        max_size=3).map(tuple),
)


class TestConfigDerive:
    def test_nested_replace_leaves_original_untouched(self):
        base = get_config("gf106")
        derived = base.derive({"partition.dram.service_pad": 10,
                               "core.max_warps": 24})
        assert derived.partition.dram.service_pad == 10
        assert derived.core.max_warps == 24
        assert base.partition.dram.service_pad != 10
        assert base.core.max_warps == 48
        # Untouched sub-configuration is structurally preserved.
        assert derived.partition.l2 == base.partition.l2

    def test_unknown_field_raises(self):
        base = get_config("gf106")
        with pytest.raises(ConfigurationError, match="no field"):
            base.derive({"partition.dram.nonexistent": 1})
        with pytest.raises(ConfigurationError, match="no field"):
            base.derive({"bogus": 1})

    def test_path_through_none_component_raises(self):
        gt200 = get_config("gt200")  # no L2 on the global path
        with pytest.raises(ConfigurationError, match="None"):
            gt200.derive({"partition.l2.hit_latency": 50})

    def test_validation_reruns_on_derivation(self):
        base = get_config("gf106")
        with pytest.raises(ConfigurationError):
            base.derive({"partition.dram.t_rcd": 0})
        with pytest.raises(ConfigurationError):
            base.derive({"core.l1.mshr_entries": 0})
        with pytest.raises(ConfigurationError):
            base.derive({"partition.l2.mshr_entries": 0})
        with pytest.raises(ConfigurationError, match="num_schedulers"):
            base.derive({"core.max_warps": 1})


class TestTransforms:
    def test_builtins_registered(self):
        assert available_transforms() == BUILTIN_TRANSFORMS

    def test_scale_dram_latency(self):
        base = get_config("gf106")
        derived = Transform("scale_dram_latency", 2.0).apply(base)
        dram = base.partition.dram
        assert derived.partition.dram.t_rcd == 2 * dram.t_rcd
        assert derived.partition.dram.t_rp == 2 * dram.t_rp
        assert derived.partition.dram.t_cas == 2 * dram.t_cas
        assert derived.partition.dram.service_pad == 2 * dram.service_pad
        # Fractional down-scaling clamps timing fields to legal minima.
        tiny = Transform("scale_dram_latency", 0.0001).apply(base)
        assert tiny.partition.dram.t_rcd == 1
        assert tiny.partition.dram.service_pad == 0

    def test_scale_l2_hit_latency(self):
        base = get_config("gf106")
        derived = Transform("scale_l2_hit_latency", 3.0).apply(base)
        assert (derived.partition.l2.hit_latency
                == 3 * base.partition.l2.hit_latency)

    def test_scale_l2_hit_latency_requires_l2(self):
        with pytest.raises(ConfigurationError, match="no L2"):
            Transform("scale_l2_hit_latency", 2.0).apply(get_config("gt200"))

    def test_add_interconnect_hops(self):
        base = get_config("gf106")
        derived = Transform("add_interconnect_hops", 3).apply(base)
        assert (derived.interconnect.latency
                == base.interconnect.latency + 3 * INTERCONNECT_HOP_CYCLES)
        assert Transform("add_interconnect_hops", 0).apply(base) == base

    def test_scale_mshr_count(self):
        base = get_config("gf106")
        derived = Transform("scale_mshr_count", 0.5).apply(base)
        assert derived.core.l1.mshr_entries == base.core.l1.mshr_entries // 2
        assert (derived.partition.l2.mshr_entries
                == base.partition.l2.mshr_entries // 2)
        # No L2: only the L1 MSHRs scale, and nothing crashes.
        gt200 = Transform("scale_mshr_count", 0.5).apply(get_config("gt200"))
        assert gt200.core.l1.mshr_entries == 16

    def test_scale_max_warps(self):
        base = get_config("gf106")
        assert Transform("scale_max_warps", 0.5).apply(base).core.max_warps == 24

    def test_resource_transforms_raise_cleanly_at_zero(self):
        base = get_config("gf106")
        with pytest.raises(ConfigurationError):
            Transform("scale_mshr_count", 0.0).apply(base)
        with pytest.raises(ConfigurationError):
            Transform("scale_max_warps", 0.0).apply(base)
        # Below the scheduler count is as invalid as zero.
        with pytest.raises(ConfigurationError, match="num_schedulers"):
            Transform("scale_max_warps", 0.02).apply(base)

    def test_unknown_transform_rejected(self):
        with pytest.raises(ExperimentError, match="unknown config transform"):
            Transform("scale_flux_capacitor", 2.0)

    def test_bad_values_rejected(self):
        with pytest.raises(ExperimentError):
            Transform("scale_dram_latency", -1.0)
        with pytest.raises(ExperimentError):
            Transform("scale_dram_latency", float("nan"))
        with pytest.raises(ExperimentError):
            Transform("scale_dram_latency", float("inf"))
        # Sub-half hop counts round to zero hops: a valid no-op.
        base = get_config("gf106")
        assert Transform("add_interconnect_hops", 0.4).apply(base) == base

    def test_identity_flags(self):
        assert Transform("scale_dram_latency", 1.0).is_identity
        assert not Transform("scale_dram_latency", 2.0).is_identity
        assert Transform("add_interconnect_hops", 0.0).is_identity
        assert not Transform("add_interconnect_hops", 1.0).is_identity

    def test_register_transform_plugin(self):
        @register_transform(name="test_double_sms", identity=1.0)
        def double_sms(config, value):
            """Double the SM count (test plugin)."""
            return config.derive({"num_sms": int(config.num_sms * value)})

        try:
            derived = Transform("test_double_sms", 2.0).apply(
                get_config("gf106"))
            assert derived.num_sms == 8
            assert "test_double_sms" in available_transforms()
        finally:
            TRANSFORM_REGISTRY.unregister("test_double_sms")


class TestTransformChain:
    def test_compose_left_to_right(self):
        base = get_config("gf106")
        chain = TransformChain.parse(
            "scale_dram_latency:2+add_interconnect_hops:2")
        derived = chain.apply(base)
        assert derived.partition.dram.t_rcd == 2 * base.partition.dram.t_rcd
        assert (derived.interconnect.latency
                == base.interconnect.latency + 2 * INTERCONNECT_HOP_CYCLES)

    def test_at_scales_every_member(self):
        chain = TransformChain.parse("scale_dram_latency+scale_mshr_count:0.5")
        scaled = chain.at(2.0)
        assert [t.value for t in scaled] == [2.0, 1.0]

    def test_identity_scale(self):
        assert TransformChain.parse("scale_dram_latency").identity_scale() == 1.0
        assert TransformChain.parse(
            "add_interconnect_hops").identity_scale() == 0.0
        assert TransformChain.parse("scale_max_warps:0.125").identity_scale() == 8.0
        mixed = TransformChain.parse(
            "scale_dram_latency+add_interconnect_hops")
        assert mixed.identity_scale() is None

    def test_parse_rejects_garbage(self):
        for token in ("", "+", ":2", "scale_dram_latency:x"):
            with pytest.raises(ExperimentError):
                TransformChain.parse(token)

    def test_parse_defaults_value(self):
        assert parse_transform("scale_dram_latency") == Transform(
            "scale_dram_latency", 1.0)

    def test_parse_values_with_exponent_signs(self):
        # A '+' inside a value (float repr exponent, or user-typed
        # scientific notation) is not a member separator.
        chain = TransformChain((Transform("add_interconnect_hops", 1e16),
                                Transform("scale_dram_latency", 2.0)))
        assert TransformChain.parse(chain.token()) == chain
        parsed = TransformChain.parse(
            "scale_dram_latency:1e+2+add_interconnect_hops:2")
        assert [t.value for t in parsed] == [100.0, 2.0]

    @given(chain_strategy)
    @settings(max_examples=60, deadline=None)
    def test_token_and_json_round_trip(self, chain):
        assert TransformChain.from_json(chain.to_json()) == chain
        if len(chain):
            assert TransformChain.parse(chain.token()) == chain

    @given(chain_strategy)
    @settings(max_examples=60, deadline=None)
    def test_chain_rides_through_experiment_specs(self, chain):
        # The sweep runner carries the chain in the experiment label;
        # a JSON round trip of the spec must preserve it exactly.
        experiment = Experiment.dynamic("gf106", "vecadd",
                                        label=chain_label(chain), n=256)
        restored = Experiment.from_json(experiment.to_json())
        assert restored == experiment
        assert chain_from_label(restored.label) == chain

    def test_chain_from_label_ignores_foreign_labels(self):
        assert chain_from_label(None) is None
        assert chain_from_label("my ablation") is None
        assert chain_from_label(chain_label(TransformChain())) == (
            TransformChain())


class TestNominalLatency:
    def test_monotone_in_perturbed_knobs(self):
        base = get_config("gf106")
        for token in ("scale_dram_latency:2", "scale_l2_hit_latency:2",
                      "add_interconnect_hops:2"):
            derived = TransformChain.parse(token).apply(base)
            assert injected_latency(base, derived) > 0, token

    def test_resource_transforms_inject_nothing(self):
        base = get_config("gf106")
        for token in ("scale_mshr_count:0.5", "scale_max_warps:0.5"):
            derived = TransformChain.parse(token).apply(base)
            assert injected_latency(base, derived) == 0, token

    def test_l2_less_config_skips_l2_term(self):
        gt200 = get_config("gt200")
        assert nominal_dram_latency(gt200) > 0
        derived = TransformChain.parse("scale_dram_latency:2").apply(gt200)
        assert injected_latency(gt200, derived) > 0


class TestMetrics:
    @staticmethod
    def point(scale, cycles, injected, transform="t", exposed=0.5):
        return SensitivityPoint(scale=scale, config="c",
                                transform=transform,
                                injected_latency=injected, cycles=cycles,
                                exposed_fraction=exposed)

    def test_ols_slope(self):
        assert ols_slope([1, 2, 3], [2, 4, 6]) == pytest.approx(2.0)
        assert ols_slope([1, 1, 1], [2, 4, 6]) is None
        assert ols_slope([1], [2]) is None
        with pytest.raises(ExperimentError):
            ols_slope([1, 2], [1])

    def test_fully_tolerant_curve(self):
        # Runtime never moves: tolerance 1 everywhere, no half point.
        points = [self.point(1.0, 1000, 0, transform=""),
                  self.point(2.0, 1000, 500),
                  self.point(4.0, 1000, 1500)]
        metrics = fit_tolerance(points, base_nominal_latency=500)
        assert metrics.baseline_cycles == 1000
        assert metrics.slope_cycles_per_injected == pytest.approx(0.0)
        assert dict(metrics.tolerance_curve)[2.0] == pytest.approx(1.0)
        assert metrics.half_tolerance_scale is None

    def test_latency_bound_curve_crosses_half_immediately(self):
        # Runtime tracks injected latency 1:1 with the nominal estimate:
        # tolerance 0 beyond the baseline.
        points = [self.point(1.0, 1000, 0, transform="")]
        for scale in (2.0, 4.0):
            injected = int(500 * (scale - 1))
            worst = 1000 * (500 + injected) / 500
            points.append(self.point(scale, int(worst), injected))
        metrics = fit_tolerance(points, base_nominal_latency=500)
        assert dict(metrics.tolerance_curve)[2.0] == pytest.approx(0.0)
        assert metrics.half_tolerance_scale == pytest.approx(1.5)
        assert metrics.half_tolerance_injected == pytest.approx(250.0)

    def test_half_tolerance_interpolates_between_points(self):
        points = [self.point(1.0, 1000, 0, transform=""),
                  # worst = 3000; tolerance (3000-1500)/2000 = 0.75
                  self.point(2.0, 1500, 1000),
                  # worst = 5000; tolerance (5000-4000)/4000 = 0.25
                  self.point(4.0, 4000, 2000)]
        metrics = fit_tolerance(points, base_nominal_latency=500)
        assert metrics.half_tolerance_scale == pytest.approx(3.0)

    def test_baseline_is_the_unperturbed_point(self):
        # For axes injecting no latency the baseline is the point with
        # the empty transform token, wherever it sorts.
        points = [self.point(1.0, 2000, 0),
                  self.point(8.0, 1000, 0, transform="")]
        metrics = fit_tolerance(points, base_nominal_latency=500)
        assert metrics.baseline_cycles == 1000
        assert metrics.tolerance_curve == ()
        assert metrics.slope_cycles_per_injected is None
        assert metrics.half_tolerance_scale is None

    def test_no_points_rejected(self):
        with pytest.raises(ExperimentError):
            fit_tolerance([], base_nominal_latency=500)

    def test_metrics_round_trip(self):
        points = [self.point(1.0, 1000, 0, transform=""),
                  self.point(2.0, 1500, 500)]
        metrics = fit_tolerance(points, base_nominal_latency=500)
        from repro.sensitivity import ToleranceMetrics
        assert ToleranceMetrics.from_dict(
            json.loads(json.dumps(metrics.to_dict()))) == metrics


class TestStudySpec:
    def test_requires_axes_and_scales(self):
        with pytest.raises(ExperimentError):
            SensitivityStudy(config="gf106", workload="bfs", transforms=())
        with pytest.raises(ExperimentError):
            SensitivityStudy(config="gf106", workload="bfs",
                             transforms=("scale_dram_latency",), scales=())
        with pytest.raises(ExperimentError, match="duplicate"):
            SensitivityStudy(config="gf106", workload="bfs",
                             transforms=("scale_dram_latency",),
                             scales=(1, 2, 2))
        with pytest.raises(ExperimentError):
            SensitivityStudy(config="", workload="bfs",
                             transforms=("scale_dram_latency",))

    def test_accepts_names_tokens_and_chains(self):
        study = SensitivityStudy(
            config="gf106", workload="bfs",
            transforms=("scale_dram_latency",
                        "scale_mshr_count:0.5",
                        TransformChain.parse("add_interconnect_hops")),
        )
        assert all(isinstance(chain, TransformChain)
                   for chain in study.transforms)

    @given(st.lists(st.sampled_from(BUILTIN_TRANSFORMS), min_size=1,
                    max_size=3, unique=True),
           st.lists(transform_values, min_size=1, max_size=4,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, names, scales):
        study = SensitivityStudy(
            config="gf106", workload="bfs", transforms=tuple(names),
            scales=tuple(scales), params={"num_nodes": 256}, label="x")
        assert SensitivityStudy.from_json(study.to_json()) == study

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError, match="unknown"):
            SensitivityStudy.from_dict({"config": "gf106",
                                        "workload": "bfs",
                                        "transforms": [[]],
                                        "bogus": 1})


@pytest.fixture(scope="module")
def small_study():
    return SensitivityStudy(
        config="gf106", workload="vecadd",
        transforms=("scale_dram_latency", "scale_max_warps:0.25"),
        scales=(1.0, 2.0, 4.0), params={"n": 256},
    )


@pytest.fixture(scope="module")
def small_result(small_study):
    return small_study.run(session=Session())


class TestStudyRun:
    def test_one_curve_per_axis_with_baseline(self, small_study,
                                              small_result):
        assert len(small_result.curves) == len(small_study.transforms)
        dram = small_result.curve("scale_dram_latency")
        assert [point.scale for point in dram.points] == [1.0, 2.0, 4.0]
        assert dram.points[0].transform == ""
        assert dram.points[0].config == "gf106"
        assert dram.points[1].config == "gf106@scale_dram_latency:2.0"
        # Warp axis: member value 0.25 puts the baseline at scale 4.
        warps = small_result.curve("scale_max_warps")
        assert [point.scale for point in warps.points] == [1.0, 2.0, 4.0]
        assert warps.points[-1].transform == ""

    def test_injected_latency_monotone_on_dram_axis(self, small_result):
        dram = small_result.curve("scale_dram_latency")
        injected = [point.injected_latency for point in dram.points]
        assert injected[0] == 0
        assert injected == sorted(injected)
        assert injected[-1] > 0

    def test_cycles_monotone_on_dram_axis(self, small_result):
        dram = small_result.curve("scale_dram_latency")
        cycles = [point.cycles for point in dram.points]
        assert cycles == sorted(cycles)
        assert cycles[0] > 0

    def test_metrics_present(self, small_result):
        metrics = small_result.curve("scale_dram_latency").metrics
        assert metrics.slope_cycles_per_scale > 0
        assert metrics.slope_cycles_per_injected > 0
        assert len(metrics.exposed_fraction_curve) == 3
        warp_metrics = small_result.curve("scale_max_warps").metrics
        assert warp_metrics.slope_cycles_per_injected is None

    def test_baseline_simulated_once_across_axes(self, small_study):
        session = Session()
        small_study.run(session=session)
        # 1 shared baseline + 2 dram points (scale 1 collapses onto it)
        # + 2 warp points (scale 4 is the 0.25-member chain's identity,
        # so it collapses too) = 5 distinct simulations.
        assert session.cache_info()["misses"] == 5

    def test_result_json_round_trip(self, small_result):
        text = small_result.to_json()
        assert SensitivityResult.from_json(text).to_json() == text

    def test_save_and_load(self, small_result, tmp_path):
        path = tmp_path / "result.json"
        small_result.save(path)
        assert SensitivityResult.load(path).to_json() == (
            small_result.to_json())

    def test_unknown_curve_lookup_raises(self, small_result):
        with pytest.raises(ExperimentError, match="no sensitivity curve"):
            small_result.curve("scale_l2_hit_latency")

    def test_parallel_run_byte_identical(self, small_study, small_result):
        parallel = small_study.run(session=Session(), jobs=2)
        assert parallel.to_json() == small_result.to_json()

    def test_progress_callback_sees_every_point(self, small_study):
        seen = []
        small_study.run(session=Session(),
                        progress=lambda done, total, record, source:
                        seen.append((done, total)))
        assert seen == [(index + 1, 5) for index in range(5)]


class TestSensitivityCLI:
    ARGS = ["sensitivity", "--config", "gf106", "--workload", "vecadd",
            "--transform", "scale_dram_latency", "--scales", "1,2",
            "--param", "n=256"]

    def test_basic_run(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "Latency-sensitivity study" in output
        assert "slope (cycles/injected cycle)" in output
        assert "half-tolerance point" in output
        assert "(baseline)" in output

    def test_jobs_output_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr()
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == serial.out
        assert "[1/" in parallel.err  # progress stays on stderr

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sens.json"
        assert main(self.ARGS + ["--output", str(path)]) == 0
        result = SensitivityResult.load(path)
        assert result.curves[0].metrics.baseline_cycles > 0

    def test_transforms_listing(self, capsys):
        assert main(["transforms"]) == 0
        output = capsys.readouterr().out
        for name in BUILTIN_TRANSFORMS:
            assert name in output

    def test_bad_scales_rejected(self, capsys):
        assert main(self.ARGS[:-4] + ["--scales", "1,x"]) == 1
        assert "malformed --scales" in capsys.readouterr().err

    def test_unknown_transform_rejected(self, capsys):
        assert main(["sensitivity", "--transform", "warp_drive",
                     "--scales", "1,2"]) == 1
        assert "unknown config transform" in capsys.readouterr().err
