"""Tests for the latency-tolerance atlas (2-D microbench x transform sweep)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    atlas_cycles_table,
    atlas_metrics_table,
    atlas_slope_chart,
    format_atlas_report,
)
from repro.cli import main
from repro.experiments import Session
from repro.sensitivity import (
    AtlasResult,
    LatencyToleranceAtlas,
    TransformChain,
    parse_axis_token,
)
from repro.utils.errors import ExperimentError
from tests.conftest import make_fast_config

#: Tiny constant parameters shared by the atlas tests: a fast-config
#: sweep with a minimal grid stays well under a second per point.
TINY = {"iters": 8, "ctas": 1, "warps_per_cta": 1, "footprint": 2048}


def tiny_atlas(**overrides) -> LatencyToleranceAtlas:
    kwargs = dict(config="fast", axis="ilp", values=(1, 2),
                  transform="scale_dram_latency", scales=(1.0, 2.0),
                  params=TINY)
    kwargs.update(overrides)
    return LatencyToleranceAtlas(**kwargs)


def fast_session() -> Session:
    session = Session(cache=False)
    session.add_config(make_fast_config())
    return session


class TestAtlasSpec:
    def test_requires_config_axis_values(self):
        with pytest.raises(ExperimentError, match="config"):
            LatencyToleranceAtlas(config="", axis="ilp", values=(1,))
        with pytest.raises(ExperimentError, match="axis"):
            LatencyToleranceAtlas(config="fast", axis="", values=(1,))
        with pytest.raises(ExperimentError, match="value"):
            LatencyToleranceAtlas(config="fast", axis="ilp", values=())

    def test_duplicate_values_rejected(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            LatencyToleranceAtlas(config="fast", axis="ilp", values=(1, 1))

    def test_axis_cannot_be_fixed_param(self):
        with pytest.raises(ExperimentError, match="fixed"):
            LatencyToleranceAtlas(config="fast", axis="ilp", values=(1, 2),
                                  params={"ilp": 4})

    def test_unknown_axis_lists_valid_ones(self):
        atlas = tiny_atlas(axis="bogus")
        with pytest.raises(ExperimentError) as excinfo:
            atlas.validate_axis()
        assert "bogus" in str(excinfo.value)
        assert "ilp" in str(excinfo.value)

    def test_transform_token_normalised(self):
        atlas = tiny_atlas(transform="scale_dram_latency:1")
        assert isinstance(atlas.transform, TransformChain)

    def test_dict_round_trip(self):
        atlas = tiny_atlas()
        rebuilt = LatencyToleranceAtlas.from_dict(atlas.to_dict())
        assert rebuilt == atlas
        assert rebuilt.to_json() == atlas.to_json()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError,
                           match="unknown LatencyToleranceAtlas field"):
            LatencyToleranceAtlas.from_dict(
                {"config": "fast", "axis": "ilp", "values": [1], "bogus": 1})

    def test_describe_mentions_axes(self):
        text = tiny_atlas().describe()
        assert "ilp" in text
        assert "scale_dram_latency" in text


class TestAtlasRun:
    @pytest.fixture(scope="class")
    def result(self):
        return tiny_atlas().run(session=fast_session())

    def test_one_row_per_axis_value(self, result):
        assert [row.value for row in result.rows] == [1, 2]

    def test_rows_carry_fitted_curves(self, result):
        for row in result.rows:
            assert len(row.curve.points) == 2
            assert row.curve.metrics.baseline_cycles > 0
            assert row.curve.metrics.slope_cycles_per_injected is not None

    def test_higher_ilp_is_less_latency_sensitive(self, result):
        slopes = [slope for _value, slope in result.slopes()]
        assert slopes[0] > slopes[1] > 0

    def test_row_lookup(self, result):
        assert result.row(2).value == 2
        with pytest.raises(ExperimentError, match="no atlas row"):
            result.row(17)

    def test_parallel_jobs_byte_identical(self, result):
        parallel = tiny_atlas().run(session=fast_session(), jobs=2)
        assert parallel.to_json() == result.to_json()

    def test_result_json_round_trip(self, result, tmp_path):
        rebuilt = AtlasResult.from_json(result.to_json())
        assert rebuilt.to_json() == result.to_json()
        path = tmp_path / "atlas.json"
        result.save(path)
        assert AtlasResult.load(path).to_json() == result.to_json()

    def test_shared_session_dedupes_repeat_rows(self):
        session = fast_session()
        session.cache_enabled = True
        tiny_atlas().run(session=session)
        before = session.cache_misses
        tiny_atlas().run(session=session)
        assert session.cache_misses == before  # all points cache hits

    def test_report_sections(self, result):
        report = format_atlas_report(result)
        assert "Latency-tolerance atlas" in report
        assert "Total cycles per sweep point" in report
        assert "Fitted tolerance metrics" in report
        assert "slope cyc/injected" in atlas_metrics_table(result)
        assert "x1" in atlas_cycles_table(result)
        assert "#" in atlas_slope_chart(result)

    def test_no_injected_latency_axis_renders(self):
        result = tiny_atlas(transform="scale_mshr_count",
                            scales=(1.0, 2.0)).run(session=fast_session())
        chart = atlas_slope_chart(result)
        assert "no latency injected" in chart
        report = format_atlas_report(result)
        assert "scale_mshr_count" in report


class TestAxisTokenParsing:
    def test_parses_ints_and_floats(self):
        assert parse_axis_token("ilp=1,2,4") == ("ilp", [1, 2, 4])
        assert parse_axis_token("divergence=0.0,0.5") == (
            "divergence", [0.0, 0.5])

    @pytest.mark.parametrize("token", ["ilp", "=1,2", "ilp=", "ilp=a,b"])
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ExperimentError):
            parse_axis_token(token)


class TestAtlasCLI:
    def test_atlas_runs_small(self, capsys):
        assert main(["atlas", "--config", "gf106", "--axis", "ilp=1,2",
                     "--scales", "1,2", "--param", "iters=8",
                     "--param", "ctas=1", "--param", "warps_per_cta=1",
                     "--param", "footprint=2048"]) == 0
        output = capsys.readouterr().out
        assert "Latency-tolerance atlas" in output
        assert "Fitted tolerance metrics" in output

    def test_atlas_output_round_trips(self, tmp_path, capsys):
        out = tmp_path / "atlas.json"
        assert main(["atlas", "--config", "gf106", "--axis", "ilp=1,2",
                     "--scales", "1,2", "--param", "iters=8",
                     "--param", "ctas=1", "--param", "warps_per_cta=1",
                     "--param", "footprint=2048",
                     "--output", str(out)]) == 0
        loaded = AtlasResult.load(out)
        assert [row.value for row in loaded.rows] == [1, 2]

    def test_unknown_axis_clean_error(self, capsys):
        assert main(["atlas", "--axis", "bogus=1,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err and "valid axes" in err

    def test_malformed_axis_clean_error(self, capsys):
        assert main(["atlas", "--axis", "ilp=a,b"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a number" in err

    def test_unknown_transform_clean_error(self, capsys):
        assert main(["atlas", "--axis", "ilp=1,2",
                     "--transform", "bogus_transform"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus_transform" in err

    def test_bad_axis_value_clean_error(self, capsys):
        # Values parse but violate the spec's validation: no traceback.
        assert main(["atlas", "--axis", "ilp=0,1", "--scales", "1,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ilp" in err

    def test_smoke_json_parses(self, capsys):
        # The CLI path the CI smoke job drives, end to end.
        assert main(["smoke", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_runs"] == (report["workload_count"]
                                        * report["config_count"]
                                        * report["core_count"])
