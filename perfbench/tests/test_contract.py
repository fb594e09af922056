import json
from pathlib import Path

from perfbench import run
from perfbench.layers import unit_of
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])


def test_setup_metric_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_workload_reasons_match_benchmark_json():
    for entry in BENCHMARK["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
