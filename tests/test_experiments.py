"""Tests for the unified experiment layer (registries, specs, session)."""

import json

import pytest

from repro.experiments import (
    Experiment,
    RunRecord,
    RunSet,
    Session,
    parse_param_token,
    parse_param_tokens,
    workload_param_spec,
)
from repro.gpu import (
    available_configs,
    get_config,
    register_config,
    unregister_config,
)
from repro.utils.errors import (
    ConfigurationError,
    ExperimentError,
    RegistryError,
)
from repro.utils.registry import Registry
from repro.workloads import (
    available_workloads,
    create_workload,
    register_workload,
    unregister_workload,
    workload_description,
)
from repro.workloads.base import LaunchSpec, Workload
from repro.workloads.vecadd import build_vecadd_kernel


class EchoWorkload(Workload):
    # Intentionally no docstring: the registry must fall back to the
    # class name instead of crashing (the old CLI bug).

    name = "echo_test"

    def __init__(self, n: int = 64, block_dim: int = 32) -> None:
        super().__init__()
        self.n = n
        self.block_dim = block_dim

    def build_program(self):
        return build_vecadd_kernel()

    def prepare(self, gpu) -> LaunchSpec:
        a = gpu.allocate(4 * self.n, name="echo.a")
        b = gpu.allocate(4 * self.n, name="echo.b")
        c = gpu.allocate(4 * self.n, name="echo.c")
        return LaunchSpec(grid_dim=-(-self.n // self.block_dim),
                          block_dim=self.block_dim,
                          params={"n": self.n, "a": a, "b": b, "c": c})

    def verify(self, gpu) -> bool:
        return True


class TestRegistry:
    def test_register_get_unregister(self):
        registry = Registry("thing")
        registry.register(lambda: 1, name="one", description="the first")
        assert "one" in registry
        assert registry.describe("one") == "the first"
        assert registry.get("one")() == 1
        registry.unregister("one")
        assert "one" not in registry

    def test_collision_raises(self):
        registry = Registry("thing")
        registry.register(lambda: 1, name="one")
        with pytest.raises(RegistryError):
            registry.register(lambda: 2, name="one")
        registry.register(lambda: 2, name="one", overwrite=True)
        assert registry.get("one")() == 2

    def test_unknown_lookup_lists_names(self):
        registry = Registry("thing")
        registry.register(lambda: 1, name="one")
        with pytest.raises(RegistryError, match="one"):
            registry.get("two")
        with pytest.raises(RegistryError):
            registry.unregister("two")

    def test_decorator_styles(self):
        registry = Registry("thing")

        @registry.register
        class Named:
            """A documented thing."""
            name = "named"

        @registry.register(name="other", description="override")
        class Other:
            pass

        assert registry.get("named") is Named
        assert registry.describe("named") == "A documented thing."
        assert registry.describe("other") == "override"

    def test_undocumented_class_gets_name_fallback(self):
        registry = Registry("thing")

        class Bare:
            pass

        registry.register(Bare, name="bare")
        assert registry.describe("bare") == "Bare"


class TestWorkloadRegistry:
    def test_builtins_registered_with_descriptions(self):
        assert "bfs" in available_workloads()
        assert "BFS" in workload_description("bfs")

    def test_register_unregister_roundtrip(self):
        register_workload(EchoWorkload)
        try:
            assert "echo_test" in available_workloads()
            # Docstring-less class: description falls back to class name.
            assert workload_description("echo_test") == "EchoWorkload"
            workload = create_workload("echo_test", n=32)
            assert workload.n == 32
            with pytest.raises(RegistryError):
                register_workload(EchoWorkload)
        finally:
            unregister_workload("echo_test")
        assert "echo_test" not in available_workloads()

    def test_unknown_workload_raises_keyerror_compatible(self):
        with pytest.raises(KeyError):
            create_workload("raytracer")

    def test_workload_param_spec_reflects_signature(self):
        spec = workload_param_spec("vecadd")
        assert spec["n"] == (int, 4096)
        assert spec["block_dim"] == (int, 128)


class TestConfigRegistry:
    def test_builtins_present(self):
        assert set(available_configs()) >= {"gt200", "gf106", "gf100",
                                            "gk104", "gm107"}

    def test_register_config_instance_and_factory(self, fast_config):
        register_config(fast_config, name="fast_test")
        try:
            assert get_config("fast_test").num_sms == fast_config.num_sms
            with pytest.raises(RegistryError):
                register_config(fast_config, name="fast_test")
        finally:
            unregister_config("fast_test")
        with pytest.raises(ConfigurationError):
            get_config("fast_test")


class TestExperimentSpec:
    def test_kind_validation(self):
        with pytest.raises(ExperimentError):
            Experiment(kind="quantum")
        with pytest.raises(ExperimentError):
            Experiment(kind="dynamic", configs=("gf100",))  # no workload
        with pytest.raises(ExperimentError):
            Experiment(kind="sweep", configs=("a", "b"))
        with pytest.raises(ExperimentError):
            Experiment(kind="static", workload="bfs")

    def test_unknown_kind_param_rejected(self):
        with pytest.raises(ExperimentError, match="accesses"):
            Experiment.sweep("gf106", bogus=1)

    def test_kind_params_stored_coerced(self):
        # String values (e.g. from hand-written JSON specs) and scalar
        # footprints must be normalized at construction so the runners
        # never see raw uncoerced values.
        experiment = Experiment.sweep("gt200", accesses="48",
                                      footprints=4096)
        assert experiment.params["accesses"] == 48
        assert experiment.params["footprints"] == [4096]
        with pytest.raises(ExperimentError):
            Experiment.sweep("gt200", accesses="lots")

    def test_json_roundtrip(self):
        experiment = Experiment.dynamic("gf100", "bfs", num_nodes=512,
                                        avg_degree=4, label="demo")
        text = experiment.to_json()
        rebuilt = Experiment.from_json(text)
        assert rebuilt == experiment
        assert rebuilt.to_json() == text

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError):
            Experiment.from_dict({"kind": "static", "banana": 1})

    def test_grid_expansion_counts(self):
        experiments = Experiment.grid(
            kind="dynamic",
            configs=["gf100", "gk104", "gm107"],
            workloads=["bfs", "vecadd"],
            params={"num_nodes": [256, 512], "avg_degree": 4},
        )
        # 3 configs x 2 workloads x 2 swept values = 12; the scalar
        # parameter is constant across all of them.
        assert len(experiments) == 12
        assert all(e.params["avg_degree"] == 4 for e in experiments)
        assert len({e.cache_key() for e in experiments}) == 12

    def test_grid_without_axes_is_product_of_configs_and_workloads(self):
        experiments = Experiment.grid(kind="dynamic", configs=["gf100"],
                                      workloads=["bfs", "vecadd"])
        assert len(experiments) == 2

    def test_grid_nested_list_holds_list_param_constant(self):
        experiments = Experiment.grid(
            kind="sweep", configs=["gf106", "gk104"],
            params={"footprints": [[4096, 65536]]})
        assert len(experiments) == 2
        assert all(e.params["footprints"] == [4096, 65536]
                   for e in experiments)

    def test_param_token_parsing(self):
        assert parse_param_token("n=2048") == ("n", 2048)
        assert parse_param_token("scale=0.5") == ("scale", 0.5)
        assert parse_param_token("verify=true") == ("verify", True)
        assert parse_param_token("space=global") == ("space", "global")
        assert parse_param_tokens(["a=1", "b=x"]) == {"a": 1, "b": "x"}
        with pytest.raises(ExperimentError):
            parse_param_token("broken")


class TestSession:
    def test_dynamic_run_produces_record(self):
        session = Session()
        record = session.run(Experiment.dynamic("gf100", "vecadd", n=128,
                                                buckets=8))
        assert record.kind == "dynamic"
        assert record.total_cycles > 0
        assert len(record.launches) == 1
        assert record.launches[0]["instructions"] > 0
        assert record.breakdown is not None
        assert record.exposure is not None
        assert record.gpu is not None
        assert record.tracker is record.gpu.tracker
        assert record.payload["breakdown"]["total_requests"] > 0

    def test_per_launch_stats_are_deltas(self):
        session = Session(cache=False)
        record = session.run(Experiment.dynamic(
            "gf100", "bfs", num_nodes=128, avg_degree=4, buckets=8))
        launches = record.launches
        assert len(launches) > 1
        issued_key = next(key for key in launches[0]["stats"]
                          if key.endswith("sm0.instructions_issued"))
        # Cumulative counters would grow monotonically across launches;
        # deltas must sum to the GPU's final cumulative counter instead.
        total = sum(launch["stats"][issued_key] for launch in launches)
        final = record.gpu.collect_stats().as_dict()
        final_key = next(key for key in final
                         if key.endswith("sm0.instructions_issued"))
        assert total == final[final_key]
        for launch in launches:
            assert launch["stats"]["gf100.cycles"] == launch["cycles"]

    def test_cache_hit_returns_cached_record(self):
        session = Session()
        spec = Experiment.dynamic("gf100", "vecadd", n=128, buckets=8)
        first = session.run(spec)
        second = session.run(Experiment.dynamic("gf100", "vecadd", n=128,
                                                buckets=8))
        assert session.cache_info() == {"hits": 1, "misses": 1, "size": 1}
        # The hit reuses the first run's results without re-simulating ...
        assert second.payload is first.payload
        assert second.breakdown is first.breakdown
        # ... but cached records drop the live simulator state, so a
        # session does not pin one full GPU per experiment.
        assert first.gpu is not None
        assert second.gpu is None
        assert session.run(spec) is second
        third = session.run(spec, use_cache=False)
        assert third is not second
        session.clear_cache()
        assert session.cache_info()["size"] == 0

    def test_cache_disabled(self):
        session = Session(cache=False)
        spec = Experiment.dynamic("gf100", "vecadd", n=128, buckets=8)
        assert session.run(spec) is not session.run(spec)
        assert session.cache_hits == 0

    def test_session_local_config_shadows_registry(self, fast_config):
        session = Session()
        name = session.add_config(fast_config, name="gf100")
        assert name == "gf100"
        record = session.run(Experiment.dynamic("gf100", "vecadd", n=128,
                                                buckets=8))
        assert record.gpu.config is fast_config
        # A fresh session without the override uses the registry preset.
        assert Session().resolve_config("gf100").num_sms == 4

    def test_local_configs_have_distinct_cache_keys(self, fast_config):
        plain = Session()
        shadowed = Session(configs={"gf100": fast_config})
        spec = Experiment.dynamic("gf100", "vecadd", n=64, buckets=4)
        assert plain._cache_key(spec) != shadowed._cache_key(spec)
        # A default static spec resolves the Table I generations, so
        # shadowing one of them must change the key as well.
        static = Experiment.static(accesses=48)
        assert plain._cache_key(static) == Session()._cache_key(static)
        assert (Session(configs={"gf106": fast_config})._cache_key(static)
                != plain._cache_key(static))

    def test_unknown_workload_param_is_experiment_error(self):
        session = Session()
        with pytest.raises(ExperimentError, match="valid parameters"):
            session.run(Experiment.dynamic("gf100", "vecadd", bogus=3))

    def test_string_params_coerced_to_signature_types(self):
        session = Session()
        record = session.run(Experiment.dynamic("gf100", "vecadd", n="128",
                                                buckets=4))
        assert record.workload.n == 128

    def test_sweep_run(self):
        session = Session()
        record = session.run(Experiment.sweep("gt200", accesses=48,
                                              footprints=[4096, 16384]))
        assert record.kind == "sweep"
        assert record.hierarchy.num_levels == 1
        assert len(record.payload["measurements"]) == 2

    def test_static_run_single_generation(self):
        session = Session()
        record = session.run(Experiment.static(configs=["gt200"],
                                               accesses=48))
        assert record.kind == "static"
        generation = record.payload["generations"][0]
        assert generation["config"] == "gt200"
        assert generation["measured"]["dram"] == pytest.approx(440, rel=0.2)
        assert record.table.row("gt200").paper["dram"] == 440

    def test_run_json_accepts_object_and_array(self):
        session = Session()
        single = session.run_json(json.dumps(
            {"kind": "dynamic", "configs": ["gf100"], "workload": "vecadd",
             "params": {"n": 128, "buckets": 4}}))
        assert len(single) == 1
        assert session.cache_info()["misses"] == 1


class TestRunSetSerialization:
    def _records(self):
        session = Session()
        return session.run_all([
            Experiment.dynamic("gf100", "vecadd", n=128, buckets=8),
            Experiment.sweep("gt200", accesses=48,
                             footprints=[4096, 16384]),
        ])

    def test_to_json_roundtrips_byte_identical(self):
        runs = self._records()
        text = runs.to_json()
        rebuilt = RunSet.from_json(text)
        assert rebuilt.to_json() == text
        # A second round trip is also stable.
        assert RunSet.from_json(rebuilt.to_json()).to_json() == text

    def test_rebuilt_records_have_no_artifacts(self):
        runs = self._records()
        rebuilt = RunSet.from_json(runs.to_json())
        assert rebuilt[0].gpu is None
        assert rebuilt[0].breakdown is None
        assert rebuilt[0].payload == runs[0].payload

    def test_save_and_load(self, tmp_path):
        runs = self._records()
        path = tmp_path / "runs.json"
        runs.save(path)
        loaded = RunSet.load(path)
        assert loaded.to_json() == runs.to_json()

    def test_filter(self):
        runs = self._records()
        assert len(runs.filter(kind="dynamic")) == 1
        assert len(runs.filter(kind="dynamic", workload="vecadd")) == 1
        assert len(runs.filter(kind="dynamic", workload="bfs")) == 0

    def test_record_json_roundtrip(self):
        record = self._records()[0]
        rebuilt = RunRecord.from_json(record.to_json())
        assert rebuilt.to_json() == record.to_json()
        assert rebuilt.total_cycles == record.total_cycles
        assert rebuilt.summary() == record.summary()
