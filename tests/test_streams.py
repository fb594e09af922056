"""Tests for the stream-based launch path.

Covers the concurrent surface introduced around ``GPU.submit`` /
``GPU.run_until_idle``: stream ordering, SM partitioning, per-kernel
stat attribution (and its sums-to-device-delta invariant), the
``scenario`` experiment kind end to end, and determinism of parallel
scenario execution.
"""

import pytest

from repro.experiments import (
    Experiment,
    Session,
    parse_scenario_kernel_token,
)
from repro.gpu import GPU, get_config
from repro.utils.errors import (
    ConfigurationError,
    ExperimentError,
    SimulationError,
)
from repro.workloads import create_workload

EXACT_CORES = ("reference", "fast")

SHARED = (None, None)
PARTITIONED = ((0, 1), (2, 3))


def make_gpu(core="fast", config_name="gf106"):
    return GPU(get_config(config_name).replace(core_backend=core))


def run_two_kernel_scenario(gpu, masks=SHARED, streams=(0, 1), n=512):
    """Submit vecadd + stencil concurrently and run the device to idle."""
    workloads = [create_workload("vecadd", n=n),
                 create_workload("stencil", n=n)]
    specs = [workload.prepare(gpu) for workload in workloads]
    for workload, spec, stream, mask in zip(workloads, specs, streams,
                                            masks):
        gpu.submit(workload.program, grid_dim=spec.grid_dim,
                   block_dim=spec.block_dim, params=spec.params,
                   stream=stream, sm_mask=mask)
    results = gpu.run_until_idle(attribute=True)
    return workloads, results


def result_fingerprint(results):
    return [
        (r.kernel_name, r.launch_id, r.stream, r.cycles, r.start_cycle,
         r.end_cycle, r.instructions, r.overlap_cycles, sorted(r.stats.items()))
        for r in results
    ]


class TestSubmitValidation:
    def test_negative_stream_rejected(self):
        gpu = make_gpu()
        workload = create_workload("vecadd", n=128)
        spec = workload.prepare(gpu)
        with pytest.raises(ConfigurationError, match="stream id"):
            gpu.submit(workload.program, spec.grid_dim, spec.block_dim,
                       params=spec.params, stream=-1)

    def test_empty_sm_mask_rejected(self):
        gpu = make_gpu()
        workload = create_workload("vecadd", n=128)
        spec = workload.prepare(gpu)
        with pytest.raises(ConfigurationError, match="at least one SM"):
            gpu.submit(workload.program, spec.grid_dim, spec.block_dim,
                       params=spec.params, sm_mask=[])

    def test_out_of_range_sm_mask_rejected(self):
        gpu = make_gpu()  # gf106: 4 SMs
        workload = create_workload("vecadd", n=128)
        spec = workload.prepare(gpu)
        with pytest.raises(ConfigurationError, match=r"\[7\]"):
            gpu.submit(workload.program, spec.grid_dim, spec.block_dim,
                       params=spec.params, sm_mask=[0, 7])

    def test_launch_refuses_outstanding_submissions(self):
        gpu = make_gpu()
        workload = create_workload("vecadd", n=128)
        spec = workload.prepare(gpu)
        gpu.submit(workload.program, spec.grid_dim, spec.block_dim,
                   params=spec.params)
        with pytest.raises(SimulationError, match="run_until_idle"):
            gpu.launch(workload.program, spec.grid_dim, spec.block_dim,
                       params=spec.params)


class TestStreamSemantics:
    def test_same_stream_serializes(self):
        gpu = make_gpu()
        _, results = run_two_kernel_scenario(gpu, streams=(0, 0))
        first, second = results
        assert second.start_cycle >= first.end_cycle
        # Windows may touch at the handover cycle but never interleave.
        assert second.overlap_cycles <= 1

    def test_different_streams_overlap(self):
        gpu = make_gpu()
        _, results = run_two_kernel_scenario(gpu, streams=(0, 1))
        assert all(result.overlap_cycles > 0 for result in results)

    def test_results_in_submission_order(self):
        gpu = make_gpu()
        _, results = run_two_kernel_scenario(gpu)
        assert [r.launch_id for r in results] == [0, 1]
        assert [r.stream for r in results] == [0, 1]
        assert results[0].kernel_name == "vecadd"
        assert results[1].kernel_name == "stencil3"

    def test_partitioned_masks_confine_execution(self):
        gpu = make_gpu()
        _, results = run_two_kernel_scenario(gpu, masks=PARTITIONED)
        banned = {0: ("sm2", "sm3"), 1: ("sm0", "sm1")}
        for result in results:
            for key, value in result.stats.items():
                if value and key.split(".")[0] in banned[result.launch_id]:
                    pytest.fail(
                        f"launch {result.launch_id} has stats on a "
                        f"masked-out SM: {key}={value}"
                    )

    def test_run_until_idle_with_nothing_submitted(self):
        gpu = make_gpu()
        assert gpu.run_until_idle() == []

    def test_back_to_back_drains_are_independent(self):
        gpu = make_gpu()
        _, first = run_two_kernel_scenario(gpu)
        _, second = run_two_kernel_scenario(gpu)
        assert [r.launch_id for r in second] == [2, 3]
        # The second drain re-attributes from scratch: fresh launch ids,
        # fresh windows, real work counted (addresses differ between the
        # two preparations, so exact cycle equality is not guaranteed).
        for result in second:
            assert result.cycles > 0
            assert result.instructions > 0
            assert result.end_cycle > result.start_cycle >= first[0].end_cycle


class TestExactCoreEquivalence:
    @pytest.mark.parametrize("masks", [SHARED, PARTITIONED],
                             ids=["shared", "partitioned"])
    def test_scenario_byte_identical_across_exact_cores(self, masks):
        fingerprints = {}
        for core in EXACT_CORES:
            gpu = make_gpu(core)
            _, results = run_two_kernel_scenario(gpu, masks=masks)
            fingerprints[core] = result_fingerprint(results)
        assert fingerprints["fast"] == fingerprints["reference"]


class TestAttribution:
    def test_per_kernel_stats_sum_to_device_delta(self):
        gpu = make_gpu()
        start = gpu.collect_stats().as_dict()
        start_instructions = gpu._instructions_issued()
        _, results = run_two_kernel_scenario(gpu)
        end = gpu.collect_stats().as_dict()
        delta = {key: end[key] - start.get(key, 0) for key in end}
        attributed = {}
        for result in results:
            for key, value in result.stats.items():
                attributed[key] = attributed.get(key, 0) + value
        # Every attributed counter exists in the device delta and never
        # exceeds it; the residual (device minus attributed) is wholly
        # non-negative — attribution never invents work.
        for key, value in attributed.items():
            assert key in delta, key
            assert value <= delta[key], key
        for key in delta:
            residual = delta[key] - attributed.get(key, 0)
            assert residual >= 0, (key, residual)
        total_instructions = (gpu._instructions_issued()
                              - start_instructions)
        assert sum(r.instructions for r in results) == total_instructions

    def test_instructions_fully_attributed(self):
        gpu = make_gpu()
        _, results = run_two_kernel_scenario(gpu)
        for result in results:
            issued = sum(
                value for key, value in result.stats.items()
                if key.endswith(".instructions_issued"))
            assert issued == result.instructions > 0

    def test_unattributed_residual_is_memory_internals_only(self):
        gpu = make_gpu()
        start = gpu.collect_stats().as_dict()
        _, results = run_two_kernel_scenario(gpu)
        end = gpu.collect_stats().as_dict()
        delta = {key: end[key] - start.get(key, 0) for key in end}
        attributed = {}
        for result in results:
            for key, value in result.stats.items():
                attributed[key] = attributed.get(key, 0) + value
        residual = {key for key in delta
                    if delta[key] - attributed.get(key, 0) != 0}
        prefix = gpu.config.name
        for key in residual:
            assert (key == f"{prefix}.cycles"
                    or key.startswith(f"{prefix}.memory.")
                    or "issue_idle_cycles" in key), key


class TestLimitsAndClock:
    def test_launch_max_cycles_names_kernel(self):
        gpu = make_gpu()
        workload = create_workload("vecadd", n=4096)
        spec = workload.prepare(gpu)
        with pytest.raises(SimulationError,
                           match="kernel 'vecadd' exceeded 10 cycles"):
            gpu.launch(workload.program, spec.grid_dim, spec.block_dim,
                       params=spec.params, max_cycles=10)

    def test_scenario_max_cycles_names_kernel(self):
        gpu = make_gpu()
        workloads = [create_workload("vecadd", n=2048),
                     create_workload("stencil", n=2048)]
        specs = [workload.prepare(gpu) for workload in workloads]
        gpu.submit(workloads[0].program, specs[0].grid_dim,
                   specs[0].block_dim, params=specs[0].params, stream=0)
        gpu.submit(workloads[1].program, specs[1].grid_dim,
                   specs[1].block_dim, params=specs[1].params, stream=1,
                   max_cycles=10)
        with pytest.raises(SimulationError,
                           match="kernel 'stencil3' exceeded 10 cycles"):
            gpu.run_until_idle()

    @pytest.mark.parametrize("core", ("reference", "fast"))
    def test_advance_clock_never_moves_backwards(self, core, monkeypatch):
        gpu = make_gpu(core)
        observed = []

        # The hook fires at every clock-advance decision of both cycle
        # loops (generic and gated), just before the clock moves;
        # a strictly increasing decision-cycle sequence is exactly
        # "the clock never moves backwards".
        def recording(gpu_obj, issued):
            observed.append(gpu_obj.cycle)

        monkeypatch.setattr(type(gpu), "_clock_check_hook",
                            staticmethod(recording))
        create_workload("pointer_chase", footprint_bytes=2048,
                        stride_bytes=128, n_accesses=32).run(gpu)
        assert observed
        assert all(after > before
                   for before, after in zip(observed, observed[1:]))


class TestScenarioExperiments:
    def test_spec_hash_sparse_equals_canonical(self):
        sparse = Experiment.scenario("gf106", [
            {"workload": "vecadd"},
            {"workload": "stencil", "stream": 1},
        ])
        canonical = Experiment.scenario("gf106", [
            {"workload": "vecadd", "params": {}, "stream": 0,
             "sm_mask": None},
            {"workload": "stencil", "params": {}, "stream": 1,
             "sm_mask": None},
        ])
        assert sparse.spec_hash() == canonical.spec_hash()
        rebuilt = Experiment.from_json(sparse.to_json())
        assert rebuilt.spec_hash() == sparse.spec_hash()

    def test_unknown_kernel_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fields"):
            Experiment.scenario("gf106", [
                {"workload": "vecadd", "smmask": [0]},
            ])

    def test_empty_kernels_rejected(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            Experiment.scenario("gf106", [])

    def test_multi_launch_workload_rejected(self):
        session = Session()
        experiment = Experiment.scenario("gf106", [
            {"workload": "bfs"},
            {"workload": "vecadd"},
        ])
        with pytest.raises(ExperimentError,
                           match="drives its own launch loop"):
            session.run(experiment)

    def test_record_attribution_invariant(self):
        session = Session()
        record = session.run(Experiment.scenario("gf106", [
            {"workload": "vecadd", "params": {"n": 256}},
            {"workload": "stencil", "params": {"n": 256}, "stream": 1},
        ]))
        assert record.kind == "scenario"
        assert record.payload["verified"] is True
        device = record.payload["device_stats"]
        combined = dict(record.payload["unattributed"])
        for launch in record.launches:
            for key, value in launch["stats"].items():
                combined[key] = combined.get(key, 0) + value
        nonzero_device = {key: value for key, value in device.items()
                          if value != 0}
        assert combined == nonzero_device
        assert record.total_cycles == record.payload["wall_cycles"]
        assert (record.payload["primary_cycles"]
                == record.launches[0]["cycles"])

    def test_scenario_launch_dicts_carry_identity(self):
        session = Session()
        record = session.run(Experiment.scenario("gf106", [
            {"workload": "vecadd", "params": {"n": 256}},
            {"workload": "stencil", "params": {"n": 256}, "stream": 1},
        ]))
        for index, launch in enumerate(record.launches):
            assert launch["launch_id"] == index
            assert launch["stream"] == index
            assert launch["overlap_cycles"] > 0

    def test_serial_and_parallel_runs_byte_identical(self):
        experiments = [
            Experiment.scenario("gf106", [
                {"workload": "vecadd", "params": {"n": 256}},
                {"workload": "stencil", "params": {"n": 256},
                 "stream": 1},
            ]),
            Experiment.scenario("gf106", [
                {"workload": "vecadd", "params": {"n": 256},
                 "sm_mask": [0, 1]},
                {"workload": "stencil", "params": {"n": 256},
                 "stream": 1, "sm_mask": [2, 3]},
            ]),
        ]
        serial = Session(cache=False).run_all(experiments)
        parallel = Session(cache=False).run_all(experiments, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_estimator_scenario_labeled_approximate(self):
        session = Session(core="estimator")
        record = session.run(Experiment.scenario("gf106", [
            {"workload": "vecadd", "params": {"n": 256}},
            {"workload": "stencil", "params": {"n": 256}, "stream": 1},
        ]))
        assert record.payload["core"] == "estimator"
        assert record.payload["estimated_cycles"] is True

    def test_record_json_roundtrip(self):
        session = Session()
        record = session.run(Experiment.scenario("gf106", [
            {"workload": "vecadd", "params": {"n": 256}},
            {"workload": "stencil", "params": {"n": 256}, "stream": 1},
        ]))
        from repro.experiments import RunSet

        text = RunSet(records=[record]).to_json()
        reloaded = RunSet.from_json(text)
        assert reloaded.to_json() == text
        assert reloaded[0].launches == record.launches


class TestKernelTokenParsing:
    def test_bare_workload(self):
        assert parse_scenario_kernel_token("vecadd") == {
            "workload": "vecadd"}

    def test_full_token(self):
        entry = parse_scenario_kernel_token(
            "stencil:n=1024,stream=1,sm_mask=2+3")
        assert entry == {"workload": "stencil", "stream": 1,
                         "sm_mask": [2, 3], "params": {"n": 1024}}

    def test_single_sm_mask_value(self):
        entry = parse_scenario_kernel_token("vecadd:sm_mask=2")
        assert entry["sm_mask"] == [2]

    def test_malformed_sm_mask_rejected(self):
        with pytest.raises(ExperimentError, match="sm_mask"):
            parse_scenario_kernel_token("vecadd:sm_mask=0+x")

    def test_empty_token_rejected(self):
        with pytest.raises(ExperimentError, match="workload"):
            parse_scenario_kernel_token(":n=1")


class TestColocationSweep:
    def test_sensitivity_neighbor_uses_primary_cycles(self):
        from repro.sensitivity import SensitivityStudy

        study = SensitivityStudy(
            config="gf106", workload="vecadd",
            transforms=("scale_dram_latency",), scales=(1.0, 4.0),
            params={"n": 256},
            neighbor={"workload": "stencil", "params": {"n": 256}},
        )
        assert study.neighbor["stream"] == 1
        result = study.run(session=Session())
        baseline = result.curves[0].points[0]
        # The baseline point is the primary kernel's attributed window,
        # not the scenario wall clock (which includes the neighbor).
        record = result.runs[0]
        assert record.kind == "scenario"
        assert baseline.cycles == record.payload["primary_cycles"]
        assert baseline.cycles < record.total_cycles

    def test_study_neighbor_roundtrips(self):
        from repro.sensitivity import SensitivityStudy

        study = SensitivityStudy(
            config="gf106", workload="vecadd",
            transforms=("scale_dram_latency",),
            neighbor={"workload": "stencil", "sm_mask": [2, 3]},
        )
        rebuilt = SensitivityStudy.from_json(study.to_json())
        assert rebuilt == study
        assert rebuilt.neighbor["sm_mask"] == [2, 3]

    def test_atlas_forwards_neighbor(self):
        from repro.sensitivity import LatencyToleranceAtlas

        atlas = LatencyToleranceAtlas(
            config="gf106", axis="ilp", values=(1, 2),
            neighbor={"workload": "vecadd", "params": {"n": 256}},
        )
        for study in atlas.studies():
            assert study.neighbor == atlas.neighbor
        rebuilt = LatencyToleranceAtlas.from_json(atlas.to_json())
        assert rebuilt == atlas


class TestScenarioSmoke:
    def test_scenario_smoke_report(self):
        from repro.experiments import run_scenario_smoke

        report = run_scenario_smoke(Session(core="fast"))
        assert report["cores"] == ["fast"]
        assert report["modes"] == ["partitioned", "shared"]
        assert report["all_verified"] is True
        assert report["all_attributed"] is True
        for run in report["runs"]:
            assert len(run["kernels"]) == 2
            for kernel in run["kernels"]:
                assert kernel["cycles"] > 0
                assert kernel["instructions"] > 0
