"""Tests for the process-parallel experiment executor.

The load-bearing property is determinism: a grid run sharded across N
worker processes must serialize byte-identically to the same grid run
serially, regardless of worker count or completion order.  The rest
covers the cache-merge contract, worker-failure surfacing (both Python
exceptions and hard process death), session-local configs crossing the
process boundary, and the CLI ``--jobs`` plumbing.
"""

import json
import multiprocessing
import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    CompletedRun,
    Experiment,
    ParallelExecutor,
    RunSet,
    Session,
)
from repro.store import MemoryStore
from repro.utils.errors import ExperimentError
from repro.workloads import register_workload, unregister_workload
from repro.workloads.base import LaunchSpec, Workload
from repro.workloads.vecadd import build_vecadd_kernel

#: An 8-point ablation grid (2 configs x 4 problem sizes) of cheap runs.
GRID = Experiment.grid(
    kind="dynamic",
    configs=["gf100", "gt200"],
    workloads=["vecadd"],
    params={"n": [96, 128, 160, 192], "buckets": 4},
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class DyingWorkload(Workload):
    """A workload that kills its whole process: simulates a worker crash."""

    name = "die_test"

    def build_program(self):
        return build_vecadd_kernel()

    def prepare(self, gpu) -> LaunchSpec:
        os._exit(3)

    def verify(self, gpu) -> bool:  # pragma: no cover - never runs
        return True


class TestSpecHash:
    def test_stable_and_content_addressed(self):
        a = Experiment.dynamic("gf100", "vecadd", n=128)
        b = Experiment.dynamic("gf100", "vecadd", n=128)
        c = Experiment.dynamic("gf100", "vecadd", n=256)
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != c.spec_hash()
        assert len(a.spec_hash()) == 16


class TestRunSetAssembly:
    def _record(self):
        return Session().run(Experiment.dynamic("gf100", "vecadd", n=96,
                                                buckets=4))

    def test_from_indexed_restores_submission_order(self):
        record = self._record()
        runs = RunSet.from_indexed([(2, record), (0, record), (1, record)])
        assert len(runs) == 3

    def test_from_indexed_rejects_gaps_and_duplicates(self):
        record = self._record()
        with pytest.raises(ExperimentError):
            RunSet.from_indexed([(0, record), (2, record)])
        with pytest.raises(ExperimentError):
            RunSet.from_indexed([(0, record), (0, record)])

    def test_merge_concatenates(self):
        record = self._record()
        merged = RunSet.merge(RunSet(records=[record]),
                              RunSet(records=[record, record]))
        assert len(merged) == 3


class TestParallelDeterminism:
    def test_grid_jobs4_byte_identical_to_serial(self):
        serial = Session().run_all(GRID, jobs=1)
        parallel = Session().run_all(GRID, jobs=4)
        assert len(parallel) == len(GRID) >= 8
        assert parallel.to_json() == serial.to_json()

    def test_mixed_kind_specs_byte_identical(self):
        specs = [
            Experiment.dynamic("gf100", "vecadd", n=96, buckets=4),
            Experiment.static(configs=["gt200"], accesses=48),
            Experiment.sweep("gt200", accesses=48,
                             footprints=[4096, 16384]),
        ]
        serial = Session().run_all(specs, jobs=1)
        parallel = Session().run_all(specs, jobs=3)
        assert parallel.to_json() == serial.to_json()

    def test_parallel_records_carry_analysis_artifacts(self):
        runs = Session().run_all([GRID[0]], jobs=2)
        # Light artifacts stream back from the workers, so parallel
        # records support the same analysis accessors as cached serial
        # records; only the live simulator state stays behind.
        assert runs[0].breakdown is not None
        assert runs[0].exposure is not None
        assert runs[0].gpu is None


class TestParallelCache:
    def test_duplicate_specs_simulated_once(self):
        session = Session()
        runs = session.run_all([GRID[0], GRID[0], GRID[1]], jobs=2)
        info = session.cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 1
        assert runs[0].to_json() == runs[1].to_json()

    def test_worker_results_merge_into_parent_cache(self):
        session = Session()
        session.run_all(GRID[:4], jobs=2)
        assert session.cache_info() == {"hits": 0, "misses": 4, "size": 4}
        record = session.run(GRID[0])
        assert session.cache_info()["hits"] == 1
        assert record.payload["breakdown"]["total_requests"] > 0

    def test_parent_cache_hits_skip_the_pool(self):
        session = Session()
        first = session.run(GRID[0])
        runs = session.run_all(GRID[:2], jobs=2)
        # The already-cached spec is served locally (same record object).
        assert runs[0].payload is first.payload
        assert session.cache_info()["misses"] == 2

    def test_counters_match_serial_when_cache_disabled(self):
        serial = Session(cache=False)
        serial.run_all([GRID[0], GRID[0]], jobs=1)
        parallel = Session(cache=False)
        parallel.run_all([GRID[0], GRID[0]], jobs=2)
        assert parallel.cache_info() == serial.cache_info() == \
            {"hits": 0, "misses": 2, "size": 0}

    def test_progress_callback_sees_every_record(self):
        seen = []
        session = Session()
        session.run_all(GRID[:3], jobs=2,
                        progress=lambda done, total, record, source:
                        seen.append((done, total, record.kind)))
        assert [done for done, _total, _kind in seen] == [1, 2, 3]
        assert all(total == 3 for _done, total, _kind in seen)


class TestOneResolutionLoop:
    """Serial and ``jobs=2`` runs resolve through one loop, so nothing a
    caller can observe depends on ``jobs``: not the counters, not the
    JSON, not the progress source reported for each spec."""

    HIT = Experiment.dynamic("gf100", "vecadd", n=64, buckets=4)
    MISS = Experiment.dynamic("gf100", "vecadd", n=96, buckets=4)

    def resolve(self, grid, jobs, cache, use_cache):
        store = MemoryStore()
        Session(store=store).run(self.HIT)   # HIT starts as a store hit
        session = Session(cache=cache, store=store)
        sources = []
        runs = session.run_all(
            grid, jobs=jobs, use_cache=use_cache,
            progress=lambda done, total, record, source:
            sources.append((json.dumps(record.experiment, sort_keys=True),
                            source)))
        return session.counters(), runs.to_json(), sorted(sources)

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("repeat", ["hit", "miss"])
    def test_serial_and_parallel_agree(self, repeat, cache, use_cache):
        grid = [self.HIT, self.MISS,
                self.HIT if repeat == "hit" else self.MISS]
        serial = self.resolve(grid, 1, cache, use_cache)
        parallel = self.resolve(grid, 2, cache, use_cache)
        assert parallel == serial

    def test_repeat_of_a_miss_simulates_once(self):
        counters, _json, sources = self.resolve(
            [self.MISS, self.MISS], 1, cache=False, use_cache=True)
        assert counters["simulated"] == 1
        assert counters["cache_misses"] == 2
        assert [source for _spec, source in sources] == ["simulated"] * 2

    def test_inline_records_keep_live_state(self):
        runs = Session().run_all([self.MISS, self.MISS], jobs=1)
        assert runs[0].gpu is not None
        assert runs[1] is runs[0]


class TestWorkerFailures:
    def test_worker_exception_surfaces_with_spec(self):
        spec = Experiment.dynamic("gf100", "vecadd", bogus=3)
        with pytest.raises(ExperimentError, match="worker failed") as info:
            Session().run_all([spec], jobs=2)
        assert "vecadd" in str(info.value)
        assert "bogus" in str(info.value)

    @pytest.mark.skipif(not HAS_FORK,
                        reason="needs fork to see runtime registration")
    def test_worker_process_death_surfaces(self):
        register_workload(DyingWorkload)
        try:
            spec = Experiment.dynamic("gf100", "die_test")
            with pytest.raises(ExperimentError,
                               match="worker process died"):
                Session().run_all([spec], jobs=2)
        finally:
            unregister_workload("die_test")

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)


class TestParallelExecutorDirect:
    def test_imap_streams_completed_runs(self):
        with ParallelExecutor(jobs=2) as executor:
            completed = list(executor.imap(GRID[:3]))
        assert len(completed) == 3
        assert all(isinstance(done, CompletedRun) for done in completed)
        assert sorted(done.index for done in completed) == [0, 1, 2]
        hashes = {done.spec_hash for done in completed}
        assert hashes == {spec.spec_hash() for spec in GRID[:3]}

    def test_run_orders_by_submission(self):
        with ParallelExecutor(jobs=2) as executor:
            runs = executor.run(GRID[:3])
        expected = Session().run_all(GRID[:3], jobs=1)
        assert runs.to_json() == expected.to_json()

    def test_accepts_plain_dict_specs(self):
        with ParallelExecutor(jobs=2) as executor:
            runs = executor.run([spec.to_dict() for spec in GRID[:2]])
        assert len(runs) == 2

    def test_empty_input(self):
        with ParallelExecutor(jobs=2) as executor:
            assert len(executor.run([])) == 0

    def test_session_local_configs_cross_process(self, fast_config):
        session = Session()
        name = session.add_config(fast_config, name="fastpar")
        specs = [Experiment.dynamic(name, "vecadd", n=n, buckets=4)
                 for n in (96, 128)]
        parallel = session.run_all(specs, jobs=2)
        serial = Session(configs={"fastpar": fast_config}).run_all(
            specs, jobs=1)
        assert parallel.to_json() == serial.to_json()
        assert parallel[0].payload["config"] == fast_config.name


class TestCliJobsPlumbing:
    def test_parser_defaults_and_parsing(self):
        args = build_parser().parse_args(["run", "spec.json"])
        assert args.jobs == 1
        args = build_parser().parse_args(["run", "spec.json", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(
            ["sweep", "--config", "gt200", "--config", "gf106",
             "--jobs", "2"])
        assert args.jobs == 2
        assert args.config == ["gt200", "gf106"]

    def test_run_jobs_output_identical_to_serial(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([e.to_dict() for e in GRID[:4]]))
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["run", str(spec), "--output", str(serial_out)]) == 0
        serial_text = capsys.readouterr().out
        assert main(["run", str(spec), "--jobs", "2",
                     "--output", str(parallel_out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.replace(str(parallel_out),
                                    str(serial_out)) == serial_text
        assert parallel_out.read_bytes() == serial_out.read_bytes()
        # Completion progress streams to stderr, not stdout.
        assert "[4/4]" in captured.err

    def test_sweep_multi_config_jobs(self, tmp_path, capsys):
        output = tmp_path / "sweeps.json"
        assert main([
            "sweep", "--config", "gt200", "--config", "gf106",
            "--accesses", "48", "--footprints", "4096", "16384",
            "--jobs", "2", "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("detected 1 level(s)") == 2
        loaded = RunSet.load(output)
        assert [record.experiment["configs"] for record in loaded] == \
            [["gt200"], ["gf106"]]

    def test_worker_failure_reports_clean_cli_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"kind": "dynamic", "configs": ["gf100"], "workload": "vecadd",
             "params": {"bogus": 1}}))
        assert main(["run", str(spec), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: worker failed")
        assert "bogus" in err


class TestNoWorkerOutlivesPool:
    """``run_all`` reaps every worker it forked, however it ends."""

    def test_after_run_all_returns(self):
        Session().run_all(GRID[:2], jobs=2)
        assert multiprocessing.active_children() == []

    def test_after_a_worker_raises(self):
        specs = [GRID[0], Experiment.dynamic("gf100", "vecadd", bogus=3)]
        with pytest.raises(ExperimentError, match="worker failed"):
            Session().run_all(specs, jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAS_FORK,
                        reason="needs fork to see runtime registration")
    def test_after_a_worker_dies(self):
        register_workload(DyingWorkload)
        try:
            specs = [GRID[0], Experiment.dynamic("gf100", "die_test")]
            with pytest.raises(ExperimentError,
                               match="worker process died"):
                Session().run_all(specs, jobs=2)
        finally:
            unregister_workload("die_test")
        assert multiprocessing.active_children() == []
