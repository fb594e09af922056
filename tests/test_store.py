"""Tests for the persistent content-addressed result store.

Covers the backend contract (parametrized over the in-memory and sqlite
backends, so both implement the same interface), the
``(spec_hash, config_hash, code_version)`` keying rules, session
read-through/write-through integration (serial and ``jobs=N``), the
crash-resume guarantees (delete-a-subset and SIGKILL-mid-flight, both
byte-identical to a cold run), atomic output writes, and the CLI
``--store`` / ``cache`` surfaces.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from tests.conftest import make_fast_config
from repro.cli import main
from repro.experiments import Experiment, RunSet, Session
from repro.experiments.results import RunRecord, rehydrate_artifacts
from repro.store import (
    STORE_REGISTRY,
    MemoryStore,
    ResultStore,
    SqliteStore,
    StoreKey,
    code_version,
    compute_code_version,
    config_fingerprint,
    fingerprint_files,
    open_store,
    register_store,
    unregister_store,
)
from repro.store.version import CODE_VERSION_ENV
from repro.utils.atomic import atomic_write_text
from repro.utils.errors import StoreError

#: A cheap dynamic experiment (one tiny vecadd launch).
CHEAP = Experiment.dynamic("gf100", "vecadd", n=96, buckets=4)

#: A 6-point grid of distinct cheap runs (crash-resume tests).
RESUME_GRID = Experiment.grid(
    kind="dynamic", configs=["gf100"], workloads=["vecadd"],
    params={"n": [64, 80, 96, 112, 128, 144], "buckets": 4},
)

KEY = StoreKey("a" * 16, "b" * 16, "c" * 16)
RECORD = {"kind": "dynamic", "experiment": {"kind": "dynamic"},
          "total_cycles": 42, "launches": [], "payload": {"x": 1}}


def fresh_store(backend, tmp_path):
    if backend == "memory":
        return MemoryStore()
    return SqliteStore(str(tmp_path / "store.sqlite"))


# ----------------------------------------------------------------------
# Backend contract (both backends must agree)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestBackendContract:
    def test_get_put_roundtrip(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        assert store.get(KEY) is None
        assert KEY not in store
        store.put(KEY, RECORD)
        assert KEY in store
        assert store.get(KEY) == RECORD

    def test_put_replaces(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        store.put(KEY, RECORD)
        store.put(KEY, dict(RECORD, total_cycles=7))
        assert store.get(KEY)["total_cycles"] == 7
        assert len(store) == 1

    def test_delete(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        store.put(KEY, RECORD)
        assert store.delete(KEY)
        assert not store.delete(KEY)
        assert store.get(KEY) is None

    def test_keys_deterministic_order(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        keys = [StoreKey(f"{i:016x}", "b" * 16, "c" * 16)
                for i in (3, 1, 2)]
        for key in keys:
            store.put(key, RECORD)
        assert store.keys() == sorted(keys, key=StoreKey.as_tuple)
        assert len(store) == 3

    def test_prune_other_code_versions(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        keep = StoreKey("a" * 16, "b" * 16, "current0current0")
        drop = StoreKey("a" * 16, "b" * 16, "stale0stale0stal")
        store.put(keep, RECORD)
        store.put(drop, RECORD)
        assert store.prune("current0current0") == 1
        assert store.keys() == [keep]

    def test_prune_everything(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        store.put(KEY, RECORD)
        assert store.prune(None) == 1
        assert len(store) == 0

    def test_stats(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        store.put(KEY, RECORD)
        store.put(StoreKey("d" * 16, "b" * 16, "c" * 16),
                  dict(RECORD, kind="sweep"))
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["by_code_version"] == {"c" * 16: 2}
        assert stats["by_kind"] == {"dynamic": 1, "sweep": 1}
        assert stats["record_bytes"] > 0
        json.dumps(stats)

    def test_verify_clean(self, backend, tmp_path):
        store = fresh_store(backend, tmp_path)
        store.put(KEY, RECORD)
        report = store.verify()
        assert report["ok"]
        assert report["checked"] == 1
        assert report["corrupt"] == []


class TestCorruption:
    def test_sqlite_detects_bit_rot(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = SqliteStore(path)
        store.put(KEY, RECORD)
        store._conn.execute(
            "UPDATE results SET record_json = ?", ('{"kind": "tampered"}',))
        store._conn.commit()
        report = store.verify()
        assert not report["ok"]
        assert "checksum" in report["corrupt"][0]["problem"]

    def test_get_raises_on_unparsable_record(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = SqliteStore(path)
        store.put(KEY, RECORD)
        store._conn.execute("UPDATE results SET record_json = 'not json'")
        store._conn.commit()
        with pytest.raises(StoreError, match="corrupt record"):
            store.get(KEY)
        assert not store.verify()["ok"]

    def test_sqlite_missing_parent_dir(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            SqliteStore(str(tmp_path / "nope" / "store.sqlite"))


class TestOpenStore:
    def test_bare_path_is_sqlite(self, tmp_path):
        store = open_store(str(tmp_path / "results.sqlite"))
        assert isinstance(store, SqliteStore)

    def test_scheme_dispatch(self, tmp_path):
        assert isinstance(open_store("memory:"), MemoryStore)
        assert isinstance(
            open_store(f"sqlite:{tmp_path / 'r.sqlite'}"), SqliteStore)

    def test_named_memory_stores_are_shared(self):
        first = open_store("memory:shared-test-store")
        second = open_store("memory:shared-test-store")
        assert first is second
        first.put(KEY, RECORD)
        assert second.get(KEY) == RECORD
        first.prune(None)

    def test_private_memory_stores_are_not(self):
        assert open_store("memory:") is not open_store("memory:")

    def test_empty_target_rejected(self):
        with pytest.raises(StoreError, match="empty store target"):
            open_store("")

    def test_registry_is_open(self):
        class NullStore(ResultStore):
            scheme = "null-test"

            @classmethod
            def from_target(cls, target):
                return cls()

        register_store(NullStore)
        try:
            assert "null-test" in STORE_REGISTRY
            assert isinstance(open_store("null-test:"), NullStore)
        finally:
            unregister_store("null-test")
        assert "null-test" not in STORE_REGISTRY


# ----------------------------------------------------------------------
# Keying rules
# ----------------------------------------------------------------------
class TestStoreKey:
    def test_env_override_pins_code_version(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "pinned0pinned0pi")
        assert code_version() == "pinned0pinned0pi"

    def test_code_version_tracks_source_bytes(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "core").mkdir(parents=True)
        (root / "core" / "sim.py").write_text("LATENCY = 100\n")
        (root / "store").mkdir()
        (root / "store" / "base.py").write_text("STORAGE = 1\n")
        before = compute_code_version(root)
        # Excluded subtree: storage-layer edits do not invalidate.
        (root / "store" / "base.py").write_text("STORAGE = 2\n")
        assert compute_code_version(root) == before
        # Simulator edits do.
        (root / "core" / "sim.py").write_text("LATENCY = 200\n")
        assert compute_code_version(root) != before
        assert fingerprint_files(root) == ("core/sim.py",)

    def test_spec_hash_component(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "v0000000v0000000")
        session = Session()
        key = session.store_key(CHEAP)
        assert key.spec_hash == CHEAP.spec_hash()
        assert key.code_version == "v0000000v0000000"
        other = session.store_key(
            Experiment.dynamic("gf100", "vecadd", n=128, buckets=4))
        assert other.spec_hash != key.spec_hash
        assert other.config_hash == key.config_hash

    def test_session_local_config_changes_key(self):
        plain = Session()
        shadowed = Session()
        shadowed.add_config(make_fast_config(name="gf100"))
        assert (plain.store_key(CHEAP).config_hash
                != shadowed.store_key(CHEAP).config_hash)

    def test_static_defaults_resolve_generations(self):
        session = Session()
        defaulted = session.store_key(Experiment.static())
        explicit = session.store_key(Experiment.static(
            configs=["gt200", "gf106", "gk104", "gm107"]))
        # Same resolved configs, different specs.
        assert defaulted.config_hash == explicit.config_hash
        assert defaulted.spec_hash != explicit.spec_hash

    def test_config_fingerprint_deterministic(self):
        a = make_fast_config(name="x")
        assert (config_fingerprint([a])
                == config_fingerprint([make_fast_config(name="x")]))
        assert (config_fingerprint([a])
                != config_fingerprint([a.replace(num_sms=1)]))


# ----------------------------------------------------------------------
# Core-backend keying: the config_hash exemption is restricted to the
# proven-byte-identical equivalence class (reference/fast/vector);
# everything else is keyed separately.
# ----------------------------------------------------------------------
class TestCoreBackendKeying:
    def test_exact_cores_share_config_hash(self):
        base = Session().store_key(CHEAP)
        for core in ("reference", "fast", "vector"):
            assert (Session(core=core).store_key(CHEAP).as_tuple()
                    == base.as_tuple()), core

    def test_estimator_keyed_separately(self):
        exact = Session().store_key(CHEAP)
        estimated = Session(core="estimator").store_key(CHEAP)
        assert exact.config_hash != estimated.config_hash
        assert exact.spec_hash == estimated.spec_hash

    def test_unknown_backend_keyed_separately(self):
        a = make_fast_config(name="x")
        fingerprints = {
            config_fingerprint([a]),
            config_fingerprint([a.replace(core_backend="vector")]),
            config_fingerprint([a.replace(core_backend="estimator")]),
            config_fingerprint([a.replace(core_backend="third-party")]),
        }
        # fast == vector (exact class); estimator and the unknown name
        # each hash differently.
        assert len(fingerprints) == 3

    def test_vector_served_fast_results(self):
        """Warm store written by the fast core serves a vector session."""
        store = MemoryStore()
        Session(store=store).run(CHEAP)
        vector = Session(store=store, core="vector")
        warm = vector.run(CHEAP)
        assert vector.counters()["simulated"] == 0
        assert vector.counters()["store_hits"] == 1
        assert warm.to_json() == Session().run(CHEAP).to_json()

    def test_estimator_never_served_for_exact_requests(self):
        """An estimator-populated store must not satisfy an exact run."""
        store = MemoryStore()
        estimator = Session(store=store, core="estimator")
        estimator.run(CHEAP)
        assert estimator.counters()["simulated"] == 1

        exact = Session(store=store)
        exact.run(CHEAP)
        assert exact.counters()["store_hits"] == 0
        assert exact.counters()["simulated"] == 1

    def test_exact_results_never_served_for_estimator_requests(self):
        store = MemoryStore()
        Session(store=store).run(CHEAP)
        estimator = Session(store=store, core="estimator")
        record = estimator.run(CHEAP)
        assert estimator.counters()["store_hits"] == 0
        assert estimator.counters()["simulated"] == 1
        assert record.payload["estimated_cycles"] is True


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_open_by_path(self, tmp_path):
        session = Session(store=str(tmp_path / "s.sqlite"))
        assert isinstance(session.store, SqliteStore)

    def test_second_session_simulates_nothing(self):
        store = MemoryStore()
        first = Session(store=store)
        cold = first.run(CHEAP)
        assert first.counters()["simulated"] == 1
        assert first.counters()["store_misses"] == 1

        second = Session(store=store)
        warm = second.run(CHEAP)
        counters = second.counters()
        assert counters["simulated"] == 0
        assert counters["store_hits"] == 1
        assert counters["store_misses"] == 0
        assert warm.to_json() == cold.to_json()

    def test_store_hit_rehydrates_artifacts(self):
        store = MemoryStore()
        Session(store=store).run(CHEAP)
        record = Session(store=store).run(CHEAP)
        assert record.breakdown is not None
        assert record.exposure is not None
        # Print-faithful: the formatted analyses match the live run's.
        live = Session().run(CHEAP)
        assert (record.breakdown.format_table()
                == live.breakdown.format_table())
        assert (record.exposure.format_table()
                == live.exposure.format_table())

    def test_store_hit_lands_in_memory_cache(self):
        store = MemoryStore()
        Session(store=store).run(CHEAP)
        session = Session(store=store)
        session.run(CHEAP)
        session.run(CHEAP)
        counters = session.counters()
        assert counters["store_hits"] == 1
        assert counters["cache_hits"] == 1

    def test_use_cache_false_still_writes_through(self):
        store = MemoryStore()
        session = Session(store=store)
        session.run(CHEAP)
        session.run(CHEAP, use_cache=False)
        counters = session.counters()
        assert counters["simulated"] == 2       # forced re-run
        assert counters["store_hits"] == 0      # reads skipped
        assert len(store) == 1                  # still written through

    def test_progress_reports_source(self):
        store = MemoryStore()
        Session(store=store).run(CHEAP)
        sources = []
        session = Session(store=store)
        session.run_all([CHEAP, CHEAP,
                         Experiment.dynamic("gf100", "vecadd",
                                            n=80, buckets=4)],
                        progress=lambda done, total, record, source:
                        sources.append((done, total, source)))
        assert sources == [(1, 3, "store"), (2, 3, "cache"),
                           (3, 3, "simulated")]


HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()


def _process_alive(pid):
    """Whether ``pid`` runs; an unreaped zombie counts as exited."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state not in ("Z", "X")


@pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
class TestSessionStoreParallel:
    def test_parallel_counters_match_serial(self):
        grid = RESUME_GRID[:3] + RESUME_GRID[:1]   # one duplicate
        serial = Session(store=MemoryStore())
        serial_set = serial.run_all(grid)
        parallel = Session(store=MemoryStore())
        parallel_set = parallel.run_all(grid, jobs=2)
        assert parallel.counters() == serial.counters()
        assert parallel_set.to_json() == serial_set.to_json()

    def test_warm_parallel_run_never_reaches_the_pool(self):
        store = MemoryStore()
        cold = Session(store=store)
        cold_set = cold.run_all(RESUME_GRID[:3], jobs=2)
        warm = Session(store=store)
        sources = []
        warm_set = warm.run_all(
            RESUME_GRID[:3], jobs=2,
            progress=lambda done, total, record, source:
            sources.append(source))
        assert warm.counters()["simulated"] == 0
        assert warm.counters()["store_hits"] == 3
        assert sources == ["store"] * 3
        assert warm_set.to_json() == cold_set.to_json()


# ----------------------------------------------------------------------
# Crash-resume
# ----------------------------------------------------------------------
class TestResume:
    def test_deleting_entries_resimulates_only_those(self, tmp_path):
        store_path = str(tmp_path / "resume.sqlite")
        cold = Session(store=store_path)
        cold_set = cold.run_all(RESUME_GRID)
        cold.store.close()

        store = SqliteStore(store_path)
        victims = store.keys()[:2]
        for key in victims:
            store.delete(key)

        resumed = Session(store=store)
        resumed_set = resumed.run_all(RESUME_GRID)
        counters = resumed.counters()
        assert counters["simulated"] == len(victims)
        assert counters["store_hits"] == len(RESUME_GRID) - len(victims)
        assert resumed_set.to_json() == cold_set.to_json()

    def test_atlas_resumes_only_missing_cells(self, tmp_path):
        from repro.sensitivity import LatencyToleranceAtlas

        atlas = LatencyToleranceAtlas(
            config="gf106", axis="ilp", values=(1, 2),
            transform="scale_dram_latency", scales=(1.0, 2.0),
            workload="microbench",
            params={"footprint": 4096, "ctas": 2, "warps_per_cta": 2,
                    "iters": 8},
        )
        store_path = str(tmp_path / "atlas.sqlite")
        cold_session = Session(store=store_path)
        cold = atlas.run(session=cold_session)
        total = cold_session.counters()["simulated"]
        assert total > 1
        cold_session.store.close()

        store = SqliteStore(store_path)
        store.delete(store.keys()[0])

        resumed_session = Session(store=store)
        resumed = atlas.run(session=resumed_session)
        counters = resumed_session.counters()
        assert counters["simulated"] == 1
        assert counters["store_hits"] == total - 1
        assert resumed.to_json() == cold.to_json()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_sigkill_mid_flight_resumes_missing_cells(self, tmp_path):
        store_path = str(tmp_path / "killed.sqlite")
        pids_path = str(tmp_path / "worker_pids.txt")
        script = textwrap.dedent(f"""
            import multiprocessing, os, signal
            from repro.experiments import Experiment, Session

            grid = Experiment.grid(
                kind="dynamic", configs=["gf100"], workloads=["vecadd"],
                params={{"n": [64, 80, 96, 112, 128, 144], "buckets": 4}},
            )
            session = Session(store={store_path!r})
            state = {{"simulated": 0}}

            def progress(done, total, record, source):
                if source == "simulated":
                    state["simulated"] += 1
                    if state["simulated"] == 2:
                        with open({pids_path!r}, "w") as handle:
                            handle.write(" ".join(
                                str(child.pid) for child
                                in multiprocessing.active_children()))
                        os.kill(os.getpid(), signal.SIGKILL)

            session.run_all(grid, jobs=2, progress=progress)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        # No pipes: the forked pool workers inherit them and outlive the
        # SIGKILLed parent, so capture_output would hang waiting for EOF.
        process = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        assert process.wait(timeout=300) == -signal.SIGKILL

        # The orphaned pool workers notice their parent is gone and exit.
        with open(pids_path) as handle:
            worker_pids = [int(pid) for pid in handle.read().split()]
        assert worker_pids
        deadline = time.monotonic() + 10
        while (any(_process_alive(pid) for pid in worker_pids)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert not [pid for pid in worker_pids if _process_alive(pid)]

        # Store writes commit before progress fires, so the two announced
        # completions are durably stored despite the SIGKILL.
        survivors = len(SqliteStore(store_path))
        assert 2 <= survivors < len(RESUME_GRID)

        resumed = Session(store=store_path)
        resumed_set = resumed.run_all(RESUME_GRID, jobs=2)
        counters = resumed.counters()
        assert counters["store_hits"] == survivors
        assert counters["simulated"] == len(RESUME_GRID) - survivors

        cold_set = Session().run_all(RESUME_GRID)
        assert resumed_set.to_json() == cold_set.to_json()


# ----------------------------------------------------------------------
# Rehydration unit behaviour
# ----------------------------------------------------------------------
class TestRehydration:
    def test_live_records_untouched(self):
        record = Session().run(CHEAP)
        assert rehydrate_artifacts(record) is record
        assert record.gpu is not None

    def test_unknown_payload_left_empty(self):
        record = RunRecord(experiment={"kind": "dynamic"}, kind="dynamic",
                           payload={"mystery": True})
        assert rehydrate_artifacts(record).artifacts == {}

    def test_sweep_and_static_rehydrate_print_faithfully(self):
        for experiment in (
            Experiment.sweep("gf106", accesses=32, footprints=[4096, 65536]),
            Experiment.static(configs=["gt200"], accesses=32),
        ):
            live = Session().run(experiment)
            stored = rehydrate_artifacts(
                RunRecord.from_dict(live.to_dict()))
            if experiment.kind == "sweep":
                assert (stored.surface.curve(128) == live.surface.curve(128))
                assert stored.hierarchy.describe() == \
                    live.hierarchy.describe()
            else:
                assert (stored.table.format_table()
                        == live.table.format_table())


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("precious")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "torn")
        assert target.read_text() == "precious"
        assert list(tmp_path.iterdir()) == [target]

    def test_runset_save_is_atomic(self, tmp_path):
        target = tmp_path / "runs.json"
        target.write_text("{}")
        runs = RunSet(records=[Session().run(CHEAP)])
        runs.save(target)
        assert RunSet.load(target).to_json() == runs.to_json()
        assert list(tmp_path.iterdir()) == [target]


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestStoreCLI:
    def test_sweep_store_warm_run_simulates_nothing(self, tmp_path, capsys):
        argv = ["sweep", "--config", "gf106", "--accesses", "32",
                "--footprints", "4096", "65536",
                "--store", str(tmp_path / "s.sqlite")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "1 run(s) simulated" in cold.err
        assert "simulated:" in cold.err

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "1 hit(s), 0 miss(es), 0 run(s) simulated" in warm.err
        assert "store:" in warm.err
        assert warm.out == cold.out

    def test_cache_stats_prune_verify(self, tmp_path, capsys, monkeypatch):
        store_path = str(tmp_path / "c.sqlite")
        monkeypatch.setenv(CODE_VERSION_ENV, "aaaaaaaaaaaaaaaa")
        assert main(["dynamic", "--config", "gf100", "--workload", "vecadd",
                     "--param", "n=96", "--buckets", "4",
                     "--store", store_path]) == 0
        capsys.readouterr()

        assert main(["cache", "--store", store_path, "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["by_code_version"] == {"aaaaaaaaaaaaaaaa": 1}

        assert main(["cache", "--store", store_path, "verify"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

        # A new code version orphans the entry; prune removes it.
        monkeypatch.setenv(CODE_VERSION_ENV, "bbbbbbbbbbbbbbbb")
        assert main(["cache", "--store", store_path, "prune"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out
        assert main(["cache", "--store", store_path, "stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_prune_everything(self, tmp_path, capsys):
        store_path = str(tmp_path / "e.sqlite")
        store = SqliteStore(store_path)
        store.put(KEY, RECORD)
        store.close()
        assert main(["cache", "--store", store_path, "prune",
                     "--everything"]) == 0
        assert "pruned 1 entry (all entries)" in capsys.readouterr().out

    def test_smoke_counters_prove_warm_hit_rate(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.experiments import smoke as smoke_module

        monkeypatch.setattr(smoke_module, "SMOKE_PARAMS",
                            {"vecadd": {"n": 96, "block_dim": 64}})
        monkeypatch.setattr(smoke_module, "bundle_workload_names",
                            lambda: [])
        monkeypatch.setattr(smoke_module, "check_registry_coverage",
                            lambda: None)
        store_path = str(tmp_path / "smoke.sqlite")
        argv = ["smoke", "--json", "--store", store_path]

        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        # The smoke matrix runs every exact core; byte-identical backends
        # share a store key class, so only the first core's pass actually
        # simulates — the rest are store hits even on a cold store.
        per_core = cold["total_runs"] // cold["core_count"]
        assert cold["counters"]["simulated"] == per_core
        assert (cold["counters"]["store_hits"]
                == cold["total_runs"] - per_core)

        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["counters"]["simulated"] == 0
        assert warm["counters"]["store_hits"] == warm["total_runs"]
        assert warm["runs"] == cold["runs"]

    def test_store_flag_on_all_experiment_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["table1"], ["sweep"], ["dynamic"],
                     ["run", "spec.json"], ["sensitivity"], ["microbench"],
                     ["atlas"], ["smoke"]):
            args = parser.parse_args(argv + ["--store", "x.sqlite"])
            assert args.store == "x.sqlite"

    def test_cache_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "stats"])


class TestStoreKeyStability:
    """Memoized config fingerprints leave every key as it was computed
    afresh, and still follow a re-registered name."""

    @pytest.mark.parametrize("name, spec_hash, config_hash", [
        ("gf100", "c38091770a165374", "c061a33d626a1c0b"),
        ("local_gt200", "8f0070667a6e4922", "49b71c67f295e8e1"),
        ("gf100@scale_dram_latency:8", "fd20b20de2211c90",
         "593e4c418702ceab"),
    ])
    def test_keys_unchanged(self, name, spec_hash, config_hash):
        from repro.gpu import get_config
        from repro.sensitivity import parse_transform

        session = Session()
        session.add_config(parse_transform("scale_dram_latency:8").apply(
            get_config("gf100")), name="gf100@scale_dram_latency:8")
        session.add_config(get_config("gt200").replace(name="local_gt200"),
                           name="local_gt200")
        spec = Experiment.dynamic(name, "vecadd", n=64, buckets=4)
        for _ in range(2):  # computed, then memoized
            key = session.store_key(spec)
            assert (key.spec_hash, key.config_hash) == (spec_hash,
                                                        config_hash)

    def test_re_registered_name_changes_the_key(self):
        from repro.gpu import get_config
        from repro.gpu.configs import register_config, unregister_config

        session = Session()
        spec = Experiment.dynamic("keytest", "vecadd", n=64)
        base = get_config("gf100").replace(name="keytest")
        register_config(base)
        try:
            first = session.store_key(spec)
            assert session.store_key(spec) == first
            unregister_config("keytest")
            register_config(base.replace(num_sms=base.num_sms + 1))
            second = session.store_key(spec)
        finally:
            unregister_config("keytest")
        assert second.config_hash != first.config_hash
        assert second.spec_hash == first.spec_hash
        session.add_config(base, name="keytest")
        assert session.store_key(spec) == first
