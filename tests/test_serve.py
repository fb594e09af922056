"""Tests for the ``repro serve`` front end.

The request-dedup logic is tested directly on :class:`RequestBroker`
with a controllable fake session (no sockets), then the HTTP surface is
exercised end to end against a real server on an ephemeral port with
the real simulator underneath, simulating in the server's worker pool.
Workloads registered at run time (slow, failing, dying, or meeting at a
barrier) reach the pool's workers because they are forked.
"""

import contextlib
import http.client
import json
import multiprocessing
import os
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import Experiment, Session
from repro.experiments.parallel import default_jobs
from repro.experiments.smoke import smoke_experiments
from repro.store import MemoryStore, RequestBroker, ReproServer, StoreKey
from repro.store import serve as serve_module
from repro.store.serve import MAX_BODY_BYTES, ServeError
from repro.utils.errors import ReproError, SimulationError
from repro.workloads import register_workload, unregister_workload
from repro.workloads.vecadd import VecAddWorkload

CHEAP_SPEC = {"kind": "dynamic", "configs": ["gf100"],
              "workload": "vecadd", "params": {"n": 96, "buckets": 4}}

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="needs fork to see runtime registration")


class BlockingSession:
    """Session stand-in whose lookup misses once released.

    Exposes just what the broker touches: ``store``, ``store_key``,
    ``counters``, ``lookup``, ``adopt`` and the worker set-up
    (``_local_configs``, ``core``).  Every lookup waits on ``gate``, so
    a test can pile concurrent requests onto one in-flight entry and
    observe the dedup behaviour deterministically; ``runs`` counts the
    simulations the broker adopts.
    """

    def __init__(self):
        self.store = None
        self.core = None
        self._local_configs = {}
        self.gate = threading.Event()
        self.started = threading.Event()
        self.runs = 0
        self._lock = threading.Lock()

    def store_key(self, experiment):
        return StoreKey(experiment.spec_hash(), "c" * 16, "v" * 16)

    def counters(self):
        with self._lock:
            return {"cache_hits": 0, "cache_misses": self.runs,
                    "store_hits": 0, "store_misses": 0,
                    "simulated": self.runs}

    def lookup(self, experiment, use_cache=True, store_key=None):
        self.started.set()
        assert self.gate.wait(timeout=30)
        return None, None

    def adopt(self, experiment, record, store_key=None):
        with self._lock:
            self.runs += 1


class SleepyWorkload(VecAddWorkload):
    """vecadd that first sleeps far past any test budget."""

    name = "sleepy_test"

    def run(self, gpu):
        time.sleep(60)
        return super().run(gpu)


class FaultyWorkload(VecAddWorkload):
    """vecadd whose simulation fails the way a runaway kernel does."""

    name = "faulty_test"

    def run(self, gpu):
        raise SimulationError("kernel exceeded max_cycles")


class DyingWorkload(VecAddWorkload):
    """vecadd whose worker process exits mid-simulation."""

    name = "dying_test"

    def run(self, gpu):
        os._exit(3)


class BarrierWorkload(VecAddWorkload):
    """vecadd that first waits for a second run at ``barrier``."""

    name = "barrier_test"
    barrier = None

    def run(self, gpu):
        self.barrier.wait()
        return super().run(gpu)


@pytest.fixture
def registered():
    """Register the test workloads for one test."""
    classes = (SleepyWorkload, FaultyWorkload, DyingWorkload,
               BarrierWorkload)
    for cls in classes:
        register_workload(cls)
    yield
    for cls in classes:
        unregister_workload(cls.name)


def spec_of(workload, **params):
    return {"kind": "dynamic", "configs": ["gf100"], "workload": workload,
            "params": {"n": 64, "buckets": 4, **params}}


class TestRequestBroker:
    def test_concurrent_same_key_requests_collapse(self):
        session = BlockingSession()
        broker = RequestBroker(session)
        results = []

        def request():
            results.append(broker.run(CHEAP_SPEC))

        threads = [threading.Thread(target=request) for _ in range(3)]
        threads[0].start()
        assert session.started.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        # The two waiters are parked on the in-flight entry; release the
        # owner and everyone resolves off the single simulation.
        deadline = time.time() + 30
        while broker.counters["requests"] < 3 and time.time() < deadline:
            time.sleep(0.01)
        assert broker.counters["requests"] == 3
        session.gate.set()
        for thread in threads:
            thread.join(timeout=30)
        assert session.runs == 1
        sources = sorted(source for _record, source, _key in results)
        assert sources == ["in-flight", "in-flight", "simulated"]
        assert broker.counters["simulated"] == 1
        assert broker.counters["in-flight"] == 2
        assert broker._inflight == {}
        broker.close()
        assert multiprocessing.active_children() == []

    def test_sources_and_session_counters(self):
        session = Session(store=MemoryStore())
        broker = RequestBroker(session)
        try:
            _record, source, key = broker.run(CHEAP_SPEC)
            assert source == "simulated"
            assert key["spec_hash"] == \
                Experiment.from_dict(CHEAP_SPEC).spec_hash()
            _record, source, _key = broker.run(CHEAP_SPEC)
            assert source == "cache"
            _record, source, _key = broker.run(
                {"experiment": CHEAP_SPEC})       # wrapped form
            assert source == "cache"
        finally:
            broker.close()
        assert session.counters() == {
            "cache_hits": 2, "cache_misses": 1, "store_hits": 0,
            "store_misses": 1, "simulated": 1}
        fresh = Session(store=session.store)
        _record, source, _key = RequestBroker(fresh).run(CHEAP_SPEC)
        assert source == "store"

    def test_concurrent_mixed_requests_keep_counts_exact(self):
        """Eight threads, four distinct specs, a tiny switch interval:
        each spec simulates exactly once and no count is lost."""
        specs = [spec_of("vecadd", n=n) for n in (32, 64, 96, 128)]
        session = Session(store=MemoryStore())
        broker = RequestBroker(session)
        failures = []

        def client(offset):
            try:
                for index in range(6):
                    broker.run(specs[(offset + index) % len(specs)])
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            broker.close()
        assert failures == []
        counters = broker.counters
        assert counters["requests"] == 48
        assert counters["errors"] == 0
        assert (counters["cache"] + counters["store"] + counters["simulated"]
                + counters["in-flight"]) == 48
        assert counters["simulated"] == len(specs)
        resolved = session.counters()
        assert resolved["simulated"] == len(specs)
        assert (resolved["cache_hits"] + resolved["cache_misses"]
                == 48 - counters["in-flight"])
        assert session.store.stats()["entries"] == len(specs)

    def test_invalid_spec_raises_repro_error(self):
        broker = RequestBroker(Session())
        with pytest.raises(ReproError):
            broker.run({"kind": "bogus"})
        with pytest.raises(ReproError):
            broker.run({"experiment": "not a mapping"})

    def test_failure_propagates_and_entry_retires(self):
        broker = RequestBroker(Session())
        bad = {"kind": "dynamic", "configs": ["no_such_config"],
               "workload": "vecadd", "params": {"n": 96}}
        # An unknown config fails during key resolution: a client error
        # (HTTP 400), not a counted simulation failure.
        with pytest.raises(ReproError):
            broker.run(bad)
        assert broker.counters["errors"] == 0
        assert broker._inflight == {}

    def test_stats_shape(self):
        broker = RequestBroker(Session(store=MemoryStore()))
        stats = broker.stats()
        assert set(stats) == {"serve", "session", "store"}
        assert stats["store"]["entries"] == 0
        json.dumps(stats)


@contextlib.contextmanager
def serving(session):
    """A running server over ``session``, closed (workers and all) after."""
    instance = ReproServer(("127.0.0.1", 0), session, quiet=True)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        instance.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def server():
    with serving(Session(store=MemoryStore())) as instance:
        yield instance


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, payload):
    data = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8"))
    request = urllib.request.Request(
        _url(server, "/run"), data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return json.load(response)


class TestHTTP:
    def test_run_then_cache_hit(self, server):
        first = _post(server, CHEAP_SPEC)
        assert first["source"] == "simulated"
        assert first["record"]["kind"] == "dynamic"
        assert first["record"]["total_cycles"] > 0
        second = _post(server, CHEAP_SPEC)
        assert second["source"] == "cache"
        assert second["record"] == first["record"]
        assert second["key"] == first["key"]

    def test_store_shared_across_server_restart(self, server):
        _post(server, CHEAP_SPEC)
        store = server.broker.session.store
        with serving(Session(store=store)) as reborn:
            assert _post(reborn, CHEAP_SPEC)["source"] == "store"

    def test_bad_spec_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, {"kind": "bogus"})
        assert excinfo.value.code == 400
        assert "bogus" in json.load(excinfo.value)["error"]

    def test_invalid_json_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, b"{not json")
        assert excinfo.value.code == 400

    def test_empty_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, b"")
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length,status", [
        ("-1", 400),
        ("twelve", 400),
        (str(MAX_BODY_BYTES + 1), 413),
        ("2000000000", 413),
    ])
    def test_bad_content_length_is_refused_unread(self, server, length,
                                                  status):
        """The reply comes at once, without waiting for a body, and the
        server closes the connection (reading to EOF ends)."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(f"POST /run HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)

    def test_stalled_body_times_out_with_408(self, server, monkeypatch):
        """A body shorter than its Content-Length frees the handler after
        the request timeout instead of blocking it forever."""
        monkeypatch.setattr(serve_module, "REQUEST_TIMEOUT_S", 0.5)
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(f"POST /run HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: 100\r\n\r\n".encode()
                         + b"{" * 10)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)

    def test_unknown_paths_are_404(self, server):
        for path in ("/nope", "/run/extra"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(_url(server, path))
            assert excinfo.value.code == 404

    def test_stats_and_healthz(self, server):
        _post(server, CHEAP_SPEC)
        with urllib.request.urlopen(_url(server, "/stats")) as response:
            stats = json.load(response)
        assert stats["serve"]["requests"] == 1
        assert stats["serve"]["simulated"] == 1
        assert stats["session"]["simulated"] == 1
        assert stats["store"]["entries"] == 1
        with urllib.request.urlopen(_url(server, "/healthz")) as response:
            assert json.load(response) == {"ok": True}


    def test_keep_alive_cached_requests_are_fast(self, server):
        """Cached replies on one keep-alive connection are not held back
        by Nagle's algorithm waiting for the client's delayed ACK."""
        _post(server, CHEAP_SPEC)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        body = json.dumps(CHEAP_SPEC)
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("POST", "/run", body=body,
                                   headers={"Content-Type":
                                            "application/json"})
                response = connection.getresponse()
                assert json.load(response)["source"] == "cache"
                latencies.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020


def _request(server, payload):
    """POST ``payload``; returns ``(status, reply)`` whatever the status."""
    try:
        return 200, _post(server, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class ChildCount:
    """Samples ``multiprocessing.active_children()`` until stopped."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, len(multiprocessing.active_children()))

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@needs_fork
@pytest.mark.usefixtures("registered")
class TestWorkerPool:
    @pytest.mark.skipif(default_jobs() < 2, reason="needs two CPUs")
    def test_distinct_specs_simulate_at_once(self, server):
        """Each run waits at a two-party barrier, so both complete only
        when two workers simulate at the same time."""
        BarrierWorkload.barrier = multiprocessing.Barrier(2, timeout=10)
        specs = [spec_of("barrier_test", n=64), spec_of("barrier_test", n=96)]
        results = [None, None]

        def request(index):
            results[index] = _request(server, specs[index])

        threads = [threading.Thread(target=request, args=(index,))
                   for index in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            BarrierWorkload.barrier = None
        assert [status for status, _reply in results] == [200, 200], results
        assert [reply["source"] for _status, reply in results] == [
            "simulated", "simulated"]

    def test_simulation_error_is_500(self, server):
        status, reply = _request(server, spec_of("faulty_test"))
        assert status == 500
        assert reply["error"] == ("SimulationError: kernel exceeded "
                                  "max_cycles")
        assert _request(server, CHEAP_SPEC)[0] == 200
        assert server.broker.counters["errors"] == 1

    def test_dead_worker_is_500_and_replaced(self, server):
        status, reply = _request(server, spec_of("dying_test"))
        assert status == 500
        assert "exit code 3" in reply["error"]
        assert _request(server, CHEAP_SPEC)[0] == 200

    def test_over_budget_request_is_504_and_server_keeps_serving(
            self, monkeypatch):
        monkeypatch.setattr(serve_module, "REQUEST_BUDGET_S", 1.0)
        children = ChildCount()
        try:
            with serving(Session(store=MemoryStore())) as server:
                cap = server.broker.pool.size
                start = time.monotonic()
                status, reply = _request(server, spec_of("sleepy_test"))
                elapsed = time.monotonic() - start
                assert status == 504
                assert "1 s request budget" in reply["error"]
                assert elapsed < 1.0 + 10
                second = _request(server, CHEAP_SPEC)
                assert second[0] == 200
                assert second[1]["source"] == "simulated"
        finally:
            children.stop()
        assert 1 <= children.peak <= cap
        assert multiprocessing.active_children() == []

    def test_parked_requests_share_the_504_and_retry_runs_again(
            self, monkeypatch):
        monkeypatch.setattr(serve_module, "REQUEST_BUDGET_S", 1.0)
        broker = RequestBroker(Session())
        statuses = []

        def request():
            try:
                broker.run(spec_of("sleepy_test"))
            except ServeError as exc:
                statuses.append(exc.status)

        try:
            threads = [threading.Thread(target=request) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert statuses == [504, 504]
            assert broker._inflight == {}
            start = time.monotonic()
            request()
            assert statuses[-1] == 504
            assert time.monotonic() - start >= 1.0
        finally:
            broker.close()
        assert broker.counters["requests"] == 3
        assert broker.counters["errors"] == 3
        assert multiprocessing.active_children() == []

    def test_server_close_leaves_no_child(self):
        with serving(Session()) as server:
            assert _request(server, CHEAP_SPEC)[0] == 200
            assert len(multiprocessing.active_children()) == 1
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("core", [None, "reference"])
def test_replies_equal_serial_runs(core, fast_config):
    """Replies are byte-equal to a serial ``Session.run`` of each spec."""
    smoke = smoke_experiments()
    specs = [smoke[("vecadd", "gf100")], smoke[("stencil", "gt200")],
             Experiment.dynamic("local_fast", "reduction", n=256,
                                block_dim=64, buckets=4)]
    serial = Session(configs={"local_fast": fast_config}, core=core)
    with serving(Session(configs={"local_fast": fast_config},
                         core=core)) as server:
        for spec in specs:
            reply = _request(server, spec.to_dict())
            assert reply[0] == 200
            assert reply[1]["source"] == "simulated"
            assert (json.dumps(reply[1]["record"], sort_keys=True)
                    == json.dumps(serial.run(spec).to_dict(),
                                  sort_keys=True))


class TestServeCLI:
    def test_serve_subcommand_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store", "s.sqlite", "--port", "0"])
        assert args.command == "serve"
        assert args.store == "s.sqlite"
        assert args.port == 0
        assert args.host == "127.0.0.1"

    def test_serve_requires_store(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
