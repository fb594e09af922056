"""Tests for the ``repro serve`` front end.

The request-dedup logic is tested directly on :class:`RequestBroker`
with a controllable fake session (no sockets, no simulator), then the
HTTP surface is exercised end to end against a real server on an
ephemeral port with the real simulator underneath.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import Experiment, Session
from repro.store import MemoryStore, RequestBroker, ReproServer, StoreKey
from repro.store import serve as serve_module
from repro.store.serve import MAX_BODY_BYTES
from repro.utils.errors import ReproError

CHEAP_SPEC = {"kind": "dynamic", "configs": ["gf100"],
              "workload": "vecadd", "params": {"n": 96, "buckets": 4}}


class BlockingSession:
    """Session stand-in whose run() blocks until released.

    Exposes just what the broker touches: ``store``, ``store_key``,
    ``counters`` and ``run``.  Every run waits on ``gate``, so a test can
    pile concurrent requests onto one in-flight simulation and observe
    the dedup behaviour deterministically.
    """

    def __init__(self):
        self.store = None
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

    def run(self, experiment):
        self.started.set()
        assert self.gate.wait(timeout=30)
        with self._lock:
            self.runs += 1

        class FakeRecord:
            @staticmethod
            def to_dict():
                return {"kind": experiment.kind, "runs": None}

        return FakeRecord()


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

    def test_source_derived_from_counters(self):
        session = Session(store=MemoryStore())
        broker = RequestBroker(session)
        _record, source, key = broker.run(CHEAP_SPEC)
        assert source == "simulated"
        assert key["spec_hash"] == \
            Experiment.from_dict(CHEAP_SPEC).spec_hash()
        _record, source, _key = broker.run(CHEAP_SPEC)
        assert source == "cache"
        _record, source, _key = broker.run(
            {"experiment": CHEAP_SPEC})       # wrapped form
        assert source == "cache"
        fresh = Session(store=session.store)
        _record, source, _key = RequestBroker(fresh).run(CHEAP_SPEC)
        assert source == "store"

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


@pytest.fixture
def server():
    instance = ReproServer(("127.0.0.1", 0),
                           Session(store=MemoryStore()), quiet=True)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=10)


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
        reborn = ReproServer(("127.0.0.1", 0), Session(store=store),
                             quiet=True)
        thread = threading.Thread(target=reborn.serve_forever, daemon=True)
        thread.start()
        try:
            assert _post(reborn, CHEAP_SPEC)["source"] == "store"
        finally:
            reborn.shutdown()
            reborn.server_close()
            thread.join(timeout=10)

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
