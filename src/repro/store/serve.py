"""``repro serve``: a long-running JSON API over a session and its store.

The server is the ROADMAP's "millions of users" shape in miniature: POST
an :class:`~repro.experiments.Experiment` spec and get back its stored
result — simulated on first sight, then served from the session cache or
the persistent store forever after (and across restarts, when the store
is durable).  Everything rides on the stdlib: a
:class:`http.server.ThreadingHTTPServer` over a thin JSON handler, no
third-party dependencies.

API
---
``POST /run``
    Body: one experiment spec object (or ``{"experiment": {...}}``).
    Response: ``{"source": "cache"|"store"|"simulated"|"in-flight",
    "key": {...}, "record": {...}}``.  Malformed specs are 400s with
    ``{"error": ...}``; simulator failures are 500s.  A negative or
    non-integer ``Content-Length`` is a 400 and one above
    :data:`MAX_BODY_BYTES` a 413; both are answered without reading the
    body, and the connection is closed.  A body that stops arriving for
    :data:`REQUEST_TIMEOUT_S` seconds is a 408, and the connection is
    closed too.
``GET /stats``
    Serve counters, session run counters, and the store's usage summary.
``GET /healthz``
    ``{"ok": true}`` — liveness probe.

Request dedup
-------------
Concurrent misses for the *same* store key collapse onto one
simulation: the first request becomes the owner and runs it, later
requests park on the in-flight entry and wake with the owner's record
(``source: "in-flight"``).  Distinct keys queue on the session lock (the
session and its caches are not thread-safe; simulation is CPU-bound
under the GIL anyway, so serializing costs nothing).  The dedup logic
lives in :class:`RequestBroker`, independent of HTTP, so it is testable
without sockets.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.experiments.spec import Experiment
from repro.utils.errors import ReproError

#: Sources a brokered request can resolve with.
REQUEST_SOURCES = ("cache", "store", "simulated", "in-flight")

#: Largest ``POST /run`` body the server reads (experiment specs are a
#: few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stay silent while the server waits to read
#: from it (a request line, headers or a body).  A client that announces
#: a longer body than it sends would otherwise hold a handler thread
#: forever.
REQUEST_TIMEOUT_S = 30


class _InFlight:
    """One in-progress simulation that later requests can park on."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.record: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None

    def resolve(self, record: Dict[str, Any]) -> None:
        self.record = record
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class RequestBroker:
    """Serialize and dedup experiment requests against one session.

    The broker owns two locks: ``_state_lock`` guards the in-flight
    table and the counters (held only for bookkeeping), and
    ``_session_lock`` serializes every :meth:`Session.run` call (held
    for the whole simulation).  A request whose key is already in
    flight takes neither for long — it parks on the entry's event.
    """

    def __init__(self, session) -> None:
        self.session = session
        self._state_lock = threading.Lock()
        self._session_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, str, str], _InFlight] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cache": 0,
            "store": 0,
            "simulated": 0,
            "in-flight": 0,
            "errors": 0,
        }

    def run(self, spec: Mapping[str, Any]) -> Tuple[Dict[str, Any], str,
                                                    Dict[str, str]]:
        """Resolve one request; returns ``(record dict, source, key dict)``.

        Raises :class:`~repro.utils.errors.ReproError` subclasses for
        invalid specs and whatever the simulation raises on failure;
        failures are propagated to every parked request for the same
        key (and the entry is retired, so the next request retries).
        """
        if isinstance(spec, Mapping) and "experiment" in spec:
            spec = spec["experiment"]
        if not isinstance(spec, Mapping):
            raise ReproError(
                "request body must be an experiment spec object"
            )
        experiment = Experiment.from_dict(spec)
        store_key = self.session.store_key(experiment)
        key = store_key.as_tuple()
        with self._state_lock:
            self.counters["requests"] += 1
            entry = self._inflight.get(key)
            owner = entry is None
            if owner:
                entry = _InFlight()
                self._inflight[key] = entry
        if not owner:
            entry.done.wait()
            if entry.error is not None:
                with self._state_lock:
                    self.counters["errors"] += 1
                raise entry.error
            with self._state_lock:
                self.counters["in-flight"] += 1
            return entry.record, "in-flight", store_key.to_dict()
        try:
            with self._session_lock:
                before = self.session.counters()
                record = self.session.run(experiment)
                after = self.session.counters()
            if after["simulated"] > before["simulated"]:
                source = "simulated"
            elif after["store_hits"] > before["store_hits"]:
                source = "store"
            else:
                source = "cache"
            record_dict = record.to_dict()
            entry.resolve(record_dict)
        except BaseException as exc:
            entry.fail(exc)
            with self._state_lock:
                self.counters["errors"] += 1
            raise
        finally:
            with self._state_lock:
                self._inflight.pop(key, None)
        with self._state_lock:
            self.counters[source] += 1
        return record_dict, source, store_key.to_dict()

    def stats(self) -> Dict[str, Any]:
        """JSON-ready serve/session/store counters."""
        with self._state_lock:
            counters = dict(self.counters)
            in_flight = len(self._inflight)
        store = self.session.store
        return {
            "serve": {**counters, "in_flight_now": in_flight},
            "session": self.session.counters(),
            "store": store.stats() if store is not None else None,
        }


class _ServeHandler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP face of the :class:`RequestBroker`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # A reply goes out as two writes (headers, then body).  With Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the
    # headers — tens of milliseconds per keep-alive request.
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Socket timeout applied to the connection at setup."""
        return REQUEST_TIMEOUT_S

    # The default handler logs every request to stderr; keep that for a
    # long-running server but let tests silence it via the server flag.
    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", False):
            return
        super().log_message(format, *args)

    def _reply(self, status: int, payload: Dict[str, Any],
               close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: an unread body must not be
            # parsed as the next request on this connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._reply(200, {"ok": True})
        elif self.path == "/stats":
            self._reply(200, self.server.broker.stats())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}; "
                                       f"try POST /run, GET /stats"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/run":
            self._reply(404, {"error": f"unknown path {self.path!r}; "
                                       f"try POST /run"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._reply(400, {"error": "Content-Length must be a "
                                       "non-negative integer"}, close=True)
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"request body of {length} bytes "
                                       f"exceeds the {MAX_BODY_BYTES}-byte "
                                       f"limit"}, close=True)
            return
        try:
            body = self.rfile.read(length) if length else b""
        except TimeoutError:
            self._reply(408, {"error": f"request body not received within "
                                       f"{REQUEST_TIMEOUT_S} s"}, close=True)
            return
        try:
            spec = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"error": f"invalid request JSON: {exc}"})
            return
        if spec is None:
            self._reply(400, {"error": "empty request body; POST an "
                                       "experiment spec object"})
            return
        try:
            record, source, key = self.server.broker.run(spec)
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
            return
        except Exception as exc:  # simulator/internal failure
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, {"source": source, "key": key, "record": record})


class ReproServer(ThreadingHTTPServer):
    """The ``repro serve`` HTTP server bound to one session + store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], session,
                 quiet: bool = False) -> None:
        self.broker = RequestBroker(session)
        self.quiet = quiet
        super().__init__(address, _ServeHandler)

    def describe(self) -> str:
        """One-line summary for the startup banner."""
        host, port = self.server_address[:2]
        store = self.broker.session.store
        target = store.describe_target() if store is not None else "(none)"
        return f"http://{host}:{port} (store: {target})"
