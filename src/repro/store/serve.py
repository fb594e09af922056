"""``repro serve``: a long-running JSON API over a session and its store.

The server is the ROADMAP's "millions of users" shape in miniature: POST
an :class:`~repro.experiments.Experiment` spec and get back its stored
result — simulated on first sight, then served from the session cache or
the persistent store forever after (and across restarts, when the store
is durable).  Everything rides on the stdlib: a
:class:`http.server.ThreadingHTTPServer` over a thin JSON handler and a
small pool of :mod:`multiprocessing` workers, no third-party
dependencies.

API
---
``POST /run``
    Body: one experiment spec object (or ``{"experiment": {...}}``).
    Response: ``{"source": "cache"|"store"|"simulated"|"in-flight",
    "key": {...}, "record": {...}}``.  Errors are ``{"error": ...}``:

    * 400 — the spec does not parse, or names an unknown configuration
      or workload when it is keyed;
    * 500 — resolving or simulating a valid spec raised (a kernel over
      its cycle limit, a failed verification, a store failure) or its
      worker process died;
    * 504 — the simulation ran longer than :data:`REQUEST_BUDGET_S`; its
      worker was killed;
    * 503 — the server is shutting down.

    A negative or non-integer ``Content-Length`` is a 400 and one above
    :data:`MAX_BODY_BYTES` a 413; both are answered without reading the
    body, and the connection is closed.  A body that stops arriving for
    :data:`REQUEST_TIMEOUT_S` seconds is a 408, and the connection is
    closed too.
``GET /stats``
    Serve counters, session run counters, and the store's usage summary.
``GET /healthz``
    ``{"ok": true}`` — liveness probe.

Worker pool
-----------
The session — its result cache and its store — and the in-flight table
stay in the server process.  Each genuine miss is simulated in a
long-lived worker process of a
:class:`~repro.experiments.parallel.WorkerPool`, the same pool
:meth:`Session.run_all` shards grids over; the pool returns the
record, and the broker writes it through to the store and the cache with
:meth:`Session.adopt`, as ``run_all`` does.  Workers are forked on
demand, when a miss finds none idle, up to
:func:`~repro.experiments.parallel.default_jobs` (the CPU count), so
distinct misses simulate in parallel, one per core; a miss that finds
every worker busy waits for one.  A simulation over
:data:`REQUEST_BUDGET_S` seconds has its worker killed, and a worker
that dies is reaped; the next miss forks a replacement.
:meth:`ReproServer.server_close` stops every worker.

Request dedup
-------------
Concurrent misses for the *same* store key collapse onto one
simulation: the first request becomes the owner and runs it, later
requests park on the in-flight entry and wake with the owner's record
(``source: "in-flight"``) or its error status.  The dedup logic lives in
:class:`RequestBroker`, independent of HTTP, so it is testable without
sockets.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.parallel import WorkerError, WorkerPool
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

#: Wall seconds one simulation may run in its worker before the worker
#: is killed and the request answered 504.  Generous: a ``bfs`` cell at
#: 8x DRAM latency takes about 6 s, a full default Table I 1-2 minutes.
REQUEST_BUDGET_S = 300

#: How long :meth:`ReproServer.server_close` waits, in all, for handler
#: threads still answering requests after the pool has stopped.
_CLOSE_JOIN_S = 10


class ServeError(ReproError):
    """A request for a valid spec that failed; ``status`` is its HTTP code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


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
    """Dedup experiment requests against one session; simulate in a pool.

    The broker owns two locks, both held only for bookkeeping:
    ``_state_lock`` guards the in-flight table and the counters, and
    ``_session_lock`` guards the session (its cache, counters and
    store) during :meth:`Session.lookup` and :meth:`Session.adopt`.
    Simulation runs in :attr:`pool` with neither held, so distinct
    misses proceed in parallel.  A request whose key is already in
    flight parks on the entry's event.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.pool = WorkerPool(session._local_configs, session.core)
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
        specs that do not parse or key, and :class:`ServeError` (with
        the HTTP status) for a valid spec whose resolution failed.  A
        failure is propagated to every parked request for the same key,
        and the entry is retired, so the next request retries.
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
            try:
                record_dict, source = self._resolve(experiment, store_key)
            except ServeError:
                raise
            except Exception as exc:
                raise ServeError(500, f"{type(exc).__name__}: {exc}") \
                    from exc
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

    def _resolve(self, experiment: Experiment, store_key
                 ) -> Tuple[Dict[str, Any], str]:
        """Look the spec up in the session; on a miss, simulate it in
        the pool and adopt the result."""
        with self._session_lock:
            record, source = self.session.lookup(experiment,
                                                 store_key=store_key)
        if record is not None:
            return record.to_dict(), source
        try:
            record = self.pool.run(experiment.to_dict(), REQUEST_BUDGET_S)
        except WorkerError as exc:
            if exc.reason == "closed":
                raise ServeError(503, "server is shutting down") from exc
            status = 504 if exc.reason == "budget" else 500
            raise ServeError(status, str(exc)) from exc
        with self._session_lock:
            self.session.adopt(experiment, record, store_key=store_key)
        return record.to_dict(), "simulated"

    def close(self) -> None:
        """Stop the worker pool (idempotent)."""
        self.pool.close()

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
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply(400, {"error": f"invalid request JSON: {exc}"})
            return
        if spec is None:
            self._reply(400, {"error": "empty request body; POST an "
                                       "experiment spec object"})
            return
        try:
            record, source, key = self.server.broker.run(spec)
        except ServeError as exc:  # failed after the spec was keyed
            self._reply(exc.status, {"error": str(exc)})
            return
        except ReproError as exc:  # the spec did not parse or key
            self._reply(400, {"error": str(exc)})
            return
        except Exception as exc:  # internal failure while keying
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, {"source": source, "key": key, "record": record})


class ReproServer(ThreadingHTTPServer):
    """The ``repro serve`` HTTP server bound to one session + store.

    Each connection is handled on its own daemon thread, so a client
    that holds a connection open cannot keep the process alive; the
    server tracks those threads itself (``socketserver`` does not track
    daemon threads) so that :meth:`server_close` can let the requests
    in flight be answered before it returns.
    """

    def __init__(self, address: Tuple[str, int], session,
                 quiet: bool = False) -> None:
        self.broker = RequestBroker(session)
        self.quiet = quiet
        self._handlers: List[threading.Thread] = []
        self._handlers_lock = threading.Lock()
        super().__init__(address, _ServeHandler)

    def process_request(self, request, client_address) -> None:
        """Handle one connection on a new, tracked daemon thread."""
        thread = threading.Thread(target=self._handle_connection,
                                  args=(request, client_address),
                                  daemon=True)
        with self._handlers_lock:
            self._handlers.append(thread)
        thread.start()

    def _handle_connection(self, request, client_address) -> None:
        try:
            self.process_request_thread(request, client_address)
        finally:
            with self._handlers_lock:
                self._handlers.remove(threading.current_thread())

    def server_close(self) -> None:
        """Stop the worker pool, close the socket, then wait (at most
        :data:`_CLOSE_JOIN_S` seconds in all) for the handler threads.

        A request whose simulation the pool stopped is answered 503, so
        every request in flight gets a status before this returns.
        """
        self.broker.close()
        super().server_close()
        deadline = time.monotonic() + _CLOSE_JOIN_S
        with self._handlers_lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))

    def describe(self) -> str:
        """One-line summary for the startup banner."""
        host, port = self.server_address[:2]
        store = self.broker.session.store
        target = store.describe_target() if store is not None else "(none)"
        return f"http://{host}:{port} (store: {target})"
