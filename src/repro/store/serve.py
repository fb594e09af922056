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
long-lived worker process (:class:`WorkerPool`), which returns the
record as data; the broker writes it through to the store and the cache
with :meth:`Session.adopt`, the step :meth:`Session.run_all` uses for
its own pool.  Workers are forked on demand, when a miss finds none
idle, up to :func:`~repro.experiments.parallel.default_jobs` (the CPU
count), so distinct misses simulate in parallel, one per core; a miss
that finds every worker busy waits for one.  A simulation over
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
import multiprocessing
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments import parallel
from repro.experiments.results import RunRecord
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

#: Seconds a stopping worker gets to exit on its own before it is killed.
_STOP_GRACE_S = 5


class ServeError(ReproError):
    """A request for a valid spec that failed; ``status`` is its HTTP code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _serve_worker(conn, configs, core) -> None:
    """Body of one pool worker: simulate each spec dict it is sent.

    Replies ``(True, (spec hash, record dict, light artifacts))`` or
    ``(False, "ErrorType: message")``; ``None`` (or the parent closing
    the pipe) ends it.
    """
    # Ctrl-C in a terminal signals the whole process group; the server
    # stops its workers itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parallel._init_worker(configs, core)
    while True:
        try:
            spec_dict = conn.recv()
        except EOFError:
            return
        if spec_dict is None:
            return
        try:
            reply = (True, parallel._run_in_worker(spec_dict))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        # The server caches every record it adopts and never sends a
        # spec twice, so a worker-side copy would only grow.
        parallel._WORKER_SESSION.clear_cache()
        conn.send(reply)


class _Worker:
    """One worker process and the server's end of its pipe."""

    def __init__(self, context, configs, core) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve_worker, args=(child, configs, core),
            name="repro-serve-worker", daemon=True)
        self.process.start()
        child.close()

    def reap(self, kill: bool) -> None:
        """Kill (or ask to stop) and join the process; close the pipe."""
        if not kill:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(_STOP_GRACE_S)
        self.process.kill()  # a no-op once the process is reaped
        self.process.join()
        self.conn.close()


class WorkerPool:
    """Long-lived simulation workers, forked on demand up to :attr:`size`
    (:func:`~repro.experiments.parallel.default_jobs`, the CPU count).

    Each worker builds one session with the server session's local
    ``configs`` and ``core`` (as they are when it forks).  A worker is
    idle or lent to exactly one :meth:`run` call.  A lent worker is
    reaped only by the thread it is lent to and an idle one only by
    :meth:`close`, so no two threads ever join one process; a worker
    keeps its slot until it is reaped, so at most ``size`` workers are
    ever alive.
    """

    def __init__(self, configs: Mapping[str, Any],
                 core: Optional[str]) -> None:
        self.size = parallel.default_jobs()
        self._args = (configs, core)
        self._context = multiprocessing.get_context(
            parallel._start_method())
        self._ready = threading.Condition()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._closed = False

    def run(self, spec_dict: Dict[str, Any], budget: float
            ) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
        """Simulate one spec in a worker; ``_run_in_worker``'s result.

        Raises :class:`ServeError`: 504 when the worker is still busy
        after ``budget`` seconds (it is killed), 500 when the simulation
        raised or the worker died, 503 once the pool is closed.
        """
        worker = self._acquire()
        reply = None
        timed_out = False
        try:
            worker.conn.send(spec_dict)
            timed_out = not worker.conn.poll(budget)
            if not timed_out:
                reply = worker.conn.recv()
        except (EOFError, OSError):
            pass  # the worker died: reply stays None
        finally:
            if reply is None:
                self._retire(worker, kill=True)
            else:
                self._release(worker)
        if timed_out:
            raise ServeError(504, f"simulation exceeded the {budget:g} s "
                                  f"request budget (REQUEST_BUDGET_S); its "
                                  f"worker was stopped")
        if reply is None:
            raise ServeError(500, f"worker process ended while simulating "
                                  f"(exit code {worker.process.exitcode})")
        ok, result = reply
        if not ok:
            raise ServeError(500, result)
        return result

    def _acquire(self) -> _Worker:
        with self._ready:
            while True:
                if self._closed:
                    raise ServeError(503, "server is shutting down")
                if self._idle:
                    return self._idle.pop()
                if len(self._workers) < self.size:
                    worker = _Worker(self._context, *self._args)
                    self._workers.append(worker)
                    return worker
                self._ready.wait()

    def _release(self, worker: _Worker) -> None:
        with self._ready:
            if not self._closed:
                self._idle.append(worker)
                self._ready.notify()
                return
        self._retire(worker, kill=False)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        worker.reap(kill)
        with self._ready:
            self._workers.remove(worker)
            self._ready.notify_all()

    def close(self) -> None:
        """Stop every worker and wait until all are reaped (idempotent).

        Idle workers are asked to exit; busy ones are killed, and the
        thread each is lent to reaps it and answers its request.
        """
        with self._ready:
            self._closed = True
            idle, self._idle = self._idle, []
            busy = [worker for worker in self._workers
                    if worker not in idle]
            self._ready.notify_all()
        for worker in busy:
            worker.process.kill()
        for worker in idle:
            self._retire(worker, kill=False)
        with self._ready:
            while self._workers:
                self._ready.wait()


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
        _spec_hash, record_dict, artifacts = self.pool.run(
            experiment.to_dict(), REQUEST_BUDGET_S)
        record = RunRecord.from_dict(record_dict)
        record.artifacts.update(artifacts)
        with self._session_lock:
            self.session.adopt(experiment, record, store_key=store_key)
        return record_dict, "simulated"

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
        except (ValueError, UnicodeDecodeError) as exc:
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
    """The ``repro serve`` HTTP server bound to one session + store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], session,
                 quiet: bool = False) -> None:
        self.broker = RequestBroker(session)
        self.quiet = quiet
        super().__init__(address, _ServeHandler)

    def server_close(self) -> None:
        """Stop the worker pool, then close the socket and join the
        handler threads."""
        self.broker.close()
        super().server_close()

    def describe(self) -> str:
        """One-line summary for the startup banner."""
        host, port = self.server_address[:2]
        store = self.broker.session.store
        target = store.describe_target() if store is not None else "(none)"
        return f"http://{host}:{port} (store: {target})"
