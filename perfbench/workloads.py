"""The benchmark's four workloads, each run as cold + warm timed passes.

Every workload builds fresh sessions, stores and servers per iteration,
and every cell builds a fresh ``GPU``, so modelled caches start empty.
Cells run on each configuration's default core unless a workload says
otherwise (the smoke matrix covers both exact cores by design).

An iteration returns an :class:`Iteration`: the cold pass's wall time and
per-request latencies, the warm pass's wall time, the simulated warp
instructions, and how many operations were attempted and failed.  A
failure is an exception, a verification failure, a non-200 response, or
a result whose digest differs from the recorded reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from perfbench.stats import median
from repro import Experiment, Session, get_config
from repro.experiments.smoke import run_smoke, smoke_experiments
from repro.sensitivity.atlas import LatencyToleranceAtlas
from repro.sensitivity.transforms import parse_transform
from repro.store import open_store
from repro.store.serve import ReproServer

#: Worker processes for the smoke matrix (the benchmark host has 2 cores).
SMOKE_JOBS = 2

#: Client threads of the closed-loop serve workload.
SERVE_CLIENTS = 2



def digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Iteration:
    """Outcome of one cold + warm iteration of a workload."""

    wall_s: float = 0.0
    warm_wall_s: float = 0.0
    timed_s: float = 0.0
    warp_insts: int = 0
    request_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


class Timer:
    """Times passes; installs ``tracer`` only for the timed regions.

    ``total`` accumulates every timed region, which is the wall time a
    traced iteration's per-layer table sums to.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.total = 0.0

    @contextlib.contextmanager
    def __call__(self) -> Iterator[Dict[str, float]]:
        box: Dict[str, float] = {}
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            yield box
        finally:
            box["seconds"] = time.perf_counter() - start
            self.total += box["seconds"]
            if self.tracer is not None:
                self.tracer.uninstall()
                if self.tracer.worker_dir is not None:
                    self.tracer.collect_workers()


class Workload:
    """Base: a name, a reason, set-up objects, and one iteration."""

    name = ""
    why = ""
    #: Seconds one untraced iteration takes on the benchmark host (2-core
    #: Xeon); ``--seconds`` divided by it gives the iteration count.
    nominal_s = 1.0
    #: Warm passes per iteration (about 0.5 s of them, or one); the
    #: iteration reports their median.  Fixed, so counts repeat exactly.
    warm_repeats = 1

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self._stores = 0

    def fresh_store_path(self) -> str:
        self._stores += 1
        path = os.path.join(self.tmp, f"{self.name}-{self._stores}.sqlite")
        for suffix in ("", "-wal", "-shm", "-journal"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + suffix)
        return path

    def reference_key(self) -> str:
        return "default"

    def probe(self) -> None:
        """Construct what a pass needs before its first cell (set-up)."""
        raise NotImplementedError

    def iteration(self, tracer=None, reference=None) -> Iteration:
        """One cold + warm iteration; ``tracer`` wraps the timed passes
        and ``reference`` is the cold result's expected digest."""
        raise NotImplementedError

    def repeat_warm(self, once) -> float:
        """Median seconds of :attr:`warm_repeats` calls of ``once`` (one
        timed warm pass, returning its seconds)."""
        return median([once() for _ in range(self.warm_repeats)])

    @staticmethod
    def check(result: Iteration, got: str, ops: int,
              reference: Optional[str], what: str) -> None:
        """Count ``ops`` as failed when ``got`` differs from ``reference``."""
        if result.digest is None:
            result.digest = got
        if reference is not None and got != reference:
            result.fail(ops, f"{what}: digest {got[:12]} != reference "
                             f"{reference[:12]}")


def _instructions(records) -> int:
    return sum(launch.get("instructions", 0)
               for record in records for launch in record.launches)


class AtlasIlpDram(Workload):
    """16 latency-bound microbench cells: ilp x DRAM-latency scale."""

    name = "atlas_ilp_dram"
    why = ("16 short latency-bound atlas cells (ilp x DRAM-latency scale): "
           "SM issue and the LD/ST unit dominate; memory batching should "
           "barely move it")
    nominal_s = 8.5
    warm_repeats = 50

    @staticmethod
    def atlas() -> LatencyToleranceAtlas:
        return LatencyToleranceAtlas(
            config="gf106", axis="ilp", values=(1, 2, 4, 8),
            transform="scale_dram_latency", scales=(1, 2, 4, 8),
            params={"iters": 32})

    def probe(self) -> None:
        Session(cache=False)
        self.atlas()

    def iteration(self, tracer=None, reference=None) -> Iteration:
        result = Iteration()
        timer = Timer(tracer)
        cold: List[Any] = []
        stamps: List[float] = []

        def progress(done, total, record, source) -> None:
            cold.append(record)
            stamps.append(time.perf_counter())

        session = Session(cache=False)
        with timer() as box:
            start = time.perf_counter()
            atlas_result = self.atlas().run(session=session,
                                            progress=progress)
        result.wall_s = box["seconds"]
        result.request_ms = [(end - begin) * 1e3 for begin, end
                             in zip([start] + stamps[:-1], stamps)]
        result.warp_insts = _instructions(cold)
        result.attempted = len(cold)
        cold_digest = digest([record.to_dict() for record in cold]
                             + [atlas_result.to_dict()])
        self.check(result, cold_digest, len(cold), reference, "cold atlas")

        def warm_pass() -> float:
            warm: List[Any] = []
            warm_session = Session(cache=False, store=store)
            with timer() as box:
                warm_result = self.atlas().run(
                    session=warm_session,
                    progress=lambda d, t, record, s: warm.append(record))
            result.attempted += len(warm)
            if warm_session.counters()["simulated"]:
                result.fail(len(warm), "warm atlas simulated instead of "
                                       "reading the store")
            self.check(result, digest([record.to_dict() for record in warm]
                                      + [warm_result.to_dict()]),
                       len(warm), cold_digest, "warm atlas")
            return box["seconds"]

        store = open_store(self.fresh_store_path())
        try:
            for record in cold:
                key = session.store_key(Experiment.from_dict(record.experiment))
                store.put(key, record.to_dict())
            result.warm_wall_s = self.repeat_warm(warm_pass)
        finally:
            store.close()
        result.timed_s = timer.total
        return result


class BfsDram8(Workload):
    """Memory-bound BFS at 8x DRAM latency (the Figures 1-2 path)."""

    name = "bfs_dram8"
    why = ("memory-bound BFS at 8x DRAM latency with the Figures 1-2 "
           "analyses: memory and DRAM scheduling dominate; SM issue "
           "changes should barely move it")
    nominal_s = 17.0
    warm_repeats = 100

    #: Graphs the seed selects from; each has a recorded reference digest.
    GRAPHS = 8
    CONFIG = "gf100@scale_dram_latency:8"

    def graph_seed(self) -> int:
        return self.seed % self.GRAPHS

    def reference_key(self) -> str:
        return str(self.graph_seed())

    def session(self, **kwargs) -> Session:
        session = Session(cache=False, **kwargs)
        session.add_config(parse_transform("scale_dram_latency:8").apply(
            get_config("gf100")), name=self.CONFIG)
        return session

    def experiment(self) -> Experiment:
        return Experiment.dynamic(self.CONFIG, "bfs", num_nodes=2048,
                                  avg_degree=8, block_dim=128,
                                  seed=self.graph_seed())

    def probe(self) -> None:
        self.session()
        self.experiment()

    def iteration(self, tracer=None, reference=None) -> Iteration:
        result = Iteration(attempted=1)
        timer = Timer(tracer)
        with timer() as box:
            session = self.session()
            record = session.run(self.experiment())
        result.wall_s = box["seconds"]
        result.request_ms = [box["seconds"] * 1e3]
        result.warp_insts = _instructions([record])
        cold_digest = digest(record.to_dict())
        self.check(result, cold_digest, 1, reference, "cold bfs")

        def warm_pass() -> float:
            with timer() as box:
                warm_session = self.session(store=store)
                warm = warm_session.run(self.experiment())
            result.attempted += 1
            if warm_session.counters()["simulated"]:
                result.fail(1, "warm bfs simulated instead of reading the "
                               "store")
            self.check(result, digest(warm.to_dict()), 1, cold_digest,
                       "warm bfs")
            return box["seconds"]

        store = open_store(self.fresh_store_path())
        try:
            store.put(session.store_key(self.experiment()), record.to_dict())
            result.warm_wall_s = self.repeat_warm(warm_pass)
        finally:
            store.close()
        result.timed_s = timer.total
        return result


class SmokeStore(Workload):
    """The registry smoke matrix with two workers into a fresh store."""

    name = "smoke_store"
    why = ("160 tiny smoke cells over 2 worker processes into a fresh "
           "sqlite store, then re-read warm: worker fork, pickling, store "
           "writes and reads")
    nominal_s = 4.5
    warm_repeats = 5

    def probe(self) -> None:
        Session(store=self.fresh_store_path()).store.close()
        smoke_experiments()

    def smoke_pass(self, path: str, timer) -> tuple:
        """One timed ``run_smoke`` over the store at ``path``."""
        session = Session(store=path)
        try:
            with timer() as box:
                report = run_smoke(session, jobs=SMOKE_JOBS)
        finally:
            session.store.close()
        return box["seconds"], report

    def check_report(self, result: Iteration, report, label: str,
                     reference: Optional[str]) -> str:
        cells = report["total_runs"] + report["estimator"]["cell_count"]
        result.attempted += cells
        if not (report["all_verified"] and report["estimator"]["within_bound"]):
            result.fail(cells, f"{label} smoke: a cell failed verification "
                               f"or the estimator bound")
        got = digest({key: value for key, value in report.items()
                      if key != "counters"})
        self.check(result, got, cells, reference, f"{label} smoke")
        return got

    def iteration(self, tracer=None, reference=None) -> Iteration:
        result = Iteration()
        timer = Timer(tracer)
        path = self.fresh_store_path()
        result.wall_s, cold = self.smoke_pass(path, timer)
        result.request_ms = [result.wall_s * 1e3]
        first_core = cold["cores"][0]
        result.warp_insts = sum(run["instructions"] for run in cold["runs"]
                                if run["core"] == first_core)
        cold_digest = self.check_report(result, cold, "cold", reference)

        def warm_pass() -> float:
            seconds, warm = self.smoke_pass(path, timer)
            self.check_report(result, warm, "warm", cold_digest)
            counters = warm["counters"]
            if counters["simulated"] or counters["store_hits"] != warm[
                    "total_runs"]:
                result.fail(warm["total_runs"], f"warm smoke counters "
                                                f"{counters}: expected every "
                                                f"cell from the store")
            return seconds

        result.warm_wall_s = self.repeat_warm(warm_pass)
        result.timed_s = timer.total
        return result


class ServeClosedLoop(Workload):
    """Two keep-alive clients POSTing the smoke specs in a closed loop."""

    name = "serve_closed_loop"
    why = ("2 closed-loop keep-alive HTTP clients x 80 smoke specs against "
           "an in-process repro server: broker, session lock and HTTP only "
           "here")
    nominal_s = 11.0

    def specs(self) -> List[Dict[str, Any]]:
        return [experiment.to_dict()
                for experiment in smoke_experiments().values()]

    def orders(self, specs) -> List[List[Dict[str, Any]]]:
        orders = []
        for client in range(SERVE_CLIENTS):
            order = list(specs)
            random.Random(self.seed * SERVE_CLIENTS + client).shuffle(order)
            orders.append(order)
        return orders

    def probe(self) -> None:
        session = Session(store=self.fresh_store_path())
        server = ReproServer(("127.0.0.1", 0), session, quiet=True)
        server.server_close()
        session.store.close()
        self.specs()

    def closed_loop(self, port: int, orders, tracer, timer
                    ) -> Dict[str, Any]:
        """Run every client's order once; returns latencies and records."""
        ready = threading.Barrier(len(orders) + 1, timeout=60)
        outcome = {"ms": [], "records": {}, "failed": 0, "errors": []}
        lock = threading.Lock()

        def client(order) -> None:
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=120)
            try:
                connection.connect()
                ready.wait()
                for spec in order:
                    body = json.dumps(spec).encode("utf-8")
                    start = time.perf_counter_ns()
                    try:
                        connection.request(
                            "POST", "/run", body,
                            {"Content-Type": "application/json"})
                        response = connection.getresponse()
                        payload = response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException) as exc:
                        status, payload = None, repr(exc).encode()
                        connection.close()
                    end = time.perf_counter_ns()
                    if tracer is not None:
                        tracer.record("serve.request", start, end,
                                      role="client")
                    record = (json.loads(payload)["record"]
                              if status == 200 else None)
                    with lock:
                        outcome["ms"].append((end - start) / 1e6)
                        if record is None:
                            outcome["failed"] += 1
                            outcome["errors"].append(
                                f"{status}: {payload[:200]!r}")
                        else:
                            outcome["records"].setdefault(
                                json.dumps(spec, sort_keys=True),
                                []).append(record)
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(order,))
                   for order in orders]
        for thread in threads:
            thread.start()
        with timer() as box:
            ready.wait()
            for thread in threads:
                thread.join()
        outcome["seconds"] = box["seconds"]
        return outcome

    def iteration(self, tracer=None, reference=None) -> Iteration:
        result = Iteration()
        timer = Timer(tracer)
        orders = self.orders(self.specs())
        session = Session(store=self.fresh_store_path())
        server = ReproServer(("127.0.0.1", 0), session, quiet=True)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05})
        thread.start()
        try:
            port = server.server_address[1]
            cold = self.closed_loop(port, orders, tracer, timer)
            result.wall_s = cold["seconds"]
            result.request_ms = cold["ms"]
            unique = self.check_outcome(result, cold, "cold", reference)
            result.warp_insts = sum(launch.get("instructions", 0)
                                    for record in unique.values()
                                    for launch in record["launches"])
            cold_digest = result.digest

            def warm_pass() -> float:
                warm = self.closed_loop(port, orders, tracer, timer)
                self.check_outcome(result, warm, "warm", cold_digest)
                return warm["seconds"]

            result.warm_wall_s = self.repeat_warm(warm_pass)
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
            session.store.close()
        result.timed_s = timer.total
        return result

    def check_outcome(self, result: Iteration, outcome, label: str,
                      reference: Optional[str]) -> Dict[str, Any]:
        """Count failures of one closed loop; returns spec -> record."""
        result.attempted += len(outcome["ms"])
        if outcome["failed"]:
            result.fail(outcome["failed"],
                        f"{label} serve: {outcome['errors'][:3]}")
        unique = {}
        for key, copies in outcome["records"].items():
            if any(copy != copies[0] for copy in copies):
                result.fail(len(copies), f"{label} serve: copies of one "
                                         f"spec differ")
            unique[key] = copies[0]
        self.check(result, digest(sorted(unique.items())),
                   len(outcome["ms"]), reference, f"{label} serve")
        return unique


WORKLOADS = {cls.name: cls for cls in (AtlasIlpDram, BfsDram8, SmokeStore,
                                       ServeClosedLoop)}
