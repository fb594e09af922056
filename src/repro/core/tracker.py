"""Memory-request and load-instruction latency instrumentation.

This is the reproduction of the paper's simulator instrumentation: the
tracker receives a timestamp every time an instruction-generated memory
request moves between memory-pipeline stages (Section III / Figure 1) and
records, for every warp-level global load instruction, when it issued and
when its value became available, together with the cycles in which the
issuing SM managed to issue *any* instruction — the raw material of the
exposed/hidden latency analysis (Figure 2).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.stages import (EVENT_ORDER, NUM_EVENTS, Event, Stage,
                               classify_lifetime)

_COMPLETE = Event.COMPLETE.column

#: Metadata columns of a finished request, one row per request beside its
#: timestamp row.
_META = ("request_id", "address", "is_write", "space", "sm_id", "warp_id",
         "pc")
_META_WIDTH = len(_META)
_IS_WRITE = _META.index("is_write")
_SPACE = _META.index("space")


@dataclass
class RequestRecord:
    """Completed lifetime of one tracked memory request: a row view.

    The tracker keeps finished requests as int64 columns (see
    :class:`LatencyTracker`); a record is built from one row on demand,
    with ``timestamps`` holding the recorded events only.  The Figure 1
    analysis reads the columns and never builds records; tests and
    callers that want one request at a time use these.
    """

    request_id: int
    address: int
    is_write: bool
    space: str
    sm_id: int
    warp_id: int
    pc: int
    timestamps: Dict[Event, int] = field(default_factory=dict)

    @property
    def latency(self) -> int:
        """Total lifetime in cycles (issue to writeback)."""
        return self.timestamps[Event.COMPLETE] - self.timestamps[Event.ISSUE]

    def breakdown(self) -> Dict[Stage, int]:
        """Per-stage cycle breakdown of this request's lifetime."""
        return classify_lifetime(self.timestamps)


@dataclass
class LoadRecord:
    """Completed lifetime of one warp-level load instruction."""

    sm_id: int
    warp_id: int
    pc: int
    space: str
    issue_cycle: int
    complete_cycle: int
    num_requests: int
    l1_hit: bool

    @property
    def latency(self) -> int:
        """Cycles from issue until the loaded value was written back."""
        return self.complete_cycle - self.issue_cycle


class LatencyTracker:
    """Collects request lifetimes, load lifetimes, and SM issue activity.

    A memory request carries its timestamps as one int row (``times``,
    indexed by ``Event.column``, ``-1`` for events not recorded), which
    :meth:`record_event` fills in.  :meth:`finish_request` appends the
    finished row to an int64 timestamp column block, and the request's
    identity (id, address, read/write, space, SM, warp, pc) to a
    metadata block beside it, so the tracker holds no per-request
    objects.  :meth:`read_rows` hands the Figure 1 analysis the timestamp
    rows as one array; :attr:`requests` and :meth:`read_requests` build
    :class:`RequestRecord` row views for callers that want them.

    Parameters
    ----------
    enabled:
        When ``False`` all recording methods become no-ops, which is useful
        for throughput-only simulations.
    track_writes:
        Whether write (store) requests should be kept in the completed
        record list.  The paper analyses memory *fetches* (reads), so the
        default is ``False``.
    """

    def __init__(self, enabled: bool = True, track_writes: bool = False) -> None:
        self.enabled = enabled
        self.track_writes = track_writes
        self._times = array("q")
        self._meta = array("q")
        # Space names by code, and codes by space object.
        self._space_names: List[str] = []
        self._space_codes: Dict[object, int] = {}
        self.loads: List[LoadRecord] = []
        self._busy_cycles: Dict[int, List[int]] = {}
        self.dropped_requests = 0

    # ------------------------------------------------------------------
    # Memory request lifetimes
    # ------------------------------------------------------------------
    def record_event(self, request: "object", event: Event, cycle: int) -> None:
        """Record that ``request`` reached ``event`` at ``cycle``.

        ``request`` is any object with a ``times`` row attribute (the
        simulator's ``MemoryRequest``); the tracker does not retain it until
        :meth:`finish_request` is called.
        """
        if not self.enabled:
            return
        request.times[event.column] = cycle

    def finish_request(self, request: "object", cycle: int) -> None:
        """Mark ``request`` complete and append its row to the columns."""
        if not self.enabled:
            return
        times = request.times
        times[_COMPLETE] = cycle
        if not getattr(request, "tracked", True):
            self.dropped_requests += 1
            return
        if request.is_write and not self.track_writes:
            return
        space = request.space
        code = self._space_codes.get(space)
        if code is None:
            code = self._space_codes[space] = len(self._space_names)
            self._space_names.append(space.value)
        self._times.extend(times)
        self._meta.extend((request.request_id, request.address,
                           request.is_write, code, request.sm_id,
                           request.warp_id, request.pc))

    def read_rows(self, spaces: Optional[Iterable[str]] = None) -> np.ndarray:
        """Timestamp rows of the completed reads, optionally only those in
        ``spaces``: an ``(n, NUM_EVENTS)`` int64 array in completion
        order, ``-1`` where an event was not recorded."""
        times = np.array(self._times, dtype=np.int64).reshape(-1, NUM_EVENTS)
        meta = np.array(self._meta, dtype=np.int64).reshape(-1, _META_WIDTH)
        keep = meta[:, _IS_WRITE] == 0
        if spaces is not None:
            allowed = set(spaces)
            codes = [code for code, name in enumerate(self._space_names)
                     if name in allowed]
            keep &= np.isin(meta[:, _SPACE], codes)
        return times[keep]

    @property
    def requests(self) -> List[RequestRecord]:
        """Every completed tracked request, as row views."""
        return self._records()

    def _records(self, reads_only: bool = False,
                 space: Optional[str] = None) -> List[RequestRecord]:
        records = []
        times, meta = self._times, self._meta
        for row in range(len(meta) // _META_WIDTH):
            (request_id, address, is_write, code, sm_id, warp_id,
             pc) = meta[row * _META_WIDTH:(row + 1) * _META_WIDTH]
            name = self._space_names[code]
            if (reads_only and is_write) or (space is not None
                                             and name != space):
                continue
            stamps = times[row * NUM_EVENTS:(row + 1) * NUM_EVENTS]
            records.append(RequestRecord(
                request_id=request_id, address=address,
                is_write=bool(is_write), space=name, sm_id=sm_id,
                warp_id=warp_id, pc=pc,
                timestamps={event: cycle
                            for event, cycle in zip(EVENT_ORDER, stamps)
                            if cycle >= 0},
            ))
        return records

    # ------------------------------------------------------------------
    # Warp-level load instruction lifetimes
    # ------------------------------------------------------------------
    def record_load(
        self,
        sm_id: int,
        warp_id: int,
        pc: int,
        space: str,
        issue_cycle: int,
        complete_cycle: int,
        num_requests: int,
        l1_hit: bool,
    ) -> None:
        """Record the lifetime of one warp-level load instruction."""
        if not self.enabled:
            return
        self.loads.append(
            LoadRecord(
                sm_id=sm_id,
                warp_id=warp_id,
                pc=pc,
                space=space,
                issue_cycle=issue_cycle,
                complete_cycle=complete_cycle,
                num_requests=num_requests,
                l1_hit=l1_hit,
            )
        )

    # ------------------------------------------------------------------
    # SM issue activity (for exposed-latency accounting)
    # ------------------------------------------------------------------
    def note_issue_cycle(self, sm_id: int, cycle: int) -> None:
        """Record that SM ``sm_id`` issued at least one instruction at ``cycle``.

        The caller must invoke this at most once per (SM, cycle) and with
        non-decreasing cycle numbers, which the SM model guarantees.
        """
        if not self.enabled:
            return
        cycles = self._busy_cycles.setdefault(sm_id, [])
        if cycles and cycles[-1] == cycle:
            return
        cycles.append(cycle)

    def busy_cycles_in(self, sm_id: int, start: int, end: int) -> int:
        """Number of cycles in ``[start, end)`` where the SM issued work."""
        cycles = self._busy_cycles.get(sm_id)
        if not cycles:
            return 0
        return bisect_left(cycles, end) - bisect_left(cycles, start)

    def exposed_cycles(self, load: LoadRecord) -> int:
        """Exposed (non-hidden) cycles of a load's lifetime.

        A cycle of a load's lifetime is *hidden* if the issuing SM issued at
        least one instruction (from any warp) during that cycle, and
        *exposed* otherwise — the same criterion the paper uses: latency is
        exposed when it "cannot be hidden through the execution of other
        independent work from the same or other in-flight threads".
        """
        total = load.latency
        hidden = self.busy_cycles_in(load.sm_id, load.issue_cycle, load.complete_cycle)
        return max(total - hidden, 0)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def read_requests(self, space: Optional[str] = None) -> List[RequestRecord]:
        """Completed read-request row views, optionally filtered by space."""
        return self._records(reads_only=True, space=space)

    def global_loads(self) -> List[LoadRecord]:
        """Completed warp-level load records for the global space."""
        return [load for load in self.loads if load.space == "global"]

    def clear(self) -> None:
        """Drop all recorded data (between kernel launches, if desired)."""
        self._times = array("q")
        self._meta = array("q")
        self.loads.clear()
        self._busy_cycles.clear()
        self.dropped_requests = 0

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics over all completed tracked requests."""
        rows = self.read_rows()
        result: Dict[str, float] = {
            "tracked_requests": len(self._meta) // _META_WIDTH,
            "tracked_reads": len(rows),
            "tracked_loads": len(self.loads),
        }
        if len(rows):
            latencies = (rows[:, _COMPLETE]
                         - rows[:, Event.ISSUE.column]).tolist()
            result["read_latency_min"] = float(min(latencies))
            result["read_latency_max"] = float(max(latencies))
            result["read_latency_mean"] = float(sum(latencies)) / len(latencies)
        if self.loads:
            exposed = [self.exposed_cycles(load) for load in self.loads]
            total = [load.latency for load in self.loads]
            result["load_latency_mean"] = float(sum(total)) / len(total)
            result["exposed_fraction_mean"] = (
                float(sum(exposed)) / max(sum(total), 1)
            )
        return result
