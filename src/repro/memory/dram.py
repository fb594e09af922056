"""DRAM channel timing model with pluggable request schedulers.

Each memory partition owns one DRAM channel with multiple banks.  Requests
wait in a finite scheduler queue; every cycle the scheduler may start at
most one request whose bank is ready.  Service latency depends on the row
buffer state (row hit, closed row, or row conflict) plus a fixed
command/addressing overhead, and data bursts are serialised on the channel
data bus.

Two schedulers are provided:

* :class:`FCFSScheduler` — strictly oldest-first (among ready banks).
* :class:`FRFCFSScheduler` — first-ready, first-come-first-served: prefers
  row-buffer hits and falls back to the oldest ready request.

The time a request spends waiting in the queue before being selected is
the ``DRAM(QtoSch)`` component of the paper's Figure 1; the time from
selection until the data burst completes is ``DRAM(SchToA)``.

Two things keep the per-cycle scheduling cost down without changing a
cycle or a counter:

* **Decode once.**  :meth:`DramChannel.enqueue` decodes a request's bank
  and row when it enters the queue and stores them in the queue entry
  ``(enqueue_time, seq, request, bank, row)``; the schedulers and the
  request start read them from there instead of re-decoding the address
  on every scan.
* **Blocked cycles short-circuit.**  A scheduler returns ``None``
  exactly when every queued request's bank is busy, and a bank's
  ``busy_until`` only changes when a request starts.  So after a
  ``None`` the channel caches the earliest ``busy_until`` over the banks
  with queued requests, lowers it when :meth:`~DramChannel.enqueue` adds
  a request, and clears it when a request starts.  Until that cycle,
  :meth:`~DramChannel.cycle` counts ``all_banks_busy_cycles`` and
  returns without scanning, which is what the scan would have done.
  Constructed with ``reference_memory=True`` (the reference core's
  memory system) the channel keeps scanning every cycle, so the golden
  suite checks the cached path against the straight-line one.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.memory.address import AddressMapping
from repro.memory.request import MemoryRequest
from repro.utils.errors import ConfigurationError
from repro.utils.stats import StatCounters


@dataclass(frozen=True)
class DRAMTiming:
    """DRAM channel timing parameters, in core ("hot") clock cycles.

    Attributes
    ----------
    t_rcd:
        Row-to-column delay (activate to read).
    t_rp:
        Row precharge time.
    t_cas:
        Column access (CAS) latency.
    burst_cycles:
        Channel data-bus occupancy per request.
    service_pad:
        Fixed additional service latency per access (command transport,
        clock-domain crossing, pad/PHY overheads).  This is the calibration
        knob used to match the end-to-end DRAM latencies of Table I.
    queue_size:
        Capacity of the per-channel scheduler queue.
    num_banks:
        Banks per channel.
    scheduler:
        ``"frfcfs"`` or ``"fcfs"``.
    starvation_limit:
        FR-FCFS only: once the oldest queued request has waited this many
        cycles it is served next regardless of row-buffer state, bounding
        the starvation an open-row streak can cause.  ``0`` disables the
        cap.
    """

    t_rcd: int = 18
    t_rp: int = 18
    t_cas: int = 18
    burst_cycles: int = 4
    service_pad: int = 60
    queue_size: int = 16
    num_banks: int = 8
    scheduler: str = "frfcfs"
    starvation_limit: int = 1024

    def __post_init__(self) -> None:
        for field_name in ("t_rcd", "t_rp", "t_cas", "burst_cycles"):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"DRAM timing {field_name} must be >= 1")
        if self.service_pad < 0:
            raise ConfigurationError("DRAM service_pad must be >= 0")
        if self.queue_size < 1:
            raise ConfigurationError("DRAM queue_size must be >= 1")
        if self.num_banks < 1:
            raise ConfigurationError("DRAM num_banks must be >= 1")
        if self.scheduler not in ("frfcfs", "fcfs"):
            raise ConfigurationError(
                f"unknown DRAM scheduler {self.scheduler!r}; use 'frfcfs' or 'fcfs'"
            )
        if self.starvation_limit < 0:
            raise ConfigurationError("starvation_limit must be >= 0")

    def row_hit_latency(self) -> int:
        """Bank occupancy when the target row is already open."""
        return self.t_cas

    def row_closed_latency(self) -> int:
        """Bank occupancy when the bank has no open row."""
        return self.t_rcd + self.t_cas

    def row_conflict_latency(self) -> int:
        """Bank occupancy when a different row must first be precharged."""
        return self.t_rp + self.t_rcd + self.t_cas


class DramBank:
    """Row-buffer state of one DRAM bank."""

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until: int = 0

    def ready(self, now: int) -> bool:
        """Whether the bank can start a new access at ``now``."""
        return self.busy_until <= now


#: A scheduler queue entry: ``(enqueue_time, seq, request, bank, row)``,
#: with the bank and row decoded once at enqueue.
QueueEntry = Tuple[int, int, MemoryRequest, int, int]


class DramScheduler:
    """Base class for DRAM request schedulers."""

    name = "base"

    def select(
        self,
        queue: List[QueueEntry],
        banks: List[DramBank],
        now: int,
    ) -> Optional[int]:
        """Return the index in ``queue`` of the request to start, or ``None``.

        ``None`` must mean exactly that every queued request's bank is
        busy at ``now``: :class:`DramChannel` relies on it to skip the
        scan until the earliest of those banks frees up.
        """
        raise NotImplementedError


class FCFSScheduler(DramScheduler):
    """Oldest-first scheduling among requests whose bank is ready."""

    name = "fcfs"

    def select(self, queue, banks, now):
        for index, (_, _, _, bank, _) in enumerate(queue):
            if banks[bank].ready(now):
                return index
        return None


class FRFCFSScheduler(DramScheduler):
    """First-ready FCFS: row-buffer hits first, then the oldest ready request.

    A starvation limit (``DRAMTiming.starvation_limit``) promotes the oldest
    ready request once it has waited too long, so a stream of row hits
    cannot indefinitely delay a row-miss request.
    """

    name = "frfcfs"

    def __init__(self, starvation_limit: int = 0) -> None:
        self.starvation_limit = starvation_limit

    def select(self, queue, banks, now):
        fallback: Optional[int] = None
        for index, (enqueue_time, _, _, bank_index, row) in enumerate(queue):
            bank = banks[bank_index]
            if not bank.ready(now):
                continue
            starved = (
                self.starvation_limit
                and now - enqueue_time >= self.starvation_limit
            )
            if starved:
                return index
            if bank.open_row == row:
                return index
            if fallback is None:
                fallback = index
        return fallback


_SCHEDULERS = {
    FCFSScheduler.name: FCFSScheduler,
    FRFCFSScheduler.name: FRFCFSScheduler,
}


def create_scheduler(name: str, starvation_limit: int = 0) -> DramScheduler:
    """Instantiate a DRAM scheduler by name (``"fcfs"`` or ``"frfcfs"``)."""
    if name == FRFCFSScheduler.name:
        return FRFCFSScheduler(starvation_limit=starvation_limit)
    try:
        return _SCHEDULERS[name]()
    except KeyError as exc:
        raise ConfigurationError(f"unknown DRAM scheduler {name!r}") from exc


class DramChannel:
    """One DRAM channel: scheduler queue, banks, and data-bus serialisation.

    With ``reference_memory=True`` the scheduler scans the queue every
    cycle; otherwise cycles on which every queued request's bank is known
    to be busy skip the scan (see the module docstring).
    """

    def __init__(
        self,
        partition_id: int,
        timing: DRAMTiming,
        mapping: AddressMapping,
        tracker: LatencyTracker,
        reference_memory: bool = False,
    ) -> None:
        self.partition_id = partition_id
        self.timing = timing
        self.mapping = mapping
        self.tracker = tracker
        self.reference_memory = reference_memory
        self.scheduler = create_scheduler(
            timing.scheduler, starvation_limit=timing.starvation_limit
        )
        self.banks = [DramBank() for _ in range(timing.num_banks)]
        self._queue: List[QueueEntry] = []
        self._sequence = itertools.count()
        self._in_service: List[Tuple[int, int, MemoryRequest]] = []
        self._completed_reads: Deque[MemoryRequest] = deque()
        self._bus_free_at = 0
        # The scheduler cannot start anything before this cycle: the
        # earliest busy_until over the banks of queued requests, cached
        # when a scan found no ready bank (0 when nothing is cached).
        self._blocked_until = 0
        self.stats = StatCounters(prefix=f"dram{partition_id}")
        stats = self.stats
        self._s_requests = stats.slot("requests")
        self._s_all_busy = stats.slot("all_banks_busy_cycles")
        self._s_row_hits = stats.slot("row_hits")
        self._s_row_closed = stats.slot("row_closed")
        self._s_row_conflicts = stats.slot("row_conflicts")
        self._s_queue_wait = stats.slot("queue_wait_cycles")

    # ------------------------------------------------------------------
    # Queue interface (used by the L2 slice / partition)
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Whether the scheduler queue has a free slot."""
        return len(self._queue) < self.timing.queue_size

    def enqueue(self, request: MemoryRequest, now: int) -> None:
        """Place ``request`` into the scheduler queue."""
        if not self.can_accept():
            raise RuntimeError(f"dram{self.partition_id}: enqueue into full queue")
        self.tracker.record_event(request, Event.DRAM_Q_ARRIVE, now)
        bank = self.mapping.bank_of(request.address)
        row = self.mapping.row_of(request.address)
        self._queue.append((now, next(self._sequence), request, bank, row))
        busy_until = self.banks[bank].busy_until
        if busy_until < self._blocked_until:
            self._blocked_until = busy_until
        self.stats.inc(self._s_requests)

    def queue_occupancy(self) -> int:
        """Requests currently waiting to be scheduled."""
        return len(self._queue)

    def in_flight(self) -> int:
        """Requests waiting, in service, or completed but not yet drained."""
        return len(self._queue) + len(self._in_service) + len(self._completed_reads)

    def has_completed_reads(self) -> bool:
        """Whether a completed read is waiting to be drained."""
        return bool(self._completed_reads)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _access_latency(self, bank: DramBank, row: int) -> Tuple[int, int]:
        """Bank occupancy of an access to ``row`` and its outcome's slot."""
        if bank.open_row == row:
            return self.timing.row_hit_latency(), self._s_row_hits
        if bank.open_row is None:
            return self.timing.row_closed_latency(), self._s_row_closed
        return self.timing.row_conflict_latency(), self._s_row_conflicts

    def cycle(self, now: int) -> None:
        """Complete finished accesses and start at most one new access."""
        if not self._queue and not self._in_service:
            return
        while self._in_service and self._in_service[0][0] <= now:
            finish, _, request = heapq.heappop(self._in_service)
            if request.is_read:
                self.tracker.record_event(request, Event.DRAM_DATA, finish)
                self._completed_reads.append(request)
            else:
                self.stats.add("writes_completed")
        if not self._queue:
            return
        if now < self._blocked_until:
            self.stats.inc(self._s_all_busy)
            return
        index = self.scheduler.select(self._queue, self.banks, now)
        if index is None:
            self.stats.inc(self._s_all_busy)
            if not self.reference_memory:
                self._blocked_until = min(
                    self.banks[bank].busy_until
                    for _, _, _, bank, _ in self._queue)
            return
        enq_time, _, request, bank_index, row = self._queue.pop(index)
        bank = self.banks[bank_index]
        latency, outcome = self._access_latency(bank, row)
        request.dram_row_hit = outcome == self._s_row_hits
        self.stats.inc(outcome)
        self.stats.inc(self._s_queue_wait, now - enq_time)
        # The bank and the data bus are occupied only for the DRAM-core part
        # of the access; the fixed service pad (command transport, PHY and
        # clock-domain crossing) is pipelined and only delays the response.
        burst_done = max(now + latency, self._bus_free_at) + self.timing.burst_cycles
        self._bus_free_at = burst_done
        bank.open_row = row
        bank.busy_until = burst_done
        self._blocked_until = 0
        response_time = burst_done + self.timing.service_pad
        self.tracker.record_event(request, Event.DRAM_SCHEDULED, now)
        heapq.heappush(
            self._in_service, (response_time, next(self._sequence), request)
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def pop_completed_read(self, now: int) -> Optional[MemoryRequest]:
        """Return one completed read, if any (its DRAM_DATA timestamp is the
        cycle the data burst finished, recorded at completion time)."""
        if not self._completed_reads:
            return None
        return self._completed_reads.popleft()

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle at which this channel needs attention."""
        if self._completed_reads or self._queue:
            return now + 1
        if self._in_service:
            return max(self._in_service[0][0], now + 1)
        return None
