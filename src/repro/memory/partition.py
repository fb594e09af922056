"""Memory partition: ROP entry path, L2 slice, and DRAM channel.

A partition is the unit the interconnect delivers requests to.  Incoming
requests traverse a fixed-latency ROP (raster operations) pipeline queue —
GPGPU-Sim models the same fixed delay between interconnect ejection and the
L2 — then enter the L2 slice (or go straight to DRAM for architectures
without an L2 on the global path, such as the GT200 configuration).
Responses wait in a return queue until the reply interconnect accepts them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.memory.address import AddressMapping
from repro.memory.dram import DramChannel, DRAMTiming
from repro.memory.l2cache import L2Slice, L2SliceConfig
from repro.memory.request import MemoryRequest
from repro.utils.errors import ConfigurationError
from repro.utils.queues import BoundedQueue
from repro.utils.stats import StatCounters


@dataclass(frozen=True)
class PartitionConfig:
    """Configuration of one memory partition.

    Attributes
    ----------
    rop_latency:
        Fixed pipeline delay between interconnect ejection and L2 queue
        entry.
    rop_queue_size:
        Capacity of the ROP delay queue.
    l2_enabled:
        When ``False`` (the Tesla/GT200 configuration) requests bypass the
        L2 entirely and go straight to the DRAM scheduler queue.
    l2:
        L2 slice configuration (ignored when ``l2_enabled`` is ``False``).
    dram:
        DRAM channel timing.
    return_queue_size:
        Capacity of the response queue towards the reply interconnect.
    """

    rop_latency: int = 16
    rop_queue_size: int = 16
    l2_enabled: bool = True
    l2: Optional[L2SliceConfig] = None
    dram: DRAMTiming = DRAMTiming()
    return_queue_size: int = 8

    def __post_init__(self) -> None:
        if self.rop_latency < 0:
            raise ConfigurationError("rop_latency must be >= 0")
        if self.rop_queue_size < 1:
            raise ConfigurationError("rop_queue_size must be >= 1")
        if self.l2_enabled and self.l2 is None:
            raise ConfigurationError("l2_enabled requires an L2SliceConfig")
        if self.return_queue_size < 1:
            raise ConfigurationError("return_queue_size must be >= 1")


class MemoryPartition:
    """One L2 slice + DRAM channel pair behind the interconnect.

    ``reference_memory`` is passed to the DRAM channel (see
    :class:`~repro.memory.dram.DramChannel`).
    """

    def __init__(self, partition_id: int, config: PartitionConfig,
                 mapping: AddressMapping, tracker: LatencyTracker,
                 reference_memory: bool = False) -> None:
        self.partition_id = partition_id
        self.config = config
        self.tracker = tracker
        self.l2: Optional[L2Slice] = (
            L2Slice(partition_id, config.l2, tracker, mapping=mapping)
            if config.l2_enabled
            else None
        )
        self.dram = DramChannel(partition_id, config.dram, mapping, tracker,
                                reference_memory=reference_memory)
        self._rop_queue: Deque[Tuple[int, MemoryRequest]] = deque()
        self.return_queue: BoundedQueue[MemoryRequest] = BoundedQueue(
            config.return_queue_size, name=f"part{partition_id}.return"
        )
        self._fill_overflow: Deque[MemoryRequest] = deque()
        self.stats = StatCounters(prefix=f"partition{partition_id}")

    # ------------------------------------------------------------------
    # Interconnect-facing input
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Whether the ROP queue can take another request."""
        return len(self._rop_queue) < self.config.rop_queue_size

    def accept(self, request: MemoryRequest, now: int) -> None:
        """Take a request delivered by the interconnect into the ROP queue."""
        if not self.can_accept():
            raise RuntimeError(f"partition {self.partition_id}: ROP queue full")
        self.tracker.record_event(request, Event.ROP_ARRIVE, now)
        self._rop_queue.append((now + self.config.rop_latency, request))
        self.stats.add("requests_accepted")

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> None:
        """Advance the partition by one cycle.

        Quiescent sub-components are skipped: every step below is a pure
        no-op (no state change, no counters) when its input state is
        empty, so the guards are behaviour-identical to ticking
        unconditionally.
        """
        if self._fill_overflow:
            self._drain_overflow()
        if self.dram.has_completed_reads():
            self._drain_dram_completions(now)
        if self.l2 is not None:
            self.l2.cycle(now, self.dram, self.return_queue)
        self.dram.cycle(now)
        if self._rop_queue:
            self._drain_rop(now)

    def _drain_overflow(self) -> None:
        while self._fill_overflow and not self.return_queue.full():
            self.return_queue.push(self._fill_overflow.popleft())

    def _drain_dram_completions(self, now: int) -> None:
        while True:
            request = self.dram.pop_completed_read(now)
            if request is None:
                return
            if self.l2 is not None:
                responses = self.l2.fill(request, now)
            else:
                responses = [request]
            for response in responses:
                if self.return_queue.full():
                    self._fill_overflow.append(response)
                else:
                    self.return_queue.push(response)

    def _drain_rop(self, now: int) -> None:
        while self._rop_queue and self._rop_queue[0][0] <= now:
            ready, request = self._rop_queue[0]
            if self.l2 is not None:
                if not self.l2.can_accept():
                    self.stats.add("l2_queue_stall_cycles")
                    return
                self._rop_queue.popleft()
                self.l2.push_request(request, now)
            else:
                if not self.dram.can_accept():
                    self.stats.add("dram_queue_stall_cycles")
                    return
                self._rop_queue.popleft()
                self.tracker.record_event(request, Event.L2Q_ARRIVE, now)
                self.dram.enqueue(request, now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Requests anywhere inside this partition."""
        l2_outstanding = 0
        if self.l2 is not None:
            l2_outstanding = (
                len(self.l2.request_queue)
                + len(self.l2._pending_hits)
                + self.l2.outstanding_misses()
            )
        return (
            len(self._rop_queue)
            + l2_outstanding
            + self.dram.in_flight()
            + len(self.return_queue)
            + len(self._fill_overflow)
        )

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle at which this partition needs attention.

        ``now + 1`` is the earliest representable event, so the checks
        short-circuit as soon as any component reports it.
        """
        soon = now + 1
        if self.return_queue or self._fill_overflow:
            return soon
        best: Optional[int] = None
        if self._rop_queue:
            ready = self._rop_queue[0][0]
            if ready <= soon:
                return soon
            best = ready
        if self.l2 is not None:
            l2_next = self.l2.next_event_time(now)
            if l2_next is not None:
                if l2_next <= soon:
                    return soon
                best = l2_next if best is None else min(best, l2_next)
        dram_next = self.dram.next_event_time(now)
        if dram_next is not None:
            if dram_next <= soon:
                return soon
            best = dram_next if best is None else min(best, dram_next)
        return best
