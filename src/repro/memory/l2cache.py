"""L2 cache slice model.

Each memory partition contains one L2 slice.  The slice services one
request per cycle from its input queue: read hits become data responses
after the configured hit latency, read misses allocate an MSHR entry and
are forwarded to the partition's DRAM channel, and writes are handled
write-through / no-allocate (forwarded to DRAM, refreshing LRU state if
the line happens to be resident).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.memory.address import AddressMapping
from repro.memory.cache import CacheGeometry, SetAssociativeCache
from repro.memory.dram import DramChannel
from repro.memory.mshr import MSHRTable
from repro.memory.request import MemoryRequest
from repro.utils.errors import ConfigurationError
from repro.utils.queues import BoundedQueue
from repro.utils.stats import StatCounters

#: Lifetime events recorded here, looked up once.
_L2Q_ARRIVE = Event.L2Q_ARRIVE
_L2_DATA = Event.L2_DATA


@dataclass(frozen=True)
class L2SliceConfig:
    """Configuration of one L2 slice (per memory partition).

    Attributes
    ----------
    geometry:
        Capacity / line size / associativity of the slice.
    hit_latency:
        Cycles from tag access to data availability on a hit.  This is the
        calibration knob used to match the end-to-end L2 latencies of
        Table I.
    mshr_entries / mshr_max_merge:
        Outstanding-miss tracking limits.
    input_queue_size:
        Capacity of the request queue feeding the slice.
    """

    geometry: CacheGeometry
    hit_latency: int = 80
    mshr_entries: int = 32
    mshr_max_merge: int = 8
    input_queue_size: int = 8

    def __post_init__(self) -> None:
        if self.hit_latency < 1:
            raise ConfigurationError("L2 hit_latency must be >= 1")
        if self.mshr_entries < 1:
            raise ConfigurationError("L2 mshr_entries must be >= 1")
        if self.mshr_max_merge < 0:
            raise ConfigurationError("L2 mshr_max_merge must be >= 0")
        if self.input_queue_size < 1:
            raise ConfigurationError("L2 input_queue_size must be >= 1")


class L2Slice:
    """Timing model of one L2 cache slice."""

    def __init__(self, partition_id: int, config: L2SliceConfig,
                 tracker: LatencyTracker,
                 mapping: Optional[AddressMapping] = None) -> None:
        self.partition_id = partition_id
        self.config = config
        self.tracker = tracker
        set_index_fn = None
        if mapping is not None:
            line_size = config.geometry.line_size

            # Index with the partition-local address: the bits that select
            # the partition carry no information within one slice and would
            # otherwise alias away most of the sets.
            def set_index_fn(address):
                return mapping.partition_local(address) // line_size
        self.cache = SetAssociativeCache(config.geometry, set_index_fn=set_index_fn)
        self.mshr = MSHRTable(config.mshr_entries, config.mshr_max_merge,
                              name=f"l2mshr{partition_id}")
        self.request_queue: BoundedQueue[MemoryRequest] = BoundedQueue(
            config.input_queue_size, name=f"l2q{partition_id}"
        )
        self._pending_hits: List[tuple] = []
        self._sequence = itertools.count()
        self.stats = StatCounters(prefix=f"l2slice{partition_id}")
        stats = self.stats
        self._s_writes = stats.slot("writes")
        self._s_mshr_merges = stats.slot("mshr_merges")
        self._s_fills = stats.slot("fills")
        self._s_cache_misses = self.cache.stats.slot("misses")
        self._s_write_stall = stats.slot("write_stall_cycles")
        self._s_merge_stall = stats.slot("mshr_merge_stall_cycles")
        self._s_mshr_full_stall = stats.slot("mshr_full_stall_cycles")
        self._s_dram_queue_stall = stats.slot("dram_queue_stall_cycles")

    # ------------------------------------------------------------------
    # Input side
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Whether the input queue has room for another request."""
        return not self.request_queue.full()

    def push_request(self, request: MemoryRequest, now: int) -> None:
        """Enter ``request`` into the slice's input queue."""
        self.tracker.record_event(request, _L2Q_ARRIVE, now)
        self.request_queue.push(request)

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
    def cycle(self, now: int, dram: DramChannel,
              return_queue: BoundedQueue) -> None:
        """Complete hits whose data is ready and process one new request."""
        if not self._pending_hits and not self.request_queue:
            return
        while (
            self._pending_hits
            and self._pending_hits[0][0] <= now
            and not return_queue.full()
        ):
            ready, _, request = heapq.heappop(self._pending_hits)
            self.tracker.record_event(request, _L2_DATA, ready)
            return_queue.push(request)
        request = self.request_queue.peek()
        if request is None:
            return
        stall = self._head_stall(request, dram)
        if stall is not None:
            self.stats.inc(stall)
            return
        self.request_queue.pop()
        if request.is_write:
            if self.cache.probe(request.address):
                self.cache.access(request.address)
            self.stats.inc(self._s_writes)
            dram.enqueue(request, now)
            return
        if self.cache.probe(request.address):
            self.cache.access(request.address)
            request.l2_hit = True
            heapq.heappush(
                self._pending_hits,
                (now + self.config.hit_latency, next(self._sequence), request),
            )
            return
        self.cache.stats.inc(self._s_cache_misses)
        line = self.cache.line_address(request.address)
        if self.mshr.lookup(line) is not None:
            self.mshr.merge(line, request)
            self.stats.inc(self._s_mshr_merges)
            return
        self.mshr.allocate(line, request)
        dram.enqueue(request, now)

    def _head_stall(self, request: MemoryRequest,
                    dram: DramChannel) -> Optional[int]:
        """The stall counter slot :meth:`cycle` bumps instead of moving head
        ``request`` on, or ``None`` when the request moves.

        A write waits for room in the DRAM queue; a read hit always
        moves; a read miss waits for a mergeable MSHR entry, a free MSHR
        entry, or room in the DRAM queue, in that order.
        """
        if request.is_write:
            return None if dram.can_accept() else self._s_write_stall
        if self.cache.probe(request.address):
            return None
        line = self.cache.line_address(request.address)
        if self.mshr.lookup(line) is not None:
            return (None if self.mshr.can_merge(line)
                    else self._s_merge_stall)
        if self.mshr.full():
            return self._s_mshr_full_stall
        return None if dram.can_accept() else self._s_dram_queue_stall

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def fill(self, request: MemoryRequest, now: int) -> List[MemoryRequest]:
        """Install the line fetched for ``request``; return all waiters."""
        line = self.cache.line_address(request.address)
        self.cache.fill(line)
        entry = self.mshr.release(line)
        self.stats.inc(self._s_fills)
        return [entry.primary] + list(entry.merged)

    def horizons(self, now: int, dram: DramChannel,
                 return_queue: BoundedQueue,
                 stalls: list) -> Tuple[float, float]:
        """``(visit, quiet)`` after a cycle at ``now``, given that
        ``dram`` and ``return_queue`` do not change.

        *quiet* is ``now + 1`` when a hit can complete or the head
        request can move next cycle, otherwise the next hit completion
        (``inf`` without one).  A head request that cannot move bumps
        the same stall counter every cycle; its ``(stats, slot)`` entry
        goes to ``stalls``.  *visit* is ``now + 1`` while a request is
        queued or a completed hit waits on a full return queue, and
        *quiet* otherwise.
        """
        later = now + 1
        visit = quiet = math.inf
        if self._pending_hits:
            ready = self._pending_hits[0][0]
            if ready > later:
                visit = quiet = ready
            elif not return_queue.full():
                return later, later
            else:
                visit = later
        request = self.request_queue.peek()
        if request is None:
            return visit, quiet
        stall = self._head_stall(request, dram)
        if stall is None:
            return later, later
        stalls.append((self.stats, stall))
        return later, quiet

    def outstanding_misses(self) -> int:
        """Number of lines currently being fetched from DRAM."""
        return len(self.mshr)
