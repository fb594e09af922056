"""Load/store unit of an SM.

The LD/ST unit receives warp-level memory instructions from the issue
stage, coalesces their per-lane addresses into line-sized memory requests,
services them against the L1 data cache (when the architecture caches that
space), and sends misses through the miss queue into the interconnect.
Returning responses fill the L1, release MSHR entries, and schedule
register writebacks.

Timestamps recorded here correspond to the first two components of the
paper's Figure 1 breakdown: the time between instruction issue and the L1
tag access is part of "SM Base", and the time a missed request spends
waiting in the miss queue for interconnect credits is "L1toICNT".

Every core backend builds this one unit.  Its per-cycle path is tuned
for throughput: counters are pre-interned
:meth:`~repro.utils.stats.StatCounters.slot` increments, the L1 tag stage
inlines the cache/MSHR/miss-queue probes, and response draining tests
the raw reply deque the memory system exposes.  The stall counters are
pinned to hand-computed counts in ``tests/test_simt_ldst.py``.
:meth:`LoadStoreUnit.horizons` tells the GPU when the unit next needs
a visit and how long it stays stalled, and
:meth:`LoadStoreUnit.replay_stalls` bumps those counters for the cycles
the clock jumps over.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.isa.instruction import Instruction
from repro.isa.opcodes import MemSpace
from repro.memory.cache import SetAssociativeCache
from repro.memory.mshr import MSHRTable
from repro.memory.request import MemoryRequest
from repro.memory.subsystem import MemorySystem
from repro.simt.coreconfig import CoreConfig
from repro.simt.warp import Warp
from repro.utils.queues import BoundedQueue
from repro.utils.stats import StatCounters

_ISSUE = Event.ISSUE
_L1_ACCESS = Event.L1_ACCESS


class LoadToken:
    """Tracks completion of one warp-level load instruction."""

    def __init__(self, warp: Warp, instruction: Instruction,
                 issue_cycle: int, space: MemSpace) -> None:
        self.warp = warp
        self.instruction = instruction
        self.issue_cycle = issue_cycle
        self.space = space
        self.expected = 0
        self.completed = 0
        self.complete_cycle = -1
        self.all_l1_hits = True

    def complete_one(self, cycle: int, l1_hit: bool) -> None:
        """Record completion of one request; updates the completion cycle."""
        self.completed += 1
        self.complete_cycle = max(self.complete_cycle, cycle)
        self.all_l1_hits = self.all_l1_hits and l1_hit

    @property
    def finished(self) -> bool:
        """Whether every request of this load has returned."""
        return self.expected > 0 and self.completed >= self.expected


class PendingMemoryInstruction:
    """A warp-level memory instruction buffered inside the LD/ST unit.

    The coalesced line addresses are computed when the instruction is
    accepted, but the actual :class:`MemoryRequest` objects are created
    lazily — one per cycle, when the access is about to probe the L1 —
    mirroring GPGPU-Sim, where a ``mem_fetch`` only exists from the L1
    access onwards.  Back-pressure from the memory system therefore keeps
    un-issued accesses invisible to the per-request latency accounting
    (they delay the *load instruction*, not any individual request).
    """

    def __init__(self, warp: Warp, instruction: Instruction,
                 token: Optional[LoadToken], lines: List[int],
                 conflict_degree: int = 1) -> None:
        self.warp = warp
        self.instruction = instruction
        self.token = token
        self.remaining_lines = lines
        self.conflict_degree = conflict_degree

    @property
    def is_shared(self) -> bool:
        """Whether this instruction targets shared memory."""
        return self.instruction.space is MemSpace.SHARED


class LoadStoreUnit:
    """Per-SM memory pipeline front end (coalescer, L1, miss queue)."""

    #: Maximum accesses buffered between generation and the L1 tag stage.
    L1_STAGE_DEPTH = 4

    def __init__(
        self,
        sm_id: int,
        config: CoreConfig,
        memory_system: MemorySystem,
        tracker: LatencyTracker,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.memory_system = memory_system
        self.tracker = tracker
        self.line_size = config.l1.geometry.line_size
        self.l1: Optional[SetAssociativeCache] = (
            SetAssociativeCache(config.l1.geometry) if config.l1.enabled else None
        )
        self.l1_mshr = MSHRTable(
            config.l1.mshr_entries, config.l1.mshr_max_merge,
            name=f"l1mshr{sm_id}",
        )
        self.instruction_queue: Deque[PendingMemoryInstruction] = deque()
        self.l1_access_queue: Deque[Tuple[int, MemoryRequest]] = deque()
        self.miss_queue: BoundedQueue[MemoryRequest] = BoundedQueue(
            config.l1.miss_queue_size, name=f"sm{sm_id}.missq"
        )
        self._writebacks: List[Tuple[int, int, Optional[MemoryRequest],
                                     Optional[LoadToken], bool]] = []
        self._sequence = itertools.count()
        self.on_load_complete: Optional[Callable[[LoadToken, int], None]] = None
        self.stats = StatCounters(prefix=f"sm{sm_id}.ldst")
        # Completion-time granularity (cycles).  1 = exact.  The
        # estimator backend raises it: every LD/ST completion time is
        # rounded up to the next quantum boundary, coarsening the event
        # timeline (approximate, never-early cycle counts).
        self.time_quantum = 1
        stats = self.stats
        self._s_coalesced = stats.slot("coalesced_accesses")
        self._s_accepted = stats.slot("instructions_accepted")
        self._s_responses = stats.slot("responses")
        self._s_missq_stall = stats.slot("miss_queue_stall_cycles")
        self._s_merge_stall = stats.slot("mshr_merge_stall_cycles")
        self._s_mshr_full_stall = stats.slot("mshr_full_stall_cycles")
        self._s_stage_full = stats.slot("l1_stage_full_cycles")
        self._s_icnt_stall = stats.slot("icnt_stall_cycles")
        self._s_mshr_merges = stats.slot("mshr_merges")
        self._s_shared = stats.slot("shared_accesses")
        self._s_bank_conflicts = stats.slot("shared_bank_conflict_cycles")
        if self.l1 is not None:
            self._s_l1_misses = self.l1.stats.slot("misses")
            self._s_l1_hits = self.l1.stats.slot("hits")
            self._l1_sets = self.l1._sets
            self._l1_num_sets = self.l1.geometry.num_sets
        self._caches_local = config.l1.caches_space(True)
        self._caches_global = config.l1.caches_space(False)
        self._mshr_entries = self.l1_mshr._entries
        self._mshr_capacity = self.l1_mshr.num_entries
        self._mshr_max_merged = self.l1_mshr.max_merged
        self._miss_entries = self.miss_queue.raw()
        self._miss_capacity = self.miss_queue.capacity
        self._miss_unbounded = self.miss_queue.unbounded
        self._inject_rate = config.icnt_inject_rate
        self._queue_capacity = config.ldst_queue_size
        self._reply_entries = memory_system.response_entries(sm_id)
        self._hit_delay = config.l1.hit_latency + config.writeback_latency
        self._sm_base = config.sm_base_latency
        # What each cycle before the last quiet horizon bumps: LD/ST
        # stall slots, and the miss-queue head try_inject refuses.
        self._stalls: List[int] = []
        self._refused: Optional[MemoryRequest] = None

    def _stamp(self, time: int) -> int:
        """``time`` rounded up to the LD/ST time quantum (identity when 1)."""
        quantum = self.time_quantum
        if quantum <= 1:
            return time
        return -(-time // quantum) * quantum

    def _miss_queue_full(self) -> bool:
        return (not self._miss_unbounded
                and len(self._miss_entries) >= self._miss_capacity)

    # ------------------------------------------------------------------
    # Issue-side interface (called by the SM)
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Whether another warp-level memory instruction can be buffered."""
        return len(self.instruction_queue) < self._queue_capacity

    def issue(
        self,
        warp: Warp,
        instruction: Instruction,
        addresses: np.ndarray,
        now: int,
    ) -> Optional[LoadToken]:
        """Accept a memory instruction; returns a token for loads.

        ``addresses`` holds the int64 byte address of each active lane.
        Global and local accesses coalesce from it into lines at once;
        a shared access takes its bank-conflict degree from it.
        """
        token: Optional[LoadToken] = None
        if instruction.is_load:
            token = LoadToken(warp, instruction, now, instruction.space)
        lines: List[int] = []
        conflict_degree = 1
        if instruction.space is MemSpace.SHARED:
            if len(addresses):
                banks = (addresses // 4) % self.config.shared_banks
                conflict_degree = int(np.unique(
                    banks, return_counts=True)[1].max())
        else:
            line_size = self.line_size
            active = (addresses // line_size).tolist()
            if active:
                # Ascending distinct lines, as np.unique gives them.
                lines = [line * line_size for line in sorted(set(active))]
                self.stats.inc(self._s_coalesced, len(lines))
        if token is not None:
            if instruction.space is MemSpace.SHARED or lines:
                token.expected = max(len(lines), 1)
            else:
                # A fully predicated-off load still has to release its
                # destination register; complete it with a dummy writeback.
                token.expected = 1
                heapq.heappush(
                    self._writebacks,
                    (self._stamp(now + 1), next(self._sequence), None, token,
                     True),
                )
        if (instruction.space is MemSpace.SHARED or lines
                or instruction.is_store):
            self.instruction_queue.append(
                PendingMemoryInstruction(warp, instruction, token, lines,
                                         conflict_degree)
            )
        self.stats.inc(self._s_accepted)
        return token

    # ------------------------------------------------------------------
    # Writeback processing (called early in the SM cycle)
    # ------------------------------------------------------------------
    def process_writebacks(self, now: int) -> None:
        """Complete requests whose writeback time has been reached."""
        while self._writebacks and self._writebacks[0][0] <= now:
            time, _, request, token, l1_hit = heapq.heappop(self._writebacks)
            if request is not None:
                self.tracker.finish_request(request, time)
            self._complete_token(token, time, l1_hit)

    def _complete_token(self, token: Optional[LoadToken], time: int,
                        l1_hit: bool) -> None:
        if token is None:
            return
        token.complete_one(time, l1_hit)
        if token.finished:
            self.tracker.record_load(
                sm_id=self.sm_id,
                warp_id=token.warp.warp_id,
                pc=token.instruction.pc,
                space=token.space.value,
                issue_cycle=token.issue_cycle,
                complete_cycle=time,
                num_requests=token.expected,
                l1_hit=token.all_l1_hits,
            )
            if self.on_load_complete is not None:
                self.on_load_complete(token, time)

    # ------------------------------------------------------------------
    # Backend processing
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> None:
        """Advance the LD/ST pipelines by one cycle.

        Each stage is guarded by its input state; a skipped stage is a
        pure no-op in the unguarded version (no state change, no stat
        counters), so the guards are behaviour-neutral.
        """
        if self._reply_entries:
            self._accept_responses(now)
        if self.l1_access_queue:
            self._access_l1(now)
        if self._miss_entries:
            self._drain_miss_queue(now)
        if self.instruction_queue:
            self._generate_accesses(now)

    def _accept_responses(self, now: int) -> None:
        replies = self._reply_entries
        pop_response = self.memory_system.pop_response
        while replies:
            self._handle_response(pop_response(self.sm_id), now)

    def _handle_response(self, response: MemoryRequest, now: int) -> None:
        """Fill the L1 (when applicable) and schedule register writebacks.

        Requests that merged onto this line at the L1 MSHR never travelled
        downstream themselves; their writebacks are scheduled here when the
        shared fill returns.  Requests that merged at the L2 return as their
        own responses and are therefore *not* completed from this path.
        """
        writeback_time = self._stamp(now + self.config.writeback_latency)
        waiters: List[MemoryRequest] = [response]
        caches = self._l1_caches_space(response.space)
        if caches and self.l1 is not None:
            line = self.l1.line_address(response.address)
            if self.l1_mshr.lookup(line) is not None:
                self.l1.fill(line)
                entry = self.l1_mshr.release(line)
                waiters = [entry.primary] + list(entry.merged)
        for waiter in waiters:
            heapq.heappush(
                self._writebacks,
                (writeback_time, next(self._sequence), waiter,
                 waiter.load_token, False),
            )
        self.stats.inc(self._s_responses)

    def _l1_caches_space(self, space: MemSpace) -> bool:
        return (self._caches_local if space is MemSpace.LOCAL
                else self._caches_global)

    def _access_l1(self, now: int) -> None:
        queue = self.l1_access_queue
        ready_time, request = queue[0]
        if ready_time > now:
            return
        stall = self._l1_stall(request)
        if stall is not None:
            self.stats.inc(stall)
            return
        # Stamped once, on the attempt that moves the request: a stalled
        # attempt's stamp would be overwritten by this one.
        self.tracker.record_event(request, _L1_ACCESS, now)
        queue.popleft()
        caches = (self._caches_local if request.space is MemSpace.LOCAL
                  else self._caches_global)
        l1 = self.l1
        if request.is_write:
            if caches and l1 is not None:
                l1.invalidate(request.address)
            self.miss_queue.push(request)
            return
        if not caches or l1 is None:
            self.miss_queue.push(request)
            return
        address = request.address
        line = (address // self.line_size) * self.line_size
        ways = self._l1_sets[(address // self.line_size) % self._l1_num_sets]
        if line in ways:
            # Inlined SetAssociativeCache.access hit path: LRU refresh
            # plus the hit counter (identical counters and order).
            ways.remove(line)
            ways.append(line)
            l1.stats.inc(self._s_l1_hits)
            request.l1_hit = True
            complete = now + self._hit_delay
            if self.time_quantum > 1:
                complete = self._stamp(complete)
            heapq.heappush(
                self._writebacks,
                (complete, next(self._sequence), request,
                 request.load_token, True),
            )
            return
        l1.stats.inc(self._s_l1_misses)
        if line in self._mshr_entries:
            self.l1_mshr.merge(line, request)
            self.stats.inc(self._s_mshr_merges)
            return
        self.l1_mshr.allocate(line, request)
        self.miss_queue.push(request)

    def _drain_miss_queue(self, now: int) -> None:
        entries = self._miss_entries
        for _ in range(self._inject_rate):
            if not entries:
                return
            if not self.memory_system.try_inject(self.sm_id, entries[0],
                                                 now):
                self.stats.inc(self._s_icnt_stall)
                return
            self.miss_queue.pop()

    def _generate_accesses(self, now: int) -> None:
        """Turn the head instruction's next coalesced access into a request.

        At most one access is generated per cycle, and only while the L1
        stage has room — any further backlog stays inside the instruction
        queue where it delays the warp, not the per-request latency
        accounting (matching the paper's instrumentation, which starts a
        request's lifetime at the SM's memory pipeline).
        """
        pending = self.instruction_queue[0]
        if pending.is_shared:
            self.instruction_queue.popleft()
            self._process_shared(pending, now)
            return
        remaining = pending.remaining_lines
        if not remaining:
            self.instruction_queue.popleft()
            return
        if len(self.l1_access_queue) >= self.L1_STAGE_DEPTH:
            self.stats.inc(self._s_stage_full)
            return
        line = remaining.pop(0)
        request = MemoryRequest(
            address=line,
            size=self.line_size,
            is_write=pending.instruction.is_store,
            space=pending.instruction.space,
            sm_id=self.sm_id,
            warp_id=pending.warp.warp_id,
            pc=pending.instruction.pc,
            tracked=True,
            load_token=pending.token,
            launch_id=pending.warp.launch_id,
        )
        self.tracker.record_event(request, _ISSUE, now)
        ready = now + self._sm_base
        if self.time_quantum > 1:
            ready = self._stamp(ready)
        self.l1_access_queue.append((ready, request))
        if not remaining:
            self.instruction_queue.popleft()

    def _process_shared(self, pending: PendingMemoryInstruction,
                        now: int) -> None:
        """Model a shared-memory access: latency plus bank-conflict cycles."""
        extra = pending.conflict_degree - 1
        self.stats.inc(self._s_shared)
        self.stats.inc(self._s_bank_conflicts, extra)
        if pending.token is not None:
            complete = self._stamp(now + self.config.shared_latency + extra)
            heapq.heappush(
                self._writebacks,
                (complete, next(self._sequence), None, pending.token, True),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether any work is buffered inside the LD/ST unit."""
        return bool(
            self.instruction_queue
            or self.l1_access_queue
            or self.miss_queue
            or self._writebacks
            or len(self.l1_mshr)
        )

    def horizons(self, now: int) -> Tuple[float, float]:
        """``(visit, quiet)`` after a cycle at ``now``.

        *quiet* is the earliest cycle at which the unit's state can
        change without outside input, or ``now + 1`` when it can next
        cycle.  Outside input is a reply from the memory system, or a
        freed request-network credit for the miss-queue head; the memory
        system's own horizon covers both.  Until the horizon each cycle
        bumps the same stall counters, recorded for
        :meth:`replay_stalls`: an L1-stage head blocked on an MSHR
        merge, a full MSHR table or a full miss queue; a miss-queue head
        ``try_inject`` refuses; and a full L1 stage holding back the
        next access.  *visit* is ``now + 1`` while any of those polls,
        and *quiet* otherwise.
        """
        later = now + 1
        if self._reply_entries:
            return later, later
        stalls = self._stalls = []
        self._refused = None
        quiet = self._writebacks[0][0] if self._writebacks else math.inf
        if quiet <= later:
            return later, later
        queue = self.l1_access_queue
        if queue:
            ready, request = queue[0]
            if ready > later:
                if ready < quiet:
                    quiet = ready
            else:
                slot = self._l1_stall(request)
                if slot is None:
                    return later, later
                stalls.append(slot)
        if self._miss_entries:
            request = self._miss_entries[0]
            if self.memory_system.can_inject(request.address):
                return later, later
            stalls.append(self._s_icnt_stall)
            self._refused = request
        if self.instruction_queue:
            pending = self.instruction_queue[0]
            if (pending.is_shared or not pending.remaining_lines
                    or len(queue) < self.L1_STAGE_DEPTH):
                return later, later
            stalls.append(self._s_stage_full)
        return (later if stalls else quiet), quiet

    def _l1_stall(self, request: MemoryRequest) -> Optional[int]:
        """The stall slot :meth:`_access_l1` bumps instead of moving
        ``request`` at the head of the L1 stage, or ``None`` when it moves.

        A write or an uncached read waits for room in the miss queue; a
        hit always moves; a cached miss waits for a mergeable MSHR entry,
        a free MSHR entry, or room in the miss queue, in that order.
        """
        l1 = self.l1
        if (request.is_write or l1 is None
                or not self._l1_caches_space(request.space)):
            return self._s_missq_stall if self._miss_queue_full() else None
        address = request.address
        line = (address // self.line_size) * self.line_size
        if line in self._l1_sets[(address // self.line_size)
                                 % self._l1_num_sets]:
            return None
        entry = self._mshr_entries.get(line)
        if entry is not None:
            if len(entry.merged) < self._mshr_max_merged:
                return None
            return self._s_merge_stall
        if len(self._mshr_entries) >= self._mshr_capacity:
            return self._s_mshr_full_stall
        return self._s_missq_stall if self._miss_queue_full() else None

    def replay_stalls(self, cycles: int) -> None:
        """Bump the stall counters of the last :meth:`horizons` once
        per cycle of a ``cycles``-long jump that ends at or before it."""
        stats = self.stats
        for slot in self._stalls:
            stats.inc(slot, cycles)
        if self._refused is not None:
            self.memory_system.charge_inject_stalls(self._refused, cycles)

    def collect_stats(self, launch_id: Optional[int] = None) -> StatCounters:
        """Combined statistics of the LD/ST unit, L1 cache, and L1 MSHRs.

        With ``launch_id``, only the counters attributed to that kernel
        launch are collected.
        """
        combined = StatCounters(prefix=f"sm{self.sm_id}")
        combined.merge(self.stats.view(launch_id))
        if self.l1 is not None:
            combined.merge(self.l1.stats.view(launch_id))
        combined.merge(self.l1_mshr.stats.view(launch_id))
        return combined
