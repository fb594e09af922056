"""The complete off-SM memory system: interconnect plus memory partitions.

The :class:`MemorySystem` is the single object SMs talk to:

* :meth:`try_inject` — move a missed request from an SM's L1 miss queue
  into the request network (this is the transition the paper timestamps as
  ``ICNT_INJECT``; the time spent waiting for it is the ``L1toICNT``
  component of Figure 1),
* :meth:`pop_response` — collect responses that have travelled back to an
  SM through the reply network,
* :meth:`cycle` — advance both networks and the partitions that are due
  by one cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.stages import Event
from repro.core.tracker import LatencyTracker
from repro.memory.address import AddressMapping
from repro.memory.interconnect import Interconnect, InterconnectConfig
from repro.memory.partition import MemoryPartition, PartitionConfig
from repro.memory.request import MemoryRequest
from repro.utils.errors import ConfigurationError
from repro.utils.stats import _ATTRIBUTION, StatCounters

#: Lifetime events recorded here, looked up once.
_ICNT_INJECT = Event.ICNT_INJECT


#: Sentinel wake-up time for a fully quiescent memory system.
_NEVER = float("inf")


def _owner(request: MemoryRequest) -> Optional[int]:
    """The launch a request's counters are attributed to (``None`` for
    untracked traffic)."""
    return request.launch_id if request.launch_id >= 0 else None


class MemorySystem:
    """Interconnect + memory partitions, shared by all SMs.

    With ``reference_memory=True`` :meth:`cycle` ticks both networks and
    every partition on every call: the per-cycle oracle.  Otherwise each
    component is ticked only when it is due, and the body as a whole is
    skipped while nothing is.

    *Per-component wakes.*  After a component is ticked (or takes
    input), its ``horizons`` give its *visit* (the cycle the reference
    engine visits it next) and its *quiet horizon* (the earliest cycle
    it can change state on its own), plus the stall counters each tick
    before that horizon bumps.  A partition is walked right after each
    tick, and after a return-queue hand-off, its only input besides a
    delivered request; the result is cached until then.  The body ticks
    a partition only when its wake (the cached quiet horizon) has come
    or when the request network delivers to it.  A tick skipped before
    the horizon is provably a no-op apart from those stall counters, so
    the partition credits them in bulk at its next tick or stats read:
    one per body-run slot since its last walk, counted in ``_calls``
    (each :meth:`cycle` call and each cycle :meth:`replay_stalls` jumps
    over).  The networks are ticked and walked on every body run and
    credit their stalls the same way.

    *The body gate.*  One walk (:meth:`_refresh`) after each body run
    combines the cached partition results with fresh network horizons:
    the memory system's visit, served by :meth:`next_event_time`, and
    its quiet horizon, which gates the body and is served by
    :meth:`quiet_horizon`.  Calls before it return at once.
    :meth:`try_inject` and :meth:`pop_response` pull the gate in to the
    next cycle and mark the visit stale; the next :meth:`next_event_time`
    walks again, and that walk's quiet horizon gates the body in turn,
    since SM input changes the networks only.  The memory system adds
    the hand-offs between components to the walk: a partition taking a
    delivered request, and a return queue head entering the reply
    network, each make the body due next cycle.

    *The inject-credit wake.*  A gated SM that parks on a miss-queue head
    ``try_inject`` refused registers with :meth:`wait_for_credit`.  When
    the body frees a request-network credit towards that partition (a
    partition takes a delivered request), the SM's id is appended to
    :attr:`credit_woken`, and the GPU's gated drive loop runs the SM on
    the same cycle, as the reference engine would.

    The flag also reaches each partition's DRAM channel, which then scans
    its scheduler queue every cycle instead of skipping cycles it knows
    are blocked.
    """

    def __init__(
        self,
        num_sms: int,
        mapping: AddressMapping,
        icnt_config: InterconnectConfig,
        partition_config: PartitionConfig,
        tracker: LatencyTracker,
        reply_inject_per_cycle: int = 1,
        reference_memory: bool = False,
    ) -> None:
        if num_sms < 1:
            raise ConfigurationError("memory system needs at least one SM")
        self.num_sms = num_sms
        self.mapping = mapping
        self.tracker = tracker
        self.reply_inject_per_cycle = reply_inject_per_cycle
        self.partitions: List[MemoryPartition] = [
            MemoryPartition(pid, partition_config, mapping, tracker,
                            reference_memory=reference_memory)
            for pid in range(mapping.num_partitions)
        ]
        self.request_network = Interconnect(
            num_sources=num_sms,
            num_destinations=mapping.num_partitions,
            config=icnt_config,
            name="icnt_req",
        )
        self.reply_network = Interconnect(
            num_sources=mapping.num_partitions,
            num_destinations=num_sms,
            config=icnt_config,
            name="icnt_rep",
        )
        # Raw deques polled on every body run: requests delivered to
        # each partition, and each partition's responses.
        self._delivered = [self.request_network.output_raw(pid)
                           for pid in range(mapping.num_partitions)]
        self._returning = [partition.return_queue.raw()
                           for partition in self.partitions]
        self.stats = StatCounters(prefix="memsys")
        self.reference_memory = reference_memory
        # The last walk's result.  ``_wake`` gates the body: the quiet
        # horizon, pulled in by SM input.  ``_visit`` is ``None`` once SM
        # input has made it stale.
        self._wake: float = 0
        self._visit: Optional[float] = None
        # Body-run slots so far, and the slot each component was last
        # walked in: the networks', and each partition's with its cached
        # quiet horizon (its wake), visit and stall counters.
        self._calls = 0
        self._net_mark = 0
        self._net_stalls: Sequence[Tuple[StatCounters, int]] = ()
        count = len(self.partitions)
        self._part_mark = [0] * count
        self._part_wake: List[float] = [0] * count
        self._part_visit: List[float] = [0] * count
        self._part_stalls: List[List[Tuple[StatCounters, int]]] = [
            [] for _ in range(count)]
        # The inject-credit wake: the partition each SM waits on (-1 for
        # none).
        self._credit_waiting = [-1] * num_sms
        #: SM ids whose awaited request-network credit the body freed;
        #: the gated drive loop runs them this cycle and clears the list.
        self.credit_woken: List[int] = []
        self._s_inject_stall = self.stats.slot("inject_stall_cycles")
        self._s_injected = self.stats.slot("requests_injected")
        self._s_delivered = self.stats.slot("responses_delivered")

    # ------------------------------------------------------------------
    # SM-facing interface
    # ------------------------------------------------------------------
    def partition_of(self, address: int) -> int:
        """Memory partition servicing ``address``."""
        return self.mapping.partition_of(address)

    def can_inject(self, address: int) -> bool:
        """Whether a request for ``address`` can enter the request network."""
        return self.request_network.can_inject(self.partition_of(address))

    def try_inject(self, sm_id: int, request: MemoryRequest, now: int) -> bool:
        """Inject ``request`` into the request network if credits allow.

        When a per-launch attribution context is active, the counters
        bumped here are narrowed from the SM's blanket context to the
        launch that owns ``request`` — tail traffic of a drained kernel
        can still be injected while a successor is resident on the SM.
        """
        destination = self.partition_of(request.address)
        if not self.request_network.can_inject(destination):
            self.charge_inject_stalls(request, 1)
            return False
        blanket = _ATTRIBUTION[0]
        if blanket is not None:
            _ATTRIBUTION[0] = _owner(request)
        try:
            request.partition = destination
            self.tracker.record_event(request, _ICNT_INJECT, now)
            self.request_network.inject(sm_id, destination, request, now)
            self.stats.inc(self._s_injected)
        finally:
            if blanket is not None:
                _ATTRIBUTION[0] = blanket
        # The last walk's result stays exact when it was already
        # ``now + 1``: input can only bring work forward.
        if now + 1 < self._wake:
            self._wake = now + 1
            self._visit = None
        return True

    def charge_inject_stalls(self, request: MemoryRequest,
                             cycles: int) -> None:
        """Count ``cycles`` refused :meth:`try_inject` calls for
        ``request``, narrowed to its launch like the call itself; the
        GPU charges the cycles it jumps over here in one call."""
        blanket = _ATTRIBUTION[0]
        if blanket is not None:
            _ATTRIBUTION[0] = _owner(request)
        self.stats.inc(self._s_inject_stall, cycles)
        _ATTRIBUTION[0] = blanket

    def wait_for_credit(self, sm_id: int,
                        request: Optional[MemoryRequest]) -> None:
        """Register SM ``sm_id`` to be woken (see :attr:`credit_woken`)
        when a request-network credit frees towards ``request``'s
        partition; ``None`` cancels a registration."""
        self._credit_waiting[sm_id] = (
            -1 if request is None else self.partition_of(request.address))

    def pop_response(self, sm_id: int) -> Optional[MemoryRequest]:
        """Remove one response destined for ``sm_id``, if any has arrived.

        Like :meth:`try_inject`, narrows an active attribution context to
        the launch that owns the delivered response.
        """
        response = self.reply_network.pop(sm_id)
        if response is not None:
            blanket = _ATTRIBUTION[0]
            if blanket is not None:
                _ATTRIBUTION[0] = _owner(response)
                try:
                    self.stats.inc(self._s_delivered)
                finally:
                    _ATTRIBUTION[0] = blanket
            else:
                self.stats.inc(self._s_delivered)
            # A freed reply credit can unblock a partition's return queue.
            self._wake = 0
            self._visit = None
        return response

    def has_response(self, sm_id: int) -> bool:
        """Whether a response for ``sm_id`` is waiting to be popped."""
        return self.reply_network.has_output(sm_id)

    def response_entries(self, sm_id: int):
        """Raw (read-only) view of ``sm_id``'s delivered-response queue.

        Equivalent to polling :meth:`has_response` but without any method
        indirection; cores that gate their per-cycle body on quiescence
        cache this deque and test its truthiness every skipped cycle.
        """
        return self.reply_network.output_raw(sm_id)

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> None:
        """Advance the networks and the due partitions by one cycle.

        Reference memory ticks every partition.  Otherwise the body is
        skipped before the cached wake-up time, and a partition is
        ticked only when it is due — see the class docstring for why
        both are behaviour-identical.
        """
        reference = self.reference_memory
        if not reference:
            self._calls += 1
            if now < self._wake:
                return
            calls = self._calls
            self._credit(self._net_stalls, calls - 1 - self._net_mark)
            wakes, marks = self._part_wake, self._part_mark
        request_network = self.request_network
        reply_network = self.reply_network
        delivered, returning = self._delivered, self._returning
        request_network.cycle(now)
        for partition in self.partitions:
            pid = partition.partition_id
            due = reference or now >= wakes[pid]
            if delivered[pid] and partition.can_accept():
                while partition.can_accept():
                    request = request_network.pop(pid)
                    if request is None:
                        break
                    partition.accept(request, now)
                if pid in self._credit_waiting:
                    self._wake_credit_waiters(pid)
                due = True
            if due:
                if not reference:
                    self._credit(self._part_stalls[pid],
                                 calls - 1 - marks[pid])
                partition.cycle(now)
            if returning[pid]:
                return_queue = partition.return_queue
                injected = 0
                while (
                    injected < self.reply_inject_per_cycle
                    and return_queue
                    and reply_network.can_inject(return_queue.peek().sm_id)
                ):
                    response = return_queue.pop()
                    reply_network.inject(pid, response.sm_id, response, now)
                    injected += 1
                if injected and not due:
                    self._credit(self._part_stalls[pid], calls - marks[pid])
                    due = True
            if due and not reference:
                stalls = self._part_stalls[pid] = []
                self._part_visit[pid], wakes[pid] = partition.horizons(
                    now, stalls)
                marks[pid] = calls
        reply_network.cycle(now)
        if not reference:
            self._net_mark = calls
            self._visit, self._wake = self._refresh(now)

    def _wake_credit_waiters(self, pid: int) -> None:
        """Move the SMs waiting on a credit towards ``pid`` to
        :attr:`credit_woken`."""
        waiting = self._credit_waiting
        for sm_id, destination in enumerate(waiting):
            if destination == pid:
                waiting[sm_id] = -1
                self.credit_woken.append(sm_id)

    @staticmethod
    def _credit(stalls: Sequence[Tuple[StatCounters, int]],
                owed: int) -> None:
        """Bump ``stalls`` for ``owed`` skipped ticks.

        Runs only where no attribution context is set (the body,
        :meth:`next_event_time` and :meth:`collect_stats`), like the
        per-tick bumps it replaces.
        """
        if owed:
            for stats, slot in stalls:
                stats.inc(slot, owed)

    def _credit_stalls(self) -> None:
        """Credit every component's stalls up to the current slot."""
        calls = self._calls
        self._credit(self._net_stalls, calls - self._net_mark)
        self._net_mark = calls
        marks = self._part_mark
        for pid, mark in enumerate(marks):
            self._credit(self._part_stalls[pid], calls - mark)
            marks[pid] = calls

    def _refresh(self, now: int) -> Tuple[float, float]:
        """``(visit, quiet)`` of the whole memory system after a cycle at
        ``now`` or SM input, from fresh network horizons and the cached
        partition ones."""
        self._credit(self._net_stalls, self._calls - self._net_mark)
        self._net_mark = self._calls
        stalls: List[Tuple[StatCounters, int]] = []
        self._net_stalls = stalls
        return self._horizons(now, stalls, cached=True)

    def _walk(self, now: int,
              stalls: List[Tuple[StatCounters, int]]) -> Tuple[float, float]:
        """``(visit, quiet)`` of the whole memory system after a cycle at
        ``now`` from a fresh walk over both networks and every
        partition: what reference memory serves, and the oracle the
        cached walk is checked against.  It changes no state."""
        return self._horizons(now, stalls, cached=False)

    def _horizons(self, now: int, stalls: List[Tuple[StatCounters, int]],
                  cached: bool) -> Tuple[float, float]:
        """The walk behind :meth:`_refresh` and :meth:`_walk`.

        *visit* is the earliest of the components' visits (``inf`` when
        idle).  *quiet* is the earliest cycle at which the body can
        change state without SM input, or ``now + 1`` when it can next
        cycle.  The networks append their stall counters to ``stalls``;
        so do the partitions unless ``cached``, when their last walks
        are read from the cache instead.  The
        memory system adds the two hand-offs between components: a
        partition taking a delivered request, and a return queue head
        entering the reply network.  Replies waiting at the SMs' outputs
        are the SMs' to pop; they make the reply network's visit
        ``now + 1``, and :meth:`pop_response` wakes the body.
        """
        later = now + 1
        reply_network = self.reply_network
        visit = quiet = _NEVER
        delivered, returning = self._delivered, self._returning
        wakes, visits = self._part_wake, self._part_visit
        # Partitions first: their cached results are the cheapest way
        # to learn that something moves next cycle.
        for partition in self.partitions:
            pid = partition.partition_id
            if delivered[pid] and partition.can_accept():
                return later, later
            if returning[pid] and reply_network.can_inject(
                    returning[pid][0].sm_id):
                return later, later
            if cached:
                partition_visit, partition_quiet = visits[pid], wakes[pid]
            else:
                partition_visit, partition_quiet = partition.horizons(
                    now, stalls)
            if partition_quiet <= later:
                return later, later
            # A cached visit before the quiet horizon means it polls.
            if partition_visit < partition_quiet:
                partition_visit = later
            if partition_visit < visit:
                visit = partition_visit
            if partition_quiet < quiet:
                quiet = partition_quiet
        network_visit, network_quiet = self.request_network.horizons(
            now, stalls)
        reply_visit, reply_quiet = reply_network.horizons(now, stalls)
        if reply_quiet < network_quiet:
            network_quiet = reply_quiet
        if network_quiet <= later:
            return later, later
        if reply_visit < network_visit:
            network_visit = reply_visit
        if network_visit < visit:
            visit = network_visit
        if network_quiet < quiet:
            quiet = network_quiet
        return visit, quiet

    def quiet_horizon(self, now: int) -> float:
        """Earliest cycle after ``now`` at which the memory system can
        change state without SM input (``now + 1`` after SM input until
        the next walk, and always on reference memory, which never
        walks)."""
        return max(self._wake, now + 1)

    def replay_stalls(self, cycles: int) -> None:
        """Account ``cycles`` clock cycles the GPU jumps over, all before
        :meth:`quiet_horizon`, as skipped body runs."""
        self._calls += cycles

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Total requests anywhere in the off-SM memory system."""
        return (
            self.request_network.total_pending()
            + self.reply_network.total_pending()
            + sum(partition.in_flight() for partition in self.partitions)
        )

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle at which the memory system needs attention.

        In fast mode this is the visit of the last walk, unless SM input
        has made it stale since: component state only changes inside
        the body or through that input, and a visit computed earlier
        stays exact up to clamping to ``now + 1`` (a component that
        polls keeps polling, a timed event that has come is due now).
        A stale visit is walked again (:meth:`_refresh`), and that walk's
        quiet horizon gates the body too.  The reference path walks
        every time.
        """
        if self.reference_memory:
            visit = self._walk(now, [])[0]
        else:
            visit = self._visit
            if visit is None:
                self._visit, self._wake = self._refresh(now)
                visit = self._visit
        if visit == _NEVER:
            return None
        return max(int(visit), now + 1)

    def collect_stats(self, launch_id: Optional[int] = None) -> StatCounters:
        """Aggregate statistics from all components into one collection.

        With ``launch_id``, only the counters attributed to that kernel
        launch are collected.  The memory system's internal per-cycle
        work (network hops, DRAM scheduling, L2 lookups) runs outside
        any attribution context, so those counters land in the device
        totals but in no launch view — they form the "unattributed"
        residual of a scenario report.
        """
        if not self.reference_memory:
            self._credit_stalls()
        combined = StatCounters(prefix="memory")
        combined.merge(self.stats.view(launch_id))
        combined.merge(self.request_network.stats.view(launch_id))
        combined.merge(self.reply_network.stats.view(launch_id))
        for partition in self.partitions:
            combined.merge(partition.stats.view(launch_id))
            combined.merge(partition.dram.stats.view(launch_id))
            if partition.l2 is not None:
                combined.merge(partition.l2.stats.view(launch_id))
                combined.merge(partition.l2.cache.stats.view(launch_id))
                combined.merge(partition.l2.mshr.stats.view(launch_id))
        return combined
