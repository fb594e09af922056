"""The complete off-SM memory system: interconnect plus memory partitions.

The :class:`MemorySystem` is the single object SMs talk to:

* :meth:`try_inject` — move a missed request from an SM's L1 miss queue
  into the request network (this is the transition the paper timestamps as
  ``ICNT_INJECT``; the time spent waiting for it is the ``L1toICNT``
  component of Figure 1),
* :meth:`pop_response` — collect responses that have travelled back to an
  SM through the reply network,
* :meth:`cycle` — advance every partition and both networks by one cycle.
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


#: Sentinel wake-up time for a fully quiescent memory system.
_NEVER = float("inf")


def _owner(request: MemoryRequest) -> Optional[int]:
    """The launch a request's counters are attributed to (``None`` for
    untracked traffic)."""
    return request.launch_id if request.launch_id >= 0 else None


class MemorySystem:
    """Interconnect + memory partitions, shared by all SMs.

    Unless constructed with ``reference_memory=True``, :meth:`cycle` skips
    its body entirely while the system is quiescent: after every
    processed cycle the earliest future cycle at which any component can
    change state is cached (via the same logic as
    :meth:`next_event_time`), and calls before that wake-up time return
    immediately.  :meth:`try_inject` and :meth:`pop_response` lower the
    wake-up time, so input from the SMs is never missed.  A skipped cycle
    before the next event time is provably a no-op — every component's
    per-cycle handler neither mutates state nor touches a stat counter —
    so the fast and reference paths produce byte-identical results.

    The body also sleeps through *stalls*: when something polls (the
    next event is ``now + 1``) but nothing can move before a later
    *quiet horizon* (see :meth:`_compute_quiet_horizon`), each body run
    before the horizon would only bump the same stall counters.  The
    body then sleeps until the horizon, counts the calls it skips, and
    credits those counters in bulk at its next body run or stats read
    (:meth:`_credit_stalls`); the GPU adds the cycles it jumps over
    (:meth:`replay_stalls`).  The flag also reaches each partition's
    DRAM channel, which then scans its scheduler queue every cycle
    instead of skipping cycles it knows are blocked.
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
        self.stats = StatCounters(prefix="memsys")
        self.reference_memory = reference_memory
        self._wake: float = 0
        # Cached next_event_time enumeration.  Unlike ``_wake`` (the
        # body-skip guard, deliberately conservative-early after an
        # injection) this must match a fresh enumeration exactly, so it
        # is invalidated whenever state changes outside the body: an SM
        # popping a response (true next event moves later) or injecting
        # a request (its arrival becomes a new, possibly earlier event).
        self._next: float = 0
        self._next_stale = True
        # Stall sleep: the body polls until ``_poll_until`` (0 when it is
        # not sleeping through a stall), each skipped call bumping the
        # ``(stats, slot)`` counters in ``_stalls``; ``_skipped`` counts
        # the calls not yet credited.
        self._poll_until: float = 0
        self._stalls: Sequence[Tuple[StatCounters, int]] = ()
        self._skipped = 0
        self._s_inject_stall = self.stats.slot("inject_stall_cycles")

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
            self.tracker.record_event(request, Event.ICNT_INJECT, now)
            self.request_network.inject(sm_id, destination, request, now)
            self.stats.add("requests_injected")
        finally:
            if blanket is not None:
                _ATTRIBUTION[0] = blanket
        if now + 1 < self._wake:
            self._wake = now + 1
        self._next_stale = True
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
                    self.stats.add("responses_delivered")
                finally:
                    _ATTRIBUTION[0] = blanket
            else:
                self.stats.add("responses_delivered")
            # A freed reply credit can unblock a partition's return queue.
            self._wake = 0
            self._next_stale = True
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
        """Advance the networks and all partitions by one cycle.

        In fast mode (``reference_memory=False``) the body is skipped while
        ``now`` is before the cached wake-up time — see the class
        docstring for why that is behaviour-identical.
        """
        if now < self._wake and not self.reference_memory:
            self._skipped += 1
            return
        if self._skipped:
            self._credit_stalls()
        request_network = self.request_network
        request_network.cycle(now)
        for partition in self.partitions:
            if request_network.has_output(partition.partition_id):
                while partition.can_accept():
                    request = request_network.peek(partition.partition_id)
                    if request is None:
                        break
                    request_network.pop(partition.partition_id)
                    partition.accept(request, now)
            partition.cycle(now)
            if partition.return_queue:
                injected = 0
                while (
                    injected < self.reply_inject_per_cycle
                    and partition.return_queue
                    and self.reply_network.can_inject(
                        partition.return_queue.peek().sm_id)
                ):
                    response = partition.return_queue.pop()
                    self.reply_network.inject(
                        partition.partition_id, response.sm_id, response, now
                    )
                    injected += 1
        self.reply_network.cycle(now)
        if not self.reference_memory:
            wake = self._next = self._compute_wake(now)
            self._next_stale = False
            self._poll_until = 0
            self._stalls = ()
            if wake == now + 1:
                stalls: List[Tuple[StatCounters, int]] = []
                horizon = self._compute_quiet_horizon(now, stalls)
                if horizon > wake:
                    wake = self._poll_until = horizon
                    self._stalls = stalls
            self._wake = wake

    def _credit_stalls(self) -> None:
        """Bump the sleep's stall counters once per skipped body run.

        Runs only where no attribution context is set (the body and
        :meth:`collect_stats`), like the per-cycle bumps it replaces.
        """
        skipped = self._skipped
        self._skipped = 0
        for stats, slot in self._stalls:
            stats.inc(slot, skipped)

    def _compute_quiet_horizon(
            self, now: int,
            stalls: List[Tuple[StatCounters, int]]) -> float:
        """Earliest cycle after ``now`` at which the body can change state
        without SM input, or ``now + 1`` when it can next cycle.

        Each component reports its own horizon and appends the
        ``(stats, slot)`` stall counters one body run before it bumps.
        The memory system adds the two hand-offs between components:
        a partition taking a delivered request, and a return queue head
        entering the reply network.  Replies waiting at the SMs' outputs
        are the SMs' to pop; :meth:`pop_response` wakes the body.
        """
        later = now + 1
        request_network = self.request_network
        reply_network = self.reply_network
        horizon = min(request_network.quiet_horizon(now, stalls),
                      reply_network.quiet_horizon(now, stalls))
        if horizon <= later:
            return later
        for partition in self.partitions:
            if (request_network.has_output(partition.partition_id)
                    and partition.can_accept()):
                return later
            return_queue = partition.return_queue
            if return_queue and reply_network.can_inject(
                    return_queue.peek().sm_id):
                return later
            event_time = partition.quiet_horizon(now, stalls)
            if event_time <= later:
                return later
            if event_time < horizon:
                horizon = event_time
        return horizon

    def quiet_horizon(self, now: int) -> float:
        """Earliest cycle after ``now`` at which the memory system can
        change state without SM input (``now + 1`` on reference memory,
        which never sleeps through stalls)."""
        if self.reference_memory:
            return now + 1
        return max(self._wake, now + 1)

    def replay_stalls(self, cycles: int) -> None:
        """Account ``cycles`` clock cycles the GPU jumps over, all before
        :meth:`quiet_horizon`, as skipped body runs."""
        self._skipped += cycles

    def _compute_wake(self, now: int) -> float:
        """Earliest future cycle the body must run again (inf when idle).

        The single enumeration of wake sources — :meth:`next_event_time`
        delegates here — with an early exit once any component reports
        ``now + 1`` (nothing can be earlier).
        """
        soon = now + 1
        best: float = _NEVER
        for network in (self.request_network, self.reply_network):
            event_time = network.next_event_time(now)
            if event_time is not None:
                if event_time <= soon:
                    return soon
                best = min(best, event_time)
        for partition in self.partitions:
            event_time = partition.next_event_time(now)
            if event_time is not None:
                if event_time <= soon:
                    return soon
                best = min(best, event_time)
        return best

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

        In fast mode the enumeration computed at the last body run is
        reused while it is still in the future and no SM has popped a
        response or injected a request since (both invalidate):
        component event times only change inside the body, so the cached
        minimum is the value a fresh enumeration would produce.  The
        reference path always re-enumerates.
        """
        if self.reference_memory or self._next_stale:
            wake = self._compute_wake(now)
        elif now < self._poll_until:
            # Sleeping through a stall: the poller that made the body's
            # enumeration ``now + 1`` is still there.
            return now + 1
        elif self._next > now:
            wake = self._next
        else:
            wake = self._compute_wake(now)
        if not self.reference_memory:
            self._next = wake
            self._next_stale = False
            self._poll_until = 0
        return None if wake == _NEVER else int(wake)

    def collect_stats(self, launch_id: Optional[int] = None) -> StatCounters:
        """Aggregate statistics from all components into one collection.

        With ``launch_id``, only the counters attributed to that kernel
        launch are collected.  The memory system's internal per-cycle
        work (network hops, DRAM scheduling, L2 lookups) runs outside
        any attribution context, so those counters land in the device
        totals but in no launch view — they form the "unattributed"
        residual of a scenario report.
        """
        if self._skipped:
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
