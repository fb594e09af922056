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
    its body entirely while the system is quiescent.  After every
    processed cycle one walk (:meth:`_walk`) asks each component for its
    ``horizons`` and caches two times: the *visit* (the cycle the
    reference engine visits next, served by :meth:`next_event_time`)
    and the *quiet horizon* (the earliest cycle any component can change
    state without SM input), which gates the body and is served by
    :meth:`quiet_horizon`.  Calls before the horizon return at once.
    :meth:`try_inject` and :meth:`pop_response` pull the gate in to the
    next cycle and mark the visit stale, so input from the SMs is never
    missed; the next :meth:`next_event_time` walks again for it.  A
    skipped body run before the horizon is provably a no-op — every
    component's per-cycle handler neither mutates state nor touches a
    stat counter, except for the stall counters the walk reported — so
    the fast and reference paths produce byte-identical results.

    Those stalls are how the body sleeps while something polls (the
    visit is ``now + 1``) but nothing can move before a later horizon:
    each body run before it would only bump the same stall counters.
    The body counts the calls it skips and credits those counters in
    bulk at its next body run or stats read (:meth:`_credit_stalls`);
    the GPU adds the cycles it jumps over (:meth:`replay_stalls`).  The
    flag also reaches each partition's DRAM channel, which then scans
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
        self.stats = StatCounters(prefix="memsys")
        self.reference_memory = reference_memory
        # The last walk's result.  ``_wake`` gates the body: the quiet
        # horizon, pulled in by SM input.  ``_visit`` is ``None`` once SM
        # input has made it stale.  The body polls through ``_wake``,
        # each skipped call bumping the ``(stats, slot)`` counters in
        # ``_stalls``; ``_skipped`` counts the calls not yet credited.
        self._wake: float = 0
        self._visit: Optional[float] = None
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
            stalls: List[Tuple[StatCounters, int]] = []
            self._visit, self._wake = self._walk(now, stalls)
            self._stalls = stalls

    def _credit_stalls(self) -> None:
        """Bump the sleep's stall counters once per skipped body run.

        Runs only where no attribution context is set (the body and
        :meth:`collect_stats`), like the per-cycle bumps it replaces.
        """
        skipped = self._skipped
        self._skipped = 0
        for stats, slot in self._stalls:
            stats.inc(slot, skipped)

    def _walk(self, now: int,
              stalls: List[Tuple[StatCounters, int]]) -> Tuple[float, float]:
        """``(visit, quiet)`` of the whole memory system after a cycle at
        ``now``: one walk over both networks and every partition.

        *visit* is the earliest of the components' visits (``inf`` when
        idle).  *quiet* is the earliest cycle at which the body can
        change state without SM input, or ``now + 1`` when it can next
        cycle.  Each component appends the ``(stats, slot)`` stall
        counters one body run before its horizon bumps.  The memory
        system adds the two hand-offs between components: a partition
        taking a delivered request, and a return queue head entering the
        reply network.  Replies waiting at the SMs' outputs are the SMs'
        to pop; they make the reply network's visit ``now + 1``, and
        :meth:`pop_response` wakes the body.
        """
        later = now + 1
        request_network = self.request_network
        reply_network = self.reply_network
        visit, quiet = request_network.horizons(now, stalls)
        # Past the quiet check below, the request network polls exactly
        # when a delivered request waits at one of its outputs.
        delivered = visit <= later
        reply_visit, reply_quiet = reply_network.horizons(now, stalls)
        if reply_quiet < quiet:
            quiet = reply_quiet
        if quiet <= later:
            return later, later
        if reply_visit < visit:
            visit = reply_visit
        for partition in self.partitions:
            if (delivered
                    and request_network.has_output(partition.partition_id)
                    and partition.can_accept()):
                return later, later
            return_queue = partition.return_queue
            if return_queue and reply_network.can_inject(
                    return_queue.peek().sm_id):
                return later, later
            partition_visit, partition_quiet = partition.horizons(
                now, stalls)
            if partition_quiet <= later:
                return later, later
            if partition_visit < visit:
                visit = partition_visit
            if partition_quiet < quiet:
                quiet = partition_quiet
        return visit, quiet

    def quiet_horizon(self, now: int) -> float:
        """Earliest cycle after ``now`` at which the memory system can
        change state without SM input (``now + 1`` after SM input until
        the next body run, and always on reference memory, which never
        walks)."""
        return max(self._wake, now + 1)

    def replay_stalls(self, cycles: int) -> None:
        """Account ``cycles`` clock cycles the GPU jumps over, all before
        :meth:`quiet_horizon`, as skipped body runs."""
        self._skipped += cycles

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
        The reference path walks every time.
        """
        visit = self._visit
        if visit is None or self.reference_memory:
            visit = self._walk(now, [])[0]
            if not self.reference_memory:
                self._visit = visit
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
