"""Interconnection network between SMs and memory partitions.

The network is modelled as a crossbar with a fixed traversal latency,
per-destination acceptance bandwidth, and a credit limit per destination.
When a destination's credits are exhausted (its output queue and in-flight
packets are at capacity), sources can no longer inject packets destined for
it — the resulting back-pressure is what makes the SM-side miss queues fill
up, which the paper identifies as one of the two dominant dynamic latency
contributors ("L1toICNT").
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.utils.errors import ConfigurationError
from repro.utils.queues import BoundedQueue
from repro.utils.stats import StatCounters


@dataclass(frozen=True)
class InterconnectConfig:
    """Crossbar parameters.

    Attributes
    ----------
    latency:
        Traversal latency in core cycles.
    accept_per_cycle:
        Packets each destination port can accept per cycle.
    output_queue_size:
        Capacity of each destination's output queue (drained by the
        destination component).
    credit_limit:
        Maximum packets simultaneously in flight towards, or queued at, one
        destination.  Injection stalls once this is reached.
    """

    latency: int = 8
    accept_per_cycle: int = 1
    output_queue_size: int = 8
    credit_limit: int = 16

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ConfigurationError("interconnect latency must be >= 1")
        if self.accept_per_cycle < 1:
            raise ConfigurationError("accept_per_cycle must be >= 1")
        if self.output_queue_size < 1:
            raise ConfigurationError("output_queue_size must be >= 1")
        if self.credit_limit < self.output_queue_size:
            raise ConfigurationError(
                "credit_limit must be at least output_queue_size"
            )


class Interconnect:
    """A latency/bandwidth-limited crossbar carrying opaque payloads.

    One instance is used for the request direction (SMs to partitions) and
    a second for the reply direction (partitions to SMs).
    """

    def __init__(self, num_sources: int, num_destinations: int,
                 config: InterconnectConfig, name: str = "icnt") -> None:
        if num_sources < 1 or num_destinations < 1:
            raise ConfigurationError("interconnect needs sources and destinations")
        self.num_sources = num_sources
        self.num_destinations = num_destinations
        self.config = config
        self.name = name
        self._in_flight: List[List[Tuple[int, int, object]]] = [
            [] for _ in range(num_destinations)
        ]
        self._outputs: List[BoundedQueue] = [
            BoundedQueue(config.output_queue_size, name=f"{name}.out{d}")
            for d in range(num_destinations)
        ]
        # The outputs' raw deques, for the per-cycle emptiness polls.
        self._output_entries = [output.raw() for output in self._outputs]
        self._sequence = itertools.count()
        # Earliest arrival among the in-flight heads (``inf`` with none):
        # :meth:`cycle` has nothing to move or count before it.
        self._due = math.inf
        self.stats = StatCounters(prefix=name)
        self._s_blocked = self.stats.slot("output_blocked_cycles")
        self._s_injected = self.stats.slot("injected")
        self._s_delivered = self.stats.slot("delivered")

    # ------------------------------------------------------------------
    # Injection (source side)
    # ------------------------------------------------------------------
    def _credits_used(self, destination: int) -> int:
        return len(self._in_flight[destination]) + len(self._outputs[destination])

    def can_inject(self, destination: int) -> bool:
        """Whether a packet may currently be injected towards ``destination``."""
        return self._credits_used(destination) < self.config.credit_limit

    def inject(self, source: int, destination: int, payload: object,
               now: int) -> None:
        """Send ``payload`` from ``source`` to ``destination``.

        The caller must have checked :meth:`can_inject`; violating the
        credit limit raises.
        """
        if not 0 <= source < self.num_sources:
            raise ConfigurationError(f"bad interconnect source {source}")
        if not 0 <= destination < self.num_destinations:
            raise ConfigurationError(f"bad interconnect destination {destination}")
        if not self.can_inject(destination):
            raise RuntimeError(
                f"{self.name}: injection to {destination} without credits"
            )
        arrival = now + self.config.latency
        heapq.heappush(
            self._in_flight[destination],
            (arrival, next(self._sequence), payload),
        )
        if arrival < self._due:
            self._due = arrival
        self.stats.inc(self._s_injected)

    # ------------------------------------------------------------------
    # Delivery (destination side)
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> None:
        """Move arrived packets into destination output queues."""
        if now < self._due:
            return
        due = math.inf
        for destination in range(self.num_destinations):
            heap = self._in_flight[destination]
            if not heap:
                continue
            output = self._outputs[destination]
            accepted = 0
            while (
                heap
                and heap[0][0] <= now
                and accepted < self.config.accept_per_cycle
                and not output.full()
            ):
                _, _, payload = heapq.heappop(heap)
                output.push(payload)
                accepted += 1
                self.stats.inc(self._s_delivered)
            if heap:
                arrival = heap[0][0]
                if arrival <= now and output.full():
                    self.stats.inc(self._s_blocked)
                if arrival < due:
                    due = arrival
        self._due = due

    def has_output(self, destination: int) -> bool:
        """Whether a delivered packet is waiting at ``destination``."""
        return bool(self._output_entries[destination])

    def output_raw(self, destination: int):
        """Raw (read-only) output deque at ``destination``.

        For hot paths that poll delivery every cycle; testing the deque's
        truthiness is equivalent to :meth:`has_output` without the method
        and queue-object indirection.
        """
        return self._output_entries[destination]

    def peek(self, destination: int) -> Optional[object]:
        """Oldest delivered packet waiting at ``destination``, if any."""
        return self._outputs[destination].peek()

    def pop(self, destination: int) -> Optional[object]:
        """Remove and return the oldest delivered packet at ``destination``."""
        return self._outputs[destination].try_pop()

    def pending(self, destination: int) -> int:
        """Packets in flight towards or queued at ``destination``."""
        return self._credits_used(destination)

    def total_pending(self) -> int:
        """Packets anywhere in the network."""
        return sum(
            self._credits_used(destination)
            for destination in range(self.num_destinations)
        )

    def horizons(self, now: int, stalls: list) -> Tuple[float, float]:
        """``(visit, quiet)`` after a cycle at ``now``.

        *quiet* is the earliest cycle at which :meth:`cycle` can
        deliver: ``now + 1`` when a packet can move next cycle, otherwise
        the earliest future arrival (``inf`` with nothing in flight).
        Until then every cycle bumps ``output_blocked_cycles`` once per
        destination whose arrived head waits on a full output queue; one
        ``(stats, slot)`` entry per such destination goes to ``stalls``.
        Only popping an output queue (outside this network) ends the
        block earlier.  *visit* is ``now + 1`` while a delivered packet
        waits at an output for its consumer, and *quiet* otherwise.
        """
        later = now + 1
        quiet = self._due
        if quiet <= later:
            quiet = math.inf
            for destination, heap in enumerate(self._in_flight):
                if not heap:
                    continue
                arrival = heap[0][0]
                if arrival > later:
                    if arrival < quiet:
                        quiet = arrival
                elif not self._outputs[destination].full():
                    return later, later
                else:
                    stalls.append((self.stats, self._s_blocked))
        if any(self._output_entries):
            return later, quiet
        return quiet, quiet
