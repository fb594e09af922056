"""Memory request (the simulator's equivalent of a GPGPU-Sim ``mem_fetch``).

A :class:`MemoryRequest` represents one line-sized access travelling through
the global/local memory pipeline: L1 → miss queue → interconnect → ROP →
L2 → DRAM and back.  Requests carry their own timestamp row (one cycle per
:class:`~repro.core.stages.Event` column, ``-1`` until recorded) which the
:class:`~repro.core.tracker.LatencyTracker` fills in as they move between
stages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.stages import EVENT_ORDER, NUM_EVENTS, Event
from repro.isa.opcodes import MemSpace

_request_ids = itertools.count()


@dataclass(eq=False)
class MemoryRequest:
    # Identity equality (eq=False) keeps requests hashable and cheap to
    # compare; two distinct requests are never "equal" even if they target
    # the same address.
    """One line-sized memory access generated by the LD/ST unit (or a fill).

    Attributes
    ----------
    address:
        Line-aligned byte address of the access.
    size:
        Access size in bytes (one cache line for instruction-generated
        requests).
    is_write:
        ``True`` for store traffic, ``False`` for fetches (reads).
    space:
        Memory space of the originating instruction; local accesses map to
        the global address space but may be treated differently by the L1
        (the Kepler policy).
    sm_id / warp_id / pc:
        Origin of the request, used for bookkeeping and analysis.
    tracked:
        ``False`` for traffic that the paper's instrumentation excludes
        (cache-eviction writebacks, fills initiated by the memory system).
    load_token:
        Opaque handle used by the LD/ST unit to detect when all requests of
        a warp-level load have completed; ``None`` for stores.
    times:
        Timestamp row: the cycle of each recorded event at its
        ``Event.column``, ``-1`` for events not (yet) recorded.
    merged:
        Requests to the same line that were merged into this one at an MSHR
        and therefore never travelled downstream themselves.
    """

    address: int
    size: int
    is_write: bool
    space: MemSpace
    sm_id: int
    warp_id: int = -1
    pc: int = -1
    tracked: bool = True
    load_token: Optional[object] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    times: List[int] = field(default_factory=lambda: [-1] * NUM_EVENTS)
    merged: List["MemoryRequest"] = field(default_factory=list)
    partition: int = -1
    l1_hit: bool = False
    l2_hit: bool = False
    dram_row_hit: bool = False
    #: Kernel launch that caused this request (-1 for traffic the memory
    #: system originates itself); used to narrow per-launch stat
    #: attribution when kernels from different launches share the
    #: memory system.
    launch_id: int = -1

    @property
    def is_read(self) -> bool:
        """Whether this request fetches data (as opposed to writing it)."""
        return not self.is_write

    @property
    def timestamps(self) -> Dict[Event, int]:
        """The recorded events and their cycles, as a fresh mapping (the
        tracker writes :attr:`times`)."""
        return {event: cycle for event, cycle in zip(EVENT_ORDER, self.times)
                if cycle >= 0}

    def line_address(self, line_size: int) -> int:
        """Address aligned down to ``line_size``."""
        return (self.address // line_size) * line_size

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return (
            f"MemoryRequest(#{self.request_id} {kind} 0x{self.address:x} "
            f"{self.space.value} sm{self.sm_id} w{self.warp_id} pc{self.pc})"
        )
