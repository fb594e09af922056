"""Miss Status Holding Registers (MSHRs).

MSHRs track outstanding cache misses so that further accesses to a line
that is already being fetched merge onto the in-flight request instead of
generating duplicate memory traffic.  Both the L1 data caches and the L2
slices use this table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.memory.request import MemoryRequest
from repro.utils.errors import SimulationError
from repro.utils.stats import StatCounters


@dataclass
class MSHREntry:
    """Book-keeping for one outstanding line fetch."""

    line_address: int
    primary: MemoryRequest
    merged: List[MemoryRequest] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        """Primary plus merged requests waiting on this line."""
        return 1 + len(self.merged)


class MSHRTable:
    """A finite table of :class:`MSHREntry` keyed by line address.

    Parameters
    ----------
    num_entries:
        Maximum number of distinct outstanding lines.
    max_merged:
        Maximum number of additional requests that may merge onto one entry.
    name:
        Stat prefix.
    """

    def __init__(self, num_entries: int, max_merged: int = 8,
                 name: str = "mshr") -> None:
        if num_entries <= 0:
            raise SimulationError("MSHR table needs at least one entry")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self._entries: Dict[int, MSHREntry] = {}
        self.stats = StatCounters(prefix=name)
        self._s_allocations = self.stats.slot("allocations")
        self._s_merges = self.stats.slot("merges")
        self._s_releases = self.stats.slot("releases")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, line_address: int) -> Optional[MSHREntry]:
        """Return the entry for ``line_address`` if one is outstanding."""
        return self._entries.get(line_address)

    def full(self) -> bool:
        """Whether a new entry can no longer be allocated."""
        return len(self._entries) >= self.num_entries

    def can_merge(self, line_address: int) -> bool:
        """Whether another request may merge onto the entry for this line."""
        entry = self._entries.get(line_address)
        return entry is not None and len(entry.merged) < self.max_merged

    def allocate(self, line_address: int, request: MemoryRequest) -> MSHREntry:
        """Create a new entry with ``request`` as its primary."""
        if line_address in self._entries:
            raise SimulationError(
                f"MSHR entry for line {line_address:#x} already exists"
            )
        if self.full():
            raise SimulationError("allocate on a full MSHR table")
        entry = MSHREntry(line_address=line_address, primary=request)
        self._entries[line_address] = entry
        self.stats.inc(self._s_allocations)
        return entry

    def merge(self, line_address: int, request: MemoryRequest) -> MSHREntry:
        """Attach ``request`` to the outstanding entry for ``line_address``."""
        entry = self._entries.get(line_address)
        if entry is None:
            raise SimulationError(f"no MSHR entry for line {line_address:#x}")
        if len(entry.merged) >= self.max_merged:
            raise SimulationError("merge onto a full MSHR entry")
        entry.merged.append(request)
        entry.primary.merged.append(request)
        self.stats.inc(self._s_merges)
        return entry

    def release(self, line_address: int) -> MSHREntry:
        """Remove and return the entry for ``line_address`` (on fill)."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            raise SimulationError(f"release of unknown MSHR line {line_address:#x}")
        self.stats.inc(self._s_releases)
        return entry

    def outstanding_lines(self) -> List[int]:
        """Line addresses currently being fetched."""
        return list(self._entries.keys())
