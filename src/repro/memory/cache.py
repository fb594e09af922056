"""Set-associative tag-array cache model with LRU replacement.

The caches in this simulator are *timing-only*: they track which line
addresses are resident (for hit/miss decisions and evictions) but never
hold data, because values are served by the functional
:class:`~repro.memory.globalmem.GlobalMemory` at instruction issue time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.utils.errors import ConfigurationError
from repro.utils.stats import StatCounters


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape description of one cache.

    Attributes
    ----------
    size_bytes:
        Total capacity.
    line_size:
        Bytes per cache line (also the coalescing granularity at L1).
    associativity:
        Ways per set.
    name:
        Used for stat prefixes and error messages.
    """

    size_bytes: int
    line_size: int = 128
    associativity: int = 4
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size_bytes must be positive")
        if not _is_power_of_two(self.line_size):
            raise ConfigurationError(f"{self.name}: line_size must be a power of two")
        if self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: associativity must be positive")
        lines = self.size_bytes // self.line_size
        if lines == 0 or self.size_bytes % self.line_size:
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of the line size"
            )
        if lines % self.associativity:
            raise ConfigurationError(
                f"{self.name}: line count {lines} not divisible by associativity "
                f"{self.associativity}"
            )
        if not _is_power_of_two(lines // self.associativity):
            raise ConfigurationError(
                f"{self.name}: number of sets must be a power of two"
            )

    @property
    def num_lines(self) -> int:
        """Total number of lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.associativity


class SetAssociativeCache:
    """LRU set-associative tag array.

    The cache exposes the three operations the timing model needs:

    * :meth:`probe` — hit/miss check without touching LRU state,
    * :meth:`access` — hit/miss check that updates LRU state on a hit,
    * :meth:`fill` — insert a line, returning the evicted line (if any).
    """

    def __init__(self, geometry: CacheGeometry,
                 set_index_fn: Optional[Callable[[int], int]] = None) -> None:
        self.geometry = geometry
        # Optional custom set-index function.  L2 slices use it to index
        # with partition-local addresses so that the partition-interleave
        # bits do not alias whole groups of sets away.
        self._set_index_fn = set_index_fn
        # Per-set list of resident line addresses, LRU order: index 0 is the
        # least recently used line, the last element the most recently used.
        self._sets: List[List[int]] = [[] for _ in range(geometry.num_sets)]
        self.stats = StatCounters(prefix=geometry.name)
        stats = self.stats
        self._s_hits = stats.slot("hits")
        self._s_misses = stats.slot("misses")
        self._s_evictions = stats.slot("evictions")
        self._s_fills = stats.slot("fills")
        self._s_invalidations = stats.slot("invalidations")

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Align ``address`` down to its cache line."""
        return (address // self.geometry.line_size) * self.geometry.line_size

    def set_index(self, address: int) -> int:
        """Set that ``address`` maps to."""
        if self._set_index_fn is not None:
            return self._set_index_fn(address) % self.geometry.num_sets
        return (address // self.geometry.line_size) % self.geometry.num_sets

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def probe(self, address: int) -> bool:
        """Return whether the line containing ``address`` is resident."""
        line = self.line_address(address)
        return line in self._sets[self.set_index(address)]

    def access(self, address: int) -> bool:
        """Look up ``address``; update LRU and hit/miss statistics."""
        line = self.line_address(address)
        ways = self._sets[self.set_index(address)]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.inc(self._s_hits)
            return True
        self.stats.inc(self._s_misses)
        return False

    def fill(self, address: int) -> Optional[int]:
        """Insert the line containing ``address``; return the evicted line.

        Filling a line that is already resident only refreshes its LRU
        position.  The return value is the *line address* of the victim or
        ``None`` when no eviction was necessary.
        """
        line = self.line_address(address)
        ways = self._sets[self.set_index(address)]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return None
        victim = None
        if len(ways) >= self.geometry.associativity:
            victim = ways.pop(0)
            self.stats.inc(self._s_evictions)
        ways.append(line)
        self.stats.inc(self._s_fills)
        return victim

    def invalidate(self, address: int) -> bool:
        """Remove the line containing ``address``; returns whether it was present."""
        line = self.line_address(address)
        ways = self._sets[self.set_index(address)]
        if line in ways:
            ways.remove(line)
            self.stats.inc(self._s_invalidations)
            return True
        return False

    def flush(self) -> None:
        """Empty the entire cache."""
        for ways in self._sets:
            ways.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests and introspection)."""
        return sum(len(ways) for ways in self._sets)

    def hit_rate(self) -> float:
        """Fraction of accesses that hit so far (0 when never accessed)."""
        hits = self.stats["hits"]
        misses = self.stats["misses"]
        total = hits + misses
        return hits / total if total else 0.0
