"""Bounded FIFO queues used by the memory pipeline.

Every buffering point in the simulated memory system (L1 miss queues,
interconnect input/output buffers, ROP queues, L2 request queues, DRAM
scheduler queues, return paths) is a :class:`BoundedQueue`.  Back-pressure
emerges naturally: a producer that finds the downstream queue full must
retry on a later cycle, which is exactly the queueing behaviour the paper
identifies as a major latency contributor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class BoundedQueue(Generic[T]):
    """A FIFO queue with a fixed capacity.

    Parameters
    ----------
    capacity:
        Maximum number of entries the queue can hold.  A value of ``0`` is
        treated as *unbounded* which is occasionally useful for collection
        points that only exist for instrumentation.
    name:
        Optional human-readable name used in error messages and debugging.
    """

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: Deque[T] = deque()
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.full_stall_cycles = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def raw(self) -> Deque[T]:
        """The underlying deque, for hot paths that poll emptiness every cycle.

        Callers must treat the returned deque as read-only; it stays
        identical to this queue's contents for the queue's lifetime.
        """
        return self._entries

    @property
    def unbounded(self) -> bool:
        """Whether this queue has no capacity limit."""
        return self.capacity == 0

    def full(self) -> bool:
        """Return ``True`` if no further entry can be accepted."""
        return 0 < self.capacity <= len(self._entries)

    def empty(self) -> bool:
        """Return ``True`` if the queue holds no entries."""
        return not self._entries

    def free_slots(self) -> int:
        """Number of entries that can still be pushed (large if unbounded)."""
        if self.unbounded:
            return 1 << 30
        return self.capacity - len(self._entries)

    def push(self, item: T) -> None:
        """Append ``item``; raises :class:`RuntimeError` when full.

        Producers are expected to check :meth:`full` first; pushing into a
        full queue indicates a simulator bug rather than back-pressure.
        """
        if self.full():
            raise RuntimeError(f"push into full queue '{self.name}'")
        self._entries.append(item)
        self.total_enqueued += 1

    def try_push(self, item: T) -> bool:
        """Push ``item`` if space is available and report success."""
        if self.full():
            self.full_stall_cycles += 1
            return False
        self.push(item)
        return True

    def peek(self) -> Optional[T]:
        """Return the oldest entry without removing it, or ``None``."""
        if not self._entries:
            return None
        return self._entries[0]

    def pop(self) -> T:
        """Remove and return the oldest entry; raises if empty."""
        if not self._entries:
            raise RuntimeError(f"pop from empty queue '{self.name}'")
        self.total_dequeued += 1
        return self._entries.popleft()

    def try_pop(self) -> Optional[T]:
        """Remove and return the oldest entry, or ``None`` if empty."""
        if not self._entries:
            return None
        return self.pop()

    def clear(self) -> None:
        """Drop all entries (used when resetting a component)."""
        self._entries.clear()

    def remove(self, item: T) -> None:
        """Remove a specific entry (used by out-of-order DRAM schedulers)."""
        self._entries.remove(item)
        self.total_dequeued += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.unbounded else str(self.capacity)
        return f"BoundedQueue({self.name!r}, {len(self)}/{cap})"
