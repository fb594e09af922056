"""Lightweight statistics counters.

Components expose behavioural counters (cache hits, row-buffer hits,
issue stalls, ...) through a :class:`StatCounters` instance.  The GPU
top-level aggregates them into a single report after a kernel completes.

Counters are **slot interned**: each distinct counter name is assigned a
stable integer slot on first use and the values live in a plain list
indexed by slot.  Hot components resolve the slot once (``slot()``) and
bump it with :meth:`inc`, which skips the per-increment string hashing a
dict-backed counter pays; the string-keyed :meth:`add`/:meth:`set`/
:meth:`get` surface and :meth:`as_dict` are unchanged.  A slot that has
been interned but never incremented does not appear in :meth:`as_dict`,
so pre-interning slots at construction time is free.

Per-launch attribution
----------------------

Multi-kernel scenarios (:meth:`repro.gpu.gpu.GPU.submit`) need every
counter split by the kernel launch that caused it.  Rather than thread a
launch id through every component, attribution is a *context*: while
:data:`_ATTRIBUTION` holds a launch id, every :meth:`inc` additionally
bumps a per-launch shadow of the touched slot, and
:meth:`launch_dict` reads one launch's shadow back with the same
prefixing as :meth:`as_dict`.  The context is ``None`` outside scenario
runs, so the only single-kernel cost is one list load and an ``is not
None`` test per increment.  :meth:`set` writes gauges (absolute values,
not causes) and is deliberately not attributed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: The attribution context: a one-element cell (cheap to read from the
#: ``inc`` hot path) holding the launch id all increments are currently
#: charged to, or ``None`` for unattributed operation.  The GPU drive
#: loop sets it around each SM's cycle; the memory system narrows it per
#: request.  Always reset to ``None`` afterwards so stat *collection*
#: (``merge`` goes through ``inc`` too) never corrupts the shadows.
_ATTRIBUTION: List[Optional[int]] = [None]


class StatCounters:
    """A named collection of integer/float counters.

    The class behaves like a ``dict`` with a default of zero and adds a few
    conveniences for merging and pretty-printing.
    """

    __slots__ = ("prefix", "_index", "_values", "_per_launch")

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._index: Dict[str, int] = {}
        #: Per-slot values; ``None`` marks an interned-but-untouched slot,
        #: which keeps pre-interning invisible to ``as_dict()``.
        self._values: List[Optional[float]] = []
        #: Per-launch shadow value lists (same slot indexing as
        #: ``_values``), populated only while an attribution context is
        #: set.  Launch ids are globally unique per GPU, so a shadow is
        #: the launch's *lifetime* contribution — no delta snapshots.
        self._per_launch: Dict[int, List[Optional[float]]] = {}

    # ------------------------------------------------------------------
    # Slot-based fast path
    # ------------------------------------------------------------------
    def slot(self, name: str) -> int:
        """Intern ``name`` and return its stable slot index.

        Interning alone does not create the counter: it only appears in
        :meth:`as_dict` (with the value accumulated so far) once it has
        been touched by :meth:`inc`, :meth:`add`, or :meth:`set`.
        """
        index = self._index.get(name)
        if index is None:
            index = len(self._values)
            self._index[name] = index
            self._values.append(None)
        return index

    def inc(self, slot: int, amount: float = 1) -> None:
        """Increment the counter at ``slot`` (from :meth:`slot`)."""
        value = self._values[slot]
        self._values[slot] = amount if value is None else value + amount
        launch_id = _ATTRIBUTION[0]
        if launch_id is not None:
            shadow = self._per_launch.get(launch_id)
            if shadow is None:
                shadow = self._per_launch[launch_id] = []
            if len(shadow) <= slot:
                shadow.extend([None] * (slot + 1 - len(shadow)))
            value = shadow[slot]
            shadow[slot] = amount if value is None else value + amount

    # ------------------------------------------------------------------
    # String-keyed surface (unchanged semantics)
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` (creating it at zero)."""
        self.inc(self.slot(name), amount)

    def set(self, name: str, value: float) -> None:
        """Set counter ``name`` to ``value`` directly."""
        self._values[self.slot(name)] = value

    def get(self, name: str, default: float = 0) -> float:
        """Return the value of ``name`` or ``default`` when absent."""
        index = self._index.get(name)
        if index is None:
            return default
        value = self._values[index]
        return default if value is None else value

    def __getitem__(self, name: str) -> float:
        return self.get(name, 0)

    def __contains__(self, name: str) -> bool:
        index = self._index.get(name)
        return index is not None and self._values[index] is not None

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._items()))

    def _items(self) -> Iterator[Tuple[str, float]]:
        values = self._values
        return ((name, values[index]) for name, index in self._index.items()
                if values[index] is not None)

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of all counters, optionally prefixed."""
        if not self.prefix:
            return dict(self._items())
        return {f"{self.prefix}.{k}": v for k, v in self._items()}

    def launch_dict(self, launch_id: int) -> Dict[str, float]:
        """One launch's attributed counters, prefixed like :meth:`as_dict`.

        Counters never bumped under ``launch_id``'s attribution context
        are absent, exactly as untouched slots are absent from
        :meth:`as_dict`; an unknown launch id yields an empty dict.
        """
        shadow = self._per_launch.get(launch_id)
        if not shadow:
            return {}
        bound = len(shadow)
        items = ((name, shadow[index])
                 for name, index in self._index.items()
                 if index < bound and shadow[index] is not None)
        if not self.prefix:
            return dict(items)
        return {f"{self.prefix}.{k}": v for k, v in items}

    def launch_get(self, launch_id: int, name: str,
                   default: float = 0) -> float:
        """One launch's attributed value of ``name`` (``default`` if unset)."""
        shadow = self._per_launch.get(launch_id)
        index = self._index.get(name)
        if shadow is None or index is None or index >= len(shadow):
            return default
        value = shadow[index]
        return default if value is None else value

    def view(self, launch_id: Optional[int] = None) -> Dict[str, float]:
        """:meth:`as_dict`, or :meth:`launch_dict` when a launch is given.

        The common shape for ``collect_stats(launch_id=...)`` threading:
        components aggregate either the device totals or one launch's
        attributed share through the same code path.
        """
        if launch_id is None:
            return self.as_dict()
        return self.launch_dict(launch_id)

    def merge(self, other: Mapping[str, float]) -> None:
        """Add all counters from ``other`` into this collection."""
        for key, value in other.items():
            self.add(key, value)

    def report(self) -> str:
        """Return a human-readable multi-line report of all counters."""
        lines = []
        for key, value in sorted(self._items()):
            shown = int(value) if float(value).is_integer() else round(value, 4)
            lines.append(f"{self.prefix + '.' if self.prefix else ''}{key} = {shown}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        count = sum(1 for _ in self._items())
        return f"StatCounters({self.prefix!r}, {count} counters)"
