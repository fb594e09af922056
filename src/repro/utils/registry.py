"""Generic open registries for pluggable components.

The package keeps its extensible component families — GPU configurations,
workloads, and anything later PRs add (backends, sweep strategies, ...) —
in :class:`Registry` instances instead of closed module-level dicts.  A
registry maps a short name to a registered object plus a line of
description metadata, supports decorator-style registration, and raises
:class:`~repro.utils.errors.RegistryError` on collisions so two plugins
cannot silently shadow each other.

Typical usage::

    WIDGETS = Registry("widget")

    @WIDGETS.register
    class FastWidget:
        \"\"\"A widget that is fast.\"\"\"
        name = "fast"

    WIDGETS.register(make_slow_widget, name="slow", description="slower")
    WIDGETS.get("fast")          # -> FastWidget
    WIDGETS.describe("slow")     # -> "slower"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.errors import RegistryError


def _default_description(obj: Any) -> str:
    """First non-empty docstring line of ``obj``, else its (class) name."""
    doc = getattr(obj, "__doc__", None)
    if doc:
        for line in doc.strip().splitlines():
            line = line.strip()
            if line:
                return line
    name = getattr(obj, "__name__", None)
    if name:
        return name
    return type(obj).__name__


def _default_name(obj: Any) -> Optional[str]:
    """Infer a registration name from ``obj`` (a ``name`` attr or __name__)."""
    name = getattr(obj, "name", None)
    if isinstance(name, str) and name:
        return name
    dunder = getattr(obj, "__name__", None)
    if isinstance(dunder, str) and dunder:
        return dunder.lower()
    return None


@dataclass(frozen=True)
class RegistryEntry:
    """One registered object plus its metadata.

    ``source`` records where the entry came from (e.g. ``"builder"`` for
    code-defined workloads, ``"bundle"`` for the packaged trace-bundle
    corpus, ``"bundle:<dir>"`` for user bundle directories) so listings
    can audit how a registry grew.  ``None`` means the registrant did not
    say.
    """

    name: str
    obj: Any
    description: str
    source: Optional[str] = None


class Registry:
    """A name -> object mapping with metadata and collision detection.

    Parameters
    ----------
    kind:
        Human-readable singular noun for error messages, e.g.
        ``"workload"`` or ``"GPU configuration"``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        #: Bumped by every registration and removal, so callers that
        #: memoize what a name resolves to can tell when to forget it.
        self.revision = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        obj: Any = None,
        *,
        name: Optional[str] = None,
        description: Optional[str] = None,
        source: Optional[str] = None,
        overwrite: bool = False,
    ) -> Callable[[Any], Any]:
        """Register ``obj`` under ``name``; usable as a decorator.

        All three spellings work::

            @registry.register
            class Thing: ...

            @registry.register(name="thing2", description="a second thing")
            class Thing2: ...

            registry.register(factory, name="thing3")

        ``name`` defaults to the object's ``name`` attribute (the convention
        used by workload classes) or its lowercased ``__name__``.
        ``description`` defaults to the first docstring line, falling back
        to the object's name — so objects without a docstring are fine.
        Registering an existing name raises :class:`RegistryError` unless
        ``overwrite=True``.
        """
        if obj is None:
            def decorator(target: Any) -> Any:
                self.register(target, name=name, description=description,
                              source=source, overwrite=overwrite)
                return target
            return decorator
        resolved = name if name is not None else _default_name(obj)
        if not resolved:
            raise RegistryError(
                f"cannot infer a name for {self.kind} {obj!r}; pass name="
            )
        if resolved in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {resolved!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self.revision += 1
        self._entries[resolved] = RegistryEntry(
            name=resolved,
            obj=obj,
            description=(description if description is not None
                         else _default_description(obj)),
            source=source,
        )
        return obj

    def unregister(self, name: str) -> Any:
        """Remove and return the object registered under ``name``."""
        try:
            entry = self._entries.pop(name)
        except KeyError:
            raise RegistryError(
                f"no {self.kind} named {name!r} to unregister; "
                f"registered: {self.names()}"
            ) from None
        self.revision += 1
        return entry.obj

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Any:
        """Return the object registered under ``name``."""
        try:
            return self._entries[name].obj
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def entry(self, name: str) -> RegistryEntry:
        """Return the full entry (object + metadata) for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def describe(self, name: str) -> str:
        """Return the description metadata registered for ``name``."""
        return self.entry(name).description

    def names(self) -> List[str]:
        """Sorted names of everything registered."""
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, Any]]:
        """Sorted (name, object) pairs."""
        return [(name, self._entries[name].obj) for name in self.names()]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self)} entries)"
