"""The content-addressed result-store interface and its backend registry.

A *result store* is a durable, content-addressed map from a
:class:`StoreKey` — the triple ``(spec_hash, config_hash,
code_version)`` — to one experiment's plain-data
:class:`~repro.experiments.RunRecord` dict.  The three key components
split the identity of a result along its three independent sources of
change:

``spec_hash``
    :meth:`~repro.experiments.Experiment.spec_hash` — what was asked
    for (kind, config *names*, workload, parameters, label).
``config_hash``
    :func:`config_fingerprint` of the *resolved*
    :class:`~repro.gpu.config.GPUConfig` objects — what the config names
    meant when the result was produced.  Session-local configs can bind
    the same name to different hardware, so the names alone (already in
    the spec) are not identity.  Exact core backends (``reference``,
    ``fast``, and its alias ``vector`` — byte-identical by contract,
    pinned by the golden equivalence tests) are normalized to one name
    so any of them may serve the others' stored results; approximate
    backends
    (``estimator``) keep their name and are keyed separately.
``code_version``
    :func:`~repro.store.version.code_version` — the simulator source
    fingerprint; any change to simulator-relevant code invalidates every
    previously stored result.

Backends live in an open :class:`~repro.utils.registry.Registry` keyed
by URL-ish scheme, mirroring ``register_workload``/``register_transform``:
the bundled :class:`~repro.store.sqlite.SqliteStore` (scheme
``sqlite``, the default for bare paths) and
:class:`~repro.store.memory.MemoryStore` (scheme ``memory``) register at
import time, and user code adds its own with :func:`register_store`::

    from repro.store import ResultStore, register_store

    @register_store
    class RedisStore(ResultStore):
        scheme = "redis"
        ...

    store = open_store("redis:host:6379/results")
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.utils.codec import Codec, canonical_json
from repro.utils.errors import StoreError
from repro.utils.registry import Registry


@dataclass(frozen=True)
class StoreKey(Codec):
    """The content address of one stored result."""

    spec_hash: str
    config_hash: str
    code_version: str

    def as_tuple(self) -> Tuple[str, str, str]:
        """The key as a plain tuple (spec, config, code version)."""
        return (self.spec_hash, self.config_hash, self.code_version)

    def token(self) -> str:
        """Compact one-line form, e.g. for log lines and API responses."""
        return f"{self.spec_hash}/{self.config_hash}/{self.code_version}"


def config_fingerprint(configs: Iterable[Any]) -> str:
    """Content hash (16 hex chars) of resolved ``GPUConfig`` objects.

    The configurations are frozen dataclasses of frozen dataclasses, so
    their ``repr`` is a deterministic, complete rendering of every
    parameter.  The ``core_backend`` name is canonicalized to ``"fast"``
    for backends registered as *exact* (``reference``, ``fast`` and its
    alias ``vector``): those produce byte-identical results by contract —
    pinned by the golden equivalence tests — so a store populated by one
    must serve the others.  Backends that are **not** proven
    byte-identical (``estimator``, or any name this process does not
    know) keep their name, so their results are keyed separately and are
    never served for an exact-core request.
    """
    from repro.simt.backend import core_backend_is_exact

    digest = hashlib.sha256()
    for config in configs:
        backend = getattr(config, "core_backend", None)
        if (backend is not None and backend != "fast"
                and core_backend_is_exact(backend)):
            config = config.replace(core_backend="fast")
        digest.update(repr(config).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:16]


#: Canonical JSON text for a record dict: the byte form stored (and
#: checksummed) by every backend.  It is the codec's canonical form, as
#: :meth:`~repro.experiments.RunRecord.to_json` writes it, so a stored
#: record round-trips byte-identically.
canonical_record_json = canonical_json


def record_checksum(text: str) -> str:
    """Integrity checksum (sha256 hex) of a canonical record JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultStore:
    """Interface shared by all result-store backends.

    A store maps :class:`StoreKey` to one plain-data record dict.  All
    backends share canonical-JSON serialization and checksumming (so
    ``verify`` means the same thing everywhere); they differ only in
    where the bytes live.

    Subclasses must set :attr:`scheme` (the ``open_store`` prefix) and
    implement the raw text accessors ``_get_text`` / ``_put_text`` /
    ``_delete`` / ``keys``; the public ``get``/``put`` handle
    serialization and integrity.
    """

    #: URL-ish scheme this backend answers to in :func:`open_store`.
    scheme: str = ""

    # ------------------------------------------------------------------
    # Required backend primitives
    # ------------------------------------------------------------------
    @classmethod
    def from_target(cls, target: str) -> "ResultStore":
        """Build a store from the scheme-stripped target string."""
        raise NotImplementedError

    def _get_text(self, key: StoreKey) -> Optional[str]:
        """Canonical record JSON stored under ``key``, or ``None``."""
        raise NotImplementedError

    def _put_text(self, key: StoreKey, kind: str, text: str,
                  checksum: str) -> None:
        """Durably store canonical record JSON under ``key``."""
        raise NotImplementedError

    def _delete(self, key: StoreKey) -> bool:
        """Remove ``key``; returns whether it existed."""
        raise NotImplementedError

    def keys(self) -> List[StoreKey]:
        """Every key currently stored, in deterministic order."""
        raise NotImplementedError

    def describe_target(self) -> str:
        """Human-readable location of the store (path, name, ...)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def get(self, key: StoreKey) -> Optional[Dict[str, Any]]:
        """The record dict stored under ``key``, or ``None`` on a miss."""
        text = self._get_text(key)
        if text is None:
            return None
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise StoreError(
                f"corrupt record under {key.token()} in "
                f"{self.describe_target()}: {exc}; run 'repro cache "
                f"verify' and delete the entry"
            ) from exc
        if not isinstance(record, dict):
            raise StoreError(
                f"corrupt record under {key.token()} in "
                f"{self.describe_target()}: expected an object, got "
                f"{type(record).__name__}"
            )
        return record

    def put(self, key: StoreKey, record: Mapping[str, Any]) -> None:
        """Durably store ``record`` (a plain-data record dict) under ``key``.

        Re-putting an existing key replaces the entry — the key is a
        content address, so the payload can only legitimately differ
        after a code change that should also have changed the key.
        """
        text = canonical_record_json(record)
        self._put_text(key, str(record.get("kind", "")), text,
                       record_checksum(text))

    def __contains__(self, key: StoreKey) -> bool:
        return self._get_text(key) is not None

    def delete(self, key: StoreKey) -> bool:
        """Remove one entry; returns whether it existed."""
        return self._delete(key)

    def __len__(self) -> int:
        return len(self.keys())

    def prune(self, keep_code_version: Optional[str]) -> int:
        """Delete entries from other code versions; returns the count.

        With ``keep_code_version=None`` every entry is deleted (a full
        wipe).  Backends may override with a bulk implementation.
        """
        pruned = 0
        for key in self.keys():
            if (keep_code_version is None
                    or key.code_version != keep_code_version):
                if self._delete(key):
                    pruned += 1
        return pruned

    def stats(self) -> Dict[str, Any]:
        """JSON-ready usage summary: totals plus per-version/kind counts."""
        by_version: Dict[str, int] = {}
        by_kind: Dict[str, int] = {}
        total_bytes = 0
        count = 0
        for key in self.keys():
            count += 1
            by_version[key.code_version] = \
                by_version.get(key.code_version, 0) + 1
            text = self._get_text(key)
            if text is not None:
                total_bytes += len(text.encode("utf-8"))
                try:
                    by_kind_key = json.loads(text).get("kind", "?")
                except ValueError:
                    by_kind_key = "?"
                by_kind[by_kind_key] = by_kind.get(by_kind_key, 0) + 1
        return {
            "target": self.describe_target(),
            "entries": count,
            "record_bytes": total_bytes,
            "by_code_version": dict(sorted(by_version.items())),
            "by_kind": dict(sorted(by_kind.items())),
        }

    def verify(self) -> Dict[str, Any]:
        """Integrity-check every entry; returns a JSON-ready report.

        An entry is *corrupt* when its stored bytes no longer parse as
        JSON or no longer match the checksum recorded at ``put`` time.
        Backends without stored checksums re-derive them (making verify
        a parse check only); :class:`~repro.store.sqlite.SqliteStore`
        keeps real ones.
        """
        corrupt: List[Dict[str, str]] = []
        checked = 0
        for key in self.keys():
            checked += 1
            problem = self._verify_entry(key)
            if problem is not None:
                corrupt.append({"key": key.token(), "problem": problem})
        return {
            "target": self.describe_target(),
            "checked": checked,
            "corrupt": corrupt,
            "ok": not corrupt,
        }

    def _verify_entry(self, key: StoreKey) -> Optional[str]:
        """One entry's integrity problem, or ``None`` when it is sound."""
        text = self._get_text(key)
        if text is None:
            return "entry vanished during verification"
        try:
            json.loads(text)
        except ValueError as exc:
            return f"record is not valid JSON: {exc}"
        return None

    def close(self) -> None:
        """Release backend resources (idempotent; default no-op)."""


#: Open registry of store backends, keyed by their URL scheme.
STORE_REGISTRY: Registry = Registry("result store backend")


def register_store(store_cls=None, *, name=None, description=None,
                   overwrite=False):
    """Register a :class:`ResultStore` subclass (decorator-friendly).

    ``name`` defaults to the class's :attr:`~ResultStore.scheme` and
    ``description`` to its first docstring line, mirroring
    :func:`~repro.workloads.register_workload`.  Registering an existing
    scheme raises :class:`~repro.utils.errors.RegistryError` unless
    ``overwrite=True``.
    """
    def do_register(cls):
        resolved = name if name is not None else getattr(cls, "scheme", None)
        return STORE_REGISTRY.register(cls, name=resolved,
                                       description=description,
                                       overwrite=overwrite)
    if store_cls is None:
        return do_register
    return do_register(store_cls)


def unregister_store(name: str) -> None:
    """Remove a store backend from the registry."""
    STORE_REGISTRY.unregister(name)


def available_stores() -> List[str]:
    """Schemes of all registered store backends."""
    return STORE_REGISTRY.names()


def open_store(target: str) -> ResultStore:
    """Open a result store from a target string.

    ``target`` is ``scheme:rest`` for any registered scheme
    (``memory:shared-name``, ``sqlite:/path/to.db``, ...); a bare string
    with no registered scheme prefix is a filesystem path for the
    default ``sqlite`` backend, so ``--store results.sqlite`` just
    works.  Windows-style drive letters (``C:\\...``) are never
    mistaken for schemes because only *registered* scheme names split.
    """
    if not target:
        raise StoreError("empty store target; expected a path or scheme:target")
    scheme, sep, rest = target.partition(":")
    if sep and scheme in STORE_REGISTRY:
        return STORE_REGISTRY.get(scheme).from_target(rest)
    return STORE_REGISTRY.get("sqlite").from_target(target)
