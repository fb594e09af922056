"""Simulation-core backend registry.

The SM has two exact per-cycle engines: the trusted straight-line
:class:`~repro.simt.core.StreamingMultiprocessor` (``reference``) and the
event-skipping ready-set core behind a cached SM quiescence gate, run by
the GPU's gated drive loop (``fast``).  :mod:`repro.simt.vector` adds
``fast``'s approximate ``estimator`` variant and ``vector``, an alias of
``fast`` kept for the smoke matrix's core list.  This module gives
them a front door in the same style as ``register_workload`` /
``register_config`` / ``register_store``: a :class:`CoreBackend`
descriptor registered by name in an open :class:`~repro.utils.registry
.Registry`, so a new backend is one ``register_core_backend`` call
away and every consumer dispatches through the same names.

A core is chosen by name alone, in exactly two ways: a configuration's
``GPUConfig.core_backend`` field, and the per-run ``core=`` override on
``Session``, ``ParallelExecutor`` and the CLI (``--core NAME``).  A
backend takes no construction options.  The store's ``config_hash``
reads the resolved ``core_backend`` name.  Every backend builds the
same :class:`~repro.simt.ldst.LoadStoreUnit`; what differs between them
is the per-cycle engine that issues into it.

The backend contract
--------------------

A backend's :attr:`~CoreBackend.factory` must build an object with the
:class:`~repro.simt.core.StreamingMultiprocessor` interface — the
:class:`~repro.gpu.gpu.GPU` drives it exclusively through:

* ``launch_cta(cta_id, launch, now)`` / ``can_accept_cta(launch)`` —
  CTA placement (occupancy limits, shared memory, warp construction);
* ``cycle(now) -> bool`` — advance one cycle, returning whether any
  warp issued (warp advance, scoreboard release, barrier release, LD/ST
  slot accounting, and CTA retirement all happen in here);
* ``busy()`` / ``next_event_time(now)`` — quiescence introspection for
  the GPU's idle fast-forward clock: ``next_event_time`` is the SM's
  next *visit*, ``now + 1`` while anything polls, otherwise its
  earliest timed event (``None`` when there is none);
* ``collect_stats()`` / ``stats`` — counter collection.

An engine that sets ``supports_device_skip`` is run by the GPU's gated
drive loop (:meth:`~repro.gpu.gpu.GPU._drive_skip`) and must add:

* the gate: ``_sm_wake``, the next cycle its body must run, and
  ``_reply_entries``, the memory replies that open the gate early (the
  memory system's ``credit_woken`` list opens it too, for an SM that
  registered a refused miss-queue head with ``wait_for_credit``).  A
  body run before the wake may only bump the stall counters
  ``replay_stalls`` bumps, which the loop replays in bulk; the wake of
  an SM gated past a decision is its next event, unless its cached
  visit (``_sm_next``) lies before the wake, which means it polls;
* ``quiet_horizon(now)`` / ``replay_stalls(cycles)`` — the stall jump:
  the earliest cycle the SM can change state without a memory reply,
  and the bulk replay of the stall counters of the cycles the GPU jumps
  over.  :class:`~repro.simt.core.FastCore` reads the LD/ST unit's part
  of this and of ``next_event_time`` from one walk of it,
  :meth:`~repro.simt.ldst.LoadStoreUnit.horizons`, which returns its
  visit and its quiet horizon together, as each memory component's
  ``horizons`` does (see ``docs/architecture.md``, "The clock
  contract").

Every other engine runs its body on each cycle the GPU visits, and the
clock never jumps over a stalled cycle.

**Parked-warp invariant** (established by PR 3, inherited by every
event-driven backend): a warp outside the backend's ready/candidate set
and its LD/ST-blocked set must not be issuable.  A warp may leave the
candidate set only when it is observed blocked on a *sticky* condition,
and must be re-inserted no later than the cycle that condition can
clear: scoreboard hazards on the release for that warp (ALU completion
or load writeback), barrier waits on the CTA's barrier release, LD/ST
back-pressure when the LD/ST unit has a free slot again, and retirement
never (done warps stay parked).  Re-insertion may be conservative — a
woken warp that is still blocked simply re-parks — which is what keeps
the invariant checkable: over-waking costs cycles' work, never
correctness.

Exactness
---------

``exact=True`` declares that the backend produces **byte-identical**
results to the ``reference`` core — same cycle counts, same stats
dictionaries, same serialized records — for every workload and
configuration (this is what the golden-equivalence suite pins).  Exact
backends share one persistent-store ``config_hash`` equivalence class; a
backend registered with ``exact=False`` (an *estimator*) is keyed
separately and its results are never served for an exact-core request
(see :func:`repro.store.base.config_fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List

from repro.utils.errors import ConfigurationError, RegistryError
from repro.utils.registry import Registry

#: Open registry of simulation-core backends, keyed by backend name.
CORE_BACKENDS = Registry("core backend")


@dataclass(frozen=True)
class CoreBackend:
    """Descriptor for one registered simulation-core implementation.

    Attributes
    ----------
    name:
        Registry key (``"reference"``, ``"fast"``, ``"vector"``, ...).
    factory:
        Callable with the :class:`~repro.simt.core
        .StreamingMultiprocessor` constructor signature
        ``(sm_id, config, memory_system, global_memory, tracker)``
        building one SM running this backend.
    exact:
        Whether results are byte-identical to the ``reference`` core by
        contract (golden-equivalence tested).  Non-exact backends are
        *estimators*: cycle counts are approximate (with a tested error
        bound), functional results and instruction counts stay exact.
    reference_memory:
        Whether the memory system should run its straight-line
        (non-event-skipping) loop under this backend.  Only the
        ``reference`` backend sets this; it keeps the trusted baseline
        free of *all* event-skipping machinery.
    description:
        One-line human description (shown by ``repro cores``).
    """

    name: str
    factory: Callable[..., Any] = field(repr=False)
    exact: bool = True
    reference_memory: bool = False
    description: str = ""


def register_core_backend(backend: CoreBackend) -> CoreBackend:
    """Register ``backend`` under its name; returns it unchanged."""
    CORE_BACKENDS.register(backend, name=backend.name,
                           description=backend.description)
    return backend


def _load_builtin_backends() -> None:
    """Import the modules that register the built-in backends.

    Import-cycle note: this module must not import :mod:`repro.simt.core`
    at module level (``core`` imports ``backend`` to register itself), so
    the built-ins are pulled in lazily the first time a lookup misses.
    """
    import repro.simt.core  # noqa: F401  (registers reference, fast)
    import repro.simt.vector  # noqa: F401  (registers vector, estimator)


def get_core_backend(name: str) -> CoreBackend:
    """The registered :class:`CoreBackend` called ``name``.

    Raises :class:`~repro.utils.errors.ConfigurationError` (naming the
    available backends) for unknown names.
    """
    if name not in CORE_BACKENDS:
        _load_builtin_backends()
    try:
        return CORE_BACKENDS.get(name)
    except RegistryError:
        raise ConfigurationError(
            f"unknown core backend {name!r}; available: "
            f"{available_core_backends()}"
        ) from None


def available_core_backends() -> List[str]:
    """Sorted names of all registered core backends."""
    _load_builtin_backends()
    return CORE_BACKENDS.names()


def core_backend_is_exact(name: str) -> bool:
    """Whether backend ``name`` is in the byte-identical equivalence class.

    Unknown names are conservatively treated as **not** exact, so a
    result produced by an unregistered (e.g. third-party) backend is
    keyed separately in the persistent store rather than served for
    exact-core requests.
    """
    if name not in CORE_BACKENDS:
        try:
            _load_builtin_backends()
        except Exception:  # pragma: no cover - defensive import guard
            return False
    if name not in CORE_BACKENDS:
        return False
    return CORE_BACKENDS.get(name).exact
