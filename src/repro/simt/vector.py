"""Device-skip core (``vector``) and its ``estimator`` variant.

:class:`VectorCore` is :class:`~repro.simt.core.FastCore` — the same
per-scheduler candidate sets, warp selection and issue — behind a cached
*SM wake time*: when every warp is parked on a sticky condition the
whole per-cycle body is skipped until the earliest cycle anything can
change (ALU completion, LD/ST event, or a memory response — the one
asynchronous wake source, checked explicitly).  A fully quiescent
fast-path cycle's only observable effect is the per-scheduler
issue-idle counters, which the skip replays, so the vector core stays
**byte-identical** to the reference engine and is pinned by the same
golden-equivalence suite.  The core opts in to the GPU's device-level
skip loop (:meth:`repro.gpu.gpu.GPU._drive_skip`), which reads the
cached wake directly and passes parked SMs over without calling them.

:class:`VectorEstimatorCore` (``estimator``) reuses all of the above but
sets an adaptive LD/ST *time quantum* (1/24 of the configuration's
fastest memory service latency): memory completion times are rounded up
to the next quantum boundary, which coarsens the event timeline (fewer
distinct wake times, longer skips) at the cost of approximate cycle
counts.  Functional results and instruction counts stay exact; the
cycle-count error is measured and bounded in
``tests/test_fastpath_equivalence.py`` and the backend is registered
``exact=False`` so the persistent store keys its results separately
(see :mod:`repro.simt.backend`).
"""

from __future__ import annotations

from typing import Optional

from repro.simt.backend import CoreBackend, register_core_backend
from repro.simt.core import FastCore, KernelLaunch

#: Sentinel wake time for "no future SM-local event" (sleep until a
#: memory response arrives or a CTA is launched).
_NEVER = float("inf")

#: Fallback LD/ST time quantum of the ``estimator`` backend (cycles),
#: used only when the memory system exposes no partitions to derive an
#: adaptive quantum from.
ESTIMATOR_TIME_QUANTUM = 8

#: The adaptive estimator quantum is this fraction of the fastest
#: memory service latency (min of L2 hit and DRAM row-miss service).
#: Interleaving-sensitive workloads (bfs) hold the documented 10%
#: cycle-error bound up to a quantum of ~10 cycles on the calibrated
#: presets (L2 hit = 197) but blow through it at 12+; a twenty-fourth
#: lands those presets on the long-tested 8-cycle quantum while configs
#: with slower (or scaled) memory quantize proportionally coarser.
_ADAPTIVE_QUANTUM_DIVISOR = 24

#: Documented relative cycle-error bound of the ``estimator`` backend on
#: calibrated presets.  Pinned independently by the golden tests, the
#: acceptance benchmark, and the CI smoke matrix.
ESTIMATOR_CYCLE_ERROR_BOUND = 0.10


def adaptive_quantum_for_partition(partition_config) -> int:
    """The adaptive estimator quantum for a :class:`PartitionConfig`.

    The quantum is ``1/24`` of the fastest memory service path — the
    minimum of the L2 hit latency and the DRAM row-miss service time
    (``t_rcd + t_cas + service_pad``) — so quantization error stays a
    fixed *fraction* of real memory latency instead of a fixed cycle
    count.  A config whose fastest memory path is 8x slower quantizes
    8x more coarsely (same relative error, more work skipped); a config
    with unusually fast memory quantizes finely enough to stay inside
    the documented 10% cycle-error bound.
    """
    timing = partition_config.dram
    service = timing.t_rcd + timing.t_cas + timing.service_pad
    if partition_config.l2_enabled and partition_config.l2 is not None:
        service = min(service, partition_config.l2.hit_latency)
    return max(1, service // _ADAPTIVE_QUANTUM_DIVISOR)


def adaptive_time_quantum(memory_system) -> int:
    """Derive the estimator's LD/ST time quantum from a live memory
    system (see :func:`adaptive_quantum_for_partition`)."""
    partitions = getattr(memory_system, "partitions", None)
    if not partitions:
        return ESTIMATOR_TIME_QUANTUM
    return adaptive_quantum_for_partition(partitions[0].config)


class VectorCore(FastCore):
    """FastCore behind a cached SM quiescence gate, registered as
    ``vector``.

    Warp selection, issue and the parked-warp invariant are FastCore's
    unchanged; this class only adds the ``_sm_wake``/``_sm_next``/
    ``_reply_entries`` gate state the GPU's device-level skip loop reads.
    """

    backend_name = "vector"

    #: Opt in to the GPU's device-level quiescence skip: the per-cycle
    #: body honours the ``_sm_wake``/``_reply_entries`` gate contract
    #: (a gated cycle's only observable effect is the per-scheduler
    #: issue-idle counters), so the GPU may evaluate the gate itself and
    #: batch-replay the idle increments for whole skip windows.
    supports_device_skip = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sm_wake: float = 0.0
        self._sm_next: float = 0.0
        self._sm_next_stale = True
        self._reply_entries = self.memory_system.response_entries(self.sm_id)

    def launch_cta(self, cta_id: int, launch: KernelLaunch, now: int) -> None:
        super().launch_cta(cta_id, launch, now)
        # New warps can issue next cycle; drop any cached quiescence.
        self._sm_wake = 0.0

    def cycle(self, now: int) -> bool:
        """FastCore cycle behind a cached SM quiescence gate.

        While every resident warp is parked on a sticky condition the
        fast-path body is a pure no-op except for the per-scheduler
        issue-idle counters, which the skip replays — so skipped cycles
        are byte-identical to executed quiescent ones.  The cached wake
        covers every SM-local event (ALU completion, LD/ST queue
        activity, barrier and candidate state change only inside the
        body); the one asynchronous wake source — a memory response —
        is checked explicitly each cycle.
        """
        if now < self._sm_wake and not self._reply_entries:
            self.stats.inc(self._slot_idle, self._num_schedulers)
            return False
        issued = super().cycle(now)
        if (self._barrier_ctas or any(self._ready)
                or any(self._ldst_blocked)):
            # Warp state can change next cycle; the enumeration is only
            # needed if the GPU stops without an issue, so defer it.
            self._sm_wake = now + 1
            self._sm_next_stale = True
        else:
            next_event = super().next_event_time(now)
            self._sm_next = _NEVER if next_event is None else float(next_event)
            self._sm_next_stale = False
            self._sm_wake = self._sm_next
        return issued

    def next_event_time(self, now: int) -> Optional[int]:
        """Cached base enumeration — identical to the other cores' value.

        The enumeration only covers ALU and LD/ST event times (never the
        warp-readiness state the wake cache tracks on top), and those
        only change inside the per-cycle body, so a value computed at or
        after the last body run stays exact until the next one.  The
        cache is marked stale by each body run and refreshed on demand —
        the GPU only asks for event times on stops where nothing issued,
        so issuing cycles never pay for the enumeration.  A cached value
        always lies in the future: every enumerated time clamps to at
        least ``now + 1``, and a stop at or past it runs the body, which
        re-marks the cache stale or refreshes it (pinned at every clock
        decision by ``tests/test_fastpath_equivalence.py``).
        """
        if self._sm_next_stale:
            next_event = super().next_event_time(now)
            self._sm_next = _NEVER if next_event is None else float(next_event)
            self._sm_next_stale = False
            return next_event
        if self._sm_next == _NEVER:
            return None
        return int(self._sm_next)


class VectorEstimatorCore(VectorCore):
    """Vector core with quantized LD/ST timing, registered as ``estimator``.

    Memory completion times are rounded up to the next boundary of the
    adaptive time quantum (:func:`adaptive_time_quantum`) by the LD/ST
    unit, so cycle counts are approximate while functional results,
    verification, and instruction counts stay exact.  Individual completions are only ever
    delayed, but the induced change in warp interleaving is not monotone
    — end-to-end cycle counts usually land high yet can come in slightly
    under the exact cores' — so the tested contract is a two-sided
    relative error bound (see ``tests/test_fastpath_equivalence.py``).
    Registered ``exact=False``: the persistent store keys its results
    separately from the byte-identical backends.
    """

    backend_name = "estimator"
    exact = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ldst.time_quantum = adaptive_time_quantum(self.memory_system)


register_core_backend(CoreBackend(
    name="vector",
    factory=VectorCore,
    exact=True,
    description=("fast core's candidate sets behind a cached SM quiescence "
                 "gate, run by the GPU's device-level skip loop; "
                 "byte-identical to reference"),
))

register_core_backend(CoreBackend(
    name="estimator",
    factory=VectorEstimatorCore,
    exact=False,
    description=("vector core with LD/ST completion times rounded up to a "
                 "time quantum of 1/24 of the fastest memory service "
                 "latency; approximate cycle counts, keyed separately in "
                 "the result store"),
))
