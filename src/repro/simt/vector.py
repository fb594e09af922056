"""Vectorized batch core (``vector``) and its ``estimator`` variant.

:class:`VectorCore` is the third registered simulation-core backend.  It
keeps the warp state a scheduler consults every cycle — PC, scoreboard
busy bits, barrier membership, warp id and launch order — as
per-scheduler NumPy arrays, so one cycle's readiness evaluation over N
candidate warps is a handful of array operations (mask gathers and
bitwise AND against per-PC hazard tables) instead of N object walks,
and replays the LRR/GTO policies with argmin and lexsort.  Two scalar
fallbacks keep it exact everywhere:

* programs whose register/predicate indices do not fit a 64-bit
  scoreboard bitmask fall back to the :class:`~repro.simt.core.FastCore`
  dict machinery wholesale;
* small candidate sets (and the selected warp's issue, divergence
  handling, and retirement — always) are handled scalar per cycle,
  where NumPy's per-call overhead would dominate.

On top of the arrays the core caches an *SM wake time*: when every warp
is parked on a sticky condition the whole per-cycle body is skipped
until the earliest cycle anything can change (ALU completion, LD/ST
event, or a memory response — the one asynchronous wake source, checked
explicitly).  A fully quiescent fast-path cycle's only observable effect
is the per-scheduler issue-idle counters, which the skip replays, so the
vector core stays **byte-identical** to the reference engine and is
pinned by the same golden-equivalence suite.  Memory instructions go
through the one :class:`~repro.simt.ldst.LoadStoreUnit` every backend
builds.

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

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.isa.program import Program
from repro.simt.backend import CoreBackend, register_core_backend
from repro.simt.core import FastCore, KernelLaunch, StreamingMultiprocessor
from repro.simt.scheduler import (
    GreedyThenOldestScheduler,
    LooseRoundRobinScheduler,
    WarpScheduler,
)
from repro.simt.warp import Warp
from repro.utils.errors import SimulationError

#: Sentinel wake time for "no future SM-local event" (sleep until a
#: memory response arrives or a CTA is launched).
_NEVER = float("inf")

#: Candidate sets at or below this size are evaluated by the scalar path;
#: NumPy's per-call overhead dominates for tiny batches.  Both paths
#: implement the same checks, so the threshold affects speed only.
_SCALAR_EVAL_THRESHOLD = 16

#: Register/predicate indices must fit a 64-bit scoreboard bitmask for a
#: program to take the array path.
_MASK_BITS = 64

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
    """NumPy batch core, registered as ``vector``.

    Inherits the FastCore event machinery (barrier and retirement scans
    are reused; the per-scheduler ready/blocked dicts are replaced by
    slot-index sets over the state arrays) and upholds the same
    parked-warp invariant: candidate/blocked membership is maintained at
    exactly the FastCore transition points (wake, BAR issue, retirement,
    issue readback), so any warp outside both sets is not issuable.
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
        num_schedulers = self._num_schedulers
        cap = self.config.max_warps  # worst case: all warps on one scheduler
        self._cap = cap
        self._v_pc = np.zeros((num_schedulers, cap), dtype=np.int64)
        self._v_busy_reg = np.zeros((num_schedulers, cap), dtype=np.uint64)
        self._v_busy_pred = np.zeros((num_schedulers, cap), dtype=np.uint64)
        self._v_wid = np.zeros((num_schedulers, cap), dtype=np.int64)
        self._v_order = np.zeros((num_schedulers, cap), dtype=np.int64)
        self._v_wait = np.zeros((num_schedulers, cap), dtype=bool)
        self._v_warps: List[List[Optional[Warp]]] = [
            [None] * cap for _ in range(num_schedulers)
        ]
        self._v_free: List[List[int]] = [
            list(range(cap - 1, -1, -1)) for _ in range(num_schedulers)
        ]
        self._v_slot: Dict[int, Tuple[int, int]] = {}
        # Candidate/blocked membership as slot-index sets: cheap to test
        # and mutate at 8-warp occupancy, trivially convertible to an
        # index vector for the batch evaluation.  Kept disjoint (a woken
        # warp leaves the blocked set; re-parking re-adds it), which the
        # blocked-release merge relies on.
        self._cand_slots: List[Set[int]] = [
            set() for _ in range(num_schedulers)
        ]
        self._blocked_slots: List[Set[int]] = [
            set() for _ in range(num_schedulers)
        ]
        # Slots whose array row is stale.  Warp state only changes at the
        # wake/issue/done hooks, which mark the slot dirty; the batch
        # evaluation refreshes dirty candidate rows just before reading
        # them.  Workloads that never reach the batch path (small
        # candidate sets) therefore never touch the arrays at all.
        self._dirty: List[Set[int]] = [set() for _ in range(num_schedulers)]
        self._vector_mode = False
        self._vec_program: Optional[Program] = None
        self._vec_len = 0
        self._tbl_reg: Optional[np.ndarray] = None
        self._tbl_pred: Optional[np.ndarray] = None
        self._tbl_mem: Optional[np.ndarray] = None
        self._sched_kind: List[Optional[str]] = []
        for scheduler in self.schedulers:
            if type(scheduler) is LooseRoundRobinScheduler:
                self._sched_kind.append("lrr")
            elif type(scheduler) is GreedyThenOldestScheduler:
                self._sched_kind.append("gto")
            else:
                self._sched_kind.append(None)
        self._sm_wake: float = 0.0
        self._sm_next: float = 0.0
        self._sm_next_stale = True
        # Skipped cycles are the common case; keep their cost at a few
        # C-level operations (deque truthiness + one prebound call).
        self._reply_entries = self.memory_system.response_entries(self.sm_id)
        self._inc_stat = self.stats.inc

    # ------------------------------------------------------------------
    # Program admission
    # ------------------------------------------------------------------
    def launch_cta(self, cta_id: int, launch: KernelLaunch, now: int) -> None:
        if launch.program is not self._vec_program:
            self._setup_program(launch.program)
        super().launch_cta(cta_id, launch, now)
        # New warps can issue next cycle; drop any cached quiescence.
        self._sm_wake = 0.0

    def _setup_program(self, program: Program) -> None:
        if self.ctas:
            raise SimulationError(
                "vector core cannot switch programs with CTAs resident"
            )
        self._v_slot.clear()
        for index in range(self._num_schedulers):
            self._cand_slots[index].clear()
            self._blocked_slots[index].clear()
            self._dirty[index].clear()
            self._v_warps[index] = [None] * self._cap
            self._v_free[index] = list(range(self._cap - 1, -1, -1))
        self._v_wait[:] = False
        self._vec_program = program
        self._vector_mode = self._vectorizable(program)
        if not self._vector_mode:
            self._tbl_reg = self._tbl_pred = self._tbl_mem = None
            return
        length = len(program.instructions)
        self._vec_len = length
        # Per-PC hazard masks: union of source and destination indices,
        # exactly the set Scoreboard.has_hazard tests membership for.
        # Row `length` is an all-clear pad so run-off-the-end PCs index
        # safely (they finish before the masks are consulted).
        tbl_reg = np.zeros(length + 1, dtype=np.uint64)
        tbl_pred = np.zeros(length + 1, dtype=np.uint64)
        tbl_mem = np.zeros(length + 1, dtype=bool)
        for pc, instruction in enumerate(program.instructions):
            reg_mask = 0
            for index in instruction.src_reg_indices:
                reg_mask |= 1 << index
            if instruction.dst_reg_index is not None:
                reg_mask |= 1 << instruction.dst_reg_index
            pred_mask = 0
            for index in instruction.src_pred_indices:
                pred_mask |= 1 << index
            if instruction.dst_pred_index is not None:
                pred_mask |= 1 << instruction.dst_pred_index
            tbl_reg[pc] = reg_mask
            tbl_pred[pc] = pred_mask
            tbl_mem[pc] = instruction.is_memory
        self._tbl_reg = tbl_reg
        self._tbl_pred = tbl_pred
        self._tbl_mem = tbl_mem

    @staticmethod
    def _vectorizable(program: Program) -> bool:
        """Whether every register/predicate index fits the bitmask width."""
        for instruction in program.instructions:
            for index in instruction.src_reg_indices:
                if index >= _MASK_BITS:
                    return False
            if (instruction.dst_reg_index is not None
                    and instruction.dst_reg_index >= _MASK_BITS):
                return False
            for index in instruction.src_pred_indices:
                if index >= _MASK_BITS:
                    return False
            if (instruction.dst_pred_index is not None
                    and instruction.dst_pred_index >= _MASK_BITS):
                return False
        return True

    # ------------------------------------------------------------------
    # Slot management and hook overrides
    # ------------------------------------------------------------------
    def _alloc_slot(self, warp: Warp) -> Tuple[int, int]:
        index = warp.warp_id % self._num_schedulers
        free = self._v_free[index]
        if not free:  # pragma: no cover - cap is the SM-wide warp limit
            raise SimulationError(
                f"SM {self.sm_id} scheduler {index} out of warp slots"
            )
        slot = free.pop()
        self._v_warps[index][slot] = warp
        self._v_slot[warp.warp_id] = (index, slot)
        self._v_wid[index, slot] = warp.warp_id
        self._v_order[index, slot] = warp.launch_order
        return index, slot

    def _wake_warp(self, warp: Warp) -> None:
        if not self._vector_mode:
            super()._wake_warp(warp)
            return
        if warp.done:
            return
        entry = self._v_slot.get(warp.warp_id)
        if entry is None:
            entry = self._alloc_slot(warp)
        index, slot = entry
        self._blocked_slots[index].discard(slot)
        self._cand_slots[index].add(slot)
        self._dirty[index].add(slot)

    def _on_warp_done(self, warp: Warp) -> None:
        super()._on_warp_done(warp)
        if not self._vector_mode:
            return
        entry = self._v_slot.pop(warp.warp_id, None)
        if entry is not None:
            index, slot = entry
            self._cand_slots[index].discard(slot)
            self._blocked_slots[index].discard(slot)
            self._dirty[index].discard(slot)
            self._v_warps[index][slot] = None
            self._v_free[index].append(slot)

    def _issue(self, warp: Warp, now: int) -> None:
        super()._issue(warp, now)
        if not self._vector_mode or warp.done:
            return
        # The issue changed PC/scoreboard/barrier state; refresh lazily.
        index, slot = self._v_slot[warp.warp_id]
        self._dirty[index].add(slot)

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
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
        replies = self._reply_entries
        if now < self._sm_wake and not replies:
            self._inc_stat(self._slot_idle, self._num_schedulers)
            return False
        # Inlined FastCore.cycle body (same stages, same order, same
        # guards) with the memory-response poll replaced by the raw
        # reply-deque truthiness the quiescence gate already uses.
        ldst = self.ldst
        if ldst._writebacks:
            ldst.process_writebacks(now)
        if self._alu_pipe:
            self._complete_alu(now)
        if self._barrier_ctas:
            self._release_barriers()
        issued = self._issue_stage(now)
        if (
            ldst.instruction_queue
            or ldst.l1_access_queue
            or ldst._miss_entries
            or replies
        ):
            ldst.cycle(now)
        if self._dirty_ctas:
            self._retire_finished_ctas()
        if issued:
            self.tracker.note_issue_cycle(self.sm_id, now)
            self.stats.inc(self._slot_active)
        candidates, blocked = self._issue_candidates()
        if self._barrier_ctas or any(candidates) or any(blocked):
            # Warp state can change next cycle; the enumeration is only
            # needed if the GPU stops without an issue, so defer it.
            self._sm_wake = now + 1
            self._sm_next_stale = True
        else:
            next_event = StreamingMultiprocessor.next_event_time(self, now)
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
        so issuing cycles never pay for the enumeration.  A fresh value
        always lies in the future (every enumerated time clamps to at
        least ``now + 1``, and a stop at or past it runs the body, which
        re-marks the cache stale); the non-positive branch is defensive
        only.
        """
        if self._sm_next_stale:
            next_event = super().next_event_time(now)
            self._sm_next = _NEVER if next_event is None else float(next_event)
            self._sm_next_stale = False
            return next_event
        next_event = self._sm_next
        if next_event <= now:  # pragma: no cover - see docstring
            return super().next_event_time(now)
        if next_event == _NEVER:
            return None
        return int(next_event)

    def _issue_candidates(self) -> tuple:
        if self._vector_mode:
            return self._cand_slots, self._blocked_slots
        return self._ready, self._ldst_blocked

    # ------------------------------------------------------------------
    # Issue stage
    # ------------------------------------------------------------------
    def _issue_stage(self, now: int) -> bool:
        if not self._vector_mode:
            return super()._issue_stage(now)
        if not any(self._cand_slots) and (
            not any(self._blocked_slots) or not self.ldst.can_accept()
        ):
            # No scheduler has a candidate (and nothing can unblock);
            # account the per-scheduler idle cycles in one shot — same
            # counter totals as the loop below.
            self.stats.inc(self._slot_idle, self._num_schedulers)
            return False
        issued_any = False
        stats = self.stats
        ldst = self.ldst
        for scheduler in self.schedulers:
            index = scheduler.scheduler_id
            cand = self._cand_slots[index]
            blocked = self._blocked_slots[index]
            if blocked and ldst.can_accept():
                cand |= blocked
                blocked.clear()
            warp = self._select_warp(scheduler, index, now) if cand else None
            if warp is None:
                stats.inc(self._slot_idle)
                continue
            self._issue(warp, now)
            scheduler.notify_issue(warp, now)
            warp.last_issue_cycle = now
            warp.instructions_issued += 1
            issued_any = True
            stats.inc(self._slot_issued)
        return issued_any

    def _select_warp(self, scheduler: WarpScheduler, index: int,
                     now: int) -> Optional[Warp]:
        if len(self._cand_slots[index]) <= _SCALAR_EVAL_THRESHOLD:
            return self._select_scalar(scheduler, index, now)
        return self._select_vector(scheduler, index, now)

    def _select_scalar(self, scheduler: WarpScheduler, index: int,
                       now: int) -> Optional[Warp]:
        """Scalar readiness evaluation and pick (same checks as FastCore)."""
        warps = self._v_warps[index]
        cand = self._cand_slots[index]
        blocked = self._blocked_slots[index]
        ldst = self.ldst
        ready: List[Warp] = []
        for slot in list(cand):
            warp = warps[slot]
            if warp.done or warp.at_barrier:
                cand.discard(slot)
                continue
            instruction = warp.next_instruction()
            if instruction is None:
                warp.finish()
                self._note_warp_done(warp)  # frees the slot
                continue
            if warp.scoreboard.has_hazard(instruction):
                cand.discard(slot)
                continue
            if instruction.is_memory and not ldst.can_accept():
                cand.discard(slot)
                blocked.add(slot)
                continue
            ready.append(warp)
        if not ready:
            return None
        if len(ready) == 1:
            return ready[0]
        kind = self._sched_kind[index]
        if kind == "lrr":
            last = scheduler.last_issued_warp_id
            if last is not None:
                after = [warp for warp in ready if warp.warp_id > last]
                if after:
                    return min(after, key=lambda warp: warp.warp_id)
            return min(ready, key=lambda warp: warp.warp_id)
        if kind == "gto":
            greedy = scheduler.greedy_warp_id
            if greedy is not None:
                for warp in ready:
                    if warp.warp_id == greedy:
                        return warp
            return min(ready, key=lambda warp: (warp.launch_order,
                                                warp.warp_id))
        ready.sort(key=lambda warp: warp.warp_id)
        return scheduler.select(ready, now)

    def _select_vector(self, scheduler: WarpScheduler, index: int,
                       now: int) -> Optional[Warp]:
        """Array readiness evaluation; equivalent to :meth:`_select_scalar`.

        Park/finish side effects are order-insensitive, and the LD/ST
        acceptance check cannot change mid-evaluation (nothing issues
        during it), so evaluating all slots from a snapshot is exact.
        """
        cand = self._cand_slots[index]
        dirty = self._dirty[index]
        if dirty:
            refresh = dirty & cand
            if refresh:
                warps_row = self._v_warps[index]
                pc_row = self._v_pc[index]
                wait_row = self._v_wait[index]
                reg_row = self._v_busy_reg[index]
                pred_row = self._v_busy_pred[index]
                for slot in refresh:
                    warp = warps_row[slot]
                    pc_row[slot] = warp.pc
                    wait_row[slot] = warp.at_barrier
                    scoreboard = warp.scoreboard
                    reg_row[slot] = scoreboard.reg_mask()
                    pred_row[slot] = scoreboard.pred_mask()
                dirty -= refresh
        slots = np.fromiter(cand, dtype=np.int64, count=len(cand))
        wait = self._v_wait[index, slots]
        pcs = self._v_pc[index, slots]
        length = self._vec_len
        finished = (pcs >= length) & ~wait
        pcs_c = np.minimum(pcs, length)
        hazard = (
            ((self._tbl_reg[pcs_c] & self._v_busy_reg[index, slots]) != 0)
            | ((self._tbl_pred[pcs_c] & self._v_busy_pred[index, slots]) != 0)
        )
        live = ~wait & ~finished & ~hazard
        is_mem = self._tbl_mem[pcs_c]
        if is_mem.any() and not self.ldst.can_accept():
            ready = live & ~is_mem
            mem_blocked = live & is_mem
            if mem_blocked.any():
                self._blocked_slots[index].update(
                    int(slot) for slot in slots[mem_blocked]
                )
        else:
            ready = live
        if finished.any():
            for item in slots[finished]:
                warp = self._v_warps[index][int(item)]
                warp.finish()
                self._note_warp_done(warp)  # frees the slot
        ready_slots = slots[ready]
        # Rebuild the candidate set: ready warps stay, everything else
        # parks (finished slots were already freed by the done hook).
        self._cand_slots[index] = set(map(int, ready_slots))
        if ready_slots.size == 0:
            return None
        wids = self._v_wid[index, ready_slots]
        kind = self._sched_kind[index]
        if kind == "lrr":
            slot = self._pick_lrr(scheduler, ready_slots, wids)
        elif kind == "gto":
            slot = self._pick_gto(scheduler, index, ready_slots, wids)
        else:
            # Unknown policy: hand the scheduler object the candidate
            # list in the order the fast core would (ascending warp id).
            order = np.argsort(wids, kind="stable")
            candidates = [
                self._v_warps[index][int(s)] for s in ready_slots[order]
            ]
            return scheduler.select(candidates, now)
        return self._v_warps[index][slot]

    @staticmethod
    def _pick_lrr(scheduler: LooseRoundRobinScheduler, slots: np.ndarray,
                  wids: np.ndarray) -> int:
        """LRR policy over arrays: first warp id after the last issuer."""
        last = scheduler.last_issued_warp_id
        if last is not None:
            after = np.nonzero(wids > last)[0]
            if after.size:
                return int(slots[after[np.argmin(wids[after])]])
        return int(slots[np.argmin(wids)])

    def _pick_gto(self, scheduler: GreedyThenOldestScheduler, index: int,
                  slots: np.ndarray, wids: np.ndarray) -> int:
        """GTO policy over arrays: greedy warp, else oldest launch."""
        greedy = scheduler.greedy_warp_id
        if greedy is not None:
            match = np.nonzero(wids == greedy)[0]
            if match.size:
                return int(slots[match[0]])
        orders = self._v_order[index, slots]
        return int(slots[np.lexsort((wids, orders))[0]])


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
    description=("NumPy batch core: per-scheduler warp-state arrays plus a "
                 "cached SM quiescence gate; byte-identical to reference"),
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
