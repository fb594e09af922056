"""Streaming multiprocessor (SM) model and the built-in core backends.

The SM is execution driven: when an instruction issues, its functional
effect (register updates, memory address computation, value load/store) is
applied immediately, while the timing model — scoreboard reservations,
arithmetic pipeline latencies, and the LD/ST unit with the full memory
hierarchy behind it — decides when dependent instructions may issue.
Every backend issues through :meth:`StreamingMultiprocessor._issue`,
which executes from the instruction's decoded form
(:mod:`repro.isa.decode`).

The SM also feeds the latency instrumentation: every cycle in which at
least one instruction issues is reported to the tracker, which is the raw
data behind the paper's exposed/hidden latency analysis (Figure 2).

Core backends
-------------

:class:`StreamingMultiprocessor` is both the shared machinery (CTA
placement, functional execution, the LD/ST unit, stats) and the trusted
**reference** per-cycle engine: scan every warp, tick every component,
every cycle.  Alternative engines subclass it and override the per-cycle
hooks (:meth:`cycle`, :meth:`_issue_stage`, :meth:`_wake_warp`, ...);
they are registered by name through :mod:`repro.simt.backend` so
``GPUConfig.core_backend`` / ``Session(core=...)`` / ``repro --core``
can select them.  This module registers ``reference``
(:class:`ReferenceCore`) and ``fast`` (:class:`FastCore`, the
event-skipping path behind a cached SM quiescence gate);
:mod:`repro.simt.vector` adds ``vector`` (an alias of ``fast``) and
``estimator``.  See :mod:`repro.simt.backend` for the interface contract
and the parked-warp invariant every event-driven backend must uphold.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.tracker import LatencyTracker
from repro.isa.instruction import Instruction
from repro.isa.decode import (
    CONST, PRED, REG, DecodedInstruction, Kind, decode,
)
from repro.isa.opcodes import MemSpace
from repro.isa.operands import Param, Special
from repro.isa.program import Program
from repro.memory.globalmem import GlobalMemory, WORD_SIZE
from repro.memory.subsystem import MemorySystem
from repro.simt.backend import CoreBackend, register_core_backend
from repro.simt.coreconfig import CoreConfig
from repro.simt.ldst import LoadStoreUnit, LoadToken
from repro.simt.scheduler import WarpScheduler, create_warp_scheduler
from repro.simt.warp import Warp
from repro.utils.errors import SimulationError
from repro.utils.stats import StatCounters


@dataclass
class KernelLaunch:
    """Everything needed to execute one kernel grid.

    Attributes
    ----------
    program:
        The assembled kernel.
    grid_dim / block_dim:
        Number of CTAs and threads per CTA (1-D, as in the bundled
        workloads).
    params:
        Launch-time scalar parameter values, keyed by name.
    local_base:
        Base address in global memory of the per-thread local-memory
        backing store (0 when the kernel uses no local memory).
    launch_id:
        GPU-unique id of this launch, assigned by :meth:`GPU.submit`.
        CTAs, warps, and memory requests carry it so statistics can be
        attributed per kernel in multi-kernel scenarios.
    """

    program: Program
    grid_dim: int
    block_dim: int
    params: Dict[str, float] = field(default_factory=dict)
    local_base: int = 0
    launch_id: int = 0

    def __post_init__(self) -> None:
        if self.grid_dim < 1 or self.block_dim < 1:
            raise SimulationError("grid_dim and block_dim must be >= 1")
        missing = set(self.program.param_names) - set(self.params)
        if missing:
            raise SimulationError(
                f"kernel {self.program.name!r} missing parameters: {sorted(missing)}"
            )

    @property
    def total_threads(self) -> int:
        """Total threads in the grid."""
        return self.grid_dim * self.block_dim


class CTAContext:
    """Per-CTA state resident on an SM (shared memory, member warps)."""

    def __init__(self, cta_id: int, launch: KernelLaunch, warps: List[Warp]) -> None:
        self.cta_id = cta_id
        self.launch = launch
        self.warps = warps
        words = max(launch.program.shared_bytes // WORD_SIZE, 1)
        self.shared = np.zeros(words, dtype=np.float64)

    def all_done(self) -> bool:
        """Whether every warp of this CTA has retired."""
        return all(warp.done for warp in self.warps)

    def barrier_reached(self) -> bool:
        """Whether every live warp of this CTA is waiting at the barrier."""
        live = [warp for warp in self.warps if not warp.done]
        return bool(live) and all(warp.at_barrier for warp in live)

    def release_barrier(self) -> None:
        """Let all warps continue past the barrier."""
        for warp in self.warps:
            warp.at_barrier = False


class StreamingMultiprocessor:
    """One SIMT core: warps, schedulers, ALU/SFU pipelines, LD/ST unit.

    This base class *is* the trusted reference engine — the original
    straight-line loop that re-evaluates every warp every cycle — and
    doubles as the extension surface for the registered core backends
    (:mod:`repro.simt.backend`).  Event-driven subclasses override the
    per-cycle drivers (:meth:`cycle`, :meth:`_issue_stage`,
    :meth:`_release_barriers`, :meth:`_retire_finished_ctas`) and hook
    the state transitions the base engine reports:

    * :meth:`_wake_warp` — a warp's sticky blocking condition may have
      cleared (scoreboard release, barrier release, CTA launch);
    * :meth:`_on_barrier_wait` — a warp just issued ``BAR`` and parked;
    * :meth:`_on_warp_done` — a warp just retired;
    * :meth:`_forget_warp` — a retired warp's CTA is leaving the SM.

    All hooks are no-ops here, so the base engine stays straight-line.
    Every overriding backend must uphold the **parked-warp invariant**
    (PR 3): any warp outside its ready/candidate set and LD/ST-blocked
    set is not issuable, and a parked warp is re-woken no later than the
    cycle its blocking condition can clear (conservative wakes are fine;
    missed wakes are deadlocks).
    """

    #: Registered backend name of this engine (class-level metadata).
    backend_name = "reference"
    #: Whether this engine is byte-identical to the reference core.
    exact = True
    #: Whether the GPU runs this engine through its gated drive loop
    #: (:meth:`repro.gpu.gpu.GPU._drive_skip`); see :class:`FastCore`.
    #: Every other engine runs its body on each cycle the GPU visits.
    supports_device_skip = False

    def __init__(
        self,
        sm_id: int,
        config: CoreConfig,
        memory_system: MemorySystem,
        global_memory: GlobalMemory,
        tracker: LatencyTracker,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.memory_system = memory_system
        self.global_memory = global_memory
        self.tracker = tracker
        self.schedulers: List[WarpScheduler] = [
            create_warp_scheduler(config.warp_scheduler, index)
            for index in range(config.num_schedulers)
        ]
        self.ldst = LoadStoreUnit(sm_id, config, memory_system, tracker)
        self.ldst.on_load_complete = self._on_load_complete
        self.ctas: Dict[int, CTAContext] = {}
        self._warp_cta: Dict[int, CTAContext] = {}
        # Launch exclusivity: an SM hosts CTAs of one kernel launch at a
        # time (cleared when the last resident CTA retires).  Kernels
        # still overlap *across* SMs and interfere in the shared memory
        # system; per-SM exclusivity keeps every core backend's
        # engine-internal state (cta_id keys, cached programs) valid
        # without multi-launch awareness.
        self._resident_launch: Optional[KernelLaunch] = None
        #: Optional callback invoked (with the retiring CTAContext) as
        #: each CTA leaves the SM; the GPU uses it to track per-launch
        #: completion for streams.
        self.on_cta_retired: Optional[Callable[[CTAContext], None]] = None
        self._alu_pipe: List[tuple] = []
        self._sequence = itertools.count()
        self._next_local_warp = 0
        self.retired_ctas: List[int] = []
        self.stats = StatCounters(prefix=f"sm{self.sm_id}")
        self._num_schedulers = config.num_schedulers
        # CTAs with a newly retired warp: consumed by the event-driven
        # retirement scans; the base engine clears it as it rescans.
        self._dirty_ctas: Set[int] = set()
        self._live_warps = 0
        self._num_warps = 0
        self._slot_issued = self.stats.slot("instructions_issued")
        self._slot_idle = self.stats.slot("issue_idle_cycles")
        self._slot_active = self.stats.slot("active_cycles")
        self._slot_branches = self.stats.slot("branches")
        self._slot_uniform = self.stats.slot("uniform_branches")
        self._slot_divergent = self.stats.slot("divergent_stack_cycles")
        self._slot_finished = self.stats.slot("warps_finished")
        self._slot_partial_exits = self.stats.slot("partial_exits")
        self._slot_memory = self.stats.slot("memory_instructions")
        self._warp_size = config.warp_size
        self._alu_latency = config.alu_latency
        self._sfu_latency = config.sfu_latency
        # Issue dispatch on the decoded kind, indexed by ``Kind``.
        handlers = {
            Kind.ALU: self._execute_arithmetic,
            Kind.SFU: self._execute_arithmetic,
            Kind.LD: self._execute_memory,
            Kind.ST: self._execute_memory,
            Kind.BRA: self._execute_branch,
            Kind.EXIT: self._execute_exit,
            Kind.BAR: self._execute_barrier,
            Kind.NOP: self._execute_nop,
        }
        self._execute = tuple(handlers[kind] for kind in Kind)

    # ------------------------------------------------------------------
    # CTA management
    # ------------------------------------------------------------------
    def resident_warps(self) -> List[Warp]:
        """All warps currently resident on this SM."""
        return [warp for cta in self.ctas.values() for warp in cta.warps]

    def warps_per_cta(self, launch: KernelLaunch) -> int:
        """Warps needed for one CTA of ``launch``."""
        return -(-launch.block_dim // self.config.warp_size)

    def shared_bytes_in_use(self) -> int:
        """Shared memory currently allocated to resident CTAs."""
        return sum(cta.launch.program.shared_bytes for cta in self.ctas.values())

    def can_accept_cta(self, launch: KernelLaunch) -> bool:
        """Whether occupancy limits allow another CTA of ``launch``.

        Besides the occupancy limits, an SM only co-hosts CTAs of a
        single launch at a time (launch exclusivity — see
        ``_resident_launch``); a CTA of a different launch must wait for
        the SM to drain or go to another SM.
        """
        if (self._resident_launch is not None
                and self._resident_launch is not launch):
            return False
        if len(self.ctas) >= self.config.max_ctas:
            return False
        needed_warps = self.warps_per_cta(launch)
        if self._num_warps + needed_warps > self.config.max_warps:
            return False
        if (
            self.shared_bytes_in_use() + launch.program.shared_bytes
            > self.config.shared_mem_bytes
        ):
            return False
        return True

    def launch_cta(self, cta_id: int, launch: KernelLaunch, now: int) -> None:
        """Place one CTA (its warps and shared memory) onto this SM."""
        if not self.can_accept_cta(launch):
            raise SimulationError(f"SM {self.sm_id} cannot accept CTA {cta_id}")
        warp_size = self.config.warp_size
        num_warps = self.warps_per_cta(launch)
        warps: List[Warp] = []
        for warp_in_cta in range(num_warps):
            lane_tids = warp_in_cta * warp_size + np.arange(warp_size)
            valid = lane_tids < launch.block_dim
            warp = Warp(
                warp_id=self.sm_id * 100000 + self._next_local_warp,
                warp_in_cta=warp_in_cta,
                cta_id=cta_id,
                sm_id=self.sm_id,
                program=launch.program,
                warp_size=warp_size,
                valid_mask=valid,
            )
            warp.launch_order = now * 1000 + self._next_local_warp
            warp.launch_id = launch.launch_id
            self._next_local_warp += 1
            warps.append(warp)
        context = CTAContext(cta_id, launch, warps)
        self._resident_launch = launch
        self.ctas[cta_id] = context
        self._num_warps += len(warps)
        self._live_warps += len(warps)
        for warp in warps:
            self._warp_cta[warp.warp_id] = context
            self._wake_warp(warp)
        self.stats.add("ctas_launched")

    def _retire_finished_ctas(self) -> None:
        finished = [cta_id for cta_id, cta in self.ctas.items()
                    if cta.all_done()]
        self._dirty_ctas.clear()
        self._retire_ctas(finished)

    def _retire_ctas(self, finished: List[int]) -> None:
        """Remove the given all-done CTAs from the SM (shared by backends)."""
        for cta_id in finished:
            context = self.ctas.pop(cta_id)
            self._num_warps -= len(context.warps)
            for warp in context.warps:
                self._warp_cta.pop(warp.warp_id, None)
                self._forget_warp(warp)
            self.retired_ctas.append(cta_id)
            self.stats.add("ctas_retired")
            if self.on_cta_retired is not None:
                self.on_cta_retired(context)
        if finished and not self.ctas:
            # Last resident CTA gone: the SM is free for another launch
            # (its in-flight memory traffic may still be draining).
            self._resident_launch = None

    # ------------------------------------------------------------------
    # Backend hooks (no-ops in the reference engine)
    # ------------------------------------------------------------------
    def _wake_warp(self, warp: Warp) -> None:
        """Hook: ``warp``'s sticky blocking condition may have cleared."""

    def _on_barrier_wait(self, warp: Warp) -> None:
        """Hook: ``warp`` just issued ``BAR`` and is parked at the barrier."""

    def _on_warp_done(self, warp: Warp) -> None:
        """Hook: ``warp`` just retired (``EXIT`` of its last lanes)."""

    def _forget_warp(self, warp: Warp) -> None:
        """Hook: retired ``warp``'s CTA is being removed from the SM."""

    # ------------------------------------------------------------------
    # Per-cycle processing (reference engine; subclasses override)
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> bool:
        """Advance the SM one cycle; returns whether anything issued.

        The reference engine: scan and tick everything, every cycle.
        """
        self.ldst.process_writebacks(now)
        self._complete_alu(now)
        self._release_barriers()
        issued = self._issue_stage(now)
        self.ldst.cycle(now)
        self._retire_finished_ctas()
        if issued:
            self.tracker.note_issue_cycle(self.sm_id, now)
            self.stats.inc(self._slot_active)
        return issued

    def _complete_alu(self, now: int) -> None:
        pipe = self._alu_pipe
        while pipe and pipe[0][0] <= now:
            _, _, warp, instruction = heapq.heappop(pipe)
            if not warp.done:
                warp.scoreboard.release(instruction)
                self._wake_warp(warp)

    def _release_barriers(self) -> None:
        for cta in self.ctas.values():
            if cta.barrier_reached():
                cta.release_barrier()
                self.stats.add("barriers_released")

    def _scheduler_warps(self, scheduler_index: int) -> List[Warp]:
        return [
            warp
            for warp in self.resident_warps()
            if warp.warp_id % self.config.num_schedulers == scheduler_index
        ]

    def _issue_stage(self, now: int) -> bool:
        issued_any = False
        for scheduler in self.schedulers:
            candidates = [
                warp
                for warp in self._scheduler_warps(scheduler.scheduler_id)
                if self._warp_ready(warp)
            ]
            warp = scheduler.select(candidates, now)
            if warp is None:
                self.stats.inc(self._slot_idle)
                continue
            self._issue(warp, now)
            scheduler.notify_issue(warp, now)
            warp.last_issue_cycle = now
            warp.instructions_issued += 1
            issued_any = True
            self.stats.inc(self._slot_issued)
        return issued_any

    def _note_warp_done(self, warp: Warp) -> None:
        """Bookkeeping for a warp that just retired (all backends)."""
        self._live_warps -= 1
        self._dirty_ctas.add(warp.cta_id)
        self._on_warp_done(warp)

    def _warp_ready(self, warp: Warp) -> bool:
        if warp.done or warp.at_barrier:
            return False
        instruction = warp.next_instruction()
        if instruction is None:
            warp.finish()
            self._note_warp_done(warp)
            return False
        if warp.scoreboard.has_hazard(instruction):
            return False
        if instruction.is_memory and not self.ldst.can_accept():
            return False
        return True

    # ------------------------------------------------------------------
    # Operand access
    # ------------------------------------------------------------------
    def _read_sources(self, warp: Warp,
                      sources: Tuple[Tuple[int, Any], ...]) -> List[np.ndarray]:
        """Per-lane values of decoded ``(tag, payload)`` sources."""
        values = []
        for tag, payload in sources:
            if tag is REG:
                values.append(warp.registers[payload])
            elif tag is CONST:
                values.append(payload)
            elif tag is PRED:
                values.append(warp.predicates[payload].astype(np.float64))
            else:
                values.append(self._read_operand(
                    warp, self._warp_cta[warp.warp_id], payload))
        return values

    def _read_operand(self, warp: Warp, cta: CTAContext, operand) -> np.ndarray:
        """The general reader: operands only the core can resolve."""
        if isinstance(operand, Param):
            value = cta.launch.params[operand.name]
            return np.full(self.config.warp_size, float(value),
                           dtype=np.float64)
        if isinstance(operand, Special):
            return self._read_special(warp, cta, operand.name)
        raise SimulationError(f"cannot read operand {operand!r}")

    def _read_special(self, warp: Warp, cta: CTAContext, name: str) -> np.ndarray:
        warp_size = self.config.warp_size
        launch = cta.launch
        if name == "tid":
            return warp.thread_indices(launch.block_dim)
        if name == "ctaid":
            return np.full(warp_size, float(warp.cta_id), dtype=np.float64)
        if name == "ntid":
            return np.full(warp_size, float(launch.block_dim), dtype=np.float64)
        if name == "nctaid":
            return np.full(warp_size, float(launch.grid_dim), dtype=np.float64)
        if name == "laneid":
            return warp.lane_indices()
        if name == "warpid":
            return np.full(warp_size, float(warp.warp_in_cta), dtype=np.float64)
        if name == "smid":
            return np.full(warp_size, float(self.sm_id), dtype=np.float64)
        if name == "gtid":
            return (
                warp.cta_id * launch.block_dim
                + warp.thread_indices(launch.block_dim)
            )
        raise SimulationError(f"unknown special register {name!r}")

    # ------------------------------------------------------------------
    # Issue / functional execution
    # ------------------------------------------------------------------
    def _issue(self, warp: Warp, now: int) -> None:
        instruction = warp.next_instruction()
        if instruction is None:  # pragma: no cover - candidates are ready
            warp.finish()
            self._note_warp_done(warp)
            return
        decoded = instruction.decoded
        if decoded is None or decoded.width != self._warp_size:
            decoded = decode(instruction, self._warp_size)
        exec_mask = warp.active_mask
        guard = decoded.guard
        if guard is not None:
            values = warp.predicates[guard[0]]
            exec_mask &= ~values if guard[1] else values
        self._execute[decoded.kind](warp, instruction, decoded, exec_mask,
                                    now)

    def _execute_branch(self, warp: Warp, instruction: Instruction,
                        decoded: DecodedInstruction, exec_mask: np.ndarray,
                        now: int) -> None:
        self.stats.inc(self._slot_branches)
        if decoded.guard is not None and bool(exec_mask.any()) and not bool(
            (warp.active_mask & ~exec_mask).any()
        ):
            self.stats.inc(self._slot_uniform)
        warp.stack.branch(
            taken_mask=exec_mask,
            target=instruction.target,
            reconv=instruction.reconv,
            fallthrough_pc=instruction.pc + 1,
        )
        if warp.stack.depth > 1:
            self.stats.inc(self._slot_divergent)

    def _execute_exit(self, warp: Warp, instruction: Instruction,
                      decoded: DecodedInstruction, exec_mask: np.ndarray,
                      now: int) -> None:
        remaining = warp.active_mask & ~exec_mask
        warp.exit_lanes(exec_mask)
        if warp.done:
            self._note_warp_done(warp)
        elif bool(remaining.any()):
            warp.stack.advance(instruction.pc + 1)
        self.stats.inc(self._slot_finished if warp.done
                       else self._slot_partial_exits)

    def _execute_barrier(self, warp: Warp, instruction: Instruction,
                         decoded: DecodedInstruction, exec_mask: np.ndarray,
                         now: int) -> None:
        warp.at_barrier = True
        self._on_barrier_wait(warp)
        warp.stack.advance(instruction.pc + 1)

    def _execute_nop(self, warp: Warp, instruction: Instruction,
                     decoded: DecodedInstruction, exec_mask: np.ndarray,
                     now: int) -> None:
        warp.stack.advance(instruction.pc + 1)

    def _execute_arithmetic(self, warp: Warp, instruction: Instruction,
                            decoded: DecodedInstruction,
                            exec_mask: np.ndarray, now: int) -> None:
        result = decoded.evaluate(instruction,
                                  self._read_sources(warp, decoded.sources))
        if decoded.dst_reg is not None:
            np.copyto(warp.registers[decoded.dst_reg], result,
                      where=exec_mask)
        elif decoded.dst_pred is not None:
            # ``unsafe``: a non-bool result is read as ``astype(bool)``.
            np.copyto(warp.predicates[decoded.dst_pred], result,
                      where=exec_mask, casting="unsafe")
        warp.scoreboard.reserve(instruction)
        latency = (self._sfu_latency if decoded.kind is Kind.SFU
                   else self._alu_latency)
        heapq.heappush(
            self._alu_pipe,
            (now + latency, next(self._sequence), warp, instruction),
        )
        warp.stack.advance(instruction.pc + 1)

    def _execute_memory(self, warp: Warp, instruction: Instruction,
                        decoded: DecodedInstruction, exec_mask: np.ndarray,
                        now: int) -> None:
        cta = self._warp_cta[warp.warp_id]
        sources = self._read_sources(warp, decoded.sources)
        addresses = sources[0].astype(np.int64)
        if instruction.offset:
            addresses += instruction.offset
        space = instruction.space
        if space is MemSpace.LOCAL:
            launch = cta.launch
            global_tids = (
                warp.cta_id * launch.block_dim
                + warp.thread_indices(launch.block_dim)
            ).astype(np.int64)
            addresses = (
                launch.local_base
                + global_tids * max(launch.program.local_bytes, WORD_SIZE)
                + addresses
            )
        # The active lanes' byte addresses, built once: the functional
        # access reads or writes through them and the LD/ST unit
        # coalesces (or takes shared-memory banks) from them.
        active = addresses[exec_mask]
        if decoded.kind is Kind.LD:
            values = np.zeros(self._warp_size, dtype=np.float64)
            if len(active):
                if space is MemSpace.SHARED:
                    values[exec_mask] = cta.shared[active // WORD_SIZE]
                else:
                    values[exec_mask] = self.global_memory.read_words(active)
            if decoded.dst_reg is not None:
                np.copyto(warp.registers[decoded.dst_reg], values,
                          where=exec_mask)
            warp.scoreboard.reserve(instruction)
        elif space is MemSpace.SHARED:
            if len(active):
                cta.shared[active // WORD_SIZE] = sources[1][exec_mask]
        else:
            self.global_memory.write_words(active, sources[1][exec_mask])
        self.ldst.issue(warp, instruction, active, now)
        self.stats.inc(self._slot_memory)
        warp.stack.advance(instruction.pc + 1)

    # ------------------------------------------------------------------
    # Completion callbacks
    # ------------------------------------------------------------------
    def _on_load_complete(self, token: LoadToken, cycle: int) -> None:
        if not token.warp.done:
            token.warp.scoreboard.release(token.instruction)
            self._wake_warp(token.warp)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """Whether the SM still has resident work or in-flight operations."""
        if self._live_warps:
            return True
        return bool(self._alu_pipe) or self.ldst.busy()

    def next_event_time(self, now: int) -> Optional[int]:
        """Earliest future cycle at which SM state can change: the next
        ALU completion or the LD/ST unit's visit."""
        visit = self._horizons(now)[0]
        return None if visit == math.inf else int(visit)

    def _horizons(self, now: int) -> Tuple[float, float]:
        """``(visit, quiet)`` of the ALU pipeline and the LD/ST unit from
        one LD/ST walk: the next ALU completion bounds both."""
        visit, quiet = self.ldst.horizons(now)
        if self._alu_pipe:
            done = self._alu_pipe[0][0]
            quiet = min(quiet, done)
            visit = min(visit, max(done, now + 1))
        return visit, quiet

    def collect_stats(self, launch_id: Optional[int] = None) -> StatCounters:
        """Combined SM statistics including the LD/ST unit and L1 cache.

        With ``launch_id``, only the counters attributed to that kernel
        launch are collected (see :meth:`StatCounters.launch_dict`).
        """
        combined = StatCounters(prefix=f"sm{self.sm_id}")
        combined.merge(self.stats.view(launch_id))
        combined.merge(self.ldst.collect_stats(launch_id).as_dict())
        return combined


class ReferenceCore(StreamingMultiprocessor):
    """The trusted straight-line engine, registered as ``reference``.

    Identical to the base class; the subclass exists so the registry has
    a concrete named factory and so ``isinstance`` checks can tell the
    trusted baseline apart from backends that merely inherit from it.
    """

    backend_name = "reference"


class FastCore(StreamingMultiprocessor):
    """Event-skipping engine (PR 3), registered as ``fast``.

    Keeps one *ready set* per scheduler — warps that might be able to
    issue — updated only on state transitions (issue, ALU/load
    completion, barrier release, LD/ST slot free, CTA launch), so a
    cycle touches candidate warps only instead of scanning every
    resident warp.  Results are byte-identical to the reference engine
    (pinned by the golden-equivalence suite).

    A warp leaves the ready set when it is observed blocked on a sticky
    condition and is re-inserted exactly when that condition can clear:
    scoreboard hazards clear only on a release for that warp, barrier
    waits only on the CTA's barrier release, and LD/ST back-pressure only
    when the LD/ST unit has a free slot again.  Re-insertions are
    conservative (a woken warp may re-park), which keeps the invariant
    simple: *any warp outside the ready set and the LD/ST-blocked set is
    not issuable*.

    On top of the ready sets sits a cached SM quiescence gate that the
    GPU's gated drive loop (:meth:`repro.gpu.gpu.GPU._drive_skip`) reads:
    the body need not run before ``_sm_wake`` unless a memory reply
    waits in ``_reply_entries`` or the memory system frees the credit a
    refused miss-queue head waits for.  When no warp can move, the wake
    is the SM's quiet horizon, so the SM sleeps through the cycles in
    which its LD/ST unit only polls; a body run before the wake would
    only bump the per-scheduler issue-idle counters and the LD/ST
    stalls, which the loop replays in bulk instead — so skipped cycles
    are byte-identical to executed quiescent ones.
    """

    backend_name = "fast"

    #: Opt in to the GPU's gated drive loop: a gated cycle's only
    #: observable effect is the per-scheduler issue-idle counters.
    supports_device_skip = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-scheduler ready/blocked sets (dicts keyed by warp_id for
        # ordered, de-duplicated membership) and the CTAs with a warp
        # waiting at a barrier, tracked at BAR issue.
        self._ready: List[Dict[int, Warp]] = [
            {} for _ in range(self._num_schedulers)
        ]
        self._ldst_blocked: List[Dict[int, Warp]] = [
            {} for _ in range(self._num_schedulers)
        ]
        self._barrier_ctas: Set[int] = set()
        # The gate: ``_sm_wake`` is the next cycle the body must run.
        # ``_sm_next``/``_sm_quiet`` are the SM-local visit and quiet
        # horizon of one LD/ST walk, kept until the next body run marks
        # them stale.
        self._sm_wake: float = 0
        self._sm_next: float = 0
        self._sm_quiet: float = 0
        self._sm_next_stale = True
        self._reply_entries = self.memory_system.response_entries(self.sm_id)

    def launch_cta(self, cta_id: int, launch: KernelLaunch, now: int) -> None:
        super().launch_cta(cta_id, launch, now)
        # New warps can issue next cycle: reopen the gate.
        self._sm_wake = 0

    # ------------------------------------------------------------------
    # Hook implementations
    # ------------------------------------------------------------------
    def _wake_warp(self, warp: Warp) -> None:
        """(Re-)insert a warp into its scheduler's ready set."""
        if not warp.done:
            self._ready[warp.warp_id % self._num_schedulers][warp.warp_id] = warp

    def _on_barrier_wait(self, warp: Warp) -> None:
        self._barrier_ctas.add(warp.cta_id)

    def _on_warp_done(self, warp: Warp) -> None:
        self._ldst_blocked[warp.warp_id % self._num_schedulers].pop(
            warp.warp_id, None)

    def _forget_warp(self, warp: Warp) -> None:
        # Drop retired warps (and their register files) from the
        # scheduler sets so finished kernels do not pin dead warps in
        # memory; done warps are filtered from candidates anyway, so
        # this is result-neutral.
        scheduler_index = warp.warp_id % self._num_schedulers
        self._ready[scheduler_index].pop(warp.warp_id, None)
        self._ldst_blocked[scheduler_index].pop(warp.warp_id, None)

    # ------------------------------------------------------------------
    # Per-cycle processing
    # ------------------------------------------------------------------
    def cycle(self, now: int) -> bool:
        """Event-accelerated cycle: only touch components with work.

        Every skipped step is a pure no-op in the reference path when its
        guarding state is empty (no state change and no stat counters),
        so per-cycle results are byte-identical to the reference engine's
        :meth:`StreamingMultiprocessor.cycle`.  The LD/ST unit guards its
        own stages the same way, so it is ticked unconditionally.
        """
        ldst = self.ldst
        writebacks = ldst._writebacks
        if writebacks and writebacks[0][0] <= now:
            ldst.process_writebacks(now)
        if self._alu_pipe:
            self._complete_alu(now)
        if self._barrier_ctas:
            self._release_barriers()
        issued = self._issue_stage(now)
        ldst.cycle(now)
        if self._dirty_ctas:
            self._retire_finished_ctas()
        if issued:
            self.tracker.note_issue_cycle(self.sm_id, now)
            self.stats.inc(self._slot_active)
        later = now + 1
        if self._warps_movable():
            # Warp state can change next cycle; the walk is only needed
            # if the GPU stops without an issue, so defer it.
            self._sm_wake = later
            self._sm_next_stale = True
        else:
            # Park on the quiet horizon: each cycle before it would only
            # bump the stalls :meth:`replay_stalls` bumps.
            self._walk(now)
            quiet = self._sm_quiet
            if quiet > later:
                self._sm_wake = quiet
                self.memory_system.wait_for_credit(self.sm_id, ldst._refused)
            else:
                self._sm_wake = later
        return issued

    def _warps_movable(self) -> bool:
        """Whether a warp can issue or leave a barrier next cycle: a
        candidate, an LD/ST-blocked warp with a free LD/ST slot, or a
        barrier every live warp of its CTA has reached."""
        if any(self._ready) or (any(self._ldst_blocked)
                                and self.ldst.can_accept()):
            return True
        for cta_id in self._barrier_ctas:
            cta = self.ctas.get(cta_id)
            if cta is not None and cta.barrier_reached():
                return True
        return False

    def _walk(self, now: int) -> float:
        """Cache :meth:`_horizons` and return its visit.

        Both times only change inside the body, so the cache stays exact
        until the next body run marks it stale: the GPU asks for them
        only at stops where nothing issued, and a stop at or past the
        visit runs the body first.
        """
        self._sm_next, self._sm_quiet = self._horizons(now)
        self._sm_next_stale = False
        return self._sm_next

    def next_event_time(self, now: int) -> Optional[int]:
        """The base class's value, served from the walk cache (a cached
        visit before ``now + 1`` is a poll that goes on)."""
        visit = self._walk(now) if self._sm_next_stale else self._sm_next
        return None if visit == math.inf else max(int(visit), now + 1)

    def quiet_horizon(self, now: int) -> float:
        """Earliest cycle after ``now`` at which the SM can change state
        without a memory reply.

        Quiet means: no warp is a candidate, LD/ST-blocked warps stay
        blocked, no barrier can release, and the LD/ST unit is quiet;
        the horizon is then the earlier of the next ALU completion and
        the LD/ST unit's horizon.  Each cycle before it bumps every
        scheduler's issue-idle counter plus the LD/ST stalls, which
        :meth:`replay_stalls` bumps for a jump of the GPU's clock and
        for the cycles the SM sleeps through parked on this horizon.
        The other outside input besides a reply is a freed
        request-network credit for a miss-queue head ``try_inject``
        refused; a parked SM registers for it with
        :meth:`~repro.memory.subsystem.MemorySystem.wait_for_credit`.
        """
        if self._warps_movable():
            return now + 1
        if self._sm_next_stale:
            self._walk(now)
        return self._sm_quiet

    def replay_stalls(self, cycles: int) -> None:
        """Bump what ``cycles`` quiet cycles would (see
        :meth:`quiet_horizon`)."""
        self.stats.inc(self._slot_idle, self._num_schedulers * cycles)
        self.ldst.replay_stalls(cycles)

    def _release_barriers(self) -> None:
        # Only CTAs with at least one warp at a barrier (tracked at BAR
        # issue) can release; the reference path reaches the same
        # conclusion by scanning every CTA.
        for cta_id in sorted(self._barrier_ctas):
            cta = self.ctas.get(cta_id)
            if cta is None:  # pragma: no cover - barrier CTAs cannot retire
                self._barrier_ctas.discard(cta_id)
                continue
            if cta.barrier_reached():
                cta.release_barrier()
                self._barrier_ctas.discard(cta_id)
                self.stats.add("barriers_released")
                for warp in cta.warps:
                    self._wake_warp(warp)

    def _retire_finished_ctas(self) -> None:
        # A CTA can only have become all-done in a cycle where one of
        # its warps retired, so checking the dirty set is equivalent
        # to scanning every resident CTA (both retire in CTA-id
        # order: CTAs are assigned, and therefore finish dirty-set
        # membership checks, in ascending id order).
        if not self._dirty_ctas:
            return
        finished = sorted(cta_id for cta_id in self._dirty_ctas
                          if cta_id in self.ctas
                          and self.ctas[cta_id].all_done())
        self._dirty_ctas.clear()
        self._retire_ctas(finished)

    def _issue_stage(self, now: int) -> bool:
        if not any(self._ready) and (
            not any(self._ldst_blocked) or not self.ldst.can_accept()
        ):
            # No scheduler has a candidate; account the per-scheduler
            # idle cycles in one shot (same counter totals as the loop).
            self.stats.inc(self._slot_idle, self._num_schedulers)
            return False
        issued_any = False
        stats = self.stats
        ldst = self.ldst
        for scheduler in self.schedulers:
            index = scheduler.scheduler_id
            blocked = self._ldst_blocked[index]
            if blocked and ldst.can_accept():
                self._ready[index].update(blocked)
                blocked.clear()
            candidates = (
                self._collect_candidates(index) if self._ready[index] else []
            )
            # scheduler.select is pure for empty candidate lists, so it
            # is only consulted when there is something to pick from.
            warp = scheduler.select(candidates, now) if candidates else None
            if warp is None:
                stats.inc(self._slot_idle)
                continue
            self._issue(warp, now)
            scheduler.notify_issue(warp, now)
            warp.last_issue_cycle = now
            warp.instructions_issued += 1
            issued_any = True
            stats.inc(self._slot_issued)
            following = warp.next_instruction()
            if (following is not None
                    and warp.scoreboard.has_hazard(following)):
                # Park now rather than re-find the hazard next cycle;
                # _wake_warp re-inserts the warp on the release.
                self._ready[index].pop(warp.warp_id, None)
        return issued_any

    def _collect_candidates(self, index: int) -> List[Warp]:
        """Evaluate the scheduler's ready set, parking blocked warps.

        Mirrors :meth:`StreamingMultiprocessor._warp_ready` (same checks,
        same order, same ``finish()`` side effect) but records *why* a
        warp is not ready so it can leave the ready set until the
        blocking condition can change.
        """
        ready = self._ready[index]
        blocked = self._ldst_blocked[index]
        ldst = self.ldst
        candidates: List[Warp] = []
        parked: List[int] = []
        for warp_id, warp in ready.items():
            if warp.done or warp.at_barrier:
                parked.append(warp_id)
                continue
            instruction = warp.next_instruction()
            if instruction is None:
                warp.finish()
                self._note_warp_done(warp)
                parked.append(warp_id)
                continue
            if warp.scoreboard.has_hazard(instruction):
                # Re-inserted by _wake_warp on a scoreboard release.
                parked.append(warp_id)
                continue
            if instruction.is_memory and not ldst.can_accept():
                # Re-inserted when the LD/ST unit has a free slot.
                blocked[warp_id] = warp
                parked.append(warp_id)
                continue
            candidates.append(warp)
        for warp_id in parked:
            del ready[warp_id]
        if len(candidates) > 1:
            # Reference candidate order is ascending warp_id (resident
            # warps are stored in launch order).
            candidates.sort(key=lambda warp: warp.warp_id)
        return candidates


register_core_backend(CoreBackend(
    name="reference",
    factory=ReferenceCore,
    exact=True,
    reference_memory=True,
    description=("trusted straight-line loop: scan every warp, tick every "
                 "component, every cycle (golden baseline)"),
))

register_core_backend(CoreBackend(
    name="fast",
    factory=FastCore,
    exact=True,
    description=("event-skipping ready-set core (default); byte-identical "
                 "to reference"),
))
