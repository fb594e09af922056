"""Top-level GPU: SMs + memory system + kernel launch and simulation loop.

Kernels enter the device through two surfaces:

* :meth:`GPU.launch` — the classic blocking call: run one grid to
  completion and return its :class:`KernelResult`.  It is a thin
  wrapper over the stream machinery below and produces byte-identical
  results to the historical single-kernel loop.
* :meth:`GPU.submit` / :meth:`GPU.run_until_idle` — the concurrent
  path.  ``submit`` enqueues a launch onto an integer-identified
  *stream* without simulating anything; ``run_until_idle`` then drives
  the clock with CTAs of every resident kernel interleaved.  Launches
  on the same stream run in order (a successor's CTAs dispatch only
  once the predecessor's last CTA has retired); launches on different
  streams run concurrently, either sharing all SMs or pinned to
  disjoint SM subsets via ``sm_mask``.

Per-kernel attribution: while multiple kernels are resident, every
statistic increment is charged to the launch that caused it (see
:mod:`repro.utils.stats`), so each :class:`KernelResult` of a scenario
carries its own counters and the per-kernel stats sum to the
whole-device delta up to an explicitly unattributed residual (memory
system internals and idle-SM bookkeeping).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, ClassVar, Deque, Dict, Iterable, List, Optional,
                    Tuple)

from repro.core.tracker import LatencyTracker
from repro.gpu.config import GPUConfig
from repro.isa.program import Program
from repro.memory.globalmem import GlobalMemory
from repro.memory.subsystem import MemorySystem
from repro.simt.backend import get_core_backend
from repro.simt.core import CTAContext, KernelLaunch, StreamingMultiprocessor
from repro.utils.errors import ConfigurationError, SimulationError
from repro.utils.stats import _ATTRIBUTION, StatCounters


@dataclass
class KernelResult:
    """Outcome of one kernel launch.

    Attributes
    ----------
    kernel_name:
        Name of the launched program.
    cycles:
        Simulated cycles from launch to completion of all CTAs (and,
        for :meth:`GPU.launch`, draining of all in-flight memory
        traffic).
    start_cycle / end_cycle:
        Absolute simulation cycle numbers of launch and completion.
    instructions:
        Warp-level instructions issued during the launch.
    stats:
        Aggregated counters from all SMs and the memory system.  For
        :meth:`GPU.launch` these are whole-device deltas over the
        launch; for attributed scenario runs they are the counters
        charged to this launch specifically.
    launch_id / stream:
        Identity of the launch: its GPU-unique id and the stream it was
        submitted on (both 0 for plain :meth:`GPU.launch`).
    overlap_cycles:
        Cycles of this launch's execution window during which at least
        one other launch of the same scenario was also executing
        (0 outside scenarios).
    """

    kernel_name: str
    cycles: int
    start_cycle: int
    end_cycle: int
    instructions: int
    stats: Dict[str, float] = field(default_factory=dict)
    launch_id: int = 0
    stream: int = 0
    overlap_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Warp-level instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class LaunchHandle:
    """One submitted kernel launch, tracked from enqueue to retirement.

    Returned by :meth:`GPU.submit`; consumed by
    :meth:`GPU.run_until_idle`.  The handle exposes progress state but
    is driven entirely by the GPU — user code never mutates it.

    Attributes
    ----------
    launch_id:
        GPU-unique id of the launch (monotonic submission order).
    kernel:
        The underlying :class:`KernelLaunch`.
    stream:
        Integer stream id the launch was submitted on.
    sm_ids:
        SM subset the launch may occupy (``None`` = all SMs).
    start_cycle / end_cycle:
        Activation cycle and the cycle the last CTA retired
        (-1 while not yet reached).
    """

    __slots__ = (
        "launch_id", "kernel", "stream", "sm_ids", "limit",
        "pending_ctas", "outstanding", "activated", "ctas_done",
        "start_cycle", "end_cycle",
    )

    def __init__(self, launch_id: int, kernel: KernelLaunch, stream: int,
                 sm_ids: Optional[Tuple[int, ...]], limit: int) -> None:
        self.launch_id = launch_id
        self.kernel = kernel
        self.stream = stream
        self.sm_ids = sm_ids
        self.limit = limit
        self.pending_ctas: Deque[int] = deque(range(kernel.grid_dim))
        #: CTAs dispatched to an SM but not yet retired.
        self.outstanding = 0
        self.activated = False
        self.ctas_done = False
        self.start_cycle = -1
        self.end_cycle = -1

    @property
    def kernel_name(self) -> str:
        """Name of the launched program."""
        return self.kernel.program.name

    @property
    def done(self) -> bool:
        """Whether every CTA of this launch has retired."""
        return self.ctas_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.ctas_done
                 else "active" if self.activated else "queued")
        return (
            f"LaunchHandle(#{self.launch_id} {self.kernel_name!r} "
            f"stream={self.stream} {state})"
        )


class GPU:
    """A complete simulated GPU.

    Parameters
    ----------
    config:
        The GPU configuration (use the presets in
        :mod:`repro.gpu.configs` or build your own).
    tracker:
        Latency instrumentation shared by all components.  A fresh enabled
        tracker is created when omitted.
    """

    def __init__(self, config: GPUConfig,
                 tracker: Optional[LatencyTracker] = None) -> None:
        self.config = config
        self.tracker = tracker if tracker is not None else LatencyTracker()
        self.global_memory = GlobalMemory(config.global_memory_bytes)
        # Core-backend dispatch: the registered backend supplies the SM
        # factory and decides whether the memory system runs its
        # straight-line (reference) loop.
        backend = get_core_backend(config.core_backend)
        self.core_backend = backend
        self.memory_system = MemorySystem(
            num_sms=config.num_sms,
            mapping=config.mapping,
            icnt_config=config.interconnect,
            partition_config=config.partition,
            tracker=self.tracker,
            reference_memory=backend.reference_memory,
        )
        self.sms: List[StreamingMultiprocessor] = [
            backend.factory(
                sm_id=sm_id,
                config=config.core,
                memory_system=self.memory_system,
                global_memory=self.global_memory,
                tracker=self.tracker,
            )
            for sm_id in range(config.num_sms)
        ]
        for sm in self.sms:
            sm.on_cta_retired = self._on_cta_retired
        self.cycle = 0
        self.kernels_launched = 0
        # Stream state: per-stream FIFO of handles whose CTAs have not
        # all retired (head = currently runnable launch of the stream),
        # activated-but-unfinished handles in activation order, and the
        # submission-ordered list run_until_idle() will report on.
        self._streams: Dict[int, Deque[LaunchHandle]] = {}
        self._active: List[LaunchHandle] = []
        self._streams_dirty = True
        self._cta_retired = False
        self._unreported: List[LaunchHandle] = []
        self._attributing = False

    # ------------------------------------------------------------------
    # Memory convenience wrappers
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, name: Optional[str] = None) -> int:
        """Allocate global memory (see :meth:`GlobalMemory.allocate`)."""
        return self.global_memory.allocate(nbytes, name=name)

    # ------------------------------------------------------------------
    # Kernel submission (non-blocking) and scenario drive
    # ------------------------------------------------------------------
    def submit(
        self,
        program: Program,
        grid_dim: int,
        block_dim: int,
        params: Optional[Dict[str, float]] = None,
        local_base: Optional[int] = None,
        max_cycles: Optional[int] = None,
        stream: int = 0,
        sm_mask: Optional[Iterable[int]] = None,
    ) -> LaunchHandle:
        """Enqueue a kernel launch without simulating anything.

        The launch joins the FIFO of ``stream``; it begins executing
        (during :meth:`run_until_idle` or the :meth:`launch` wrapper)
        once every earlier launch on the same stream has retired all of
        its CTAs.  ``sm_mask`` restricts the launch to a subset of SMs —
        give concurrent launches disjoint masks for a partitioned
        scenario, or leave it ``None`` to share the whole machine.
        Returns a :class:`LaunchHandle` identifying the launch.
        """
        if stream < 0:
            raise ConfigurationError(f"stream id must be >= 0, got {stream}")
        sm_ids: Optional[Tuple[int, ...]] = None
        if sm_mask is not None:
            sm_ids = tuple(sorted({int(sm_id) for sm_id in sm_mask}))
            if not sm_ids:
                raise ConfigurationError("sm_mask must name at least one SM")
            bad = [i for i in sm_ids if i < 0 or i >= self.config.num_sms]
            if bad:
                raise ConfigurationError(
                    f"sm_mask names invalid SM(s) {bad}; "
                    f"this GPU has SMs 0..{self.config.num_sms - 1}"
                )
        params = dict(params or {})
        total_threads = grid_dim * block_dim
        if program.local_bytes and local_base is None:
            local_base = self.global_memory.allocate(
                program.local_bytes * total_threads,
                name=f"{program.name}.local.{self.kernels_launched}",
            )
        launch = KernelLaunch(
            program=program,
            grid_dim=grid_dim,
            block_dim=block_dim,
            params=params,
            local_base=local_base if local_base is not None else 0,
            launch_id=self.kernels_launched,
        )
        self.kernels_launched += 1
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        handle = LaunchHandle(
            launch_id=launch.launch_id,
            kernel=launch,
            stream=stream,
            sm_ids=sm_ids,
            limit=limit,
        )
        self._streams.setdefault(stream, deque()).append(handle)
        self._unreported.append(handle)
        return handle

    def run_until_idle(
        self, attribute: Optional[bool] = None
    ) -> List[KernelResult]:
        """Run every submitted launch to completion and report each one.

        Drives the cycle loop until all streams have drained and the
        memory system is quiescent, then returns one
        :class:`KernelResult` per launch submitted since the previous
        drain, in submission order.

        ``attribute`` controls per-kernel stat attribution: when
        ``True`` each result's ``stats``/``instructions`` are the
        counters charged to that launch alone; when ``False`` (only
        meaningful for a single launch) they are whole-device deltas.
        The default attributes exactly when more than one launch is
        outstanding.
        """
        handles = list(self._unreported)
        if not handles:
            return []
        if attribute is None:
            attribute = sum(1 for h in handles if not h.ctas_done) > 1
        start_stats: Dict[str, float] = {}
        start_instructions = 0
        if not attribute:
            start_stats = self.collect_stats().as_dict()
            start_instructions = self._instructions_issued()
        self._drive(attribute=attribute)
        results = []
        for handle in handles:
            if attribute:
                attributed = self.collect_stats(handle.launch_id).as_dict()
                stats = {key: attributed[key] for key in sorted(attributed)}
                instructions = self._instructions_issued(handle.launch_id)
            else:
                stats = self._stats_delta(start_stats)
                instructions = self._instructions_issued() - start_instructions
            others = [h for h in handles if h is not handle]
            results.append(KernelResult(
                kernel_name=handle.kernel_name,
                cycles=handle.end_cycle - handle.start_cycle,
                start_cycle=handle.start_cycle,
                end_cycle=handle.end_cycle,
                instructions=instructions,
                stats=stats,
                launch_id=handle.launch_id,
                stream=handle.stream,
                overlap_cycles=self._overlap_cycles(handle, others),
            ))
        self._unreported = []
        self.cycle += 1
        return results

    # ------------------------------------------------------------------
    # Kernel launch (blocking wrapper)
    # ------------------------------------------------------------------
    def launch(
        self,
        program: Program,
        grid_dim: int,
        block_dim: int,
        params: Optional[Dict[str, float]] = None,
        local_base: Optional[int] = None,
        max_cycles: Optional[int] = None,
    ) -> KernelResult:
        """Execute one kernel grid to completion and return its result.

        The simulation is cycle driven with an idle fast-forward: when no
        warp can issue, the clock jumps to the next cycle at which any
        component (pipeline, queue, DRAM bank, ...) has work, which makes
        single-warp microbenchmarks cheap to simulate.

        Equivalent to :meth:`submit` + :meth:`run_until_idle` for a
        single kernel, but reports the historical whole-device view:
        ``end_cycle`` covers the memory-drain tail and ``stats`` are
        device-wide deltas over the launch.
        """
        if self._unreported:
            raise SimulationError(
                f"GPU.launch cannot run while {len(self._unreported)} "
                "submitted launch(es) are outstanding; "
                "call run_until_idle() first"
            )
        start_cycle = self.cycle
        handle = self.submit(
            program,
            grid_dim=grid_dim,
            block_dim=block_dim,
            params=params,
            local_base=local_base,
            max_cycles=max_cycles,
        )
        start_instructions = self._instructions_issued()
        start_stats = self.collect_stats().as_dict()
        self._drive(attribute=False)
        end_cycle = self.cycle
        stats_delta = self._stats_delta(start_stats)
        self.cycle += 1
        self._unreported = []
        return KernelResult(
            kernel_name=program.name,
            cycles=end_cycle - start_cycle,
            start_cycle=start_cycle,
            end_cycle=end_cycle,
            instructions=self._instructions_issued() - start_instructions,
            stats=stats_delta,
            launch_id=handle.launch_id,
            stream=handle.stream,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drive(self, attribute: bool = False) -> None:
        """The cycle loop: run until all streams and the memory drain.

        With ``attribute=True``, each SM's cycle runs under the
        attribution context of its resident launch so every counter
        increment is charged to the kernel that caused it (the memory
        system refines the blanket per request; its own per-cycle work
        stays unattributed).

        When every SM's backend opts in (``supports_device_skip``), the
        loop runs through :meth:`_drive_skip`, which reads each SM's
        quiescence gate so fully parked SMs are skipped wholesale, and
        which sleeps through stalls.  The loop here serves the engines
        that do neither (``reference`` and third-party backends built on
        the base class): it visits every cycle at which any component
        has work.
        """
        self._attributing = attribute
        try:
            self._activate_streams()
            self._dispatch_ctas()
            if self.sms and all(
                getattr(sm, "supports_device_skip", False)
                for sm in self.sms
            ):
                self._drive_skip(attribute)
                return
            sms = self.sms
            while True:
                self.memory_system.cycle(self.cycle)
                issued = False
                if attribute:
                    for sm in sms:
                        resident = sm._resident_launch
                        _ATTRIBUTION[0] = (resident.launch_id
                                           if resident is not None else None)
                        issued = sm.cycle(self.cycle) or issued
                    _ATTRIBUTION[0] = None
                else:
                    for sm in sms:
                        issued = sm.cycle(self.cycle) or issued
                self._activate_streams()
                self._dispatch_ctas()
                if self._all_idle():
                    break
                self._check_limits()
                self._advance_clock(issued)
        finally:
            self._attributing = False
            _ATTRIBUTION[0] = None

    def _drive_skip(self, attribute: bool) -> None:
        """Gated variant of the cycle loop (``fast`` and its kin).

        Mirrors each SM's cached wake time (``sm._sm_wake``) in a local
        array so a parked SM costs one comparison and one deque
        truthiness test per cycle — no method call, no per-cycle stats
        increment.  An SM parks until its quiet horizon: each skipped
        cycle would only bump the per-scheduler issue-idle counters and
        the LD/ST stall counters its last walk reported (see
        ``FastCore.quiet_horizon``).  Those are accumulated per SM
        (``pending``) together with the attribution target resident at
        the start of the skip window (constant throughout it:
        retirement happens only inside the body and CTA dispatch resyncs
        the wake mirror) and replayed in one batch before the next body
        run — float counter sums of integer amounts are exact, so totals
        stay byte-identical to the per-cycle loop.  Two inputs end a park
        early: a memory reply (``sm._reply_entries``), and a freed
        request-network credit the SM registered for, which the memory
        body reports in ``memory.credit_woken`` before the SMs run.  The
        clock moves through :meth:`_advance_clock` as in the generic
        loop, which asks only the SMs that are not parked for their next
        event and quiet horizon; the parked ones are credited the jumped
        cycles in ``pending`` too.
        """
        sms = self.sms
        num_sms = len(sms)
        sm_range = range(num_sms)
        memory = self.memory_system
        # Wake mirror: refreshed after every body run and after CTA
        # dispatch (launch_cta resets the SM's own wake to 0).
        wake: List[float] = [sm._sm_wake for sm in sms]
        replies = [sm._reply_entries for sm in sms]
        credit_woken = memory.credit_woken
        credit_woken.clear()
        pending = [0] * num_sms
        pending_launch: List[Optional[int]] = [None] * num_sms

        def flush(index: int) -> None:
            count = pending[index]
            pending[index] = 0
            if attribute:
                _ATTRIBUTION[0] = pending_launch[index]
                sms[index].replay_stalls(count)
                _ATTRIBUTION[0] = None
            else:
                sms[index].replay_stalls(count)

        parked: List[int] = []

        def park(later: int) -> Tuple[List[StreamingMultiprocessor],
                                      float, bool]:
            # An SM gated past the next cycle stays gated through any
            # jump that ends by its wake; its next event is the wake, or
            # the next cycle while it polls.  The rest must each report
            # both.
            parked.clear()
            awake = []
            bound = math.inf
            polls = False
            for index in sm_range:
                if later < wake[index] and not replies[index]:
                    parked.append(index)
                    if wake[index] < bound:
                        bound = wake[index]
                    if sms[index]._sm_next < wake[index]:
                        polls = True
                else:
                    awake.append(sms[index])
            return awake, bound, polls

        self._streams_dirty = False  # _drive just ran activation
        self._cta_retired = False  # ... and dispatch
        try:
            while True:
                now = self.cycle
                memory.cycle(now)
                if credit_woken:
                    for index in credit_woken:
                        wake[index] = now
                    credit_woken.clear()
                issued = False
                for index in sm_range:
                    if now < wake[index] and not replies[index]:
                        if not pending[index]:
                            resident = sms[index]._resident_launch
                            pending_launch[index] = (
                                resident.launch_id
                                if resident is not None else None)
                        pending[index] += 1
                        continue
                    sm = sms[index]
                    if pending[index]:
                        flush(index)
                    if attribute:
                        resident = sm._resident_launch
                        _ATTRIBUTION[0] = (resident.launch_id
                                           if resident is not None else None)
                        issued = sm.cycle(now) or issued
                        _ATTRIBUTION[0] = None
                    else:
                        issued = sm.cycle(now) or issued
                    wake[index] = sm._sm_wake
                # Stream activation only changes state after a launch
                # retires, and an SM can only take another CTA after one
                # retires (both flagged by _on_cta_retired); submissions
                # cannot arrive mid-drive.
                if self._streams_dirty:
                    self._streams_dirty = False
                    self._activate_streams()
                if self._cta_retired:
                    self._cta_retired = False
                    if any(handle.pending_ctas for handle in self._active):
                        self._dispatch_ctas()
                        for index in sm_range:
                            wake[index] = sms[index]._sm_wake
                if self._all_idle():
                    break
                self._check_limits()
                jumped = self._advance_clock(issued, park)
                for index in parked if jumped else ():
                    if not pending[index]:
                        resident = sms[index]._resident_launch
                        pending_launch[index] = (
                            resident.launch_id
                            if resident is not None else None)
                    pending[index] += jumped
        finally:
            for index in sm_range:
                if pending[index]:
                    flush(index)

    def _activate_streams(self) -> None:
        """Activate the head launch of every stream whose turn has come.

        Streams are visited in sorted id order so activation order —
        and with it CTA interleaving — is deterministic.
        """
        drained = None
        for stream_id in sorted(self._streams):
            queue = self._streams[stream_id]
            if queue:
                head = queue[0]
                if not head.activated:
                    head.activated = True
                    head.start_cycle = self.cycle
                    self._active.append(head)
            else:
                drained = [] if drained is None else drained
                drained.append(stream_id)
        if drained:
            for stream_id in drained:
                del self._streams[stream_id]

    def _dispatch_ctas(self) -> None:
        """Place pending CTAs onto SMs, round-robin across launches.

        Each round offers every active launch one CTA slot (first
        accepting SM of its subset, scanning from SM 0); rounds repeat
        until nothing places.  For a single launch this degenerates to
        the historical fill-first policy, keeping CTA placement — and
        therefore results — byte-identical for `GPU.launch`.
        """
        active = self._active
        if not active:
            return
        progress = True
        while progress:
            progress = False
            for handle in active:
                if not handle.pending_ctas:
                    continue
                kernel = handle.kernel
                sm_ids = handle.sm_ids
                candidates = (self.sms if sm_ids is None
                              else [self.sms[i] for i in sm_ids])
                for sm in candidates:
                    if sm.can_accept_cta(kernel):
                        # Charge placement bookkeeping (ctas_launched,
                        # ...) to the launch when attributing.
                        if self._attributing:
                            _ATTRIBUTION[0] = kernel.launch_id
                        try:
                            sm.launch_cta(
                                handle.pending_ctas.popleft(),
                                kernel, self.cycle,
                            )
                        finally:
                            if self._attributing:
                                _ATTRIBUTION[0] = None
                        handle.outstanding += 1
                        progress = True
                        break

    def _on_cta_retired(self, context: CTAContext) -> None:
        """SM callback: one CTA of ``context.launch`` left its SM."""
        self._cta_retired = True
        launch_id = context.launch.launch_id
        for handle in self._active:
            if handle.launch_id != launch_id:
                continue
            handle.outstanding -= 1
            if handle.outstanding == 0 and not handle.pending_ctas:
                handle.ctas_done = True
                handle.end_cycle = self.cycle
                self._active.remove(handle)
                queue = self._streams.get(handle.stream)
                if queue and queue[0] is handle:
                    queue.popleft()
                # The next head (or the drained queue) needs a pass
                # through _activate_streams; _drive_skip gates on this.
                self._streams_dirty = True
            return

    def _all_idle(self) -> bool:
        """Whether every stream has drained and the machine is quiescent."""
        if self._active or self._streams:
            return False
        if any(sm.busy() for sm in self.sms):
            return False
        return self.memory_system.in_flight() == 0

    def _check_limits(self) -> None:
        """Raise when any active launch exceeds its cycle budget."""
        for handle in self._active:
            if self.cycle - handle.start_cycle > handle.limit:
                raise SimulationError(
                    f"kernel {handle.kernel.program.name!r} "
                    f"exceeded {handle.limit} cycles"
                )

    #: Test/debug seam: when set (on the class) to a callable taking
    #: ``(gpu, issued)``, it runs at every clock-advance decision of
    #: both cycle loops (both go through ``_advance_clock``).
    _clock_check_hook: ClassVar[Optional[Callable[["GPU", bool], None]]] = None

    def _advance_clock(
            self, issued: bool,
            park: Optional[Callable[[int], Tuple[
                List[StreamingMultiprocessor], float, bool]]] = None) -> int:
        """Move the clock on from a visited cycle: the one clock-advance
        decision of both cycle loops.

        After an issue the clock moves to the next cycle.  Otherwise it
        moves to the earliest event the memory system or any SM
        reports.  The gated loop passes ``park``: given ``now + 1``, it
        picks the SMs not parked past it, the earliest wake of the
        parked ones, and whether any parked one polls.  The wakes stand
        in for the parked SMs' events (a poll for ``now + 1``), and only
        the other SMs are asked, unless the earliest event is already
        the next cycle; a memory body due next cycle settles it before
        ``park`` runs.  When the earliest event is the next cycle
        (something polls), :meth:`_sleep_through_stalls` may jump the
        clock further; the caller replays the stalled cycles of the
        parked SMs.  Returns the number of stalled cycles jumped over (0
        without a jump).
        """
        hook = type(self)._clock_check_hook
        if hook is not None:
            hook(self, issued)
        now = self.cycle
        later = now + 1
        if issued:
            self.cycle = later
            return 0
        memory = self.memory_system
        best = memory.next_event_time(now)
        if park is None:
            sms, bound, polls = self.sms, math.inf, False
        elif memory.quiet_horizon(now) <= later:
            # The memory body runs next cycle, whatever else reports.
            self.cycle = later
            return 0
        else:
            sms, bound, polls = park(later)
        if polls:
            best = later
        elif best is None or bound < best:
            best = None if bound == math.inf else int(bound)
        if best != later:
            for sm in sms:
                event_time = sm.next_event_time(now)
                if event_time is not None and (best is None
                                               or event_time < best):
                    best = event_time
        if best is None:
            raise SimulationError(
                "simulation deadlock: nothing issued and no pending events"
            )
        if best > later or park is None:
            self.cycle = best
            return 0
        self.cycle = self._sleep_through_stalls(now, sms, bound)
        return self.cycle - later

    def _sleep_through_stalls(self, now: int,
                              sms: List[StreamingMultiprocessor],
                              bound: float) -> int:
        """The cycle to move the clock to after a no-issue stop at ``now``
        whose next event is ``now + 1`` (something polls).

        The reference engine visits every cycle while something polls,
        and a visited cycle is observable: it bumps every scheduler's
        ``issue_idle_cycles`` and each blocked component's stall counter.
        When the memory system and every SM in ``sms`` report a quiet
        horizon (the earliest cycle at which their state can change
        without outside input), each cycle before the earliest of them —
        and before ``bound`` and the first cycle that would exceed an
        active launch's budget — would bump exactly those counters and
        nothing else.  So the SMs replay their stalls under the same
        attribution ``sm.cycle`` runs under, the memory system credits
        the jumped cycles as skipped body runs, and the clock jumps to
        the horizon.  Returns ``now + 1`` when anything is not quiet.
        """
        later = now + 1
        horizon = min(self.memory_system.quiet_horizon(now), bound)
        for handle in self._active:
            budget = handle.start_cycle + handle.limit + 1
            if budget < horizon:
                horizon = budget
        if horizon <= later:
            return later
        for sm in sms:
            sm_horizon = sm.quiet_horizon(now)
            if sm_horizon <= later:
                return later
            if sm_horizon < horizon:
                horizon = sm_horizon
        if horizon == math.inf:
            return later
        target = int(horizon)
        cycles = target - later
        for sm in sms:
            if self._attributing:
                resident = sm._resident_launch
                _ATTRIBUTION[0] = (resident.launch_id
                                   if resident is not None else None)
            sm.replay_stalls(cycles)
        _ATTRIBUTION[0] = None
        self.memory_system.replay_stalls(cycles)
        return target

    def _stats_delta(self, start_stats: Dict[str, float]) -> Dict[str, float]:
        """Counter changes since ``start_stats`` (a prior stats snapshot).

        Keys are sorted so the result is byte-identical regardless of the
        order in which the two simulation cores first touch each counter.
        """
        end_stats = self.collect_stats().as_dict()
        return {
            key: end_stats[key] - start_stats.get(key, 0)
            for key in sorted(end_stats)
        }

    def _instructions_issued(self, launch_id: Optional[int] = None) -> int:
        if launch_id is None:
            return int(
                sum(sm.stats.get("instructions_issued", 0)
                    for sm in self.sms)
            )
        return int(
            sum(sm.stats.launch_get(launch_id, "instructions_issued")
                for sm in self.sms)
        )

    @staticmethod
    def _overlap_cycles(handle: LaunchHandle,
                        others: List[LaunchHandle]) -> int:
        """Cycles of ``handle``'s window shared with any other window."""
        start, end = handle.start_cycle, handle.end_cycle
        if end < start:
            return 0
        windows = sorted(
            (other.start_cycle, other.end_cycle)
            for other in others
            if other.end_cycle >= other.start_cycle >= 0
        )
        total = 0
        merged_start: Optional[int] = None
        merged_end = -1
        for window_start, window_end in windows:
            if merged_start is not None and window_start <= merged_end + 1:
                merged_end = max(merged_end, window_end)
                continue
            if merged_start is not None:
                total += max(
                    0, min(end, merged_end) - max(start, merged_start) + 1
                )
            merged_start, merged_end = window_start, window_end
        if merged_start is not None:
            total += max(
                0, min(end, merged_end) - max(start, merged_start) + 1
            )
        return total

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def collect_stats(self, launch_id: Optional[int] = None) -> StatCounters:
        """Aggregate statistics from all SMs and the memory system.

        With ``launch_id``, only the counters attributed to that kernel
        launch are collected (and the ``cycles`` gauge, which is device
        state rather than a per-launch cause, is omitted).
        """
        combined = StatCounters(prefix=self.config.name)
        for sm in self.sms:
            combined.merge(sm.collect_stats(launch_id).as_dict())
        combined.merge(self.memory_system.collect_stats(launch_id).as_dict())
        if launch_id is None:
            combined.set("cycles", self.cycle)
        return combined
