"""Warp execution state.

A :class:`Warp` bundles everything the SM needs to execute 32 threads in
lock-step: the per-lane register files, the SIMT reconvergence stack, the
scoreboard, and scheduling metadata (barrier state, last issue cycle, ...).
"""

from __future__ import annotations


import numpy as np

from repro.isa.program import Program
from repro.simt.scoreboard import Scoreboard
from repro.simt.simt_stack import SIMTStack


class Warp:
    """One warp (32 threads) resident on an SM."""

    def __init__(
        self,
        warp_id: int,
        warp_in_cta: int,
        cta_id: int,
        sm_id: int,
        program: Program,
        warp_size: int,
        valid_mask: np.ndarray,
    ) -> None:
        self.warp_id = warp_id
        self.warp_in_cta = warp_in_cta
        self.cta_id = cta_id
        self.sm_id = sm_id
        self.program = program
        self.warp_size = warp_size
        self.valid_mask = valid_mask.copy()
        self.registers = np.zeros((program.num_registers, warp_size),
                                  dtype=np.float64)
        self.predicates = np.zeros((program.num_predicates, warp_size),
                                   dtype=bool)
        self.stack = SIMTStack(valid_mask)
        self._instructions = program.instructions
        self.scoreboard = Scoreboard()
        self.exited = ~valid_mask.copy()
        self.at_barrier = False
        self.done = not bool(valid_mask.any())
        self.last_issue_cycle = -1
        self.instructions_issued = 0
        self.launch_order = warp_id
        #: Id of the kernel launch this warp belongs to (set by the SM at
        #: CTA placement); memory requests inherit it for per-kernel
        #: stat attribution in multi-kernel scenarios.
        self.launch_id = 0

    # ------------------------------------------------------------------
    # Control state
    # ------------------------------------------------------------------
    @property
    def pc(self) -> int:
        """Current program counter (top of the SIMT stack)."""
        return self.stack.entries[-1].pc

    @property
    def active_mask(self) -> np.ndarray:
        """Lanes that will execute the next instruction (a fresh array).

        No ``& ~exited`` is needed: :meth:`exit_lanes` kills exited lanes
        on every stack entry, and branches only split the top entry.
        """
        return self.stack.entries[-1].mask.copy()

    def next_instruction(self):
        """The instruction at the current PC, or ``None`` past program end."""
        if self.done:
            return None
        pc = self.stack.entries[-1].pc
        instructions = self._instructions
        if pc >= len(instructions):
            return None
        return instructions[pc]

    def exit_lanes(self, mask: np.ndarray) -> None:
        """Retire the given lanes; the warp finishes when none remain."""
        self.exited = self.exited | mask
        self.stack.kill_lanes(mask)
        if not bool((~self.exited & self.valid_mask).any()):
            self.done = True
            self.scoreboard.clear()

    def finish(self) -> None:
        """Force-retire the whole warp (used when the PC runs off the end)."""
        self.exit_lanes(self.valid_mask.copy())

    # ------------------------------------------------------------------
    # Lane geometry (used for special registers)
    # ------------------------------------------------------------------
    def lane_indices(self) -> np.ndarray:
        """Per-lane lane IDs (0..warp_size-1)."""
        return np.arange(self.warp_size, dtype=np.float64)

    def thread_indices(self, block_dim: int) -> np.ndarray:
        """Per-lane thread IDs within the CTA."""
        base = self.warp_in_cta * self.warp_size
        tids = base + np.arange(self.warp_size, dtype=np.float64)
        return np.minimum(tids, block_dim - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"pc={self.pc}"
        return (
            f"Warp(sm{self.sm_id} cta{self.cta_id} w{self.warp_in_cta} "
            f"{state} lanes={int(self.active_mask.sum())})"
        )
