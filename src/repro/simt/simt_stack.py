"""SIMT reconvergence stack.

Warps execute in lock-step; when a branch diverges, the stack keeps one
entry per control-flow path together with the mask of lanes following it
and the PC at which the paths reconverge (the branch's immediate
post-dominator, supplied by the kernel builder).  Execution always follows
the top-of-stack entry; an entry is popped when its PC reaches its
reconvergence point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.errors import SimulationError


@dataclass
class StackEntry:
    """One control-flow path being executed by a warp."""

    pc: int
    reconv: Optional[int]
    mask: np.ndarray


class SIMTStack:
    """Per-warp divergence/reconvergence stack."""

    def __init__(self, initial_mask: np.ndarray, start_pc: int = 0) -> None:
        #: Paths, bottom first; the last entry controls execution.
        self.entries: List[StackEntry] = [
            StackEntry(pc=start_pc, reconv=None, mask=initial_mask.copy())
        ]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of entries currently on the stack."""
        return len(self.entries)

    @property
    def top(self) -> StackEntry:
        """The entry controlling execution."""
        return self.entries[-1]

    @property
    def pc(self) -> int:
        """Current program counter of the warp."""
        return self.top.pc

    @property
    def active_mask(self) -> np.ndarray:
        """Lanes executing the current path."""
        return self.top.mask

    def any_active(self) -> bool:
        """Whether any lane is active on the current path."""
        return bool(self.top.mask.any())

    # ------------------------------------------------------------------
    # Control flow updates
    # ------------------------------------------------------------------
    def advance(self, next_pc: int) -> None:
        """Move the current path to ``next_pc`` and reconverge if reached."""
        entries = self.entries
        entries[-1].pc = next_pc
        if len(entries) > 1:  # a lone entry never reconverges or prunes
            self._reconverge()

    def branch(
        self,
        taken_mask: np.ndarray,
        target: int,
        reconv: Optional[int],
        fallthrough_pc: int,
    ) -> None:
        """Apply a (potentially divergent) branch to the current path.

        ``taken_mask`` must be a subset of the current active mask.  If all
        active lanes agree, the warp simply jumps; otherwise the current
        entry is parked at the reconvergence PC and one entry per path is
        pushed (fall-through path on top, so it executes first).
        """
        active = self.top.mask
        if bool(np.any(taken_mask & ~active)):
            raise SimulationError("branch taken mask exceeds the active mask")
        not_taken = active & ~taken_mask
        if not taken_mask.any():
            self.advance(fallthrough_pc)
            return
        if not not_taken.any():
            self.advance(target)
            return
        if reconv is None:
            raise SimulationError("divergent branch requires a reconvergence PC")
        self.top.pc = reconv
        self.entries.append(StackEntry(pc=target, reconv=reconv,
                                       mask=taken_mask.copy()))
        self.entries.append(StackEntry(pc=fallthrough_pc, reconv=reconv,
                                       mask=not_taken.copy()))
        self._reconverge()

    def kill_lanes(self, mask: np.ndarray) -> None:
        """Permanently deactivate lanes (EXIT) on every path."""
        for entry in self.entries:
            entry.mask = entry.mask & ~mask
        self._prune()

    def _reconverge(self) -> None:
        while (
            len(self.entries) > 1
            and self.top.reconv is not None
            and self.top.pc == self.top.reconv
        ):
            self.entries.pop()
        self._prune()

    def _prune(self) -> None:
        while len(self.entries) > 1 and not self.top.mask.any():
            self.entries.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"(pc={e.pc}, reconv={e.reconv}, lanes={int(e.mask.sum())})"
            for e in self.entries
        ]
        return "SIMTStack[" + " ".join(parts) + "]"
