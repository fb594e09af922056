"""Per-warp scoreboard.

The scoreboard prevents a warp from issuing an instruction whose source or
destination registers are still pending a write from an earlier,
still-in-flight instruction (RAW and WAW hazards).  Long-latency loads keep
their destination registers reserved until the memory system returns the
value — this is exactly the mechanism through which memory latency becomes
*exposed* when no other warp has issuable work.
"""

from __future__ import annotations

from typing import Set

from repro.isa.instruction import Instruction
from repro.utils.errors import SimulationError


class Scoreboard:
    """Tracks registers with outstanding writes for one warp."""

    def __init__(self) -> None:
        self._busy_regs: Set[int] = set()
        self._busy_preds: Set[int] = set()

    def pending_writes(self) -> int:
        """Number of registers (of either kind) currently reserved."""
        return len(self._busy_regs) + len(self._busy_preds)

    def has_hazard(self, instruction: Instruction) -> bool:
        """Whether ``instruction`` must wait for an outstanding write."""
        busy_regs = self._busy_regs
        if busy_regs:
            for index in instruction.src_reg_indices:
                if index in busy_regs:
                    return True
            dst_reg = instruction.dst_reg_index
            if dst_reg is not None and dst_reg in busy_regs:
                return True
        busy_preds = self._busy_preds
        if busy_preds:
            for index in instruction.src_pred_indices:
                if index in busy_preds:
                    return True
            dst_pred = instruction.dst_pred_index
            if dst_pred is not None and dst_pred in busy_preds:
                return True
        return False

    def reserve(self, instruction: Instruction) -> None:
        """Mark the instruction's destination as having a pending write."""
        dst_reg = instruction.dst_reg_index
        if dst_reg is not None:
            self._busy_regs.add(dst_reg)
        dst_pred = instruction.dst_pred_index
        if dst_pred is not None:
            self._busy_preds.add(dst_pred)

    def release(self, instruction: Instruction) -> None:
        """Clear the pending write of the instruction's destination."""
        dst_reg = instruction.dst_reg_index
        if dst_reg is not None:
            if dst_reg not in self._busy_regs:
                raise SimulationError(
                    f"release of non-busy register {instruction.dst}")
            self._busy_regs.discard(dst_reg)
        dst_pred = instruction.dst_pred_index
        if dst_pred is not None:
            if dst_pred not in self._busy_preds:
                raise SimulationError(
                    f"release of non-busy predicate {instruction.dst}")
            self._busy_preds.discard(dst_pred)

    def clear(self) -> None:
        """Drop all reservations (used when a warp is retired)."""
        self._busy_regs.clear()
        self._busy_preds.clear()
