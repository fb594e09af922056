"""Instruction representation.

An :class:`Instruction` is an immutable description of a single static
operation: opcode, destination, source operands, optional guard predicate,
and — for branches and memory operations — the attributes needed by the
SIMT stack and the load/store unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple, Union

from repro.isa.opcodes import CmpOp, MemSpace, Opcode, Unit, unit_for
from repro.isa.operands import Imm, Param, Pred, Reg, Special

SourceOperand = Union[Reg, Pred, Imm, Special, Param]
Destination = Union[Reg, Pred]


@dataclass
class Instruction:
    """A single static instruction of a kernel program.

    Attributes
    ----------
    opcode:
        The operation to perform.
    dst:
        Destination register (general or predicate), or ``None`` for
        stores, branches, and other result-less operations.
    srcs:
        Source operands, in operation-specific order.
    guard:
        Optional ``(predicate, negated)`` pair; lanes where the guard
        evaluates false are masked off for this instruction.
    cmp:
        Comparison operator (SETP only).
    space:
        Memory space (LD/ST only).
    offset:
        Constant byte offset added to the computed address (LD/ST only).
    target:
        Branch target PC (BRA only; patched by the assembler).
    reconv:
        Reconvergence PC used by the SIMT stack (BRA only).
    pc:
        Position of the instruction in its program, set by the assembler.
    comment:
        Free-form annotation used only for disassembly output.
    """

    opcode: Opcode
    dst: Optional[Destination] = None
    srcs: Tuple[SourceOperand, ...] = field(default_factory=tuple)
    guard: Optional[Tuple[Pred, bool]] = None
    cmp: Optional[CmpOp] = None
    space: Optional[MemSpace] = None
    offset: int = 0
    target: Optional[int] = None
    reconv: Optional[int] = None
    pc: int = -1
    comment: str = ""

    #: Decode-once form set by :func:`repro.isa.decode.decode` on first
    #: issue (a plain class attribute, not a dataclass field: it takes
    #: no part in construction, comparison or ``repr``).
    decoded = None

    def __getstate__(self) -> dict:
        # The decoded form is a per-process cache whose evaluators need
        # not pickle; the next issue rebuilds it.
        state = dict(self.__dict__)
        state.pop("decoded", None)
        return state

    @property
    def unit(self) -> Unit:
        """Functional unit class that executes this instruction."""
        return unit_for(self.opcode)

    @property
    def is_load(self) -> bool:
        """Whether this is a load from any memory space."""
        return self.opcode is Opcode.LD

    @property
    def is_store(self) -> bool:
        """Whether this is a store to any memory space."""
        return self.opcode is Opcode.ST

    @cached_property
    def is_memory(self) -> bool:
        """Whether this instruction goes through the load/store unit
        (cached)."""
        return self.opcode in (Opcode.LD, Opcode.ST)

    @property
    def is_branch(self) -> bool:
        """Whether this instruction may change control flow."""
        return self.opcode is Opcode.BRA

    @property
    def is_exit(self) -> bool:
        """Whether this instruction terminates the executing threads."""
        return self.opcode is Opcode.EXIT

    def reads_registers(self) -> Tuple[Reg, ...]:
        """General-purpose registers read by this instruction."""
        return tuple(op for op in self.srcs if isinstance(op, Reg))

    def reads_predicates(self) -> Tuple[Pred, ...]:
        """Predicate registers read by this instruction (incl. the guard)."""
        preds = [op for op in self.srcs if isinstance(op, Pred)]
        if self.guard is not None:
            preds.append(self.guard[0])
        return tuple(preds)

    def writes_register(self) -> Optional[Reg]:
        """The general-purpose register written, if any."""
        return self.dst if isinstance(self.dst, Reg) else None

    def writes_predicate(self) -> Optional[Pred]:
        """The predicate register written, if any."""
        return self.dst if isinstance(self.dst, Pred) else None

    # The index tuples below are what the per-cycle scoreboard hazard check
    # actually consumes.  Operands never change after assembly (only
    # ``pc``/``target``/``reconv`` are patched), so they are cached per
    # static instruction rather than rebuilt on every issue attempt.
    @cached_property
    def src_reg_indices(self) -> Tuple[int, ...]:
        """Indices of the general-purpose registers read (cached)."""
        return tuple(op.index for op in self.reads_registers())

    @cached_property
    def src_pred_indices(self) -> Tuple[int, ...]:
        """Indices of the predicate registers read, incl. guard (cached)."""
        return tuple(op.index for op in self.reads_predicates())

    @cached_property
    def dst_reg_index(self) -> Optional[int]:
        """Index of the general-purpose register written (cached)."""
        dst = self.writes_register()
        return None if dst is None else dst.index

    @cached_property
    def dst_pred_index(self) -> Optional[int]:
        """Index of the predicate register written (cached)."""
        dst = self.writes_predicate()
        return None if dst is None else dst.index

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            pred, negated = self.guard
            parts.append(f"@{'!' if negated else ''}{pred}")
        name = self.opcode.value
        if self.opcode is Opcode.SETP and self.cmp is not None:
            name = f"setp.{self.cmp.value}"
        if self.space is not None:
            name = f"{name}.{self.space.value}"
        parts.append(name)
        operands = []
        if self.dst is not None:
            operands.append(repr(self.dst))
        operands.extend(repr(s) for s in self.srcs)
        if self.opcode is Opcode.BRA:
            operands.append(f"-> {self.target} (reconv {self.reconv})")
        if self.is_memory and self.offset:
            operands.append(f"+{self.offset}")
        text = " ".join(parts) + " " + ", ".join(operands)
        if self.comment:
            text += f"    ; {self.comment}"
        return text.strip()
