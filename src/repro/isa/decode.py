"""Decode-once form of a static instruction.

Everything the issue stage needs that depends only on the static
instruction — how to dispatch it, which registers it reads and writes,
which evaluator computes it — is worked out once, on the instruction's
first issue, and cached on the instruction as a
:class:`DecodedInstruction`.  Every core backend issues from this form,
so the reference and the fast engines still share one functional path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Optional, Tuple

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, Unit
from repro.isa.operands import Imm, Pred, Reg
from repro.isa.semantics import EVALUATORS, Evaluator


class Kind(IntEnum):
    """What the issue stage does with an instruction."""

    ALU = 0    # evaluate, write back after the ALU latency
    SFU = 1    # evaluate, write back after the SFU latency
    LD = 2
    ST = 3
    BRA = 4
    EXIT = 5
    BAR = 6
    NOP = 7


#: Kinds of the opcodes that are not evaluated (memory and control).
_OPCODE_KINDS = {
    Opcode.LD: Kind.LD,
    Opcode.ST: Kind.ST,
    Opcode.BRA: Kind.BRA,
    Opcode.EXIT: Kind.EXIT,
    Opcode.BAR: Kind.BAR,
    Opcode.NOP: Kind.NOP,
}

#: Source reader tags: the payload of a ``(tag, payload)`` source is a
#: general register index, a predicate index, a read-only constant lane
#: array, or (for ``Special`` and ``Param``) the operand itself, which
#: only the core can resolve.
REG, PRED, CONST, GENERAL = range(4)


@dataclass(frozen=True, slots=True)
class DecodedInstruction:
    """The static facts the issue stage reads (see the module docstring).

    Attributes
    ----------
    kind:
        Dispatch kind; ``ALU``/``SFU`` is also the latency class.
    width:
        Warp size the constant lane arrays were built for.
    guard:
        ``(predicate index, negated)`` or ``None``.
    dst_reg / dst_pred:
        Index of the register or predicate written, or ``None``.
    sources:
        One ``(tag, payload)`` reader per source operand, in order.
    evaluate:
        The :data:`~repro.isa.semantics.EVALUATORS` entry (``ALU``/``SFU``
        only; ``None`` otherwise).
    """

    kind: Kind
    width: int
    guard: Optional[Tuple[int, bool]]
    dst_reg: Optional[int]
    dst_pred: Optional[int]
    sources: Tuple[Tuple[int, Any], ...]
    evaluate: Optional[Evaluator]


def _source(operand: Any, width: int) -> Tuple[int, Any]:
    if isinstance(operand, Reg):
        return REG, operand.index
    if isinstance(operand, Pred):
        return PRED, operand.index
    if isinstance(operand, Imm):
        constant = np.full(width, operand.value, dtype=np.float64)
        # Shared by every warp that issues the instruction: an in-place
        # write would corrupt them all, so make it fail instead.
        constant.flags.writeable = False
        return CONST, constant
    return GENERAL, operand


def decode(instruction: Instruction, width: int) -> DecodedInstruction:
    """Decode ``instruction`` for warps of ``width`` lanes and cache the
    result as ``instruction.decoded``."""
    opcode = instruction.opcode
    kind = _OPCODE_KINDS.get(opcode)
    if kind is None:
        kind = Kind.SFU if instruction.unit is Unit.SFU else Kind.ALU
    guard = instruction.guard
    decoded = DecodedInstruction(
        kind=kind,
        width=width,
        guard=None if guard is None else (guard[0].index, guard[1]),
        dst_reg=instruction.dst_reg_index,
        dst_pred=instruction.dst_pred_index,
        sources=tuple(_source(src, width) for src in instruction.srcs),
        evaluate=EVALUATORS[opcode] if kind <= Kind.SFU else None,
    )
    instruction.decoded = decoded
    return decoded
