"""Functional (value) semantics of the ISA.

The timing simulator is *execution driven*: when an instruction issues,
its result values are computed immediately by the functions in this module
while the timing model independently decides when the destination register
becomes visible to dependent instructions.

Each arithmetic, move and select opcode has exactly one evaluator in
:data:`EVALUATORS`; :func:`compute` looks it up and the decoder binds it
once per static instruction (:mod:`repro.isa.decode`).

All functions operate on per-lane numpy arrays (``float64``).  Integer
operations round-trip through ``int64``; this is exact for the address and
index arithmetic used by the bundled workloads.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode
from repro.utils.errors import SimulationError


def _as_int(values: np.ndarray) -> np.ndarray:
    return values.astype(np.int64)


#: An evaluator takes the instruction and its per-lane source arrays and
#: returns the per-lane result.
Evaluator = Callable[[Instruction, Sequence[np.ndarray]], np.ndarray]


def _integer(op: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Evaluator:
    """Evaluator applying binary ``op`` to the sources rounded to int64."""
    def evaluate(instruction: Instruction,
                 srcs: Sequence[np.ndarray]) -> np.ndarray:
        return op(_as_int(srcs[0]), _as_int(srcs[1])).astype(np.float64)
    return evaluate


def _imad(instruction: Instruction, srcs: Sequence[np.ndarray]) -> np.ndarray:
    return (_as_int(srcs[0]) * _as_int(srcs[1]) + _as_int(srcs[2])).astype(
        np.float64)


def _not(instruction: Instruction, srcs: Sequence[np.ndarray]) -> np.ndarray:
    return (~_as_int(srcs[0])).astype(np.float64)


def _guarded_divide(op: Callable[..., np.ndarray]) -> Evaluator:
    """Integer division-like evaluator yielding 0 where the divisor is 0."""
    def evaluate(instruction: Instruction,
                 srcs: Sequence[np.ndarray]) -> np.ndarray:
        divisor = _as_int(srcs[1])
        safe = np.where(divisor == 0, 1, divisor)
        result = op(_as_int(srcs[0]), safe)
        return np.where(divisor == 0, 0, result).astype(np.float64)
    return evaluate


def _fdiv(instruction: Instruction, srcs: Sequence[np.ndarray]) -> np.ndarray:
    divisor = np.where(srcs[1] == 0, np.inf, srcs[1])
    return srcs[0] / divisor


def _frcp(instruction: Instruction, srcs: Sequence[np.ndarray]) -> np.ndarray:
    divisor = np.where(srcs[0] == 0, np.inf, srcs[0])
    return 1.0 / divisor


#: Opcode -> evaluator.  Exactly the ``Unit.SP`` and ``Unit.SFU`` opcodes
#: have an entry; memory and control opcodes are executed by the core.
EVALUATORS: Dict[Opcode, Evaluator] = {
    Opcode.MOV: lambda ins, s: np.array(s[0], dtype=np.float64, copy=True),
    Opcode.IADD: _integer(np.add),
    Opcode.ISUB: _integer(np.subtract),
    Opcode.IMUL: _integer(np.multiply),
    Opcode.IMAD: _imad,
    Opcode.IMIN: _integer(np.minimum),
    Opcode.IMAX: _integer(np.maximum),
    Opcode.AND: _integer(np.bitwise_and),
    Opcode.OR: _integer(np.bitwise_or),
    Opcode.XOR: _integer(np.bitwise_xor),
    Opcode.NOT: _not,
    Opcode.SHL: _integer(np.left_shift),
    Opcode.SHR: _integer(np.right_shift),
    Opcode.IDIV: _guarded_divide(np.floor_divide),
    Opcode.IREM: _guarded_divide(np.remainder),
    Opcode.FADD: lambda ins, s: s[0] + s[1],
    Opcode.FSUB: lambda ins, s: s[0] - s[1],
    Opcode.FMUL: lambda ins, s: s[0] * s[1],
    Opcode.FFMA: lambda ins, s: s[0] * s[1] + s[2],
    Opcode.FMIN: lambda ins, s: np.minimum(s[0], s[1]),
    Opcode.FMAX: lambda ins, s: np.maximum(s[0], s[1]),
    Opcode.FDIV: _fdiv,
    Opcode.FSQRT: lambda ins, s: np.sqrt(np.maximum(s[0], 0.0)),
    Opcode.FRCP: _frcp,
    Opcode.SEL: lambda ins, s: np.where(s[0].astype(bool), s[1], s[2]),
    Opcode.SETP: lambda ins, s: compare(ins.cmp, s[0], s[1]),
}


def compute(instruction: Instruction, srcs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate an arithmetic/move/select instruction.

    Parameters
    ----------
    instruction:
        The instruction being executed.  Must not be a memory, branch,
        barrier, or exit instruction — those are handled by the core.
    srcs:
        Per-lane value arrays for each source operand, in order.

    Returns
    -------
    numpy.ndarray
        Per-lane result values (``float64`` for general registers,
        ``bool`` for SETP).
    """
    evaluate = EVALUATORS.get(instruction.opcode)
    if evaluate is None:
        raise SimulationError(
            f"compute() cannot evaluate opcode {instruction.opcode}")
    return evaluate(instruction, srcs)


#: SETP comparison operator -> per-lane comparison.
COMPARATORS: Dict[CmpOp, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}


def compare(cmp: CmpOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate a SETP comparison, returning a per-lane boolean array."""
    comparator = COMPARATORS.get(cmp)
    if comparator is None:
        raise SimulationError(f"unknown comparison operator {cmp}")
    return comparator(a, b)
