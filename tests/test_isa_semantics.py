"""Unit and property tests for the functional instruction semantics."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.isa import CmpOp, Opcode, semantics
from repro.isa.decode import CONST, decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_UNIT, Unit
from repro.isa.operands import Imm, Reg
from repro.utils.errors import SimulationError

# Register values are stored in float64, so integer arithmetic is exact up
# to 2**53; the bundled workloads only ever form products of indices and
# addresses, which keeps them far below that.  The property tests use the
# same regime.
lane_ints = st.lists(st.integers(min_value=-(2**24), max_value=2**24),
                     min_size=4, max_size=4)
lane_floats = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=4, max_size=4)


def run(opcode, *srcs, cmp=None):
    instruction = Instruction(opcode=opcode, dst=Reg(0), cmp=cmp)
    return semantics.compute(
        instruction, [np.array(src, dtype=np.float64) for src in srcs]
    )


class TestIntegerOps:
    def test_iadd(self):
        assert list(run(Opcode.IADD, [1, 2], [3, 4])) == [4, 6]

    def test_isub(self):
        assert list(run(Opcode.ISUB, [5, 2], [3, 4])) == [2, -2]

    def test_imul(self):
        assert list(run(Opcode.IMUL, [3, -2], [4, 5])) == [12, -10]

    def test_imad(self):
        assert list(run(Opcode.IMAD, [2, 3], [4, 5], [1, 1])) == [9, 16]

    def test_min_max(self):
        assert list(run(Opcode.IMIN, [1, 7], [3, 2])) == [1, 2]
        assert list(run(Opcode.IMAX, [1, 7], [3, 2])) == [3, 7]

    def test_bitwise(self):
        assert list(run(Opcode.AND, [6], [3])) == [2]
        assert list(run(Opcode.OR, [6], [3])) == [7]
        assert list(run(Opcode.XOR, [6], [3])) == [5]
        assert list(run(Opcode.NOT, [0])) == [-1]

    def test_shifts(self):
        assert list(run(Opcode.SHL, [1], [4])) == [16]
        assert list(run(Opcode.SHR, [16], [2])) == [4]

    def test_division_and_remainder(self):
        assert list(run(Opcode.IDIV, [7], [2])) == [3]
        assert list(run(Opcode.IREM, [7], [2])) == [1]

    def test_division_by_zero_yields_zero(self):
        assert list(run(Opcode.IDIV, [7], [0])) == [0]
        assert list(run(Opcode.IREM, [7], [0])) == [0]

    @given(lane_ints, lane_ints)
    def test_iadd_matches_numpy(self, a, b):
        assert list(run(Opcode.IADD, a, b)) == [x + y for x, y in zip(a, b)]

    @given(lane_ints, lane_ints, lane_ints)
    def test_imad_is_mul_plus_add(self, a, b, c):
        expected = run(Opcode.IADD, list(run(Opcode.IMUL, a, b)), c)
        assert list(run(Opcode.IMAD, a, b, c)) == list(expected)


class TestFloatOps:
    def test_fadd_fsub_fmul(self):
        assert list(run(Opcode.FADD, [1.5], [2.5])) == [4.0]
        assert list(run(Opcode.FSUB, [1.5], [2.5])) == [-1.0]
        assert list(run(Opcode.FMUL, [1.5], [2.0])) == [3.0]

    def test_ffma(self):
        assert list(run(Opcode.FFMA, [2.0], [3.0], [1.0])) == [7.0]

    def test_fmin_fmax(self):
        assert list(run(Opcode.FMIN, [1.0], [2.0])) == [1.0]
        assert list(run(Opcode.FMAX, [1.0], [2.0])) == [2.0]

    def test_fdiv_by_zero_is_zero(self):
        assert list(run(Opcode.FDIV, [3.0], [0.0])) == [0.0]

    def test_fsqrt_clamps_negative(self):
        assert list(run(Opcode.FSQRT, [-4.0])) == [0.0]
        assert list(run(Opcode.FSQRT, [9.0])) == [3.0]

    def test_frcp(self):
        assert list(run(Opcode.FRCP, [4.0])) == [0.25]
        assert list(run(Opcode.FRCP, [0.0])) == [0.0]

    @given(lane_floats, lane_floats)
    def test_fadd_commutes(self, a, b):
        assert list(run(Opcode.FADD, a, b)) == list(run(Opcode.FADD, b, a))


class TestMovSelSetp:
    def test_mov_copies(self):
        source = np.array([1.0, 2.0])
        result = run(Opcode.MOV, source)
        assert list(result) == [1.0, 2.0]

    def test_mov_returns_independent_array(self):
        source = np.array([1.0, 2.0])
        result = semantics.compute(
            Instruction(opcode=Opcode.MOV, dst=Reg(0)), [source]
        )
        result[0] = 99.0
        assert source[0] == 1.0

    def test_sel_picks_by_predicate(self):
        assert list(run(Opcode.SEL, [1, 0], [10, 10], [20, 20])) == [10, 20]

    @pytest.mark.parametrize("cmp,expected", [
        (CmpOp.EQ, [True, False]),
        (CmpOp.NE, [False, True]),
        (CmpOp.LT, [False, True]),
        (CmpOp.LE, [True, True]),
        (CmpOp.GT, [False, False]),
        (CmpOp.GE, [True, False]),
    ])
    def test_setp_comparisons(self, cmp, expected):
        assert list(run(Opcode.SETP, [3, 1], [3, 4], cmp=cmp)) == expected

    @given(lane_ints, lane_ints)
    def test_setp_lt_complements_ge(self, a, b):
        lt = run(Opcode.SETP, a, b, cmp=CmpOp.LT)
        ge = run(Opcode.SETP, a, b, cmp=CmpOp.GE)
        assert list(lt) == [not flag for flag in ge]


class TestErrors:
    def test_memory_opcode_rejected(self):
        with pytest.raises(SimulationError):
            run(Opcode.LD, [0])

    def test_control_opcode_rejected(self):
        with pytest.raises(SimulationError):
            run(Opcode.BRA, [0])


class TestEvaluatorTable:
    def test_exactly_the_alu_and_sfu_opcodes_have_an_evaluator(self):
        computed = {op for op, unit in OPCODE_UNIT.items()
                    if unit in (Unit.SP, Unit.SFU)}
        assert set(semantics.EVALUATORS) == computed
        assert all(callable(evaluate)
                   for evaluate in semantics.EVALUATORS.values())

    def test_decoded_imm_constant_is_read_only(self):
        instruction = Instruction(opcode=Opcode.MOV, dst=Reg(0),
                                  srcs=(Imm(3.0),))
        decoded = decode(instruction, 4)
        assert instruction.decoded is decoded
        (tag, constant), = decoded.sources
        assert tag == CONST and list(constant) == [3.0] * 4
        with pytest.raises(ValueError):
            constant[0] = 1.0

    def test_mov_of_imm_returns_independent_array(self):
        instruction = Instruction(opcode=Opcode.MOV, dst=Reg(0),
                                  srcs=(Imm(3.0),))
        (_, constant), = decode(instruction, 4).sources
        result = semantics.compute(instruction, [constant])
        result[0] = 99.0
        assert list(constant) == [3.0] * 4

    def test_decoded_instruction_still_pickles(self):
        instruction = Instruction(opcode=Opcode.FADD, dst=Reg(0),
                                  srcs=(Reg(1), Imm(2.0)))
        decode(instruction, 4)
        copy = pickle.loads(pickle.dumps(instruction))
        assert copy == instruction and copy.decoded is None
