"""Unit tests for the functional global memory."""

import numpy as np
import pytest

from repro.memory.globalmem import WORD_SIZE, GlobalMemory
from repro.utils.errors import SimulationError


class TestAllocation:
    def test_allocations_are_aligned_and_disjoint(self):
        memory = GlobalMemory(1 << 20)
        first = memory.allocate(100, name="a")
        second = memory.allocate(100, name="b")
        assert first % 256 == 0
        assert second % 256 == 0
        assert second >= first + 100
        assert memory.allocation("a") == first
        assert memory.allocation("b") == second

    def test_address_zero_never_allocated(self):
        memory = GlobalMemory(1 << 20)
        assert memory.allocate(16) != 0

    def test_exhaustion_detected(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.allocate(1 << 20)

    def test_non_positive_allocation_rejected(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.allocate(0)

    def test_unaligned_capacity_rejected(self):
        with pytest.raises(SimulationError):
            GlobalMemory(1001)


class TestScalarAccess:
    def test_write_then_read(self):
        memory = GlobalMemory(4096)
        memory.write_word(256, 42.0)
        assert memory.read_word(256) == 42.0

    def test_out_of_range_rejected(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.read_word(4096)
        with pytest.raises(SimulationError):
            memory.write_word(-4, 1.0)


class TestVectorAccess:
    """Vector access takes the active lanes' int64 byte addresses."""

    def test_read_active_lanes(self):
        memory = GlobalMemory(4096)
        memory.write_word(256, 5.0)
        memory.write_word(260, 7.0)
        values = memory.read_words(np.array([256, 260], dtype=np.int64))
        assert list(values) == [5.0, 7.0]

    def test_write_active_lanes(self):
        memory = GlobalMemory(4096)
        memory.write_words(np.array([256], dtype=np.int64), np.array([1.0]))
        assert memory.read_word(256) == 1.0
        assert memory.read_word(260) == 0.0

    def test_no_active_lane_is_noop(self):
        memory = GlobalMemory(4096)
        empty = np.zeros(0, dtype=np.int64)
        assert len(memory.read_words(empty)) == 0
        memory.write_words(empty, np.zeros(0))

    def test_out_of_range_active_lane_rejected(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.read_words(np.array([999999999], dtype=np.int64))

    @pytest.mark.parametrize("bad", [-4, 4093])
    def test_any_active_lane_out_of_range_is_rejected(self, bad):
        # 4092 is the last whole word of a 4096-byte memory; the bad lane
        # sits between two in-range ones.
        memory = GlobalMemory(4096)
        addresses = np.array([256, bad, 4092], dtype=np.int64)
        with pytest.raises(SimulationError, match="read out of range"):
            memory.read_words(addresses)
        with pytest.raises(SimulationError, match="write out of range"):
            memory.write_words(addresses, np.zeros(3))
        in_range = addresses[[0, 2]]
        memory.write_words(in_range, np.array([1.0, 3.0]))
        assert list(memory.read_words(in_range)) == [1.0, 3.0]


class TestBulkTransfer:
    def test_store_and_load_array_roundtrip(self):
        memory = GlobalMemory(1 << 16)
        base = memory.allocate(4 * 10)
        data = np.arange(10, dtype=np.float64)
        memory.store_array(base, data)
        assert np.array_equal(memory.load_array(base, 10), data)

    def test_word_size_constant(self):
        assert WORD_SIZE == 4

    def test_store_array_capacity_check(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.store_array(0, np.zeros(100000))

    def test_bytes_allocated_tracks_usage(self):
        memory = GlobalMemory(1 << 16)
        before = memory.bytes_allocated
        memory.allocate(512)
        assert memory.bytes_allocated >= before + 512
