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
    def test_masked_read(self):
        memory = GlobalMemory(4096)
        memory.write_word(256, 5.0)
        memory.write_word(260, 7.0)
        addresses = np.array([256.0, 260.0, 9999999.0])
        mask = np.array([True, True, False])
        values = memory.read_words(addresses, mask)
        assert list(values[:2]) == [5.0, 7.0]
        assert values[2] == 0.0

    def test_masked_write(self):
        memory = GlobalMemory(4096)
        addresses = np.array([256.0, 260.0])
        memory.write_words(addresses, np.array([1.0, 2.0]),
                           np.array([True, False]))
        assert memory.read_word(256) == 1.0
        assert memory.read_word(260) == 0.0

    def test_fully_masked_access_is_noop(self):
        memory = GlobalMemory(4096)
        addresses = np.array([999999999.0])
        values = memory.read_words(addresses, np.array([False]))
        assert values[0] == 0.0
        memory.write_words(addresses, np.array([1.0]), np.array([False]))

    def test_out_of_range_active_lane_rejected(self):
        memory = GlobalMemory(4096)
        with pytest.raises(SimulationError):
            memory.read_words(np.array([999999999.0]), np.array([True]))

    @pytest.mark.parametrize("bad", [-4.0, 4093.0])
    def test_any_active_lane_out_of_range_is_rejected(self, bad):
        # 4092 is the last whole word of a 4096-byte memory; the bad lane
        # sits between two in-range ones.
        memory = GlobalMemory(4096)
        addresses = np.array([256.0, bad, 4092.0])
        mask = np.array([True, True, True])
        with pytest.raises(SimulationError, match="read out of range"):
            memory.read_words(addresses, mask)
        with pytest.raises(SimulationError, match="write out of range"):
            memory.write_words(addresses, np.zeros(3), mask)
        in_range = np.array([True, False, True])
        memory.write_words(addresses, np.array([1.0, 2.0, 3.0]), in_range)
        assert list(memory.read_words(addresses, in_range)) == [1.0, 0.0, 3.0]


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
