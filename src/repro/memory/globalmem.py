"""Functional model of the GPU's global memory (device DRAM contents).

The timing model never touches data — it moves line-sized requests around.
Values live here: a flat, word-addressed (4-byte) memory with a simple bump
allocator used by workloads to place their input and output buffers.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.utils.errors import SimulationError

#: Size of the addressable word in bytes.  All LD/ST instructions move one
#: word; wider types are not needed by the bundled workloads.
WORD_SIZE = 4


class GlobalMemory:
    """Word-addressed functional memory with a bump allocator.

    Parameters
    ----------
    size_bytes:
        Capacity of the memory.  Exceeding it raises
        :class:`~repro.utils.errors.SimulationError`.
    """

    def __init__(self, size_bytes: int = 64 * 1024 * 1024) -> None:
        if size_bytes % WORD_SIZE:
            raise SimulationError("global memory size must be word aligned")
        self.size_bytes = size_bytes
        self._words = np.zeros(size_bytes // WORD_SIZE, dtype=np.float64)
        # Address 0 is reserved so kernels can use it as a null pointer.
        self._next_free = 256
        self._allocations: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int, name: Optional[str] = None,
                 align: int = 256) -> int:
        """Reserve ``nbytes`` and return the base byte address."""
        if nbytes <= 0:
            raise SimulationError(f"allocation size must be positive, got {nbytes}")
        base = ((self._next_free + align - 1) // align) * align
        if base + nbytes > self.size_bytes:
            raise SimulationError(
                f"global memory exhausted: requested {nbytes} bytes at {base}, "
                f"capacity {self.size_bytes}"
            )
        self._next_free = base + nbytes
        if name is not None:
            self._allocations[name] = base
        return base

    def allocation(self, name: str) -> int:
        """Return the base address of a named allocation."""
        return self._allocations[name]

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out so far (including alignment padding)."""
        return self._next_free

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------
    def _word_index(self, address: int) -> int:
        if address < 0 or address + WORD_SIZE > self.size_bytes:
            raise SimulationError(f"global memory access out of range: {address:#x}")
        return address // WORD_SIZE

    def read_word(self, address: int) -> float:
        """Read the 4-byte word at ``address``."""
        return float(self._words[self._word_index(address)])

    def write_word(self, address: int, value: float) -> None:
        """Write ``value`` to the 4-byte word at ``address``."""
        self._words[self._word_index(address)] = value

    # ------------------------------------------------------------------
    # Vector access (used by the functional execution of LD/ST)
    # ------------------------------------------------------------------
    def _word_indices(self, addresses: np.ndarray, access: str) -> np.ndarray:
        """Word indices of int64 byte ``addresses``, range-checked once."""
        if len(addresses) and (addresses.min() < 0 or addresses.max()
                               + WORD_SIZE > self.size_bytes):
            raise SimulationError(
                f"vector global memory {access} out of range")
        return addresses // WORD_SIZE

    def read_words(self, addresses: np.ndarray) -> np.ndarray:
        """Read the word at each int64 byte address (one per active lane)."""
        return self._words[self._word_indices(addresses, "read")]

    def write_words(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` to the words at the int64 byte ``addresses``."""
        self._words[self._word_indices(addresses, "write")] = values

    # ------------------------------------------------------------------
    # Bulk host <-> device transfer helpers for workloads
    # ------------------------------------------------------------------
    def store_array(self, base: int, values: np.ndarray) -> None:
        """Copy a 1-D numpy array into memory starting at ``base``."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        start = self._word_index(base)
        if start + len(flat) > len(self._words):
            raise SimulationError("store_array exceeds global memory capacity")
        self._words[start:start + len(flat)] = flat

    def load_array(self, base: int, count: int) -> np.ndarray:
        """Copy ``count`` words starting at ``base`` out of memory."""
        start = self._word_index(base)
        if start + count > len(self._words):
            raise SimulationError("load_array exceeds global memory capacity")
        return self._words[start:start + count].copy()
