"""Flat global memory with a bump allocator.

Functional data always lives here: the caches in :mod:`repro.arch.cache`
track residency metadata and emit AVF events but never hold a divergent copy
(equivalent to an always-coherent hierarchy).  This keeps functional
correctness trivial while the event stream still reflects the hierarchy's
timing and movement — which is all the ACE analysis consumes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["GlobalMemory", "Lds"]


class GlobalMemory:
    """Byte-addressable global memory shared by CPU (host) and GPU."""

    def __init__(self, size: int = 1 << 21) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._next = 64  # keep address 0 unused to catch null-pointer bugs
        self._buffers: Dict[str, Tuple[int, int]] = {}
        #: end of the highest byte a device store, fault or image wrote
        self._top = 0

    # -- allocation ---------------------------------------------------------

    def alloc(self, name: str, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and remember the buffer under ``name``."""
        base = (self._next + align - 1) // align * align
        if base + nbytes > self.size:
            raise MemoryError(
                f"out of simulated memory allocating {name!r} ({nbytes} bytes)"
            )
        self._next = base + nbytes
        self._buffers[name] = (base, nbytes)
        return base

    @property
    def high_water(self) -> int:
        """Every byte past this is still zero.

        It is the end of the highest allocation, device store, flipped
        byte or loaded image; host code writes through buffer views.
        """
        return max(self._next, self._top)

    def image(self) -> np.ndarray:
        """Read-only copy of the memory up to :attr:`high_water`."""
        out = self.data[: self.high_water].copy()
        out.flags.writeable = False
        return out

    def load_image(self, image: np.ndarray) -> None:
        """Overwrite the start of memory with an :meth:`image` copy."""
        self.data[: len(image)] = image
        self._top = max(self._top, len(image))

    def flip(self, addr: int, bitmask: int) -> None:
        """XOR ``bitmask`` into one byte (a transient fault)."""
        self.data[addr] ^= np.uint8(bitmask)
        self._top = max(self._top, addr + 1)

    def buffer(self, name: str) -> Tuple[int, int]:
        """(base, size) of a named buffer."""
        return self._buffers[name]

    def buffers(self) -> Dict[str, Tuple[int, int]]:
        """All named buffers as {name: (base, size)}."""
        return dict(self._buffers)

    def buffer_range(self, name: str) -> range:
        base, size = self._buffers[name]
        return range(base, base + size)

    # -- host-side typed views ----------------------------------------------

    def view_u32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.uint32)

    def view_i32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.int32)

    def view_f32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.float32)

    def view_u8(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size]

    # -- device-side vector access -------------------------------------------

    def _check(self, addrs: np.ndarray, nbytes: int) -> int:
        """End of the highest byte accessed; raises past the memory."""
        end = int(addrs.max()) + nbytes if len(addrs) else 0
        if end > self.size:
            raise MemoryError("access beyond simulated memory")
        return end

    def load32(self, addrs: np.ndarray) -> np.ndarray:
        """Gather 32-bit words at per-lane byte addresses (4-byte aligned)."""
        if (addrs % 4).any():
            raise ValueError("unaligned 32-bit load")
        self._check(addrs, 4)
        out = np.empty(len(addrs), dtype=np.uint32)
        for i, a in enumerate(addrs):
            out[i] = self.data[a : a + 4].view(np.uint32)[0]
        return out

    def store32(self, addrs: np.ndarray, values: np.ndarray) -> None:
        if (addrs % 4).any():
            raise ValueError("unaligned 32-bit store")
        self._top = max(self._top, self._check(addrs, 4))
        for a, val in zip(addrs, values):
            self.data[a : a + 4] = np.frombuffer(
                np.uint32(val).tobytes(), dtype=np.uint8
            )

    def load8(self, addrs: np.ndarray) -> np.ndarray:
        self._check(addrs, 1)
        return self.data[addrs].astype(np.uint32)

    def store8(self, addrs: np.ndarray, values: np.ndarray) -> None:
        self._top = max(self._top, self._check(addrs, 1))
        self.data[addrs] = (values & 0xFF).astype(np.uint8)


class Lds:
    """Per-wavefront local scratch memory (LDS).

    The paper's AVF measurements cover the L1/L2 caches and the VGPR, so the
    LDS is functional-only: no AVF events, but accesses still participate in
    the liveness analysis (a value parked in LDS and later consumed keeps its
    producers live).
    """

    def __init__(self, size: int = 4096, data: Optional[np.ndarray] = None) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8) if data is None else data

    def load32(self, addrs: np.ndarray) -> np.ndarray:
        if (addrs % 4).any():
            raise ValueError("unaligned LDS load")
        out = np.empty(len(addrs), dtype=np.uint32)
        for i, a in enumerate(addrs):
            out[i] = self.data[a : a + 4].view(np.uint32)[0]
        return out

    def store32(self, addrs: np.ndarray, values: np.ndarray) -> None:
        if (addrs % 4).any():
            raise ValueError("unaligned LDS store")
        for a, val in zip(addrs, values):
            self.data[a : a + 4] = np.frombuffer(
                np.uint32(val).tobytes(), dtype=np.uint8
            )
