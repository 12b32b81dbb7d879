"""The DRAM image: flat word-addressable contents of off-chip memory.

The timing of DRAM traffic is modelled by :mod:`repro.dram`; the *data*
lives here.  Every pattern array is laid out row-major at a base byte
address chosen by the compiler; transfers copy words between this image
and scratchpad buffers when their bursts complete.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.dhdl.memory import DramRef
from repro.errors import SimulationError
from repro.patterns.collections import _np_dtype


def out_of_bounds(kind: str, name: str, lo: int, hi: int,
                  size: int) -> SimulationError:
    """The error of a ``kind`` ("read"/"write") of words ``lo:hi`` of an
    array of ``size`` words that reaches outside it."""
    return SimulationError(f"DRAM OOB {kind} {name}[{lo}:{hi}] (size {size})")


class DramImage:
    """Word-granularity backing store for all DRAM collections."""

    def __init__(self, drams: Iterable[DramRef], base: Dict[str, int]):
        self.base = dict(base)
        self.buffers: Dict[str, np.ndarray] = {}
        self._by_name: Dict[str, DramRef] = {}
        for ref in drams:
            if ref.name not in self.base:
                raise SimulationError(
                    f"DRAM array {ref.name!r} has no base address")
            if self.base[ref.name] % 4:
                raise SimulationError(
                    f"DRAM base of {ref.name!r} is not word aligned")
            words = ref.words()
            np_dtype = _np_dtype(ref.dtype)
            if ref.array.data is not None:
                flat = np.zeros(words, dtype=np_dtype)
                src = ref.array.data.ravel().astype(np_dtype)
                flat[:src.size] = src
                self.buffers[ref.name] = flat
            else:
                self.buffers[ref.name] = np.zeros(words, dtype=np_dtype)
            self._by_name[ref.name] = ref

    # -- word access --------------------------------------------------------------
    def read_words(self, name: str, word_off: int, count: int) -> np.ndarray:
        """Read a contiguous span of words from one array."""
        buf = self.buffers[name]
        if word_off < 0 or word_off + count > buf.size:
            raise out_of_bounds("read", name, word_off, word_off + count,
                                buf.size)
        return buf[word_off:word_off + count]

    def write_words(self, name: str, word_off: int, values) -> None:
        """Write a contiguous span of words into one array."""
        buf = self.buffers[name]
        values = np.asarray(values, dtype=buf.dtype)
        if word_off < 0 or word_off + values.size > buf.size:
            raise out_of_bounds("write", name, word_off,
                                word_off + values.size, buf.size)
        buf[word_off:word_off + values.size] = values

    def byte_addr(self, name: str, word_off: int) -> int:
        """Physical byte address of one word of an array."""
        return self.base[name] + 4 * word_off

    def scalar(self, name: str):
        """Value of a 0-d collection."""
        return self.buffers[name][0].item()

    def as_array(self, name: str) -> np.ndarray:
        """The logical array view (reshaped to its static shape)."""
        ref = self._by_name[name]
        buf = self.buffers[name]
        if ref.array.is_dynamic or ref.array.shape == ():
            return buf
        return buf.reshape(ref.array.shape)

    # -- integrity ----------------------------------------------------------------
    def checksums(self) -> Dict[str, int]:
        """CRC32 of every array's raw bytes (end-to-end fault detection).

        Two images of the same program agree on every checksum iff they
        are bit-identical, so comparing a run's checksums against a
        known-good golden run detects silent data corruption.
        """
        import zlib
        return {name: zlib.crc32(buf.tobytes())
                for name, buf in sorted(self.buffers.items())}

    def corrupt_word(self, name: str, word: int, xor_mask: int) -> None:
        """Bit-flip one word in place (fault injection).

        Operates on the raw 32-bit storage so float arrays corrupt the
        way a real DRAM bit flip would (no value-space rounding).
        """
        buf = self.buffers[name]
        if buf.size == 0:
            return
        word = word % buf.size
        if buf.dtype.itemsize == 4:
            view = buf.view(np.uint32)
            view[word] ^= np.uint32(xor_mask & 0xFFFFFFFF)
        else:
            view = buf.view(np.uint8)
            view[word * buf.dtype.itemsize] ^= np.uint8(xor_mask & 0xFF)


