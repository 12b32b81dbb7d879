"""Memory declarations in the DHDL IR.

Three storage classes, mirroring Table 2 of the paper:

* :class:`DramRef` — an off-chip collection (wraps a pattern
  :class:`~repro.patterns.collections.Array`); accessed only through AG
  transfer nodes.
* :class:`Sram` — an on-chip scratchpad tile living in a PMU, with a
  banking mode and an N-buffer depth.
* :class:`Reg` — a scalar register (fold accumulators, loop-carried
  scalars); lives in PCU pipeline registers or switch registers.
* :class:`FifoDecl` — a streaming FIFO between controllers.

All of them duck-type the pattern ``Array`` interface (``name``, ``shape``,
``dtype``) so symbolic :class:`~repro.patterns.expr.Load` nodes can read
them directly inside inner-controller bodies.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.errors import IRError
from repro.patterns import expr as E
from repro.patterns.collections import Array


class BankingMode(enum.Enum):
    """PMU scratchpad banking configuration (Section 3.2)."""

    #: Linear accesses striped across banks (dense tiles).
    STRIDED = "strided"
    #: Streaming accesses in arrival order.
    FIFO = "fifo"
    #: Sliding-window reuse (CNN row buffers).
    LINE_BUFFER = "line_buffer"
    #: Contents replicated in every bank: N parallel random read ports.
    DUPLICATION = "duplication"

    def __str__(self):
        return self.value


class DramRef:
    """Off-chip DRAM collection, 4-byte words, row-major."""

    def __init__(self, array: Array):
        self.array = array
        self.name = array.name
        self.shape = array.shape
        self.dtype = array.dtype

    def words(self) -> int:
        """Allocation size in 32-bit words."""
        return max(1, self.array.static_elems())

    def __repr__(self):
        return f"DramRef({self.name})"


class Sram:
    """An on-chip scratchpad tile (mapped to one or more PMUs).

    ``shape`` is the logical tile shape in words.  ``banking`` selects the
    address-decoder mode; ``banks`` parallel read/write streams exist in
    strided/duplication modes.  ``nbuf`` is the N-buffer depth chosen by
    the compiler from producer/consumer distances (1 = single buffer,
    2 = classic double buffering).
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str,
                 banking: BankingMode = BankingMode.STRIDED,
                 nbuf: int = 1, bank_stride: int = 1):
        if not shape or any(int(d) <= 0 for d in shape):
            raise IRError(f"SRAM {name!r} needs a positive static shape")
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        self.dtype = dtype
        self.banking = banking
        self.nbuf = nbuf
        #: address-decoder stride: the compiler configures it so that
        #: the vectorised access dimension interleaves across banks
        #: (word ``a`` lives in bank ``(a // bank_stride) % banks``)
        self.bank_stride = bank_stride

    def words(self) -> int:
        """Words per buffer instance."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    def total_words(self) -> int:
        """Words including all N-buffer copies."""
        return self.words() * self.nbuf

    def __getitem__(self, indices) -> E.Load:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return E.Load(self, indices)

    def __repr__(self):
        return (f"Sram({self.name}, {self.shape}, {self.banking}, "
                f"nbuf={self.nbuf})")


class Reg:
    """A scalar register cell (optionally N-buffered like an SRAM)."""

    shape: Tuple[int, ...] = ()

    def __init__(self, name: str, dtype: str = E.FLOAT32, init=None,
                 nbuf: int = 1):
        self.name = name
        self.dtype = dtype
        self.init = init
        self.nbuf = nbuf

    def read(self) -> E.Load:
        """Symbolic read of this register."""
        return E.Load(self, ())

    def words(self) -> int:
        """One word per buffer instance."""
        return 1

    def __repr__(self):
        return f"Reg({self.name})"


class FifoDecl:
    """A word- or vector-granularity FIFO between two controllers."""

    shape: Tuple[int, ...] = ()

    def __init__(self, name: str, dtype: str = E.FLOAT32, depth: int = 16,
                 vector: bool = True):
        if depth <= 0:
            raise IRError("FIFO depth must be positive")
        self.name = name
        self.dtype = dtype
        self.depth = depth
        self.vector = vector

    def __repr__(self):
        kind = "vec" if self.vector else "scalar"
        return f"FifoDecl({self.name}, depth={self.depth}, {kind})"


Memory = (DramRef, Sram, Reg, FifoDecl)


def is_onchip(mem) -> bool:
    """True for memories that occupy PMU/PCU storage."""
    return isinstance(mem, (Sram, Reg, FifoDecl))
