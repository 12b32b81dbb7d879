"""PMU scratchpad simulation: banking modes, N-buffering, conflict costs.

Data correctness and timing are modelled together: contents live in
versioned numpy buffers (one logical version per producing parent
iteration — the architectural equivalent of N-buffer rotation), and the
banking mode determines how many lane accesses one cycle can service:

* ``STRIDED`` — lane addresses spread across ``banks`` by low-order
  interleaving; conflicting lanes serialise.
* ``DUPLICATION`` — every bank holds a full copy: any 16 random *reads*
  per cycle, but writes must go to all banks (single write stream).
* ``FIFO`` — in-order streaming; always conflict-free.
* ``LINE_BUFFER`` — sliding-window reads; conflict-free for unit-stride
  window accesses.

:meth:`ScratchpadSim.conflict_extra` is that rule, the only one; it
prices a block of equal-length groups row by row.  On the hot path
nobody calls :meth:`ScratchpadSim.store` or the rule per lane or per
group: an inner compute lands a block's stores as columns and prices
its groups once per block (``repro.sim.block``); ``store`` serves
the end-of-activation reduce results.  :meth:`ScratchpadSim.conflict_free`
is the rule's proven zero: a stream whose every group is known to lie
within a static width (``repro.sim.block.Datapath.widths``) is not
priced where it says so.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.dhdl.memory import BankingMode, Reg, Sram
from repro.errors import SimulationError
from repro.patterns.collections import _np_dtype


class ScratchpadSim:
    """Runtime state of one logical SRAM (possibly spanning PMUs)."""

    def __init__(self, sram: Sram, banks: int = 16):
        self.sram = sram
        self.banks = banks
        self.versions: Dict[int, np.ndarray] = {}
        #: version -> the older buffer a reader of it falls back to;
        #: valid until ``versions`` gains or loses an entry
        self._fallback: Dict[int, np.ndarray] = {}
        #: bumped whenever ``versions`` gains or loses an entry: until
        #: it moves, ``buffer`` and ``read_buffer`` of a version give
        #: the buffer they gave before (transfers bind it once)
        self.epoch = 0
        #: highest flat address written + 1, per version (how much of the
        #: buffer holds live data; drives dynamic gather/scatter counts)
        self.watermark: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.conflict_cycles = 0

    def _blank(self) -> np.ndarray:
        return np.zeros(self.sram.shape, dtype=_np_dtype(self.sram.dtype))

    @staticmethod
    def _newest_before(versions: dict, version):
        """The newest key older than ``version`` (None: there is none)."""
        return max((v for v in versions if v < version), default=None)

    def buffer(self, version: int) -> np.ndarray:
        """The buffer for a version, creating it on first write.

        New versions copy the newest older version (copy-on-write): a
        physical buffer's contents persist until overwritten, which is
        what cross-activation accumulation (carry) relies on.
        """
        buf = self.versions.get(version)
        if buf is None:
            older = self._newest_before(self.versions, version)
            buf = self._blank() if older is None \
                else self.versions[older].copy()
            self.versions[version] = buf
            self._fallback.clear()
            self.epoch += 1
        return buf

    def store(self, version: int, idxs: Sequence[int], value) -> int:
        """Write one element into the version buffer (bounds-checked);
        returns its flat address."""
        buf = self.buffer(version)
        flat = 0
        for idx, dim in zip(idxs, buf.shape):
            if idx < 0 or idx >= dim:
                raise SimulationError(
                    f"scratchpad OOB write: {self.sram.name}[{list(idxs)}] "
                    f"shape {buf.shape}")
            flat = flat * dim + idx
        buf[tuple(idxs)] = _np_dtype(self.sram.dtype)(value)
        self.note_write(version, flat)
        return flat

    def note_write(self, version: int, flat: int) -> None:
        """Track the written extent of a version (for dynamic counts)."""
        current = self.watermark.get(version, 0)
        if flat + 1 > current:
            self.watermark[version] = flat + 1

    def watermark_for(self, version: int) -> int:
        """Written extent of the newest version <= requested (0 if
        never written)."""
        if version not in self.watermark:
            version = self._newest_before(self.watermark, version)
        return self.watermark.get(version, 0)

    def read_buffer(self, version: int) -> np.ndarray:
        """Reader view: the newest version <= requested.

        Exact-match versions model N-buffer hand-off; falling back to an
        older version models loop-carried scratchpads in sequential
        loops (the reader sees the last completed write).
        """
        buf = self.versions.get(version)
        if buf is None:
            buf = self._fallback.get(version)
        if buf is None:
            older = self._newest_before(self.versions, version)
            if older is None:       # never written: architectural zeros
                return self.buffer(version)
            buf = self._fallback[version] = self.versions[older]
        return buf

    def retire_old(self) -> None:
        """Bound live buffers to the N-buffer depth (plus one carried
        version for loop-carried reads)."""
        keep = max(self.sram.nbuf, 1) + 1
        if len(self.versions) > keep:
            for version in sorted(self.versions)[:-keep]:
                del self.versions[version]
            self.epoch += 1
        self._fallback.clear()

    # -- timing ------------------------------------------------------------------
    def conflict_extra(self, flat_addrs, write: bool = False):
        """Extra cycles (beyond 1) to service vectors of lane accesses —
        the one pricing rule, free of side effects.  ``flat_addrs`` is
        one group (a sequence: returns an int) or a 2-D block of
        equal-length groups, one per row (returns an int array): a
        leaf's :class:`~repro.sim.block.Schedule` prices a block of
        issues with it once per banking configuration.

        Only ``STRIDED`` serialises reads: identical addresses are one
        physical access broadcast to the requesting lanes, the distinct
        ones queue per bank.  Under ``bank_stride == 1`` a group whose
        addresses span fewer than ``banks`` words costs 0 (a broadcast,
        a unit-stride run): a block of only such groups is priced
        without the sort."""
        shape = np.shape(flat_addrs)
        one = len(shape) == 1
        count, mode = shape[-1], self.sram.banking
        if mode is not BankingMode.STRIDED or not count:
            # DUPLICATION broadcasts a write to every bank: one word
            # per cycle; FIFO and LINE_BUFFER cannot conflict
            cost = count - 1 if write and count \
                and mode is BankingMode.DUPLICATION else 0
            return cost if one else np.full(shape[0], cost, np.int64)
        rows = np.asarray(flat_addrs, dtype=np.int64).reshape(-1, count)
        banks = self.banks
        if self.sram.bank_stride == 1 and (
                rows.max(axis=1) - rows.min(axis=1) < banks).all():
            # every row spans fewer than ``banks`` words: its distinct
            # addresses sit in distinct banks
            return 0 if one else np.zeros(len(rows), np.int64)
        ordered = np.sort(rows, axis=1)
        distinct = np.ones(ordered.shape, np.bool_)
        distinct[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        bank = (ordered // self.sram.bank_stride) % banks
        cell = (np.arange(len(rows))[:, None] * banks + bank)[distinct]
        per_bank = np.bincount(cell, minlength=len(rows) * banks)
        extra = per_bank.reshape(len(rows), banks).max(axis=1) - 1
        return int(extra[0]) if one else extra

    def conflict_free(self, width, write: bool = False) -> bool:
        """Whether :meth:`conflict_extra` is 0 on every group whose
        addresses lie within ``width`` words of each other (None: any
        width): a mode that cannot conflict, or ``STRIDED`` with
        ``bank_stride == 1`` and ``width < banks``."""
        mode = self.sram.banking
        if mode is not BankingMode.STRIDED:
            return not write or mode is not BankingMode.DUPLICATION
        return width is not None and width < self.banks \
            and self.sram.bank_stride == 1

    def read_cost(self, flat_addrs: Sequence[int]) -> int:
        """Count and charge one vector of lane reads; returns its extra
        cycles."""
        return self._charge(flat_addrs, False)

    def write_cost(self, flat_addrs: Sequence[int]) -> int:
        """Count and charge one vector of lane writes; returns its extra
        cycles."""
        return self._charge(flat_addrs, True)

    def _charge(self, flat_addrs: Sequence[int], write: bool) -> int:
        extra = self.conflict_extra(flat_addrs, write)
        if write:
            self.writes += len(flat_addrs)
        else:
            self.reads += len(flat_addrs)
        self.conflict_cycles += extra
        return extra


class RegSim:
    """Runtime state of one scalar register."""

    def __init__(self, reg: Reg):
        self.reg = reg
        np_dtype = _np_dtype(reg.dtype)
        init = reg.init if reg.init is not None else 0
        self.value = np_dtype(init)

    def read(self):
        """Current value."""
        return self.value.item() if hasattr(self.value, "item") \
            else self.value

    def write(self, value) -> None:
        """Overwrite the register."""
        np_dtype = _np_dtype(self.reg.dtype)
        self.value = np_dtype(value)


class MemoryState:
    """All on-chip memory state for one running application."""

    def __init__(self, srams, regs, banks: int = 16):
        self.scratchpads: Dict[str, ScratchpadSim] = {
            s.name: ScratchpadSim(s, banks) for s in srams}
        self.registers: Dict[str, RegSim] = {r.name: RegSim(r) for r in regs}

    def scratch(self, sram: Sram) -> ScratchpadSim:
        """Scratchpad sim for a declaration."""
        try:
            return self.scratchpads[sram.name]
        except KeyError:
            raise SimulationError(
                f"scratchpad {sram.name!r} was never placed") from None

    def retire_old(self) -> None:
        """Periodic retirement sweep over every scratchpad.

        The scheduler (dense or event-driven) calls this on every
        256-cycle boundary — including boundaries crossed by a
        fast-forward jump — to bound live N-buffer versions.
        """
        for scratch in self.scratchpads.values():
            scratch.retire_old()

    def reg(self, reg: Reg) -> RegSim:
        """Register sim for a declaration."""
        try:
            return self.registers[reg.name]
        except KeyError:
            raise SimulationError(
                f"register {reg.name!r} was never placed") from None
