"""Counter-chain enumeration for controller simulation.

A :class:`ChainEnumerator` walks a (possibly data-dependent) counter chain
lazily, producing one *vector batch* per call: the current values of all
outer counters plus up to ``par`` consecutive innermost values (the SIMD
lanes issued in one cycle).  Bounds expressions are re-evaluated whenever
the dims they depend on advance, matching the PMU/PCU counter hardware.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.dhdl.ir import Counter, CounterChain
from repro.errors import SimulationError
from repro.patterns import expr as E


class Batch:
    """One vector issue: the outer bindings every lane shares plus the
    innermost index's value per lane."""

    __slots__ = ("outer", "index", "values")

    def __init__(self, outer: dict, index: E.Idx, values: List[int]):
        self.outer = outer
        self.index = index
        self.values = values

    @property
    def lanes(self) -> int:
        """Active lanes in this issue."""
        return len(self.values)

    @property
    def lane_bindings(self) -> List[dict]:
        """Full bindings per lane (built on demand: datapath kernels
        iterate ``values`` under ``outer`` instead)."""
        return [{**self.outer, self.index: v} for v in self.values]


class ChainEnumerator:
    """Lazily enumerate a counter chain in vector batches.

    ``bounds(counter, bindings)`` resolves one counter's ``(lo, hi)``
    — ``lo`` first; the expressions may read registers and scratchpads —
    against the current partial bindings.  It is not asked about a
    counter whose bounds are both integer constants.
    """

    def __init__(self, chain: CounterChain,
                 bounds: Callable[[Counter, dict], Sequence],
                 base_bindings: Optional[dict] = None,
                 max_total: int = 50_000_000):
        #: per axis: the constant ``(lo, hi)``, or None
        self._fixed = []
        for axis, counter in enumerate(chain.counters):
            # _advance only checks ``cur < hi``: a zero step would spin
            # forever and a negative one would walk away from the bound,
            # so reject both before any iteration state exists
            if counter.step <= 0:
                raise SimulationError(
                    f"counter chain dim {axis} has non-positive step "
                    f"{counter.step}; steps must be >= 1")
            ends = (counter.lo, counter.hi)
            self._fixed.append(
                tuple(end.value for end in ends)
                if all(type(end) is E.Const and type(end.value) is int
                       for end in ends) else None)
        self.chain = chain
        self.bounds = bounds
        self.base = dict(base_bindings or {})
        self.max_total = max_total
        self._emitted = 0
        depth = chain.depth
        self._lo = [0] * depth
        self._hi = [0] * depth
        self._cur = [0] * depth
        #: bindings of everything outside the innermost counter, rebuilt
        #: when an outer counter moves: every batch of one outer
        #: iteration shares the dict (nothing mutates ``Batch.outer``)
        self._outer: dict = {}
        self._exhausted = False
        self._primed = False

    # -- bound evaluation ---------------------------------------------------------
    def _eval_bounds(self, axis: int) -> bool:
        """(Re)compute lo/hi for ``axis``; True if the range is non-empty."""
        fixed = self._fixed[axis]
        inner = axis == self.chain.depth - 1
        if fixed is None or inner:
            bindings = dict(self.base)
            for k in range(axis):
                bindings[self.chain.indices[k]] = self._cur[k]
            if inner:
                self._outer = bindings
        lo, hi = fixed or self.bounds(self.chain.counters[axis], bindings)
        lo = self._lo[axis] = int(lo)
        hi = self._hi[axis] = int(hi)
        return lo < hi

    def _descend(self, axis: int) -> bool:
        """Initialise dims ``axis..`` to their first values; False when the
        subtree is empty and the caller must advance dim ``axis-1``."""
        for k in range(axis, self.chain.depth):
            while True:
                if not self._eval_bounds(k):
                    # empty range: advance the nearest outer dim
                    if not self._advance(k - 1):
                        return False
                    continue
                self._cur[k] = self._lo[k]
                break
        return True

    def _advance(self, axis: int) -> bool:
        """Step dim ``axis``; on wrap, recurse outward.  False = done."""
        if axis < 0:
            self._exhausted = True
            return False
        counter = self.chain.counters[axis]
        self._cur[axis] += counter.step
        if self._cur[axis] < self._hi[axis]:
            return self._descend(axis + 1)
        return self._advance(axis - 1)

    # -- batching -----------------------------------------------------------------
    def next_batch(self) -> Optional[Batch]:
        """The next vector issue, or None when the chain is exhausted."""
        if self._exhausted:
            return None
        if not self._primed:
            self._primed = True
            if not self._descend(0):
                self._exhausted = True
                return None
        inner = self.chain.depth - 1
        counter = self.chain.counters[inner]
        outer = self._outer
        start = self._cur[inner]
        stop = min(self._hi[inner], start + counter.par * counter.step)
        values = list(range(start, stop, counter.step))
        if self._emitted + len(values) > self.max_total:
            # trip before the over-limit batch exists: a runaway
            # data-dependent bound must not commit partial state
            raise SimulationError(
                "counter chain exceeded max_total="
                f"{self.max_total} iterations; runaway dynamic "
                "bound?")
        self._emitted += len(values)
        # position after the batch; wrap into outer dims when exhausted
        self._cur[inner] = start + len(values) * counter.step
        if self._cur[inner] >= self._hi[inner]:
            self._advance(inner - 1)
        if not values:
            return self.next_batch()
        return Batch(outer, self.chain.indices[inner], values)
