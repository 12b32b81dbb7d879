"""The per-issue counter-chain walk, kept as a reference.

``repro.sim.counters.ChainEnumerator`` hands a leaf *runs* of whole
issues as columns.  This is the walk that came before it, one issue per
call: :meth:`ReferenceChain.next_batch` returns the outer bindings every
lane shares plus up to ``par`` consecutive innermost values (a
:class:`Batch`), evaluating each dim's bounds once per position of the
dims outside it, and its ``window`` answers one position at a time.
``tests/sim/reference_datapath.py`` enumerates with it, and
``tests/sim/test_chain_runs.py`` holds the run enumerator to it issue by
issue.  It is slow on purpose; nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

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
        """Full bindings per lane (built on demand: a leaf's block
        evaluation reads ``values`` under ``outer`` instead)."""
        return [{**self.outer, self.index: v} for v in self.values]


class ReferenceChain:
    """Lazily enumerate a counter chain in vector batches.

    ``bounds(counter, bindings)`` resolves one counter's ``(lo, hi)``
    — ``lo`` first; the expressions may read registers and scratchpads —
    against the current partial bindings.  It is not asked about a
    counter whose bounds are both integer constants.

    ``window(bindings, values)``, when given, answers for the innermost
    counter of a chain two or more deep: an iterator of its ``(lo, hi)``
    at each of the enclosing dim's ``values`` from the current one on
    (``bindings`` binds the dims outside that one).  Where it stops
    early, ``bounds`` walks each position until the window is dropped
    (:meth:`drop_window`) or the enclosing dim restarts.
    """

    def __init__(self, chain: CounterChain,
                 bounds: Callable[[Counter, dict], Sequence],
                 base_bindings: Optional[dict] = None,
                 max_total: int = 50_000_000, *,
                 window: Optional[Callable[[dict, range],
                                           Iterator]] = None):
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
        self.window = window if chain.depth > 1 else None
        #: the open window (None: none; False: it stopped, walk)
        self._win = None
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
        if axis == self.chain.depth - 2:
            self._win = None            # the enclosing dim restarts
        if fixed is None or inner:
            bindings = dict(self.base)
            for k in range(axis):
                bindings[self.chain.indices[k]] = self._cur[k]
            if inner:
                self._outer = bindings
        if fixed is None and inner and self.window is not None:
            lo, hi = self._windowed(bindings)
        else:
            lo, hi = fixed or self.bounds(self.chain.counters[axis],
                                          bindings)
        lo = self._lo[axis] = E.eval_unary("to_int", lo)
        hi = self._hi[axis] = E.eval_unary("to_int", hi)
        return lo < hi

    def _windowed(self, bindings: dict) -> Sequence:
        """The innermost bounds at the enclosing dim's current position,
        from the window (opened here if none is open)."""
        if self._win is None:
            axis = self.chain.depth - 2
            outer = {k: v for k, v in bindings.items()
                     if k is not self.chain.indices[axis]}
            self._win = self.window(outer, range(
                self._cur[axis], self._hi[axis],
                self.chain.counters[axis].step))
        ends = next(self._win, None) if self._win else None
        if ends is None:
            self._win = False
            return self.bounds(self.chain.counters[-1], bindings)
        return ends

    def drop_window(self) -> None:
        """Forget the open window: the next position opens another."""
        self._win = None

    def _descend(self, axis: int) -> bool:
        """Initialise dims ``axis..`` to their first values; an empty
        range steps the nearest outer dim with room and descends from
        there.  False when the chain is exhausted.

        A loop, not a recursion, so any number of consecutive ranges may
        be empty, and each dim's bounds are evaluated once per position
        of the dims outside it."""
        k = axis
        while k < self.chain.depth:
            if self._eval_bounds(k):
                self._cur[k] = self._lo[k]
                k += 1
                continue
            k = self._step_outward(k - 1)
            if k < 0:
                return False
        return True

    def _step_outward(self, axis: int) -> int:
        """Step dim ``axis``, wrapping outward while a dim runs off its
        end; returns the first dim to (re)initialise, or -1 when the
        chain is exhausted."""
        while axis >= 0:
            self._cur[axis] += self.chain.counters[axis].step
            if self._cur[axis] < self._hi[axis]:
                return axis + 1
            axis -= 1
        self._exhausted = True
        return -1

    def _advance(self, axis: int) -> bool:
        """Step dim ``axis`` and descend into the next non-empty
        subtree.  False = done."""
        k = self._step_outward(axis)
        return k >= 0 and self._descend(k)

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
