"""Counter-chain enumeration for controller simulation.

A :class:`ChainEnumerator` walks a (possibly data-dependent) counter
chain lazily and hands out *runs* of whole vector issues (:class:`Run`):
each call takes issues until a lane budget is met, and gives them as
columns — per innermost range its outer bindings, first value and value
count — never as one object per issue.  Each dim's bounds are evaluated
once per position of the dims outside it, matching the PMU/PCU counter
hardware; where a leaf's innermost bounds come a window of positions at
a time, one call takes many of those positions in a few numpy steps.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.dhdl.ir import Counter, CounterChain
from repro.errors import SimulationError
from repro.patterns import expr as E

#: window counts are capped here before they are summed (int64): a range
#: this long always fills a run's budget, so no run takes it whole
_COUNT_CAP = 1 << 40


class _Trip(Exception):
    """The next issue would pass ``max_total``: the run ends before it."""


class Run:
    """Whole vector issues of a counter chain, in columns.

    The issues cover the innermost ranges of ``table``, one row ``(start,
    count, *outer)`` each — a range's issues from ``start`` on where a
    run begins inside it, up to ``count`` values where a run ends inside
    it: a range binds the dims outside the innermost (``names``) to
    ``outer`` and the innermost ``index`` to ``start, start + step,
    ...``, ``par`` values to an issue but its last.  ``base`` binds
    everything outside the chain.  The table is given as an array or as
    a list of rows (made an array when first read: an outer controller's
    run of one point never needs it).

    ``reads`` are the bound reads the chain made, in pieces ``(key,
    issue, addresses, order)``: the issue whose group the addresses join
    — the one being pulled when the chain read them — and the order they
    were read in, each an int for the whole piece or an array with one
    entry per address (within a piece, issues never decrease).
    """

    __slots__ = ("index", "step", "par", "base", "names", "reads",
                 "issues", "lanes", "_table")

    def __init__(self, index: E.Idx, step: int, par: int, base: dict,
                 names: Sequence[E.Idx], table, reads: list, issues: int,
                 lanes: int):
        self.index, self.step, self.par = index, step, par
        self.base, self.names = base, tuple(names)
        self._table = table
        self.reads = reads
        self.issues = issues
        self.lanes = lanes

    @property
    def table(self) -> np.ndarray:
        if type(self._table) is list:
            self._table = np.array(self._table, np.int64).reshape(
                len(self._table), 2 + len(self.names))
        return self._table

    def first_lane(self) -> dict:
        """The bindings of the run's first lane."""
        start, _count, *outer = self._table[0] if type(self._table) is list \
            else self._table[0].tolist()
        bindings = dict(self.base)
        bindings.update(zip(self.names, outer))
        bindings[self.index] = start
        return bindings

    def head(self) -> tuple:
        """The first and last value of the first issue."""
        first, count = self.table[0, :2].tolist()
        return first, first + (min(count, self.par) - 1) * self.step

    def columns(self):
        """``(lanes per issue, each issue's first lane and then the lane
        count, value per lane, one column per outer binding)`` — a fixed
        number of numpy calls, whatever the length."""
        par, step, issues = self.par, self.step, self.issues
        if len(self._table) == 1:
            start, count, *outer = self._table[0] \
                if type(self._table) is list else self._table[0].tolist()
            starts = np.arange(0, issues * par + 1, par)
            starts[-1] = count
            return (starts[1:] - starts[:-1], starts,
                    np.arange(start, start + count * step, step),
                    [np.full(count, v) for v in outer])
        table = self.table
        count = table[:, 1]
        range_of = np.repeat(np.arange(len(count)), count)
        # each lane's place in its range: an issue starts every par lanes
        within = np.arange(self.lanes) - (np.cumsum(count) - count)[range_of]
        starts = np.append(np.flatnonzero(within % par == 0), self.lanes)
        return (starts[1:] - starts[:-1], starts,
                table[:, 0][range_of] + within * step,
                [column[range_of] for column in table[:, 2:].T])

    def issue(self, k: int) -> "Run":
        """Issue ``k`` alone, as a run of one issue."""
        par, counts = self.par, self.table[:, 1]
        ends = np.cumsum((counts + par - 1) // par)
        r = int(np.searchsorted(ends, k, "right"))
        j = k - (int(ends[r - 1]) if r else 0)
        count = min(par, int(counts[r]) - j * par)
        reads = []
        for key, owner, addrs, when in self.reads:
            if type(owner) is int:
                if owner == k:
                    reads.append((key, 0, addrs, when))
                continue
            lo, hi = np.searchsorted(owner, (k, k + 1))
            if hi > lo:
                reads.append((key, 0, addrs[lo:hi], when[lo:hi]))
        row = self.table[r].copy()
        row[:2] = row[0] + j * par * self.step, count
        return Run(self.index, self.step, par, self.base, self.names,
                   row[None], reads, 1, count)


class ChainEnumerator:
    """Lazily enumerate a counter chain in runs of whole vector issues.

    ``bounds(counter, bindings)`` resolves one counter's ``(lo, hi)``
    — ``lo`` first; the expressions may read registers and scratchpads —
    against the current partial bindings.  It is not asked about a
    counter whose bounds are both integer constants.  ``reads()``, when
    given, returns the reads those calls made since it was last called
    (``{key: [addresses]}``, in the order they were made): a run hands
    each to the issue being pulled when it was made.

    ``window(bindings, values)``, when given, answers for the innermost
    counter of a chain two or more deep: an iterator of chunks ``(lo,
    hi, reads)`` — the innermost bounds at consecutive positions of the
    enclosing dim's ``values`` (from the current one on; ``bindings``
    binds the dims outside that one) as two int arrays, and their reads
    as ``(key, positions or None for all, addresses)`` pieces in the
    order they were made.  Where it stops early, ``bounds`` walks each
    position until the call ends or the enclosing dim restarts.  A window
    is dropped at the end of every call, so its bounds are read in the
    call that opened it or not at all.
    """

    def __init__(self, chain: CounterChain,
                 bounds: Callable[[Counter, dict], Sequence],
                 base_bindings: Optional[dict] = None,
                 max_total: int = 50_000_000, *,
                 window: Optional[Callable[[dict, range], Iterator]] = None,
                 reads: Optional[Callable[[], dict]] = None):
        #: per axis: the constant ``(lo, hi)`` (inside int64), or None
        self._fixed = []
        for axis, counter in enumerate(chain.counters):
            # the walk only checks ``cur < hi``: a zero step would spin
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
                       and E.INT_MIN <= end.value <= E.INT_MAX
                       for end in ends) else None)
        self.chain = chain
        self.bounds = bounds
        self.reads = reads
        depth = chain.depth
        self._inner = depth - 1
        self.window = window if depth > 1 and self._fixed[-1] is None \
            else None
        self.max_total = max_total
        self.restart(base_bindings)

    def restart(self, base_bindings: Optional[dict] = None) -> None:
        """Begin the chain again under new outside bindings."""
        depth = self.chain.depth
        self.base = dict(base_bindings or {})
        self._emitted = 0
        self._lo = [0] * depth
        self._hi = [0] * depth
        self._cur = [0] * depth
        self._exhausted = False
        self._primed = False
        #: the fault that stopped the last run, raised by the next call
        self._fault: Optional[Exception] = None
        #: the open window (None: none; False: it stopped, walk) and its
        #: current chunk
        self._win = None
        self._chunk = None
        #: read order, across runs
        self._when = 0
        self._budget = 0
        self._start_run()

    def _start_run(self) -> None:
        """Empty the run being built."""
        #: ranges taken one at a time: ``(start, count, *outer)``
        self._rows: List[tuple] = []
        #: ranges taken as arrays, same columns
        self._segs: List[np.ndarray] = []
        self._pieces: list = []
        self._issues = 0
        self._lanes = 0

    # -- bound evaluation ---------------------------------------------------------
    def _eval_bounds(self, axis: int) -> bool:
        """(Re)compute lo/hi for ``axis`` by the walk; True if the range
        is non-empty."""
        if axis == self._inner - 1:
            self._win = self._chunk = None  # the enclosing dim restarts
        fixed = self._fixed[axis]
        if fixed is not None:
            lo, hi = fixed
        else:
            bindings = dict(self.base)
            bindings.update(zip(self.chain.indices[:axis], self._cur))
            lo, hi = self.bounds(self.chain.counters[axis], bindings)
            lo = E.eval_unary("to_int", lo)
            hi = E.eval_unary("to_int", hi)
        self._lo[axis], self._hi[axis] = lo, hi
        return lo < hi

    def _descend(self, axis: int) -> bool:
        """Initialise dims ``axis..`` to their first values; an empty
        range steps the nearest outer dim with room and descends from
        there.  False when the chain is exhausted.

        A loop, not a recursion, so any number of consecutive ranges may
        be empty, and each dim's bounds are evaluated once per position
        of the dims outside it.  Innermost bounds from a window are
        swept (:meth:`_sweep`), which may take issues on the way."""
        inner = self._inner
        k = axis
        while k <= inner:
            if k == inner and self.window is not None \
                    and self._win is not False:
                landed = self._sweep()
                if landed:
                    return True
                if landed is False:     # the enclosing dim ran out
                    k = self._step_outward(inner - 2)
                    if k < 0:
                        return False
                    continue
                # None: the window stopped; walk this position
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

    # -- runs ---------------------------------------------------------------------
    def next_run(self, lanes: int) -> Optional[Run]:
        """The next whole issues while fewer than ``lanes`` lanes are
        taken, or None when the chain is exhausted.  A fault of the
        bounds, or an issue that would pass ``max_total``, ends the run
        before the issue it stops; the next call raises it (this one,
        when it stops the first issue)."""
        if self._fault is not None:
            fault, self._fault = self._fault, None
            raise fault
        if self._exhausted:
            return None
        self._budget = lanes
        self._start_run()
        inner = self._inner
        try:
            if not self._primed:
                self._primed = True
                self._descend(0)
                self._flush()
            while not self._exhausted:
                self._take()
                if self._cur[inner] < self._hi[inner]:
                    break               # the budget ends inside the range
                more = self._advance(inner - 1)
                self._flush()
                if not more or self._lanes >= lanes:
                    break
        except _Trip:
            # trip before the over-limit issue exists: a runaway
            # data-dependent bound must not commit partial state
            self._stop(SimulationError(
                "counter chain exceeded max_total="
                f"{self.max_total} iterations; runaway dynamic bound?"))
        except (ArithmeticError, ValueError, SimulationError) as err:
            # the issue being pulled is the one the fault stops
            if self.reads is not None:
                self.reads()
            self._drop_last()
            self._stop(err)
        finally:
            # a window's bounds are read in this call or not at all
            self._win = self._chunk = None
        if not self._issues:
            if self._fault is not None:
                fault, self._fault = self._fault, None
                raise fault
            return None
        return self._finish()

    def _stop(self, fault: Exception) -> None:
        self._fault = fault
        self._exhausted = True

    def _take(self) -> None:
        """Take whole issues of the current range while the budget has
        room."""
        inner = self._inner
        room = self._budget - self._lanes
        if room <= 0:
            return
        counter = self.chain.counters[inner]
        step, par = counter.step, counter.par
        cur = self._cur[inner]
        values = min(-(-(self._hi[inner] - cur) // step),
                     -(-room // par) * par)
        allowed = self.max_total - self._emitted
        trip = values > allowed
        if trip:
            values = allowed // par * par
        if values:
            self._rows.append((cur, values, *self._cur[:inner]))
            self._issues += -(-values // par)
            self._lanes += values
            self._emitted += values
            self._cur[inner] = cur + values * step
        if trip:
            raise _Trip()

    def _flush(self) -> None:
        """Hand the walk's reads since the last flush to the issue being
        pulled: the last one taken (the first, before any is)."""
        if self.reads is None:
            return
        group = self.reads()
        if group:
            owner = max(self._issues - 1, 0)
            for j, (key, addrs) in enumerate(group.items()):
                self._pieces.append((key, owner, addrs, self._when + j))
            self._when += len(group)

    def _drop_last(self) -> None:
        """Forget the last issue taken, with every read handed to it."""
        if not self._issues:
            return
        last = self._issues - 1
        kept = []
        for key, owner, addrs, when in self._pieces:
            if type(owner) is int:
                if owner < last:
                    kept.append((key, owner, addrs, when))
                continue
            keep = owner < last
            if keep.any():
                kept.append((key, owner[keep], addrs[keep], when[keep]))
        self._pieces = kept
        table = self._table()
        par = self.chain.counters[-1].par
        count = int(table[-1, 1])
        lanes = count - (-(-count // par) - 1) * par
        table[-1, 1] -= lanes
        self._segs = [table if count > lanes else table[:-1]]
        self._issues -= 1
        self._lanes -= lanes

    def _seal(self) -> None:
        """Move the ranges taken one at a time into the arrays."""
        if self._rows:
            self._segs.append(np.array(self._rows, np.int64).reshape(
                len(self._rows), self.chain.depth + 1))
            self._rows = []

    def _table(self) -> np.ndarray:
        """Every range taken so far, one row each: ``(start, count,
        *outer)``."""
        self._seal()
        if len(self._segs) != 1:
            self._segs = [np.concatenate(self._segs) if self._segs
                          else np.zeros((0, self.chain.depth + 1), np.int64)]
        return self._segs[0]

    def _finish(self) -> Run:
        inner = self._inner
        counter = self.chain.counters[inner]
        return Run(self.chain.indices[inner], counter.step, counter.par,
                   self.base, self.chain.indices[:inner],
                   self._table() if self._segs else self._rows,
                   self._pieces, self._issues, self._lanes)

    # -- windows --------------------------------------------------------------------
    def _chunk_at(self):
        """The open window's chunk holding the enclosing dim's current
        position — opening the window there if none is open, taking its
        next chunk when this one is used up — or None once it stopped.
        A chunk is ``(first position, lo, hi, counts, read pieces)``."""
        e = self.chain.depth - 2
        pos = self._cur[e]
        chunk = self._chunk
        if chunk is not None and pos < chunk[0] + len(chunk[3]) \
                * self.chain.counters[e].step:
            return chunk
        if self._win is None:
            bindings = dict(self.base)
            bindings.update(zip(self.chain.indices[:e], self._cur))
            self._win = self.window(bindings, range(
                pos, self._hi[e], self.chain.counters[e].step))
        got = next(self._win, None)
        if got is None:
            self._win, self._chunk = False, None
            return None
        los, his, pieces = got
        step = self.chain.counters[-1].step
        counts = np.where(his > los, (his - los + (step - 1)) // step, 0)
        self._chunk = (pos, los, his, np.minimum(counts, _COUNT_CAP),
                       pieces)
        return self._chunk

    def _sweep(self):
        """Take the innermost ranges of window positions from the
        enclosing dim's current one on — whole, while the run's budget
        has room — and land on the next non-empty range: its bounds read,
        none of it taken, or some of its issues where the budget ends
        inside it.  True once landed; False when the enclosing dim runs
        out first; None when the window stops (the walk goes on at the
        current position)."""
        e = self.chain.depth - 2
        par = self.chain.counters[-1].par
        pstep = self.chain.counters[e].step
        while True:
            if self._cur[e] >= self._hi[e]:
                return False
            chunk = self._chunk_at()
            if chunk is None:
                return None
            p0, _los, _his, counts, _pieces = chunk
            at = (self._cur[e] - p0) // pstep
            left = counts[at:]
            room = self._budget - self._lanes
            whole, part, land = at, 0, None
            if room > 0:
                cum = np.cumsum(left)
                k = int(np.searchsorted(cum, room))
                if k == len(left):
                    whole = len(counts)
                else:
                    need = room - (int(cum[k - 1]) if k else 0)
                    issues = -(-need // par)
                    if issues * par < int(left[k]):
                        whole, part, land = at + k, issues, at + k
                    else:
                        whole = at + k + 1
            if land is None:
                later = np.flatnonzero(counts[whole:])
                if len(later):
                    land = whole + int(later[0])
            self._commit(chunk, at, whole, part, land)
            if land is not None:
                return True

    def _commit(self, chunk, at: int, whole: int, part: int,
                land: Optional[int]) -> None:
        """Positions ``[at, whole)`` of ``chunk`` are taken whole, then
        ``part`` issues of position ``whole``; every position up to
        ``land`` (through the chunk's end when None) has its bounds read,
        and the one at ``land`` becomes the current range."""
        p0, los, his, counts, pieces = chunk
        inner = self.chain.depth - 1
        e = inner - 1
        par = self.chain.counters[-1].par
        step = self.chain.counters[-1].step
        taken = counts[at:whole]
        if part:
            taken = np.append(taken, part * par)
        allowed = self.max_total - self._emitted
        total = int(taken.sum())
        trip = total > allowed
        if trip:
            # the issue that would pass max_total: its position's bounds
            # were read, nothing after them was
            cum = np.cumsum(taken)
            j = int(np.searchsorted(cum, allowed, "right"))
            part = (allowed - (int(cum[j - 1]) if j else 0)) // par
            taken = np.append(taken[:j], part * par) if part else taken[:j]
            total = int(taken.sum())
            land = at + j
        end = len(counts) if land is None else land + 1
        self._flush()
        # the issue pulled when each position's bounds were read: the
        # last one taken before the position
        issues = (taken + (par - 1)) // par
        before = np.concatenate(([0], np.cumsum(issues)))
        owner = np.maximum(self._issues - 1 + before[np.minimum(
            np.arange(end - at), len(taken))], 0)
        for j, (key, lanes, addrs) in enumerate(pieces):
            if lanes is None:
                rel, addrs = np.arange(end - at), addrs[at:end]
            else:
                lo, hi = np.searchsorted(lanes, (at, end))
                rel, addrs = lanes[lo:hi] - at, addrs[lo:hi]
            if len(addrs):
                self._pieces.append((key, owner[rel], addrs,
                                     self._when + rel * len(pieces) + j))
        self._when += (end - at) * len(pieces)
        if len(taken):
            pos = np.flatnonzero(taken)
            rows = np.empty((len(pos), inner + 2), np.int64)
            rows[:, 0] = los[pos + at]
            rows[:, 1] = taken[pos]
            rows[:, 2:inner + 1] = self._cur[:e]
            rows[:, inner + 1] = p0 + (pos + at) * self.chain.counters[e].step
            self._seal()
            self._segs.append(rows)
            self._issues += int(before[-1])
            self._lanes += total
            self._emitted += total
        if trip:
            raise _Trip()
        if land is None:
            self._cur[e] = p0 + end * self.chain.counters[e].step
            return
        self._cur[e] = p0 + land * self.chain.counters[e].step
        lo = self._lo[inner] = int(los[land])
        self._hi[inner] = int(his[land])
        self._cur[inner] = lo + part * par * step
