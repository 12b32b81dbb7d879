"""The run enumerator against the per-issue reference walk.

``ChainEnumerator.next_run`` hands a compute leaf whole issues a block
at a time, as columns, taking many positions of a bound window in one
step.  ``tests/sim/reference_chain.py`` is the walk that came before:
one issue per call, a window answering one position at a time, blocks
cut by the leaf as it pulled.  Over generated chains — depth 1 to 3,
constant, index-dependent and scratchpad-loaded bounds, empty ranges,
steps above one, a ``par`` that does not divide the range, bound reads
that fault, windows that stop, a ``max_total`` that trips — both must
give the same blocks, and in every block the same issues: their values,
outer bindings and bound-read groups (sites in the order first read,
addresses in order), then the same fault.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dhdl import Counter, CounterChain
from repro.dhdl.memory import Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.sim.block import BoundWindow
from repro.sim.counters import ChainEnumerator
from repro.sim.datapath import Evaluator
from repro.sim.scratchpad import MemoryState

from tests.sim.reference_chain import ReferenceChain

OLD, NOW = (0,), (1,)
WORDS = 24
#: the scratchpad every generated bound loads
M = Sram("m", (WORDS,), E.INT32)
FAULTS = (ArithmeticError, ValueError, SimulationError)


class Case:
    """One chain over a scratchpad ``m`` of small ints, with everything
    both enumerations are driven by."""

    def __init__(self, chain, data, base, budget, max_total, chunk, stops):
        self.chain, self.base = chain, base
        self.budget, self.max_total = budget, max_total
        self.chunk, self.stops = chunk, stops
        self.mem = MemoryState([M], [])
        self.mem.scratchpads["m"].buffer(OLD)[:] = data
        self.evaluate = Evaluator(self.mem)
        self.reads = {}
        self.window = (BoundWindow(self.mem, chain)
                       if chain.depth > 1 else None)

    def bounds(self, counter, bindings):
        return self.evaluate.bounds(counter, bindings, NOW, self.reads)

    def taken(self):
        reads, self.reads = self.reads, {}
        return reads

    def chunks(self, outer, values):
        """The window: ``chunk`` positions a pass, stopping after
        ``stops`` passes (None: never) or where a pass cannot stand in
        for the walk."""
        for n, at in enumerate(range(0, len(values), self.chunk)):
            if self.stops is not None and n >= self.stops:
                return
            got = self.window.evaluate(outer, values[at:at + self.chunk],
                                       NOW)
            if got is None:
                return
            yield got

    def positions(self, outer, values):
        """The same window a position at a time, each position's reads
        joining the group of the issue being pulled (the leaf's walk
        before runs)."""
        for los, his, pieces in self.chunks(outer, values):
            for j in range(len(los)):
                for key, lanes, addrs in pieces:
                    if lanes is None:
                        addr = addrs[j]
                    else:
                        at = int(np.searchsorted(lanes, j))
                        if at == len(lanes) or lanes[at] != j:
                            continue
                        addr = addrs[at]
                    self.reads.setdefault(key, []).append(int(addr))
                yield int(los[j]), int(his[j])

    def kwargs(self):
        return {} if self.max_total is None else {"max_total": self.max_total}


def _name(bindings):
    return sorted((node.name, value) for node, value in bindings.items())


def reference_blocks(case):
    """The blocks the leaf cut before runs: issues pulled one at a time
    while the block has fewer than ``budget`` lanes, a fault deferred to
    the issue it stops."""
    case.reads = {}
    enum = ReferenceChain(case.chain, case.bounds, case.base,
                          **case.kwargs(),
                          window=case.positions if case.window else None)

    def pull():
        case.reads = {}
        try:
            batch = enum.next_batch()
        except FAULTS as err:
            return err
        return None if batch is None else (batch, case.reads)

    queue, blocks = deque(), []
    while True:
        issues, lanes = [], 0
        while not issues or lanes < case.budget:
            item = queue.popleft() if queue else pull()
            if item is None:
                break
            if isinstance(item, Exception):
                if issues:
                    queue.appendleft(item)
                    break
                return blocks, f"{type(item).__name__}: {item}", enum
            issues.append(item)
            lanes += item[0].lanes
        enum.drop_window()
        if not issues:
            return blocks, None, enum
        blocks.append([(_name(batch.outer), batch.values,
                        [(key, list(addrs)) for key, addrs in group.items()])
                       for batch, group in issues])


def run_issues(run):
    """A run's issues as :func:`reference_blocks` records them."""
    lanes, starts, values, outer = run.columns()
    groups = [{} for _ in range(run.issues)]
    reads = sorted(
        (int(when), n, i, int(owner), key, int(addr))
        for n, (key, owners, addrs, whens) in enumerate(run.reads)
        for i, (owner, addr, when) in enumerate(zip(
            np.broadcast_to(owners, len(addrs)), addrs,
            np.broadcast_to(whens, len(addrs)))))
    for *_order, owner, key, addr in reads:
        groups[owner].setdefault(key, []).append(addr)
    # each issue's first lane, then the run's lane count
    assert starts.tolist() == [0] + np.cumsum(lanes).tolist()
    assert starts[-1] == run.lanes and (lanes >= 1).all()
    out = []
    for k in range(run.issues):
        bindings = dict(run.base)
        bindings.update(zip(run.names, [int(column[starts[k]])
                                        for column in outer]))
        # every lane of an issue has its outer bindings
        assert all(len(set(column[starts[k]:starts[k + 1]].tolist())) == 1
                   for column in outer)
        out.append((_name(bindings),
                    values[starts[k]:starts[k + 1]].tolist(),
                    list(groups[k].items())))
    return out


def run_blocks(case):
    case.reads = {}
    enum = ChainEnumerator(case.chain, case.bounds, case.base,
                           **case.kwargs(),
                           window=case.chunks if case.window else None,
                           reads=case.taken)
    blocks = []
    while True:
        try:
            run = enum.next_run(case.budget)
        except FAULTS as err:
            return blocks, f"{type(err).__name__}: {err}", enum
        if run is None:
            return blocks, None, enum
        issues = run_issues(run)
        # a run split issue by issue (a block whose pass faulted) holds
        # the same issues
        assert [run_issues(run.issue(k))[0]
                for k in range(run.issues)] == issues
        blocks.append(issues)


# -- generated chains ----------------------------------------------------------


@st.composite
def cases(draw):
    depth = draw(st.integers(1, 3))
    idx = [E.Idx(f"d{k}") for k in range(depth)]
    outside = E.Idx("o")
    counters = []
    for k in range(depth):
        kind = draw(st.sampled_from(
            ["const", "const", "index", "loaded", "loaded", "shared"]
            if k else ["const", "const", "loaded"]))
        prev = idx[k - 1] if k else outside
        if kind == "const":
            lo, hi = draw(st.integers(0, 2)), draw(st.integers(0, 9))
        elif kind == "index":
            lo = draw(st.integers(0, 2))
            hi = (prev * draw(st.integers(1, 3))
                  + draw(st.integers(0, 4))) % draw(st.integers(2, 9))
        elif kind == "loaded":
            # CSR-like: m[p + c] .. m[p + c + 1], read past the end
            # (a fault) when the offset is large
            at = prev + draw(st.integers(0, WORDS - 6))
            lo = M[at] if draw(st.booleans()) else E.wrap(
                draw(st.integers(0, 2)))
            hi = M[at + draw(st.integers(1, 2))]
        else:
            # both ends read one load site, ``lo`` first, at every
            # position: one site's reads interleave across the two ends
            at = prev + draw(st.integers(0, WORDS - 6))
            lo = M[at]
            hi = lo + M[at + 1] % draw(st.integers(2, 6))
        counters.append(Counter(lo, hi, step=draw(st.integers(1, 3)),
                                par=draw(st.integers(1, 5))))
    data = draw(st.lists(st.integers(0, 12), min_size=WORDS,
                         max_size=WORDS))
    if draw(st.booleans()):
        data = sorted(data)             # mostly non-empty CSR rows
    return Case(CounterChain(counters, idx), data,
                {outside: draw(st.integers(0, 4))},
                draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40])),
                draw(st.sampled_from([None, None, 1, 7, 30, 64])),
                draw(st.integers(1, 6)),
                draw(st.sampled_from([None, None, 0, 1, 2])))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_runs_hold_what_the_per_issue_walk_held(case):
    want, want_fault, ref = reference_blocks(case)
    got, got_fault, enum = run_blocks(case)
    assert got == want
    assert got_fault == want_fault
    assert enum._emitted == ref._emitted


def test_a_window_bound_at_the_bottom_of_int64_is_walked():
    """``lo`` reaches -2**63 (no fault: it is inside int64), so ``hi -
    lo`` does not fit an int64: the window stands back and the walk
    trips ``max_total`` where the per-issue walk does."""
    outer, inner = E.Idx("d0"), E.Idx("d1")
    chain = CounterChain([Counter(0, 3),
                          Counter(M[outer] * -(1 << 62), M[outer + 1],
                                  par=4)], [outer, inner])
    data = [0, 0, 2] + [5] * (WORDS - 3)
    case = Case(chain, data, {}, 40, 64, 8, None)
    want, want_fault, _ref = reference_blocks(case)
    case = Case(chain, data, {}, 40, 64, 8, None)
    got, got_fault, _enum = run_blocks(case)
    assert want_fault.endswith("runaway dynamic bound?")
    assert (got, got_fault) == (want, want_fault)
