"""Edge-case regressions for :class:`~repro.sim.counters.ChainEnumerator`.

Two classes of bug fixed after differential fuzzing:

* non-positive steps: ``_advance`` only checks ``cur < hi``, so a zero
  step spins forever and a negative step walks away from the bound —
  both must be rejected at chain construction;
* ``max_total`` runaway protection: a data-dependent bound that blows up
  (e.g. an uninitialised length register read as 2**31) must trip the
  limit *before* the over-limit issue is materialised, not after.

The enumerator hands out runs of whole issues (``next_run(lanes)``); a
budget of one lane is a run of exactly one issue.
"""

import numpy as np
import pytest

from repro.dhdl.ir import Counter, CounterChain, WriteStmt
from repro.dhdl.memory import Sram
from repro.errors import IRError, SimulationError
from repro.patterns import expr as E
from repro.sim.counters import ChainEnumerator

from tests.sim.test_datapath_kernel import Rig


def _const_eval(counter, bindings):
    raise AssertionError("constant bounds need no evaluation")


def _chain(counters, names):
    return CounterChain(counters, [E.Idx(n) for n in names])


def _issue(enum):
    """The next issue alone — ``(bindings of the dims outside the
    innermost, values)`` — or None at the chain's end."""
    run = enum.next_run(1)
    if run is None:
        return None
    assert run.issues == 1
    values = list(range(int(run.table[0, 0]),
                        int(run.table[0, 0]) + int(run.table[0, 1]) * run.step,
                        run.step))
    assert run.lanes == len(values)
    return dict(zip(run.names, run.table[0, 2:].tolist())), values


def _forced_step(step):
    """A counter whose step bypasses the IR constructor validation
    (models a corrupted deserialized artifact or a buggy lowering)."""
    counter = Counter(0, 8)
    counter.step = step
    return counter


def test_ir_counter_rejects_non_positive_step():
    with pytest.raises(IRError):
        Counter(0, 8, step=0)
    with pytest.raises(IRError):
        Counter(0, 8, step=-2)


@pytest.mark.parametrize("step", [0, -1, -16])
def test_enumerator_rejects_non_positive_step(step):
    chain = _chain([_forced_step(step)], ["i"])
    with pytest.raises(SimulationError, match="non-positive step"):
        ChainEnumerator(chain, _const_eval)


def test_enumerator_rejects_bad_step_in_outer_dim():
    chain = _chain([_forced_step(0), Counter(0, 4, par=4)], ["i", "j"])
    with pytest.raises(SimulationError, match="dim 0"):
        ChainEnumerator(chain, _const_eval)


def test_enumerator_strided_iteration_still_works():
    chain = _chain([Counter(0, 10, step=3)], ["i"])
    enum = ChainEnumerator(chain, _const_eval)
    seen = []
    while True:
        issue = _issue(enum)
        if issue is None:
            break
        seen.extend(issue[1])
    assert seen == [0, 3, 6, 9]
    # one run of the whole chain holds the same values
    run = ChainEnumerator(chain, _const_eval).next_run(100)
    assert run.columns()[2].tolist() == [0, 3, 6, 9]


def test_max_total_trips_before_building_over_limit_batch():
    chain = _chain([Counter(0, 100, par=16)], ["i"])
    enum = ChainEnumerator(chain, _const_eval, max_total=20)
    first = enum.next_run(1)
    assert first.lanes == 16
    with pytest.raises(SimulationError, match="max_total"):
        enum.next_run(1)
    # the failed call must not have committed the over-limit issue
    assert enum._emitted == 16
    # a run that meets the limit ends before the issue that trips it,
    # and the next call raises
    enum = ChainEnumerator(chain, _const_eval, max_total=20)
    run = enum.next_run(100)
    assert (run.issues, run.lanes) == (1, 16)
    assert enum._emitted == 16
    with pytest.raises(SimulationError, match="max_total"):
        enum.next_run(100)
    assert enum._emitted == 16


def test_max_total_exact_fit_is_legal():
    chain = _chain([Counter(0, 32, par=16)], ["i"])
    enum = ChainEnumerator(chain, _const_eval, max_total=32)
    total = 0
    while True:
        issue = _issue(enum)
        if issue is None:
            break
        total += len(issue[1])
    assert total == 32
    run = ChainEnumerator(chain, _const_eval, max_total=32).next_run(100)
    assert run.lanes == 32


def test_max_total_catches_data_dependent_runaway():
    """A dynamic bound read from a register blows up: the enumerator
    must raise promptly instead of materialising billions of lanes."""
    hi = E.Var("runaway_len", E.INT32)
    chain = CounterChain([Counter(E.wrap(0), hi, par=16)], [E.Idx("i")])

    def ev(counter, bindings):
        assert counter.hi is hi
        # uninitialised/corrupted length register
        return counter.lo.value, 2 ** 31

    enum = ChainEnumerator(chain, ev, max_total=1_000)
    emitted = 0
    with pytest.raises(SimulationError, match="runaway"):
        while True:
            run = enum.next_run(64)
            if run is None:
                break
            emitted += run.lanes
    assert emitted <= 1_000


# -- consecutive empty ranges: a loop, not a recursion -----------------------


class _RecursiveWalk(ChainEnumerator):
    """The recursive walk the enumerator used before: ``_descend`` and
    ``_advance`` recursed once per consecutive empty range."""

    def _descend(self, axis):
        for k in range(axis, self.chain.depth):
            while True:
                if not self._eval_bounds(k):
                    if not self._advance(k - 1):
                        return False
                    continue
                self._cur[k] = self._lo[k]
                break
        return True

    def _advance(self, axis):
        if axis < 0:
            self._exhausted = True
            return False
        self._cur[axis] += self.chain.counters[axis].step
        if self._cur[axis] < self._hi[axis]:
            return self._descend(axis + 1)
        return self._advance(axis - 1)


def _walk(cls, sizes, depth):
    """Every batch and every bound evaluation of a chain whose inner
    dims run ``[0, sizes[...])`` — many of them empty."""
    idx = [E.Idx(f"d{k}") for k in range(depth)]
    counters = [Counter(0, 3)] + [Counter(0, E.Idx(f"b{k}"), par=2)
                                  for k in range(1, depth)]
    asked = []

    def bounds(counter, bindings):
        key = tuple(bindings[i] for i in idx[:len(bindings)])
        asked.append(key)
        return 0, sizes[key] if key in sizes else (hash(key) % 3 == 0)

    enum = cls(CounterChain(counters, idx), bounds)
    batches = []
    while (issue := _issue(enum)) is not None:
        batches.append((sorted(issue[0].values()), issue[1]))
    return batches, asked


@pytest.mark.parametrize("depth", [2, 3])
def test_iterative_walk_evaluates_bounds_like_the_recursive_one(depth):
    """Same batches as the recursion, which asked for some positions'
    bounds again after a run of empty ranges; the loop asks for each
    position's bounds exactly once (they are priced reads when a bound
    loads), in position order."""
    sizes = {(0,): 0, (1,): 0, (2,): 2, (2, 0): 0, (2, 1): 3}
    batches, asked = _walk(ChainEnumerator, sizes, depth)
    want, reference = _walk(_RecursiveWalk, sizes, depth)
    assert batches == want
    assert asked == sorted(set(reference))
    assert len(reference) > len(asked)


def test_a_long_run_of_empty_ranges_needs_no_recursion():
    rows = 10_000
    ends = [0] * rows + [5]
    i, j = E.Idx("i"), E.Idx("j")
    chain = CounterChain([Counter(0, rows), Counter(0, E.Idx("n"), par=4)],
                         [i, j])
    enum = ChainEnumerator(
        chain, lambda counter, b: (0, ends[b[i] + 1] - ends[b[i]]))
    assert _issue(enum) == ({i: rows - 1}, [0, 1, 2, 3])
    assert _issue(enum) == ({i: rows - 1}, [4])
    assert _issue(enum) is None


def test_ten_thousand_empty_csr_rows_read_each_ptr_once_through_a_leaf():
    """A real leaf over a CSR chain whose first 10 000 rows are empty:
    each row's ``ptr[r]`` and ``ptr[r + 1]`` are read once, in row
    order, all priced with the one issue that follows them."""
    rows = 10_000
    ptr = Sram("ptr", (rows + 2,), E.INT32)
    out = Sram("out", (8,), E.FLOAT32)
    r, j = E.Idx("r"), E.Idx("j")
    rig = Rig(False, [WriteStmt(out, (j,), E.to_float(r))],
              [Counter(0, rows + 1), Counter(ptr[r], ptr[r + 1], par=16)],
              [ptr, out], data={"ptr": [0] * (rows + 1) + [5]},
              indices=[r, j]).run()
    (issue,) = rig.issues()
    groups = sorted(addrs for (name, _site), addrs in issue[2]
                    if name == "ptr")
    assert groups == [list(range(rows + 1)), list(range(1, rows + 2))]
    assert rig.mem.scratchpads["ptr"].reads == 2 * (rows + 1)
    np.testing.assert_array_equal(rig.buf("out")[:5], [rows] * 5)
