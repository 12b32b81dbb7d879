"""Row evaluation against the per-lane reference on random bodies.

A leaf body runs as a row table (``repro.sim.datapath.Table``): a
``Select``'s branches are row ranges run on their own lanes, a node
with several users is defined once and computed on the lanes that need
it, and static facts skip runtime tests.  Random bodies — ints, floats
and bools over scratchpad loads and the lane index, nodes reused as
operands many times over (so shared nodes sit under partial-lane
``Select``\\ s), loads and divisions that would fault but are guarded by
a ``Select`` whose untaken side they are — must give the per-issue log,
memory and fault of ``tests/sim/reference_datapath.py`` exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dhdl import Counter, ReduceStmt, WriteStmt
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E

from tests.sim.reference_datapath import assert_same_memory
from tests.sim.test_datapath_kernel import Rig

F32, I32, BOOL = E.FLOAT32, E.INT32, E.BOOL
WORDS = 16

OPS = ("add", "sub", "mul", "min", "max", "div", "mod", "neg", "abs",
       "relu", "lt", "eq", "and", "not", "select", "load", "to_float",
       "to_int", "sqrt", "guarded_load", "guarded_div")


def _build(steps, i, x, f):
    """A DAG from ``steps``: each step one op over earlier nodes, picked
    by position in the pools (ints, floats, bools), so most nodes have
    several users."""
    ints = [i, E.wrap(3), x[i % WORDS]]
    floats = [f[i % WORDS], E.wrap(0.5)]
    bools = [i < 7]
    roots = []

    def pick(pool, k):
        return pool[k % len(pool)]

    for op, a, b, c in steps:
        if op in ("add", "sub", "mul", "min", "max"):
            pool = floats if a % 3 == 0 else ints
            node = E.BinOp(op, pick(pool, b), pick(ints + floats, c)
                           if pool is floats else pick(ints, c))
        elif op in ("div", "mod"):
            node = E.BinOp(op, pick(ints, a), pick(ints, b) % 5 + 6)
        elif op in ("neg", "abs", "relu"):
            node = E.UnOp(op, pick(ints if a % 2 else floats, b))
        elif op in ("lt", "eq"):
            pool = ints if a % 2 else floats
            node = E.BinOp(op, pick(pool, b), pick(pool, c))
        elif op == "and":
            node = pick(bools, a) & pick(bools, b)
        elif op == "not":
            node = ~pick(bools, a)
        elif op == "select":
            pool = ints if a % 2 else floats
            node = E.select(pick(bools, a), pick(pool, b), pick(pool, c))
        elif op == "load":
            node = x[pick(ints, a) % WORDS] if b % 2 else \
                f[E.absolute(pick(ints, a)) % WORDS]
        elif op == "to_float":
            node = E.to_float(pick(ints, a))
        elif op == "to_int":
            node = E.to_int(pick(floats, a))
        elif op == "sqrt":
            node = E.sqrt(E.absolute(pick(floats, a)))
        elif op == "guarded_load":
            # out of bounds on exactly the lanes the select does not take
            idx = pick(ints, a) + b % 40 - 20
            node = E.select((idx >= 0) & (idx < WORDS), x[idx],
                            pick(ints, c))
        else:
            # a zero divisor on exactly the lanes the select does not take
            den = pick(ints, b) - c % 5
            node = E.select(den.ne(0), pick(ints, a) / den, pick(ints, c))
        pool = {I32: ints, F32: floats, BOOL: bools}[node.dtype]
        pool.append(node)
        roots.append(node)
    return ints, floats, bools, roots


STEPS = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 50),
                           st.integers(0, 50), st.integers(0, 50)),
                 min_size=1, max_size=14)


def _outcome(reference, stmts, lanes, srams, regs, data, i):
    try:
        rig = Rig(reference, stmts, [Counter(0, lanes, par=16)], srams,
                  regs, data=data, indices=[i]).run()
    except SimulationError as err:
        return None, str(err)
    return rig, None


@settings(max_examples=120, deadline=None)
@given(steps=STEPS, lanes=st.integers(1, 40),
       xs=st.lists(st.integers(-8, 8), min_size=WORDS, max_size=WORDS),
       fs=st.lists(st.floats(-4, 4, width=32), min_size=WORDS,
                   max_size=WORDS),
       reduce=st.booleans())
def test_rows_equal_the_reference_on_random_bodies(steps, lanes, xs, fs,
                                                   reduce):
    i = E.Idx("i")
    x, f = Sram("x", (WORDS,), I32), Sram("f", (WORDS,), F32)
    ints, floats, bools, roots = _build(steps, i, x, f)
    oi, of, ob = (Sram(n, (64,), t) for n, t in
                  (("oi", I32), ("of", F32), ("ob", BOOL)))
    # every generated node reaches a statement, the latest first: a
    # node a Select's branch computes on some lanes is then needed on
    # all of them
    stmts = [WriteStmt(oi, (i,), sum(ints[:0:-1], ints[0]) % 1000),
             WriteStmt(of, (i,), sum(floats[:0:-1], floats[0])),
             WriteStmt(ob, (i,), bools[-1] | bools[0])]
    srams, regs = [x, f, oi, of, ob], []
    if reduce:
        acc = Reg("acc", F32, init=0.0)
        va, vb = E.Var("acc_a0", F32), E.Var("acc_b0", F32)
        # a combine that reads a shared node of the body: its own scope
        stmts.append(ReduceStmt([acc], [floats[-1]],
                                [va + vb * E.to_float(ints[2])],
                                [va], [vb], [0.0]))
        regs.append(acc)
    data = {"x": xs, "f": fs}
    kernel, error = _outcome(False, stmts, lanes, srams, regs, data, i)
    reference, want = _outcome(True, stmts, lanes, srams, regs, data, i)
    assert error == want
    if kernel is not None:
        assert kernel.log == reference.log
        assert kernel.cycle == reference.cycle
        assert_same_memory(kernel.mem, reference.mem)


def test_a_guarded_fault_on_untaken_lanes_does_not_raise():
    """The hand-picked case of the property: a shared node under a
    partial-lane ``Select``, next to an out-of-bounds load and a zero
    divisor that only the untaken lanes would reach."""
    i = E.Idx("i")
    x, o = Sram("x", (WORDS,), I32), Sram("o", (64,), I32)
    shared = x[i % WORDS] * 2
    far = i + 3
    value = (E.select(i < 8, shared, shared + 1)
             + E.select(far < WORDS, x[far], 0)
             + E.select((i - 4).ne(0), shared / (i - 4), 7))
    xs = np.arange(WORDS) - 5
    kernel, error = _outcome(False, [WriteStmt(o, (i,), value)], 24, [x, o],
                             [], {"x": xs}, i)
    assert error is None
    want = [(2 * xs[k % WORDS] + (k >= 8))
            + (xs[k + 3] if k + 3 < WORDS else 0)
            + (int(2 * xs[k % WORDS] / (k - 4)) if k != 4 else 7)
            for k in range(24)]
    assert kernel.buf("o")[:24].tolist() == want
