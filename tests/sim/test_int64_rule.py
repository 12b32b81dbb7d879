"""One integer rule, checked on random INT32 expression trees.

An INT32 value outside int64 is an arithmetic fault, ``OverflowError``
with one message.  Each random tree over int32 inputs (the extremes
among them) goes through the whole-domain executor, a simulated leaf,
the scalar walk (as a counter bound) and both per-element references:
they must agree on every value, or raise the same fault.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dhdl import Counter, WriteStmt
from repro.dhdl.memory import Sram
from repro.errors import SimulationError
from repro.patterns import Program, run_program
from repro.patterns import expr as E
from repro.sim.datapath import Evaluator
from repro.sim.scratchpad import MemoryState
from tests.patterns import reference_executor
from tests.sim.test_datapath_kernel import Rig

I32 = E.INT32
#: a residue keeps every value the tree reaches visible in an int32 store
MOD = 65521

INT32S = st.one_of(
    st.sampled_from([2 ** 31 - 1, -(2 ** 31 - 1), -2 ** 31, 2 * 10 ** 9,
                     0, 1, -1]),
    st.integers(-2 ** 31, 2 ** 31 - 1))
CONSTS = st.sampled_from([0, 1, -1, 2, 7, 2 ** 31 - 1, 2 * 10 ** 9,
                          2 ** 40, 2 ** 62, -2 ** 63, 2 ** 63 - 1])

LEAVES = st.one_of(st.tuples(st.just("x"), st.integers(0, 1)),
                   st.tuples(st.just("c"), CONSTS))


def _grow(children):
    return st.one_of(
        # products weighted up, so values leave int64 often
        st.tuples(st.sampled_from(["add", "sub", "mul", "mul", "mul", "div",
                                   "mod", "min", "max"]), children,
                  children),
        st.tuples(st.sampled_from(["neg", "abs", "to_int"]), children),
        st.tuples(st.just("select"), children, children, children,
                  children))


#: a tree has an op at its root
TREES = _grow(st.recursive(LEAVES, _grow, max_leaves=12))


def build(tree, leaves):
    """The expression ``tree`` describes, input ``k`` read as
    ``leaves[k]``."""
    kind = tree[0]
    if kind == "x":
        return leaves[tree[1]]
    if kind == "c":
        return E.Const(tree[1], I32)
    args = [build(t, leaves) for t in tree[1:]]
    if kind == "select":
        return E.select(args[0] < args[1], args[2], args[3])
    if len(args) == 1:
        return E.UnOp(kind, args[0])
    return E.BinOp(kind, *args)


def tail(err: Exception) -> str:
    """``<Type>: <message>`` of a fault, typed or not."""
    text = str(err)
    if isinstance(err, SimulationError):
        return text[text.index("arithmetic fault in "):].split(": ", 1)[1]
    return f"{type(err).__name__}: {text}"


def outcome(run):
    try:
        return [int(v) for v in run()]
    except (ArithmeticError, ValueError, SimulationError) as err:
        return tail(err)


def _program(tree, data):
    n = len(data[0])
    prog = Program("tree")
    x = [prog.input(f"x{k}", (n,), dtype=I32,
                    data=np.array(col, np.int32))
         for k, col in enumerate(data)]
    out = prog.output("o", (n,), dtype=I32)
    prog.map("q", out, (n,),
             lambda i: build(tree, [a[i] for a in x]) % MOD)
    return prog


def _leaf(tree, data, reference):
    n = len(data[0])
    x = [Sram(f"x{k}", (n,), I32) for k in range(len(data))]
    o = Sram("o", (n,), I32)
    i = E.Idx("i")
    rig = Rig(reference,
              [WriteStmt(o, (i,), build(tree, [a[i] for a in x]) % MOD)],
              [Counter(0, n, par=16)], [*x, o],
              data={f"x{k}": col for k, col in enumerate(data)},
              indices=[i])
    return rig.run().buf("o")


def _walk(tree, data):
    """Each point's value as the ``lo`` and ``hi`` of a counter."""
    v = [E.Var(f"v{k}", I32) for k in range(len(data))]
    end = build(tree, v) % MOD
    evaluate = Evaluator(MemoryState([], []))
    values = []
    for point in zip(*data):
        lo, hi = evaluate.bounds(Counter(end, end), dict(zip(v, point)),
                                 (0,))
        assert lo == hi
        values.append(lo)
    return values


MIN, MAX = -2 ** 63, 2 ** 63 - 1


@settings(max_examples=150, deadline=None)
@given(tree=TREES, data=st.lists(st.tuples(INT32S, INT32S), min_size=1,
                                 max_size=20))
# each op's own edge, at the second point: the first one runs clean
@example(tree=("add", ("c", MAX), ("x", 0)), data=[(-1, 0), (1, 0)])
@example(tree=("sub", ("c", MIN), ("x", 0)), data=[(-1, 0), (1, 0)])
@example(tree=("mul", ("x", 0), ("c", 2 ** 40)), data=[(2 ** 22, 0),
                                                       (2 ** 23, 0)])
@example(tree=("div", ("c", MIN), ("x", 0)), data=[(1, 0), (-1, 0)])
@example(tree=("neg", ("add", ("c", MIN), ("x", 0))), data=[(1, 0), (0, 0)])
@example(tree=("abs", ("add", ("c", MIN), ("x", 0))), data=[(1, 0), (0, 0)])
def test_every_evaluator_gives_the_same_value_or_fault(tree, data):
    data = [list(col) for col in zip(*data)]
    want = outcome(lambda: reference_executor.run_program(
        _program(tree, data)).buffers["o"])
    assert outcome(lambda: run_program(
        _program(tree, data)).buffers["o"]) == want
    assert outcome(lambda: _leaf(tree, data, reference=True)) == want
    assert outcome(lambda: _leaf(tree, data, reference=False)) == want
    assert outcome(lambda: _walk(tree, data)) == want
