"""Round-trip tests for the DHDL program serializer.

The serializer must preserve three things exactly: the declared
memories, the controller tree, and the expression *DAG* — including its
sharing structure, because both the scheduler and the simulator key on
node identity (``Expr.__eq__`` is ``is``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.compiler import compile_to_bitstream
from repro.dhdl.ir import (Counter, CounterChain, DhdlProgram,
                           InnerCompute, WriteStmt)
from repro.dhdl.serialize import program_from_dict, program_to_dict
from repro.patterns import expr as E


def canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def assert_same_dag(a, b, fwd, rev):
    """Structural equality that also demands identical sharing.

    ``fwd``/``rev`` map original node ids to decoded nodes and back;
    a shared original subtree must decode to one shared node, and two
    distinct originals must never collapse into one.
    """
    if id(a) in fwd:
        assert fwd[id(a)] is b, "shared node decoded to distinct copies"
        return
    assert id(b) not in rev, "distinct nodes collapsed into one"
    fwd[id(a)] = b
    rev[id(b)] = a
    assert type(a) is type(b)
    assert a.dtype == b.dtype
    if isinstance(a, E.Const):
        assert a.value == b.value
    elif isinstance(a, E.Idx):
        assert (a.name, a.extent) == (b.name, b.extent)
    elif isinstance(a, E.Var):
        assert a.name == b.name
    elif isinstance(a, E.Load):
        assert a.array.name == b.array.name
        for x, y in zip(a.indices, b.indices):
            assert_same_dag(x, y, fwd, rev)
    elif isinstance(a, E.BinOp):
        assert a.op == b.op
        assert_same_dag(a.lhs, b.lhs, fwd, rev)
        assert_same_dag(a.rhs, b.rhs, fwd, rev)
    elif isinstance(a, E.UnOp):
        assert a.op == b.op
        assert_same_dag(a.operand, b.operand, fwd, rev)
    elif isinstance(a, E.Select):
        assert_same_dag(a.cond, b.cond, fwd, rev)
        assert_same_dag(a.if_true, b.if_true, fwd, rev)
        assert_same_dag(a.if_false, b.if_false, fwd, rev)
    else:  # pragma: no cover - new node kinds must be added here
        raise AssertionError(f"unhandled node type {type(a)}")


# -- every registry app -----------------------------------------------------

@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_every_app_round_trips_byte_identically(app):
    dhdl = compile_to_bitstream(app.name, "tiny").dhdl
    data = program_to_dict(dhdl)
    clone = program_from_dict(data)
    assert canonical(program_to_dict(clone)) == canonical(data)
    assert [c.name for c in clone.controllers()] == \
        [c.name for c in dhdl.controllers()]
    assert [s.name for s in clone.srams] == [s.name for s in dhdl.srams]
    assert [d.name for d in clone.drams] == [d.name for d in dhdl.drams]
    assert clone.reg_outputs == dhdl.reg_outputs


# -- property tests: random expression DAGs ---------------------------------

_floats = st.floats(min_value=-100, max_value=100, allow_nan=False,
                    width=32)
_step = st.tuples(
    st.sampled_from(["add", "sub", "mul", "min", "max", "neg", "select"]),
    st.integers(min_value=0, max_value=999),
    st.integers(min_value=0, max_value=999),
    st.integers(min_value=0, max_value=999))


def _grow_dag(steps, consts, i, j, extra_leaves):
    """Random DAG by construction sequence: later nodes reference
    arbitrary earlier ones, which naturally creates shared subtrees."""
    pool = [E.Const(float(c)) for c in consts] + [i, j] + extra_leaves
    for op, ai, bi, ci in steps:
        a, b, c = (pool[k % len(pool)] for k in (ai, bi, ci))
        if op == "neg":
            pool.append(E.UnOp("neg", a))
        elif op == "select":
            pool.append(E.Select(E.BinOp("lt", a, b), a, c))
        else:
            pool.append(E.BinOp(op, a, b))
    return pool[-1]


@settings(max_examples=40, deadline=None)
@given(st.lists(_step, min_size=1, max_size=20),
       st.lists(_floats, min_size=1, max_size=4))
def test_expr_dag_round_trip(steps, consts):
    prog = DhdlProgram("prop")
    out = prog.reg("out")
    acc = prog.reg("acc", init=0.0)
    tile = prog.sram("tile", (8,), E.FLOAT32)
    i, j = E.Idx("i", 8), E.Idx("j", 4)
    root = _grow_dag(steps, consts, i, j,
                     [acc.read(), E.Load(tile, (i,))])
    chain = CounterChain([Counter(0, 8), Counter(0, 4)], [i, j])
    prog.root.add(InnerCompute("body", chain,
                               [WriteStmt(out, (), root)]))

    data = program_to_dict(prog)
    clone = program_from_dict(data)
    assert canonical(program_to_dict(clone)) == canonical(data)

    body = clone.root.children[0]
    fwd, rev = {}, {}
    assert_same_dag(root, body.stmts[0].value, fwd, rev)
    # chain indices must be the very same nodes the body references:
    # the simulator binds loop indices by object identity
    for orig, copy in zip(chain.indices, body.chain.indices):
        assert_same_dag(orig, copy, fwd, rev)


# -- odd corners ------------------------------------------------------------

def test_reg_inf_init_round_trips():
    prog = DhdlProgram("p")
    best = prog.reg("best", init=float("inf"))
    i = E.Idx("i", 4)
    prog.root.add(InnerCompute(
        "body", CounterChain([Counter(0, 4)], [i]),
        [WriteStmt(best, (), E.Const(1.0))]))
    clone = program_from_dict(program_to_dict(prog))
    assert clone.regs[0].init == float("inf")


def test_sram_metadata_round_trips():
    from repro.dhdl.memory import BankingMode
    prog = DhdlProgram("p")
    tile = prog.sram("tile", (4, 16), E.FLOAT32,
                     banking=BankingMode.LINE_BUFFER, nbuf=2)
    i = E.Idx("i", 4)
    prog.root.add(InnerCompute(
        "body", CounterChain([Counter(0, 4)], [i]),
        [WriteStmt(tile, (i, E.Const(0)), E.Const(1.0))]))
    clone = program_from_dict(program_to_dict(prog))
    copy = clone.srams[0]
    assert (copy.name, copy.shape, copy.dtype) == \
        (tile.name, tile.shape, tile.dtype)
    assert copy.banking == BankingMode.LINE_BUFFER
    assert copy.nbuf == 2
