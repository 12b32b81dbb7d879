"""Unit tests for expression rewriting, simplification, and stage
scheduling."""

import pytest

from repro.compiler.rewrite import rewrite, simplify, substitute
from repro.compiler.scheduling import schedule
from repro.dhdl import (Counter, CounterChain, EmitStmt, FifoDecl,
                        InnerCompute, ReduceStmt, Reg, Sram, WriteStmt)
from repro.patterns import Array
from repro.patterns import expr as E


# -- rewrite -----------------------------------------------------------------

def test_substitute_replaces_indices():
    i, j = E.Idx("i"), E.Idx("j")
    root = i * 2 + i
    out = substitute(root, {i: j})
    indices = E.collect_indices(out)
    assert indices == (j,)


def test_rewrite_preserves_sharing():
    i = E.Idx("i")
    shared = i * 2
    root = shared + shared
    out = rewrite(root, lambda n: None)
    assert out is root  # nothing changed -> same object


def test_rewrite_rebuilds_loads():
    a = Array("a", (8,))
    i, j = E.Idx("i"), E.Idx("j")
    out = substitute(a[i], {i: j})
    assert isinstance(out, E.Load)
    assert out.indices[0] is j


def test_simplify_identities():
    i = E.Idx("i")
    assert simplify(i * 1) is i
    assert simplify(i + 0) is i
    assert simplify(E.wrap(0) + i) is i
    assert simplify(i - 0) is i
    folded = simplify(E.wrap(3) + E.wrap(4))
    assert isinstance(folded, E.Const) and folded.value == 7


def test_simplify_nested():
    i = E.Idx("i")
    out = simplify((i - (E.wrap(0) + i.__class__("o") * 1)))
    # i - o  (mul-by-1 and add-0 folded away)
    assert isinstance(out, E.BinOp) and out.op == "sub"
    assert out.lhs is i
    assert isinstance(out.rhs, E.Idx)


def test_simplify_select_constant_condition():
    i = E.Idx("i")
    taken = simplify(E.select(E.wrap(True), i, i * 2))
    assert taken is i


def test_simplify_never_changes_a_dtype():
    """An identity whose survivor has another dtype is not applied, and
    a folded constant has the node's dtype."""
    x = E.Var("x", E.INT32)
    for node in (x + E.Const(0.0), E.Const(0.0) + x, x - E.Const(0.0),
                 x * E.Const(1.0), E.Const(1.0) * x):
        assert simplify(node).dtype == E.FLOAT32
    picked = simplify(E.select(E.wrap(True), 1, 2.5))
    assert picked.dtype == E.FLOAT32
    folded = simplify(E.minimum(E.wrap(1), E.wrap(2.5)))
    assert isinstance(folded, E.Const)
    assert folded.dtype == E.FLOAT32 and type(folded.value) is float
    assert simplify(x + 0) is x


def test_a_fold_that_would_fault_is_left_to_run():
    """``2**40 * 2**40`` is past int64: the node stays unfolded, and the
    program it is in compiles and faults when it runs, typed alike in
    the executor and the simulator."""
    import numpy as np

    from repro.compiler.artifact import freeze_program
    from repro.errors import SimulationError
    from repro.patterns import Program, run_program
    big = E.wrap(2 ** 40) * 2 ** 40
    assert simplify(big) is big
    assert simplify(-E.wrap(-2 ** 63)).op == "neg"

    def build():
        prog = Program("wide")
        a = prog.input("a", (16,), dtype=E.INT32,
                       data=np.arange(16, dtype=np.int32))
        out = prog.output("o", (16,), dtype=E.INT32)
        prog.map("q", out, (16,), lambda i: a[i] + big)
        return prog

    said = "OverflowError: integer 1208925819614629174706176 outside int64$"
    with pytest.raises(SimulationError, match="^step 'q': arithmetic "
                       "fault in the reference executor: " + said):
        run_program(build())
    artifact = freeze_program(build(), "wide", "tiny")
    for scheduler in ("event", "dense"):
        with pytest.raises(SimulationError,
                           match=r"arithmetic fault in lanes 0\.\.15: "
                           + said):
            artifact.machine(scheduler=scheduler).run()


def test_simplify_preserves_semantics():
    from repro.patterns.executor import Env, eval_expr
    from repro.patterns.program import Program
    i = E.Idx("i")
    root = (i * 1 + 0) * 3 + (E.wrap(2) + E.wrap(5))
    slim = simplify(root)
    env = Env(Program("t"))
    for value in (0, 1, 7):
        assert eval_expr(root, env, {i: value}) == \
            eval_expr(slim, env, {i: value})


# -- scheduling ----------------------------------------------------------------

def _leaf(stmts, par=16, extent=64):
    i = E.Idx("i")
    ch = CounterChain([Counter(0, extent, par=par)], [i])
    return InnerCompute("t", ch, stmts(i)), i


def test_schedule_counts_value_ops_only():
    a = Sram("a", (64,), E.FLOAT32)
    out = Sram("o", (64,), E.FLOAT32)
    leaf, i = _leaf(lambda i: [WriteStmt(out, (i + 1 - 1,),
                                         a[i * 1] * 2.0 + 1.0)])
    sched = schedule(leaf)
    # mul + add of the value; address arithmetic is PMU-side
    assert len(sched.stages) == 2


def test_schedule_reduction_tree_stages():
    a = Sram("a", (64,), E.FLOAT32)
    acc = Reg("acc")
    va, vb = E.Var("a0"), E.Var("b0")
    leaf, i = _leaf(lambda i: [ReduceStmt((acc,), (a[i],), (va + vb,),
                                          (va,), (vb,), (0.0,))])
    sched = schedule(leaf)
    # 16 lanes: log2(16)=4 tree levels + 1 accumulate
    assert sched.reduction_stages == 5
    assert sched.num_stages == 5  # value is a bare load: 0 compute ops


def test_schedule_scalar_lane_reduction():
    a = Sram("a", (64,), E.FLOAT32)
    acc = Reg("acc")
    va, vb = E.Var("a0"), E.Var("b0")
    i = E.Idx("i")
    ch = CounterChain([Counter(0, 64, par=1)], [i])
    leaf = InnerCompute("t", ch,
                        [ReduceStmt((acc,), (a[i],), (va + vb,), (va,),
                                    (vb,), (0.0,))])
    sched = schedule(leaf)
    assert sched.reduction_stages == 1  # accumulate only, no tree


def test_schedule_io_counts():
    a = Sram("a", (64,), E.FLOAT32)
    b = Sram("b", (64,), E.FLOAT32)
    r = Reg("scale")
    out = Sram("o", (64,), E.FLOAT32)
    leaf, i = _leaf(lambda i: [WriteStmt(out, (i,),
                                         (a[i] + b[i]) * r.read())])
    sched = schedule(leaf)
    assert sched.vector_reads == 2    # a and b
    assert sched.scalar_reads >= 1    # the register
    assert sched.vector_writes == 1


def test_schedule_emit_counts_as_vector_write():
    a = Sram("a", (64,), E.FLOAT32)
    fifo = FifoDecl("f")
    leaf, i = _leaf(lambda i: [EmitStmt(fifo, a[i] > 0.0, a[i])])
    sched = schedule(leaf)
    assert sched.vector_writes >= 1
    assert len(sched.stages) == 1     # the comparison


def test_max_live_tracks_dag_width():
    a = Sram("a", (64,), E.FLOAT32)
    out = Sram("o", (64,), E.FLOAT32)
    # wide expression: four independent products summed pairwise
    leaf, i = _leaf(lambda i: [WriteStmt(
        out, (i,),
        (a[i] * 1.5 + a[i] * 2.5) + (a[i] * 3.5 + a[i] * 4.5))])
    sched = schedule(leaf)
    assert sched.max_live >= 2
