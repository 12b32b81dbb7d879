"""Unit tests for the symbolic expression IR."""

import math

import pytest

from repro.errors import TraceError
from repro.patterns import expr as E


def test_wrap_numbers():
    assert isinstance(E.wrap(3), E.Const)
    assert E.wrap(3).dtype == E.INT32
    assert E.wrap(3.5).dtype == E.FLOAT32
    assert E.wrap(True).dtype == E.BOOL
    node = E.Const(1)
    assert E.wrap(node) is node


def test_wrap_rejects_foreign_types():
    with pytest.raises(TraceError):
        E.wrap("hello")


def test_an_int_constant_past_int64_is_a_trace_error():
    assert E.wrap(2 ** 63 - 1).value == 2 ** 63 - 1
    assert E.Const(-2 ** 63, E.INT32).value == -2 ** 63
    for value in (2 ** 63, -2 ** 63 - 1, 2 ** 79):
        with pytest.raises(TraceError, match="outside int64"):
            E.wrap(value)
        with pytest.raises(TraceError, match="outside int64"):
            E.Idx("i") + E.Const(value, E.INT32)


def test_an_int_result_past_int64_is_an_overflow_error():
    """One rule for every scalar op: an int result outside int64
    faults, with one message."""
    big = 2 ** 63 - 1
    for op, args in (("add", (big, 1)), ("sub", (-big, 2)),
                     ("mul", (2 ** 32, 2 ** 31)), ("div", (-big - 1, -1))):
        with pytest.raises(OverflowError, match="^integer .* outside int64$"):
            E.eval_binary(op, *args)
    for op, arg in (("neg", -big - 1), ("abs", -big - 1), ("to_int", 1e19)):
        with pytest.raises(OverflowError, match="^integer .* outside int64$"):
            E.eval_unary(op, arg)
    assert E.eval_binary("add", big, 0.5) == 2.0 ** 63     # floats grow
    assert E.eval_unary("to_int", -2.0 ** 63) == -big - 1


def test_operator_overloading_builds_binops():
    i = E.Idx("i")
    node = (i + 1) * 2 - 3
    assert isinstance(node, E.BinOp)
    assert node.op == "sub"
    assert node.lhs.op == "mul"
    assert node.lhs.lhs.op == "add"


def test_reflected_operators():
    i = E.Idx("i")
    node = 10 - i
    assert node.op == "sub"
    assert isinstance(node.lhs, E.Const) and node.lhs.value == 10


def test_dtype_promotion():
    i = E.Idx("i")
    assert (i + 1).dtype == E.INT32
    assert (i + 1.0).dtype == E.FLOAT32
    assert (i < 1).dtype == E.BOOL


def test_dtype_unify_rejects_bool_plus_int():
    with pytest.raises(TraceError):
        E.unify_dtypes(E.BOOL, E.INT32)


def test_arithmetic_on_bool_is_a_trace_error():
    """A node's value has its dtype at every point: bool + bool would be
    an int at a BOOL node."""
    i = E.Idx("i")
    flag = i < 1
    for build in (lambda: flag + flag, lambda: -flag, lambda: flag * flag,
                  lambda: E.absolute(flag), lambda: E.relu(flag),
                  lambda: flag % flag, lambda: flag / flag):
        with pytest.raises(TraceError, match="bool operand"):
            build()
    # logic, comparison, selection and casts of a bool stay legal
    assert (flag & flag).dtype == (~flag).dtype == E.BOOL
    assert E.select(flag, flag, ~flag).dtype == E.BOOL
    assert E.to_int(flag).dtype == E.INT32


def test_transcendentals_are_float32():
    i = E.Idx("i")
    for fn in (E.exp, E.log, E.sqrt, E.sigmoid, E.tanh):
        assert fn(i).dtype == E.FLOAT32
        assert fn(E.wrap(2)).dtype == E.FLOAT32
    assert E.absolute(i).dtype == E.relu(i).dtype == (-i).dtype == E.INT32


def test_comparison_ops_are_bool():
    i = E.Idx("i")
    for node in (i < 1, i <= 1, i > 1, i >= 1, i.eq(1), i.ne(1)):
        assert node.dtype == E.BOOL


def test_select_dtype():
    i = E.Idx("i")
    node = E.select(i < 1, 1.0, 2.0)
    assert node.dtype == E.FLOAT32
    assert len(node.children()) == 3


def test_unary_helpers():
    x = E.Var("x")
    assert E.exp(x).op == "exp"
    assert E.sqrt(x).op == "sqrt"
    assert E.to_int(x).dtype == E.INT32
    assert E.to_float(E.Idx("i")).dtype == E.FLOAT32
    assert (-x).op == "neg"
    assert (~(x < 1)).op == "not"


def test_unknown_ops_rejected():
    with pytest.raises(TraceError):
        E.BinOp("pow", E.wrap(1), E.wrap(2))
    with pytest.raises(TraceError):
        E.UnOp("sin", E.wrap(1.0))


def test_eval_binary_semantics():
    assert E.eval_binary("add", 2, 3) == 5
    assert E.eval_binary("div", 7.0, 2.0) == 3.5
    assert E.eval_binary("div", 7, 2) == 3
    assert E.eval_binary("div", -7, 2) == -3  # truncation toward zero
    assert E.eval_binary("min", 4, 9) == 4
    assert E.eval_binary("max", 4, 9) == 9
    assert E.eval_binary("and", True, False) is False


def test_eval_binary_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        E.eval_binary("div", 1, 0)


def test_eval_unary_semantics():
    assert E.eval_unary("neg", 4) == -4
    assert E.eval_unary("relu", -2.0) == 0.0
    assert E.eval_unary("relu", 2.0) == 2.0
    assert math.isclose(E.eval_unary("sigmoid", 0.0), 0.5)
    assert E.eval_unary("to_int", 2.7) == 2


def test_postorder_visits_each_node_once():
    i = E.Idx("i")
    shared = i * 2
    root = shared + shared
    nodes = list(E.postorder(root))
    assert nodes.count(shared) == 1
    assert nodes[-1] is root


def test_count_ops_shares_subtrees():
    """A lane's op count is the row table's: each compute node once."""
    from repro.sim.datapath import Table
    i = E.Idx("i")
    shared = i * 2
    root = shared + shared
    assert Table((root,)).ops() == 2  # mul and add, mul counted once


def test_collect_indices_and_loads():
    from repro.patterns.collections import Array
    a = Array("a", (4,), E.FLOAT32)
    i = E.Idx("i")
    j = E.Idx("j")
    root = a[i] + a[j] * 2.0
    assert set(E.collect_indices(root)) == {i, j}
    assert len(E.collect_loads(root)) == 2
