"""Symbolic scalar expression IR used by the parallel-pattern frontend.

User functions passed to :class:`~repro.patterns.patterns.Map`,
:class:`~repro.patterns.patterns.Fold`, etc. are *traced*: they are called
with symbolic :class:`Idx` arguments and build an expression tree by operator
overloading.  The tree is what the compiler analyses (access patterns,
operation counts) and what both the reference executor and the cycle-level
simulator evaluate.

The IR is deliberately small: constants, loop indices, loads from symbolic
collections, unary/binary arithmetic, comparisons, select (mux), and a fixed
set of math calls that map one-to-one onto PCU functional-unit opcodes.

Every node has a static ``dtype`` — a PCU functional unit works on 32-bit
words of a fixed type — and its value has that dtype at every point:
arithmetic on a BOOL operand is rejected here, a transcendental is
FLOAT32, and an int reaching a FLOAT32 node (a Select branch, a ``min``
winner, a fold's ``init``) becomes a float32 there.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.errors import TraceError

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

#: Word-level data types supported by Plasticine functional units (32-bit).
FLOAT32 = "float32"
INT32 = "int32"
BOOL = "bool"

#: opcodes that compute on numbers: a BOOL operand is a trace error
_ARITHMETIC = frozenset({"add", "sub", "mul", "div", "mod", "neg", "abs",
                         "relu"})

#: opcodes whose result is FLOAT32 whatever their operand
_TRANSCENDENTAL = frozenset({"exp", "log", "sqrt", "sigmoid", "tanh"})


def unify_dtypes(a: str, b: str) -> str:
    """Return the dtype of a binary op over operands of dtypes ``a``/``b``.

    Follows simple C-like promotion: float32 dominates int32; bool only
    combines with bool.
    """
    if a == b:
        return a
    if {a, b} == {FLOAT32, INT32}:
        return FLOAT32
    raise TraceError(f"cannot unify dtypes {a!r} and {b!r}")


def combine_mismatch(what: str, combines: Sequence["Expr"],
                     accs: Sequence["Var"]) -> Optional[str]:
    """Why ``combines`` break the combine rule, or None.

    A reduction's combine must return its accumulator's dtype: an
    evaluator stores each result back into that accumulator, and a cast
    there would be the evaluator's choice, not the program's.  The
    pattern layer raises the message as a :class:`TraceError`, the DHDL
    layer as an ``IRError``.
    """
    for expr, acc in zip(combines, accs):
        if expr.dtype != acc.dtype:
            return (f"{what} combine returns {expr.dtype} for accumulator "
                    f"{acc.name}, which is {acc.dtype}")
    return None


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all symbolic scalar expressions.

    Subclasses are immutable; structural identity is by object identity
    (shared subtrees are allowed and exploited by the stage scheduler).
    """

    dtype: str = FLOAT32
    #: memo of the simulator's scalar row table (``repro.sim.datapath``)
    _table = None

    # -- operator overloading ------------------------------------------------
    def __add__(self, other):
        return BinOp("add", self, wrap(other))

    def __radd__(self, other):
        return BinOp("add", wrap(other), self)

    def __sub__(self, other):
        return BinOp("sub", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("sub", wrap(other), self)

    def __mul__(self, other):
        return BinOp("mul", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("mul", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("div", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("div", wrap(other), self)

    def __mod__(self, other):
        return BinOp("mod", self, wrap(other))

    def __neg__(self):
        return UnOp("neg", self)

    def __lt__(self, other):
        return BinOp("lt", self, wrap(other))

    def __le__(self, other):
        return BinOp("le", self, wrap(other))

    def __gt__(self, other):
        return BinOp("gt", self, wrap(other))

    def __ge__(self, other):
        return BinOp("ge", self, wrap(other))

    def eq(self, other) -> "BinOp":
        """Element-wise equality (named method; ``__eq__`` is identity)."""
        return BinOp("eq", self, wrap(other))

    def ne(self, other) -> "BinOp":
        """Element-wise inequality."""
        return BinOp("ne", self, wrap(other))

    def __and__(self, other):
        return BinOp("and", self, wrap(other))

    def __or__(self, other):
        return BinOp("or", self, wrap(other))

    def __invert__(self):
        return UnOp("not", self)

    # -- helpers -------------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()

    # no __eq__/__hash__: the defaults already are object identity (use
    # .eq() for symbolic ==), and they run in C


Number = Union[int, float, bool]
ExprLike = Union[Expr, Number]


def wrap(value: ExprLike) -> Expr:
    """Coerce a Python number (or an Expr) into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(value, BOOL)
    if isinstance(value, int):
        return Const(value, INT32)
    if isinstance(value, float):
        return Const(value, FLOAT32)
    raise TraceError(f"cannot use {type(value).__name__} in a traced function")


class Const(Expr):
    """A compile-time scalar constant (an INT32 one inside int64)."""

    def __init__(self, value: Number, dtype: Optional[str] = None):
        if dtype is None:
            dtype = BOOL if isinstance(value, bool) else (
                INT32 if isinstance(value, int) else FLOAT32)
        self.value = int_const(value) if dtype == INT32 else value
        self.dtype = dtype

    def __repr__(self):
        return f"Const({self.value})"


class Idx(Expr):
    """A loop index of a parallel pattern (always int32).

    ``extent`` is the index's domain size when known; the compiler uses it
    for banking and tiling decisions.
    """

    dtype = INT32

    def __init__(self, name: str, extent: Optional[int] = None):
        self.name = name
        self.extent = extent

    def __repr__(self):
        return f"Idx({self.name})"


class Var(Expr):
    """A named symbolic value bound at evaluation time.

    Used for the operands of traced combine functions (the two reduction
    inputs) and for values produced by enclosing pattern stages.
    """

    def __init__(self, name: str, dtype: str = FLOAT32):
        self.name = name
        self.dtype = dtype

    def __repr__(self):
        return f"Var({self.name})"


class Load(Expr):
    """A read of one element from a symbolic collection.

    ``array`` is a :class:`~repro.patterns.collections.Array` handle and
    ``indices`` the per-dimension address expressions.
    """

    def __init__(self, array, indices: Sequence[Expr]):
        self.array = array
        self.indices = tuple(wrap(i) for i in indices)
        if len(self.indices) != len(array.shape):
            raise TraceError(
                f"array {array.name!r} has {len(array.shape)} dims, "
                f"indexed with {len(self.indices)}")
        self.dtype = array.dtype

    def children(self):
        return self.indices

    def __repr__(self):
        return f"Load({self.array.name})"


_BOOL_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne", "and", "or"})

#: Binary opcodes executable by one PCU functional unit stage.
BINARY_OPS = frozenset({
    "add", "sub", "mul", "div", "mod", "min", "max",
}) | _BOOL_OPS


class BinOp(Expr):
    """A binary arithmetic/comparison/logical operation."""

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in BINARY_OPS:
            raise TraceError(f"unknown binary op {op!r}")
        if op in _ARITHMETIC and BOOL in (lhs.dtype, rhs.dtype):
            raise TraceError(f"{op!r} of a bool operand")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        if op in _BOOL_OPS:
            self.dtype = BOOL
        else:
            self.dtype = unify_dtypes(lhs.dtype, rhs.dtype)

    def children(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"BinOp({self.op})"


#: Unary opcodes executable by one PCU functional unit stage.
UNARY_OPS = frozenset({
    "neg", "abs", "exp", "log", "sqrt", "sigmoid", "tanh", "relu",
    "not", "to_float", "to_int",
})


class UnOp(Expr):
    """A unary operation (negation, transcendental, cast, ...)."""

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise TraceError(f"unknown unary op {op!r}")
        if op in _ARITHMETIC and operand.dtype == BOOL:
            raise TraceError(f"{op!r} of a bool operand")
        self.op = op
        self.operand = operand
        if op == "not":
            self.dtype = BOOL
        elif op == "to_float" or op in _TRANSCENDENTAL:
            self.dtype = FLOAT32
        elif op == "to_int":
            self.dtype = INT32
        else:
            self.dtype = operand.dtype

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return f"UnOp({self.op})"


class Select(Expr):
    """``cond ? if_true : if_false`` — maps to a mux in a PCU stage."""

    def __init__(self, cond: ExprLike, if_true: ExprLike, if_false: ExprLike):
        self.cond = wrap(cond)
        self.if_true = wrap(if_true)
        self.if_false = wrap(if_false)
        self.dtype = unify_dtypes(self.if_true.dtype, self.if_false.dtype)

    def children(self):
        return (self.cond, self.if_true, self.if_false)

    def __repr__(self):
        return "Select"


# ---------------------------------------------------------------------------
# Math helpers (the public tracing vocabulary)
# ---------------------------------------------------------------------------


def select(cond: ExprLike, if_true: ExprLike, if_false: ExprLike) -> Expr:
    """Symbolic ternary select."""
    return Select(cond, if_true, if_false)


def minimum(a: ExprLike, b: ExprLike) -> Expr:
    """Element-wise minimum."""
    return BinOp("min", wrap(a), wrap(b))


def maximum(a: ExprLike, b: ExprLike) -> Expr:
    """Element-wise maximum."""
    return BinOp("max", wrap(a), wrap(b))


def exp(x: ExprLike) -> Expr:
    """Symbolic exponential."""
    return UnOp("exp", wrap(x))


def log(x: ExprLike) -> Expr:
    """Symbolic natural logarithm."""
    return UnOp("log", wrap(x))


def sqrt(x: ExprLike) -> Expr:
    """Symbolic square root."""
    return UnOp("sqrt", wrap(x))


def sigmoid(x: ExprLike) -> Expr:
    """Symbolic logistic sigmoid."""
    return UnOp("sigmoid", wrap(x))


def tanh(x: ExprLike) -> Expr:
    """Symbolic hyperbolic tangent."""
    return UnOp("tanh", wrap(x))


def relu(x: ExprLike) -> Expr:
    """Symbolic rectified linear unit."""
    return UnOp("relu", wrap(x))


def absolute(x: ExprLike) -> Expr:
    """Symbolic absolute value."""
    return UnOp("abs", wrap(x))


def to_float(x: ExprLike) -> Expr:
    """Cast to float32."""
    return UnOp("to_float", wrap(x))


def to_int(x: ExprLike) -> Expr:
    """Cast (truncate) to int32."""
    return UnOp("to_int", wrap(x))


# ---------------------------------------------------------------------------
# Scalar evaluation (shared by executor and simulator datapaths)
# ---------------------------------------------------------------------------

#: the values an INT32 node may hold: a result outside them — a sum,
#: product, quotient, negation or ``to_int`` past int64, a fold's
#: running value — is an arithmetic fault, ``OverflowError``
INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1


def _int(value):
    """``value``, unless it is an int outside ``[INT_MIN, INT_MAX]``."""
    if type(value) is int and not INT_MIN <= value <= INT_MAX:
        raise OverflowError(f"integer {value} outside int64")
    return value


def int_const(value):
    """An INT32 constant's value: one outside int64 is a trace error."""
    try:
        return _int(value)
    except OverflowError as err:
        raise TraceError(f"INT32 constant: {err}") from None


_UNARY_EVAL = {
    "neg": lambda x: _int(-x),
    "abs": lambda x: _int(abs(x)),
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
    "tanh": math.tanh,
    "relu": lambda x: x if x > 0 else type(x)(0),
    "not": lambda x: not x,
    "to_float": float,
    "to_int": lambda x: _int(int(x)),
}

def _eval_div(a, b):
    """Divide with FU semantics: float division, or truncating int division."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    if b == 0:
        raise ZeroDivisionError("integer division by zero in traced expression")
    quotient = abs(a) // abs(b)
    return _int(quotient if (a < 0) == (b < 0) else -quotient)


_BINARY_EVAL = {
    "add": lambda a, b: _int(a + b),
    "sub": lambda a, b: _int(a - b),
    "mul": lambda a, b: _int(a * b),
    "div": _eval_div,
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


def eval_unary(op: str, x):
    """Evaluate a unary opcode on a concrete scalar (FU semantics)."""
    return _UNARY_EVAL[op](x)


def eval_binary(op: str, a, b):
    """Evaluate a binary opcode on concrete scalars (FU semantics)."""
    return _BINARY_EVAL[op](a, b)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def postorder(root: Expr) -> Iterable[Expr]:
    """Yield each distinct node of the expression DAG in post-order."""
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            yield node
        else:
            stack.append((node, True))
            for child in node.children():
                if child not in seen:
                    stack.append((child, False))


def collect_loads(root: Expr) -> Tuple[Load, ...]:
    """All :class:`Load` nodes in an expression DAG, in post-order."""
    return tuple(n for n in postorder(root) if isinstance(n, Load))


def collect_indices(root: Expr) -> Tuple[Idx, ...]:
    """All distinct :class:`Idx` nodes in an expression DAG."""
    return tuple(n for n in postorder(root) if isinstance(n, Idx))
