"""The element-wise kernel: expression opcodes over numpy arrays.

The reference executor (``repro.patterns.executor``) and the
simulator's block evaluator (``repro.sim.block``) both compute a node
over many elements at once through these functions.  Each gives the
scalar semantics of ``repro.patterns.expr`` element by element: a value
of a node of each dtype is held in :data:`WIDE` (a FLOAT32 one rounded
to float32), ints divide truncating, ``min`` / ``max`` keep their first
operand unless the second beats it, transcendentals are numpy's.

Where an element may fault — a zero divisor, a transcendental outside
its domain, NaN, infinity or a float past int64 cast to an int, an
int64 result that may have wrapped, a value past its buffer's dtype —
the kernel calls the scalar operation on each flagged element in order
and lets the first exception escape (``ArithmeticError`` /
``ValueError``, for the caller to type); if none raises, the vector
result stands.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.patterns.expr import (_BINARY_EVAL, _UNARY_EVAL, BOOL, FLOAT32,
                                 INT32, INT_MAX, INT_MIN, BinOp)

#: what a node of each dtype holds its values in
WIDE = {FLOAT32: np.float64, INT32: np.int64, BOOL: np.bool_}

COMPARE = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
           "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}
ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _check(bad: Optional[np.ndarray], fn, *arrays) -> None:
    """Call the scalar operation ``fn`` on each element ``bad`` flags
    (None: none), in order: its first exception escapes."""
    if bad is not None and bad.any():
        for j in np.flatnonzero(bad).tolist():
            fn(*[a[j].item() for a in arrays])


def typed(value: np.ndarray, dtype: str) -> np.ndarray:
    """``value`` as a node of ``dtype`` holds it: a FLOAT32 node's are
    float64 rounded to float32, whatever computed them."""
    if dtype == FLOAT32:
        return value.astype(np.float64, copy=False).astype(
            np.float32).astype(np.float64)
    return value.astype(WIDE[dtype], copy=False)


def truth(value: np.ndarray) -> np.ndarray:
    """Python truthiness per element (NaN is true)."""
    return value if value.dtype == np.bool_ else value != 0


def to_int(value: np.ndarray) -> np.ndarray:
    """``to_int`` per element: floats truncate; NaN, infinity and a float
    past int64 fault."""
    if value.dtype.kind == "f":
        _check(~(np.abs(value) < 2.0 ** 63), _UNARY_EVAL["to_int"], value)
    return value.astype(np.int64, copy=False)


def _largest(value: np.ndarray) -> int:
    """The largest magnitude in a non-empty int array."""
    return max(-int(value.min()), int(value.max()))


def _wrapped(op: str, a: np.ndarray, b: np.ndarray):
    """The elements where int64 ``a op b`` may have wrapped; None where
    the largest magnitudes show none can (the usual case, and two
    reductions an operand)."""
    if not len(a):
        return None
    big_a, big_b = _largest(a), _largest(b)
    if (big_a * big_b if op == "mul" else big_a + big_b) <= INT_MAX:
        return None
    # a float result is within a few ulp: past 2**62 it may not fit
    return np.abs(ARITH[op](a, b, dtype=np.float64)) >= 2.0 ** 62


def binary(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op in COMPARE:
        return COMPARE[op](a, b)
    if op == "and":
        return truth(a) & truth(b)
    if op == "or":
        return truth(a) | truth(b)
    ints = a.dtype.kind != "f" and b.dtype.kind != "f"
    if op in ARITH:
        if ints:
            _check(_wrapped(op, a, b), _BINARY_EVAL[op], a, b)
        return ARITH[op](a, b)
    if op in ("min", "max"):
        # min(a, b) keeps a unless b beats it
        return np.where(b < a if op == "min" else b > a, b, a)
    bad = b == 0
    if ints and op == "div":
        bad |= (b == -1) & (a == INT_MIN)
    _check(bad, _BINARY_EVAL[op], a, b)
    if op == "mod":
        return np.remainder(a, b)
    if not ints:
        return a / b
    return (a - np.fmod(a, b)) // b            # ints divide truncating


def unary(op: str, x: np.ndarray) -> np.ndarray:
    if op == "not":
        return ~truth(x)
    if op == "relu":
        return np.where(x > 0, x, x.dtype.type(0))
    if op in ("neg", "abs"):
        if x.dtype.kind == "i":
            _check(x == INT_MIN, _UNARY_EVAL[op], x)
        return -x if op == "neg" else np.abs(x)
    if op == "to_int":
        return to_int(x)
    f = x.astype(np.float64)
    if op == "to_float":
        return f
    if op == "tanh":
        return np.tanh(f)
    if op in ("exp", "sigmoid"):
        arg = f if op == "exp" else -f
        # math.exp overflows past here
        _check((arg > 709.0) & (arg < np.inf), _UNARY_EVAL[op], f)
        e = np.exp(arg)
        return e if op == "exp" else 1.0 / (1.0 + e)
    _check(f <= 0 if op == "log" else f < 0, _UNARY_EVAL[op], f)
    return np.log(f) if op == "log" else np.sqrt(f)


def _store(value, dtype) -> None:
    """What storing one Python scalar into a ``dtype`` buffer does."""
    np.zeros((), dtype)[()] = value


def cast(value: np.ndarray, dtype) -> np.ndarray:
    """``value`` as a buffer of numpy ``dtype`` stores it: a float
    truncates into an int buffer, an int rounds into a float32 one
    through float64; NaN, infinity and ints past the dtype fault."""
    if dtype == np.bool_:
        return truth(value)
    if dtype == np.float32:
        return value.astype(np.float64, copy=False).astype(np.float32)
    info = np.iinfo(dtype)
    whole = np.trunc(value) if value.dtype.kind == "f" else value
    _check(~((whole >= info.min) & (whole <= info.max)),
           lambda v: _store(v, dtype), value)
    return value.astype(dtype)


def simple_op(combines, acc_a, acc_b) -> str:
    """``add`` / ``min`` / ``max`` when every combine is exactly
    ``acc_a[k] op acc_b[k]`` with that one op (a fold :func:`chain` can
    take in one pass), else ``""``."""
    ops = {c.op if isinstance(c, BinOp) and c.lhs is a and c.rhs is b
           else "" for c, a, b in zip(combines, acc_a, acc_b)}
    op = ops.pop() if len(ops) == 1 else ""
    return op if op in ("add", "min", "max") else ""


def chain(op: str, dtype: str, seq: np.ndarray) -> np.ndarray:
    """``acc = acc op v`` over ``seq = [init, v0, v1, ...]`` in order,
    in one pass, for ``op`` in add / min / max: the final ``acc`` as a
    one-element array.  A FLOAT32 sum is sequential, in float32 (every
    element a float); an int sum whose running value may leave int64
    steps through the scalar ``add``."""
    if op == "add":
        if dtype == FLOAT32:
            return np.add.accumulate(seq.astype(np.float32))[-1:].astype(
                np.float64)
        if _largest(seq) * len(seq) <= INT_MAX:
            return seq.sum(keepdims=True)
        acc = seq[0].item()
        for v in seq[1:].tolist():
            acc = _BINARY_EVAL["add"](acc, v)
        return np.array([acc])
    seq = typed(seq, dtype)
    if seq.dtype.kind == "f" and np.isnan(seq[0]):
        return seq[:1]
    # min / max keep the first element no later one beats (NaNs never do)
    best = np.nanmin(seq) if op == "min" else np.nanmax(seq)
    return seq[np.argmax(seq == best)][None]
