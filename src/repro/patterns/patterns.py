"""The four parallel patterns of the Plasticine programming model.

``Map``, ``FlatMap``, ``Fold`` and ``HashReduce`` (Table 1 of the paper),
plus ``ScatterMap`` for random writes (the paper's scatter support, used by
BFS).  Patterns are *traced* at construction time: user functions are called
once with symbolic :class:`~repro.patterns.expr.Idx` arguments and must
build :class:`~repro.patterns.expr.Expr` trees (or nested scalar patterns).

Values produced by patterns:

* ``Map`` over an n-d domain produces an n-d collection (or a tuple of them
  when the body returns a tuple);
* ``Fold`` produces a scalar (or scalar tuple);
* ``Map`` whose body returns a ``Fold`` produces an n-d collection computed
  by a nested reduction (e.g. GEMM);
* ``FlatMap`` produces a dynamically sized 1-d collection plus its length;
* ``HashReduce`` produces a statically sized 1-d collection of bins;
* ``ScatterMap`` updates an existing collection at computed indices.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

from repro.errors import PatternError, TraceError
from repro.patterns import expr as E
from repro.patterns.domain import normalize_domain, static_trip_count

Value = Union[E.Expr, "Fold"]


def _as_tuple(value) -> Tuple:
    return value if isinstance(value, tuple) else (value,)


def _init_as(value, dtype: str):
    """An accumulator's ``init`` as its dtype holds it: an INT32 one's
    is an int inside int64, a BOOL one's a bool (a FLOAT32 one is
    rounded where it is read)."""
    if dtype == E.INT32:
        return E.int_const(int(value))
    if dtype == E.BOOL:
        return bool(value)
    return value


def _wrap_exprs(values, what: str) -> Tuple[E.Expr, ...]:
    wrapped = []
    for value in values:
        if isinstance(value, (E.Expr, int, float, bool)):
            wrapped.append(E.wrap(value))
        else:
            raise TraceError(
                f"{what} must return Expr(s), got {type(value).__name__}")
    return tuple(wrapped)


def _check_combine(what: str, combine, acc_a) -> None:
    """:func:`repro.patterns.expr.combine_mismatch`, as a TraceError."""
    problem = E.combine_mismatch(what, combine, acc_a)
    if problem:
        raise TraceError(problem)


class Pattern:
    """Base class of all parallel patterns."""

    def __init__(self, domain, prev_indices: Sequence[E.Idx] = ()):
        self.dims, self.indices = normalize_domain(domain, prev_indices)

    @property
    def ndim(self) -> int:
        """Number of domain dimensions."""
        return len(self.dims)

    def trip_hint(self) -> int:
        """Static estimate of the total iteration count."""
        return static_trip_count(self.dims)


class Fold(Pattern):
    """Map each index to value(s) with ``f`` then reduce with ``r``.

    Parameters
    ----------
    domain:
        Domain spec (see :mod:`repro.patterns.domain`).
    init:
        Initial accumulator value(s): a number or tuple of numbers, each
        taken as its accumulator's dtype (the dtype ``f`` returns).
    f:
        Map function: called with one symbolic index per dimension, returns
        an ``Expr`` (or tuple of ``Expr`` for multi-accumulator folds).
    r:
        Associative combine: called with two symbolic accumulator values
        (tuples for multi-accumulator folds), returns the combined value(s).
    prev_indices:
        Enclosing-pattern indices (supplied automatically when nested).
    """

    def __init__(self, domain, init, f: Callable, r: Callable,
                 prev_indices: Sequence[E.Idx] = ()):
        super().__init__(domain, prev_indices)
        self.init = _as_tuple(init)
        self.width = len(self.init)
        self.body = _wrap_exprs(_as_tuple(f(*self.indices)),
                                "Fold map function")
        if len(self.body) != self.width:
            raise TraceError(
                f"Fold init has {self.width} value(s) but map function "
                f"returned {len(self.body)}")
        self.acc_a = tuple(
            E.Var(f"acc_a{k}", self.body[k].dtype) for k in range(self.width))
        self.init = tuple(_init_as(v, a.dtype)
                          for v, a in zip(self.init, self.acc_a))
        self.acc_b = tuple(
            E.Var(f"acc_b{k}", self.body[k].dtype) for k in range(self.width))
        combined = r(self.acc_a[0], self.acc_b[0]) if self.width == 1 else r(
            self.acc_a, self.acc_b)
        self.combine = _wrap_exprs(_as_tuple(combined),
                                   "Fold combine function")
        if len(self.combine) != self.width:
            raise TraceError(
                f"Fold combine returned {len(self.combine)} value(s), "
                f"expected {self.width}")
        _check_combine("Fold", self.combine, self.acc_a)

    def __repr__(self):
        return f"Fold(ndim={self.ndim}, width={self.width})"


class Map(Pattern):
    """Produce one value (or value tuple) per index with function ``f``.

    The body may itself be a scalar-producing :class:`Fold` (nested
    reduction), which is how GEMM, GDA, CNN and the sparse row-reductions
    are expressed.
    """

    def __init__(self, domain, f: Callable,
                 prev_indices: Sequence[E.Idx] = ()):
        super().__init__(domain, prev_indices)
        body = f(*self.indices)
        self.body = _as_tuple(body)
        self.width = len(self.body)
        self.inner: Optional[Fold] = None
        if any(isinstance(v, Fold) for v in self.body):
            if self.width != 1:
                raise TraceError(
                    "a Map body returning a nested Fold must be scalar")
            self.inner = self.body[0]
            if not isinstance(self.inner, Fold):
                raise TraceError("nested pattern must be a Fold")
        else:
            self.body = _wrap_exprs(self.body, "Map function")

    def fold(self, domain, init, f: Callable, r: Callable) -> Fold:
        """Construct a :class:`Fold` nested under this map's indices.

        Only needed when the nested domain must reference this map's
        indices through a callable range; otherwise constructing ``Fold``
        directly inside the body is equivalent.
        """
        return Fold(domain, init, f, r, prev_indices=self.indices)

    @property
    def out_width(self) -> int:
        """Number of collections this map produces (nested folds may carry
        multiple accumulators, e.g. argmin's (best, argbest))."""
        return self.inner.width if self.inner is not None else self.width

    def __repr__(self):
        nested = ", nested" if self.inner is not None else ""
        return f"Map(ndim={self.ndim}{nested})"


class FlatMap(Pattern):
    """Produce zero or more elements per index, concatenated in order.

    The body function returns a list of ``(condition, value)`` pairs; for
    each index, every pair whose condition evaluates true appends its value
    to the output.  A filter is the one-pair special case.  Outputs are
    1-d and dynamically sized; the pattern also produces the output length.
    """

    def __init__(self, domain, g: Callable,
                 prev_indices: Sequence[E.Idx] = ()):
        super().__init__(domain, prev_indices)
        produced = g(*self.indices)
        if isinstance(produced, tuple) and len(produced) == 2 and isinstance(
                produced[0], E.Expr):
            produced = [produced]
        if not isinstance(produced, (list, tuple)) or not produced:
            raise TraceError(
                "FlatMap function must return a non-empty list of "
                "(condition, value) pairs")
        self.emits = []
        for pair in produced:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise TraceError(
                    "each FlatMap emission must be a (condition, value) pair")
            cond, value = E.wrap(pair[0]), E.wrap(pair[1])
            self.emits.append((cond, value))
        self.out_dtype = self.emits[0][1].dtype
        for _, value in self.emits:
            if value.dtype != self.out_dtype:
                raise TraceError("FlatMap emissions must share one dtype")

    def __repr__(self):
        return f"FlatMap(ndim={self.ndim}, emits={len(self.emits)})"


def Filter(domain, cond: Callable, value: Callable) -> FlatMap:
    """Conditional selection: keep ``value(i)`` where ``cond(i)`` holds."""
    return FlatMap(domain, lambda *idx: [(cond(*idx), value(*idx))])


class HashReduce(Pattern):
    """Reduce values into keyed accumulator bins.

    ``bins`` is the static number of accumulators (the dense form the
    paper's benchmarks, e.g. Kmeans, use); the key function must produce
    an int32 bin index in ``[0, bins)``.  Each accumulator has its
    value's dtype, and ``init`` is taken as that dtype (``0.0`` for an
    INT32 value is ``0``).
    """

    def __init__(self, domain, key: Callable, value: Callable, r: Callable,
                 bins: int, init=0.0, prev_indices: Sequence[E.Idx] = ()):
        super().__init__(domain, prev_indices)
        self.bins = bins
        key_expr = key(*self.indices)
        if not isinstance(key_expr, E.Expr) or key_expr.dtype != E.INT32:
            raise TraceError("HashReduce key function must return an int32 "
                             "expression")
        self.key = key_expr
        self.value = _wrap_exprs(_as_tuple(value(*self.indices)),
                                 "HashReduce value function")
        self.width = len(self.value)
        self.init = _as_tuple(init)
        if len(self.init) != self.width:
            raise TraceError("HashReduce init width must match value width")
        self.acc_a = tuple(
            E.Var(f"acc_a{k}", self.value[k].dtype) for k in range(self.width))
        self.init = tuple(_init_as(v, a.dtype)
                          for v, a in zip(self.init, self.acc_a))
        self.acc_b = tuple(
            E.Var(f"acc_b{k}", self.value[k].dtype) for k in range(self.width))
        combined = r(self.acc_a[0], self.acc_b[0]) if self.width == 1 else r(
            self.acc_a, self.acc_b)
        self.combine = _wrap_exprs(_as_tuple(combined),
                                   "HashReduce combine function")
        _check_combine("HashReduce", self.combine, self.acc_a)

    def __repr__(self):
        return f"HashReduce(bins={self.bins}, width={self.width})"


class ScatterMap(Pattern):
    """Write ``value(i)`` to ``target[index(i)]`` for every domain index.

    Models the paper's scatter support (random writes sequentialised and
    coalesced by the memory system).  Writes to distinct indices are
    unordered; programs must not rely on collision order.
    """

    def __init__(self, domain, index: Callable, value: Callable,
                 prev_indices: Sequence[E.Idx] = ()):
        super().__init__(domain, prev_indices)
        self.index = index(*self.indices)
        if not isinstance(self.index, E.Expr) or self.index.dtype != E.INT32:
            raise TraceError("ScatterMap index function must return int32")
        self.value = E.wrap(value(*self.indices))

    def __repr__(self):
        return f"ScatterMap(ndim={self.ndim})"
