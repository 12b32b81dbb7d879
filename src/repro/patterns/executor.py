"""Reference executor: interprets a :class:`~repro.patterns.program.Program`.

This is the functional semantics of the pattern language — the ground truth
every compiled-and-simulated configuration is validated against.  It shares
no code with the simulator's datapath generator (``repro.sim.datapath``),
because both simulators are judged against it.

A pattern's index domain is static and data-parallel by construction, so
each :class:`Step` is evaluated once over its whole domain: every
expression node is one numpy operation over all the points that reach it.
The answers are those of a per-element interpreter over Python scalars:
bit for bit, except that a value computed through ``exp`` / ``log`` /
``sigmoid`` / ``tanh`` uses numpy's functions, not ``math``'s, and
agrees with the scalar result only to within the fuzz oracle's
tolerance.  The rules:

* ints are int64 and floats float64, rounded to float32 after every
  FLOAT32-typed node that yields a float — constants and bound symbols
  (a fold's ``init``) included.  A load widens its buffer's dtype (a 0-d
  cell too).  Python's types travel with the values: a node whose points
  disagree (a ``Select`` over an int and a float branch) holds both, and
  an operation on it runs once per type combination;
* a ``Select`` evaluates each branch only on the points that take it,
  and a FlatMap emission value only where its condition holds, so an
  untaken side does no bounds check and raises nothing.  Nodes are
  memoised per (node, point set); a subset reads what its superset has
  already computed;
* a Fold nested in a Map steps its position ``k = 0, 1, ...`` in order
  across the whole outer domain, dropping the points whose range has
  ended: each point accumulates in its own order, and memory stays one
  slab of the outer domain;
* a top-level Fold (or one under a single outer point) whose combine is
  exactly ``acc_a ⊕ acc_b`` for ⊕ in {add, min, max} reduces in one
  pass (a sequential float32 ``accumulate`` for a sum, the first
  extreme for min / max); any other
  combine, and a HashReduce's, steps by occurrence rank within each key,
  points sorted by key in domain order, so every bin sees its values in
  domain order;
* a FlatMap's output is point-major, pair-minor: positions come from a
  cumsum over the stacked emission masks.  A ScatterMap is one
  fancy-index store: on a collision the last writer wins;
* a step that reads an array it writes anywhere but at the point's own
  output index (a prefix recurrence, a FlatMap or scatter reading its
  target) runs its points one at a time in domain order, each to
  completion before the next, through the same evaluator;
* every fault the scalar semantics raise is a :class:`SimulationError`,
  and it is the one they meet first.  A whole-domain pass checks one
  node over all points before the next node, so the fault it finds
  first may belong to a later point; a step whose pass faults therefore
  runs again one point at a time in domain order, from the buffers it
  started with, and raises what that run meets.  The faults: an
  out-of-bounds read (one vectorised check per load), a key or scatter
  index out of range, a FlatMap overflow (raised before the value that
  would not fit), and the program's own arithmetic faults — division
  by zero, ``log`` / ``sqrt`` of a negative, ``exp`` overflow, NaN or
  infinity cast to an int, an int past int32 stored to an int32 array —
  worded ``step 'name': arithmetic fault ...: <Python's exception>``.
  Ints past int64 (Python's would grow) are outside the modelled
  machine.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import Array, _np_dtype
from repro.patterns.domain import DynDim, RangeDim, StaticDim
from repro.patterns.patterns import (FlatMap, Fold, HashReduce, Map,
                                     ScatterMap)
from repro.patterns.program import Loop, Program, Step


class Env:
    """Runtime environment: one numpy buffer per program array."""

    def __init__(self, program: Program):
        self.program = program
        self.buffers: Dict[str, np.ndarray] = {}
        for array in program.arrays.values():
            self._alloc(array)

    def _alloc(self, array: Array):
        np_dtype = _np_dtype(array.dtype)
        if array.data is not None:
            self.buffers[array.name] = array.data.astype(
                np_dtype, copy=True)
        elif array.is_dynamic:
            self.buffers[array.name] = np.zeros(array.static_elems(),
                                                dtype=np_dtype)
        else:
            self.buffers[array.name] = np.zeros(array.shape, dtype=np_dtype)

    def write(self, array: Array, idxs, value):
        """Write one element."""
        buf = self.buffers[array.name]
        if not idxs:
            buf[()] = value
        else:
            buf[tuple(idxs)] = value

    def scalar(self, array: Array):
        """Value of a 0-d cell."""
        return self.buffers[array.name][()].item()


# ---------------------------------------------------------------------------
# Values: one array per node over a point set
# ---------------------------------------------------------------------------


class _Mixed:
    """A value that is an int at some points and a float at others.
    Division, rounding and casts depend on the type, so both travel."""

    __slots__ = ("isf", "ints", "floats")

    def __init__(self, isf, ints, floats):
        self.isf = isf
        self.ints = ints
        self.floats = floats

    def __len__(self):
        return len(self.isf)


def _take(value, sel):
    """``value`` at positions ``sel``."""
    if not isinstance(value, _Mixed):
        return value[sel]
    isf = value.isf[sel]
    if isf.all():
        return value.floats[sel]
    if not isf.any():
        return value.ints[sel]
    return _Mixed(isf, value.ints[sel], value.floats[sel])


def _merge(n: int, parts):
    """One value over ``n`` points from disjoint ``(positions, value)``
    parts that cover them."""
    parts = [(sel, v) for sel, v in parts if len(sel)] or parts[:1]
    kinds = {v.dtype.kind if isinstance(v, np.ndarray) else "m"
             for _, v in parts}
    if len(kinds) == 1 or kinds == {"b", "i"}:
        dtype = parts[0][1].dtype if len(kinds) == 1 else np.int64
        if "m" not in kinds:
            out = np.empty(n, dtype)
            for sel, v in parts:
                out[sel] = v
            return out
    mixed = _Mixed(np.zeros(n, bool), np.zeros(n, np.int64), np.zeros(n))
    for sel, v in parts:
        if isinstance(v, _Mixed):
            mixed.isf[sel] = v.isf
            mixed.ints[sel] = v.ints
            mixed.floats[sel] = v.floats
        elif v.dtype.kind == "f":
            mixed.isf[sel] = True
            mixed.floats[sel] = v
        else:
            mixed.ints[sel] = v
    return _take(mixed, slice(None))


def _assign(dst, where, src):
    """``dst`` with positions ``where`` replaced by ``src``."""
    if isinstance(dst, np.ndarray) and isinstance(src, np.ndarray) \
            and dst.dtype == src.dtype:
        dst[where] = src
        return dst
    keep = np.ones(len(dst), bool)
    keep[where] = False
    rest = np.flatnonzero(keep)
    return _merge(len(dst), [(rest, _take(dst, rest)), (where, src)])


def _lift(fn, *args):
    """``fn`` over uniformly typed arrays, applied to ``args`` once per
    combination of types their points hold."""
    mixed = [a for a in args if isinstance(a, _Mixed)]
    if not mixed:
        return fn(*args)
    code = np.zeros(len(mixed[0]), np.int64)
    for a in mixed:
        code = code * 2 + a.isf
    parts = []
    for c in np.unique(code):
        sel = np.flatnonzero(code == c)
        parts.append((sel, fn(*[_take(a, sel) for a in args])))
    return _merge(len(code), parts)


def _widen(a: np.ndarray) -> np.ndarray:
    """A buffer's values as the executor computes with them."""
    if a.dtype.kind == "f":
        return a.astype(np.float64)
    if a.dtype.kind in "iu":
        return a.astype(np.int64)
    return a


def _round32(value):
    """Round the float points of a FLOAT32-typed node to float32."""
    if isinstance(value, _Mixed):
        return _Mixed(value.isf, value.ints, _round32(value.floats))
    if value.dtype.kind == "f":
        return value.astype(np.float32).astype(np.float64)
    return value


def _num(a: np.ndarray) -> np.ndarray:
    """Bools count as ints in arithmetic, as Python's do."""
    return a.astype(np.int64) if a.dtype == bool else a


def _truth(value) -> np.ndarray:
    """Python truthiness per point (NaN is true)."""
    return _lift(lambda a: a if a.dtype == bool else a != 0, value)


def _item(value, pos: int = 0):
    """The Python scalar at one position."""
    if isinstance(value, _Mixed):
        value = value.floats if value.isf[pos] else value.ints
    return value[pos].item()


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def _raise_first(unit: str, mask, fn, *arrays) -> None:
    """Raise, typed, the error the scalar operation ``fn`` raises at the
    first point of ``mask`` where it raises one."""
    for j in np.flatnonzero(mask):
        try:
            fn(*[a[j].item() for a in arrays])
        except (ArithmeticError, ValueError) as err:
            raise SimulationError(
                f"{unit}: arithmetic fault in the reference executor: "
                f"{type(err).__name__}: {err}") from None


def _store_scalar(value, dtype=np.int32) -> None:
    """What storing one Python scalar into a ``dtype`` buffer does."""
    cell = np.zeros((), dtype)
    cell[()] = value


_I32 = np.iinfo(np.int32)


def _cast(value, dtype, unit: str) -> np.ndarray:
    """``value`` as a buffer of ``dtype`` stores it — a float truncates
    into an int buffer; NaN, infinity and ints past int32 fault there."""
    if dtype == np.bool_:
        return _truth(value)

    def cast(a):
        if dtype == np.float32:
            return a.astype(np.float32)
        whole = np.trunc(a) if a.dtype.kind == "f" else a
        bad = ~((whole >= _I32.min) & (whole <= _I32.max))
        if bad.any():
            _raise_first(unit, bad, _store_scalar, a)
        return a.astype(np.int32)
    return _lift(cast, value)


# ---------------------------------------------------------------------------
# Operations (Python scalar semantics, over arrays)
# ---------------------------------------------------------------------------

_COMPARE = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
            "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}
_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _to_int(a: np.ndarray, unit: str) -> np.ndarray:
    """``int(x)`` per point: floats truncate; NaN and infinity fault."""
    if a.dtype.kind == "f":
        bad = ~np.isfinite(a)
        if bad.any():
            _raise_first(unit, bad, int, a)
    return a if a.dtype == np.int64 else a.astype(np.int64)


def _binary(op: str, a: np.ndarray, b: np.ndarray, unit: str):
    if op in _COMPARE:
        return _COMPARE[op](a, b)
    if op == "and":
        return _truth(a) & _truth(b)
    if op == "or":
        return _truth(a) | _truth(b)
    a, b = _num(a), _num(b)
    if op in _ARITH:
        return _ARITH[op](a, b)
    if op in ("min", "max"):
        # min(a, b) keeps a unless b beats it — and keeps a's type
        pick = b < a if op == "min" else b > a
        if a.dtype == b.dtype:
            return np.where(pick, b, a)
        return _merge(len(a), [(np.flatnonzero(pick), b[pick]),
                               (np.flatnonzero(~pick), a[~pick])])
    zero = b == 0
    if zero.any():
        _raise_first(unit, zero, E._BINARY_EVAL[op], a, b)
    if op == "mod":
        return np.remainder(a, b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return a / b
    quotient = np.abs(a) // np.abs(b)        # ints divide truncating
    return np.where((a < 0) == (b < 0), quotient, -quotient)


def _unary(op: str, x: np.ndarray, unit: str):
    if op == "not":
        return ~_truth(x)
    if op == "relu":
        return x if x.dtype == bool else np.where(x > 0, x, x.dtype.type(0))
    x = _num(x)
    if op == "neg":
        return -x
    if op == "abs":
        return np.abs(x)
    if op == "to_int":
        return _to_int(x, unit)
    f = x.astype(np.float64)
    if op == "to_float":
        return f
    if op == "tanh":
        return np.tanh(f)
    if op in ("exp", "sigmoid"):
        arg = f if op == "exp" else -f
        near = (arg > 709.0) & (arg < np.inf)  # math.exp overflows here
        if near.any():
            _raise_first(unit, near, E._UNARY_EVAL[op], f)
        e = np.exp(arg)
        return e if op == "exp" else 1.0 / (1.0 + e)
    bad = f <= 0 if op == "log" else f < 0
    if bad.any():
        _raise_first(unit, bad, E._UNARY_EVAL[op], f)
    return np.log(f) if op == "log" else np.sqrt(f)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class _Points:
    """A set of domain points: the values of each bound symbol
    (:class:`Idx` / :class:`Var`) there, and the memo of the nodes
    evaluated over exactly this set.  A subset (``parent``, ``sel``)
    reads what its supersets have already computed."""

    __slots__ = ("env", "unit", "n", "bind", "memo", "parent", "sel")

    def __init__(self, env: Env, unit: str, n: int, bind,
                 parent: Optional["_Points"] = None, sel=None):
        self.env = env
        self.unit = unit
        self.n = n
        self.bind = bind
        self.memo = {}
        self.parent = parent
        self.sel = sel

    def subset(self, sel, extra=None) -> "_Points":
        """The points at positions ``sel`` (``None``: all of them), with
        ``extra`` symbols bound on top."""
        if sel is None:
            bind, n = dict(self.bind), self.n
        else:
            bind = {k: _take(v, sel) for k, v in self.bind.items()}
            n = len(sel)
        if extra:
            bind.update(extra)
        return _Points(self.env, self.unit, n, bind, self, sel)

    def inherited(self, node: E.Expr):
        pts, sel = self, None
        while pts.parent is not None:
            if pts.sel is not None:
                sel = pts.sel if sel is None else pts.sel[sel]
            pts = pts.parent
            value = pts.memo.get(node)
            if value is not None:
                return value if sel is None else _take(value, sel)
        return None


def _eval(node: E.Expr, pts: _Points):
    """The value of ``node`` at every point of ``pts``."""
    value = pts.memo.get(node)
    if value is None:
        value = pts.inherited(node)
        if value is None:
            value = _compute(node, pts)
        pts.memo[node] = value
    return value


def _compute(node: E.Expr, pts: _Points):
    if isinstance(node, E.Const):
        value = np.full(pts.n, node.value)
    elif isinstance(node, (E.Idx, E.Var)):
        value = pts.bind.get(node)
        if value is None:
            raise SimulationError(f"unbound symbol {node!r}")
    elif isinstance(node, E.Load):
        value = _load(node, pts)
    elif isinstance(node, E.BinOp):
        lhs, rhs = _eval(node.lhs, pts), _eval(node.rhs, pts)
        value = _lift(lambda a, b: _binary(node.op, a, b, pts.unit),
                      lhs, rhs)
    elif isinstance(node, E.UnOp):
        value = _lift(lambda x: _unary(node.op, x, pts.unit),
                      _eval(node.operand, pts))
    elif isinstance(node, E.Select):
        value = _select(node, pts)
    else:
        raise SimulationError(f"cannot evaluate node {node!r}")
    return _round32(value) if node.dtype == E.FLOAT32 else value


def _select(node: E.Select, pts: _Points):
    take = _truth(_eval(node.cond, pts))
    if take.all():
        return _eval(node.if_true, pts)
    if not take.any():
        return _eval(node.if_false, pts)
    yes, no = np.flatnonzero(take), np.flatnonzero(~take)
    return _merge(pts.n, [(yes, _eval(node.if_true, pts.subset(yes))),
                          (no, _eval(node.if_false, pts.subset(no)))])


def _index(value, unit: str) -> np.ndarray:
    return _lift(lambda a: _to_int(_num(a), unit), value)


def _load(node: E.Load, pts: _Points) -> np.ndarray:
    buf = pts.env.buffers[node.array.name]
    if not node.indices:
        return _widen(np.full(pts.n, buf[()] if buf.shape == ()
                              else buf.reshape(-1)[0]))
    idxs = [_index(_eval(i, pts), pts.unit) for i in node.indices]
    if not pts.n:
        return _widen(buf.reshape(-1)[:0])
    bad = np.zeros(pts.n, bool)
    for axis, ix in enumerate(idxs):
        size = buf.shape[axis] if axis < buf.ndim else 0
        bad |= (ix < 0) | (ix >= size)
    if bad.any():
        j = int(np.argmax(bad))
        raise SimulationError(
            f"out-of-bounds read {node.array.name}"
            f"[{[int(ix[j]) for ix in idxs]}] (buffer shape {buf.shape})")
    return _widen(buf[tuple(idxs)])


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


def _bounds(dim, pts: _Points):
    """``(lo, hi)`` of one dimension at every point of ``pts``."""
    if isinstance(dim, StaticDim):
        return np.zeros(pts.n, np.int64), np.full(pts.n, dim.extent)
    if isinstance(dim, DynDim):
        return (np.zeros(pts.n, np.int64),
                np.full(pts.n, pts.env.scalar(dim.dyn.length_of)))
    if isinstance(dim, RangeDim):
        return (_index(_eval(dim.lo, pts), pts.unit),
                _index(_eval(dim.hi, pts), pts.unit))
    raise SimulationError(f"unknown dim {dim!r}")


def _expand(dims, indices, pts: _Points) -> _Points:
    """Every point of the domain ``dims`` under each point of ``pts``, in
    domain order; later dimensions may depend on earlier indices."""
    for dim, idx in zip(dims, indices):
        lo, hi = _bounds(dim, pts)
        count = np.maximum(hi - lo, 0)
        owner = np.repeat(np.arange(pts.n), count)
        start = np.cumsum(count) - count
        values = np.repeat(lo - start, count) + np.arange(len(owner))
        pts = pts.subset(owner, {idx: values})
    return pts


def _in_order(dims, indices, pts: _Points):
    """The points of the domain ``dims`` under the one point ``pts``, one
    at a time in domain order.  A dimension's bounds are evaluated when
    its prefix opens, after the earlier points have run, and each point
    starts with an empty memo: it sees what the points before it wrote."""
    if not dims:
        yield pts
        return
    lo, hi = _bounds(dims[0], pts)
    for value in range(lo[0], hi[0]):
        yield from _in_order(dims[1:], indices[1:], _Points(
            pts.env, pts.unit, 1, {**pts.bind, indices[0]: np.array([value])}))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _simple_combine(pattern) -> bool:
    """Is every combine exactly ``acc_a ⊕ acc_b`` for ⊕ in add/min/max?"""
    return all(isinstance(c, E.BinOp) and c.op in ("add", "min", "max")
               and c.lhs is a and c.rhs is b
               for c, a, b in zip(pattern.combine, pattern.acc_a,
                                  pattern.acc_b))


def _reduce(op: str, init, vals, acc: E.Var):
    """``acc = acc ⊕ v`` over ``vals`` in order from ``init``, in one
    pass; ``None`` when the types would change along the way."""
    if isinstance(vals, _Mixed):
        return None
    vals = _num(vals)
    if not len(vals):
        return init
    if vals.dtype.kind == "f" and type(init) is float \
            and acc.dtype == E.FLOAT32:
        first = np.float32(init)
        if op == "add":     # accumulate is sequential, in float32
            return float(np.add.accumulate(np.concatenate(
                [[first], vals.astype(np.float32)]))[-1])
        seq = np.concatenate([[float(first)], vals])
        if np.isnan(seq[0]):
            return seq[0].item()
    elif vals.dtype.kind == "i" and type(init) in (int, bool):
        if op == "add":
            return int(init) + int(vals.sum())
        seq = np.concatenate([[int(init)], vals])
    else:
        return None
    # min / max keep the first element no later one beats (NaNs never do)
    best = np.nanmin(seq) if op == "min" else np.nanmax(seq)
    return seq[np.argmax(seq == best)].item()


def _inits(pattern, bins: int):
    """``bins`` fresh copies of each accumulator's ``init``."""
    return [_widen(np.full(bins, init)) for init in pattern.init]


def _combine(pattern, pts: _Points, keys: np.ndarray, accs, vals):
    """The accumulators ``accs`` (one value per bin) after
    ``pattern.combine`` has taken each point's ``vals`` into bin
    ``keys``, every bin in domain order.  Every bin steps at once, one
    occurrence rank at a time."""
    if not len(keys):
        return accs
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    rank = np.arange(len(keys)) - np.searchsorted(ordered, ordered)
    by_rank = order[np.argsort(rank, kind="stable")]
    edges = np.cumsum(np.bincount(rank))
    for stop, start in zip(edges, np.concatenate([[0], edges[:-1]])):
        rows = by_rank[start:stop]
        where = keys[rows]
        step = pts.subset(rows, {
            **{a: _take(acc, where) for a, acc in zip(pattern.acc_a, accs)},
            **{b: _take(v, rows) for b, v in zip(pattern.acc_b, vals)}})
        new = [_eval(c, step) for c in pattern.combine]
        accs = [_assign(acc, where, v) for acc, v in zip(accs, new)]
    return accs


def _fold_values(fold: Fold, outer: _Points, in_order: bool = False):
    """The accumulators of ``fold`` at every point of ``outer``.  Under
    one outer point the fold's whole domain is one slab, unless
    ``in_order`` asks for its points one at a time."""
    if outer.n != 1 or in_order:
        return _fold_stepped(fold, outer)
    pts = _expand(fold.dims, fold.indices, outer)
    vals = [_eval(body, pts) for body in fold.body]
    if _simple_combine(fold):
        done = [_reduce(c.op, init, v, a) for c, init, v, a in
                zip(fold.combine, fold.init, vals, fold.acc_a)]
        if all(d is not None for d in done):
            return [np.array([d]) for d in done]
    return _combine(fold, pts, np.zeros(pts.n, np.int64), _inits(fold, 1),
                    vals)


def _fold_stepped(fold: Fold, outer: _Points):
    """Step the fold's position ``k = 0, 1, ...`` across every outer
    point at once.  Each row keeps a cursor into its own (possibly
    data-dependent, multi-dimensional) fold domain; a row whose domain
    is exhausted drops out."""
    n, m = outer.n, len(fold.dims)
    accs = _inits(fold, n)
    cur = [np.zeros(n, np.int64) for _ in range(m)]
    top = [np.zeros(n, np.int64) for _ in range(m)]
    live = np.zeros(n, bool)

    def at(rows, axes):
        return outer.subset(rows, {fold.indices[a]: cur[a][rows]
                                   for a in range(axes)})

    def settle(rows, axis, advance):
        """Open axes ``axis..`` of ``rows`` at their lower bounds (or
        first advance ``axis``); an empty or finished axis advances the
        one above it."""
        work = [(rows, axis, advance)]
        while work:
            rows, axis, advance = work.pop()
            if not rows.size or axis < 0:
                continue
            if axis == m:
                live[rows] = True
                continue
            if advance:
                cur[axis][rows] += 1
            else:
                cur[axis][rows], top[axis][rows] = _bounds(
                    fold.dims[axis], at(rows, axis))
            more = cur[axis][rows] < top[axis][rows]
            work.append((rows[~more], axis - 1, True))
            work.append((rows[more], axis + 1, False))

    settle(np.arange(n), 0, False)
    while live.any():
        rows = np.flatnonzero(live)
        point = at(rows, m)
        vals = [_eval(body, point) for body in fold.body]
        step = point.subset(None, {
            **{a: _take(acc, rows) for a, acc in zip(fold.acc_a, accs)},
            **dict(zip(fold.acc_b, vals))})
        new = [_eval(c, step) for c in fold.combine]
        accs = [_assign(acc, rows, v) for acc, v in zip(accs, new)]
        live[rows] = False
        settle(rows, m - 1, True)
    return accs


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def _store(pts: _Points, array: Array, where, value) -> None:
    """Write ``value`` at index arrays ``where`` (``()``: a 0-d cell,
    which keeps the last point's value)."""
    buf = pts.env.buffers[array.name]
    data = _cast(value, buf.dtype, pts.unit)
    if not where:
        if len(data):
            buf[()] = data[-1]
    else:
        buf[tuple(where)] = data


def _map_out_idx(out: Array, idx):
    """Map domain indices to output buffer indices (dynamic outputs are
    flat 1-d buffers)."""
    if out.ndim == 0:
        return ()
    if out.is_dynamic and len(idx) != 1:
        raise SimulationError("dynamic Map outputs require a 1-d domain")
    return idx


def _run_map(step: Step, pts: _Points, in_order: bool) -> None:
    pattern = step.pattern
    where = [pts.bind[i] for i in pattern.indices]
    if pattern.inner is not None:
        values = _fold_values(pattern.inner, pts, in_order)
    for k, out in enumerate(step.outputs):
        value = values[k] if pattern.inner is not None \
            else _eval(pattern.body[k], pts)
        _store(pts, out, _map_out_idx(out, where), value)


def _run_flat_map(step: Step, pts: _Points, count: int) -> int:
    """Emit the step's values at ``pts`` after ``count`` earlier ones;
    returns the new count.  The overflow is raised before the value that
    would not fit is evaluated."""
    out = step.outputs[0]
    capacity = out.static_elems()
    masks, values = [], []
    total = count
    for cond, value in step.pattern.emits:
        take = _truth(_eval(cond, pts))
        masks.append(take)
        total += int(take.sum())
        if total > capacity:
            raise SimulationError(
                f"FlatMap output {out.name!r} overflow "
                f"(max_elems={capacity})")
        values.append(_eval(value, pts if take.all()
                            else pts.subset(np.flatnonzero(take))))
    emitted = np.stack(masks, axis=1)
    position = np.cumsum(emitted.ravel()).reshape(emitted.shape) \
        + (count - 1)
    for e, value in enumerate(values):
        _store(pts, out, [position[masks[e], e]], value)
    return total


def _run_hash_reduce(step: Step, root: _Points, slabs) -> None:
    pattern = step.pattern
    accs = _inits(pattern, pattern.bins)
    for pts in slabs:
        keys = _index(_eval(pattern.key, pts), pts.unit)
        bad = (keys < 0) | (keys >= pattern.bins)
        if bad.any():
            raise SimulationError(
                f"HashReduce key {int(keys[np.argmax(bad)])} outside "
                f"[0, {pattern.bins})")
        vals = [_eval(v, pts) for v in pattern.value]
        accs = _combine(pattern, pts, keys, accs, vals)
    for out, acc in zip(step.outputs, accs):
        _store(root, out, [np.arange(pattern.bins)], acc)


def _run_scatter(step: Step, pts: _Points) -> None:
    pattern, target = step.pattern, step.outputs[0]
    limit = pts.env.buffers[target.name].shape[0]
    where = _index(_eval(pattern.index, pts), pts.unit)
    bad = (where < 0) | (where >= limit)
    if bad.any():
        raise SimulationError(
            f"scatter index {int(where[np.argmax(bad)])} out of bounds for "
            f"{target.name!r}")
    _store(pts, target, [where], _eval(pattern.value, pts))


def _run(step: Step, env: Env, in_order: bool) -> None:
    """One pass of ``step``: over its whole domain at once, or
    (``in_order``) one point at a time in domain order, each point run to
    completion before the next starts."""
    pattern = step.pattern
    root = _Points(env, f"step {step.name!r}", 1, {})
    if isinstance(pattern, Fold):
        for out, value in zip(step.outputs,
                              _fold_values(pattern, root, in_order)):
            _store(root, out, (), value)
        return
    slabs = (_in_order(pattern.dims, pattern.indices, root) if in_order
             else [_expand(pattern.dims, pattern.indices, root)])
    if isinstance(pattern, FlatMap):
        count = 0
        for pts in slabs:
            count = _run_flat_map(step, pts, count)
        env.write(step.length_output, (), count)
    elif isinstance(pattern, HashReduce):
        _run_hash_reduce(step, root, slabs)
    elif isinstance(pattern, Map):
        for pts in slabs:
            _run_map(step, pts, in_order)
    elif isinstance(pattern, ScatterMap):
        for pts in slabs:
            _run_scatter(step, pts)
    else:
        raise SimulationError(f"cannot execute pattern {pattern!r}")


def _loads(pattern):
    """Every :class:`Load` in the expressions a step of ``pattern``
    evaluates."""
    roots = [b for d in pattern.dims if isinstance(d, RangeDim)
             for b in (d.lo, d.hi)]
    if isinstance(pattern, FlatMap):
        roots += [e for pair in pattern.emits for e in pair]
    elif isinstance(pattern, ScatterMap):
        roots += [pattern.index, pattern.value]
    elif isinstance(pattern, HashReduce):
        roots += [pattern.key, *pattern.value, *pattern.combine]
    elif isinstance(pattern, Fold):
        roots += [*pattern.body, *pattern.combine]
    elif pattern.inner is None:
        roots += list(pattern.body)
    loads = [n for root in roots for n in E.postorder(root)
             if isinstance(n, E.Load)]
    if isinstance(pattern, Map) and pattern.inner is not None:
        loads += _loads(pattern.inner)
    return loads


def run_step(step: Step, env: Env) -> None:
    """Execute one pattern step against the environment.

    A step whose points see each other's writes -- it reads an array it
    writes anywhere but at the point's own output index -- runs one point
    at a time in domain order.  (A Fold or HashReduce writes once, after
    every point.)  Any other step runs over its whole domain at once; if
    that pass faults, the fault it met first belongs to whichever node it
    evaluated first, so the step runs again in domain order from the
    buffers it started with, and raises the fault the per-element
    semantics meet first.
    """
    pattern = step.pattern
    loads = _loads(pattern)
    written = {out.name for out in step.outputs}
    own = pattern.indices if isinstance(pattern, Map) else None
    with np.errstate(all="ignore"):
        if not isinstance(pattern, (Fold, HashReduce)) and any(
                n.array.name in written and n.indices != own
                for n in loads):
            _run(step, env, in_order=True)
            return
        read = {n.array.name for n in loads} & written
        saved = [(env.buffers[name], env.buffers[name].copy())
                 for name in read]
        try:
            _run(step, env, in_order=False)
        except SimulationError:
            for buf, old in saved:
                buf[...] = old
            _run(step, env, in_order=True)
            raise


def eval_expr(node: E.Expr, env: Env, bindings):
    """Evaluate one symbolic expression at one point to a Python scalar.

    ``bindings`` maps :class:`Idx`/:class:`Var` nodes (by identity) to
    concrete values.  A one-point call of the whole-domain evaluator.
    """
    with np.errstate(all="ignore"):
        pts = _Points(env, "expression", 1,
                      {sym: _widen(np.array([value]))
                       for sym, value in bindings.items()})
        return _item(_eval(node, pts))


def _sparse_in_order(pattern: HashReduce, root: _Points):
    """``run_sparse_hash_reduce`` one point at a time in domain order."""
    accs = {}
    for pts in _in_order(pattern.dims, pattern.indices, root):
        key = _item(_eval(pattern.key, pts))
        vals = [_eval(v, pts) for v in pattern.value]
        step = pts.subset(None, {
            **dict(zip(pattern.acc_a, accs.get(key) or _inits(pattern, 1))),
            **dict(zip(pattern.acc_b, vals))})
        accs[key] = [_eval(c, step) for c in pattern.combine]
    return {key: tuple(_item(acc) for acc in values)
            for key, values in accs.items()}


def run_sparse_hash_reduce(pattern: HashReduce, env: Env,
                           bindings=None):
    """Evaluate a *sparse* HashReduce (``bins=None``): keys are not
    known ahead of time, so accumulators are allocated on the fly.

    Returns ``{key: (v0, v1, ...)}`` — one accumulator tuple per key
    actually produced, in order of first appearance.  The paper supports
    this form architecturally; this reproduction executes it
    functionally only (the evaluated benchmarks all use the dense form).
    A fault is named as in :func:`run_step`.
    """
    with np.errstate(all="ignore"):
        root = _Points(env, "sparse HashReduce", 1,
                       {sym: _widen(np.array([value]))
                        for sym, value in (bindings or {}).items()})
        try:
            pts = _expand(pattern.dims, pattern.indices, root)
            keys = _eval(pattern.key, pts)
            vals = [_eval(v, pts) for v in pattern.value]
            uniq, first, bins = np.unique(keys, return_index=True,
                                          return_inverse=True)
            accs = _combine(pattern, pts, bins.reshape(-1),
                            _inits(pattern, len(uniq)), vals)
        except SimulationError:
            _sparse_in_order(pattern, root)
            raise
    return {uniq[b].item(): tuple(_item(acc, b) for acc in accs)
            for b in np.argsort(first)}


def run_program(program: Program,
                env: Optional[Env] = None) -> Env:
    """Execute a whole program, returning the final environment."""
    if env is None:
        env = Env(program)

    def _run_body(body):
        for node in body:
            if isinstance(node, Step):
                run_step(node, env)
            elif isinstance(node, Loop):
                for iteration in range(node.trip):
                    if node.index_cell is not None:
                        env.write(node.index_cell, (), iteration)
                    _run_body(node.body)
                    if node.stop_when_zero is not None and env.scalar(
                            node.stop_when_zero) == 0:
                        break
            else:
                raise SimulationError(f"bad program node {node!r}")

    _run_body(program.body)
    return env
