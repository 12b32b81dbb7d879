"""Reference executor: interprets a :class:`~repro.patterns.program.Program`.

This is the functional semantics of the pattern language — the ground truth
every compiled-and-simulated configuration is validated against.  Its
element-wise operations are the simulator's (``repro.patterns.kernel``);
what it does not share with the simulator is everything around them —
domains, memos, folds, stores — and both are checked against per-element
interpreters kept under ``tests/``.

A pattern's index domain is static and data-parallel by construction, so
each :class:`Step` is evaluated once over its whole domain: every
expression node is one numpy operation over all the points that reach it.
The answers are those of a per-element interpreter over Python scalars:
bit for bit, except that a value computed through ``exp`` / ``log`` /
``sigmoid`` / ``tanh`` uses numpy's functions, not ``math``'s, and
agrees with the scalar result only to within the fuzz oracle's
tolerance (the simulator uses the same numpy functions).  The rules:

* a node's value has the node's static dtype at every point: a FLOAT32
  node yields float64 rounded to float32 whatever produced it — an int
  operand, a ``Select`` branch, a ``min`` / ``max`` winner, a constant,
  a bound symbol, a fold's ``init`` — an INT32 node int64, a BOOL node
  bool.  So an int divides truncating only where both operands are
  INT32 nodes.  A load widens its buffer's dtype (a 0-d cell too);
* a ``Select`` evaluates each branch only on the points that take it,
  and a FlatMap emission value only where its condition holds, so an
  untaken side does no bounds check and raises nothing.  Nodes are
  memoised per (node, point set); a subset reads what its superset has
  already computed;
* a Fold nested in a Map steps its position ``k = 0, 1, ...`` in order
  across the whole outer domain, dropping the points whose range has
  ended: each point accumulates in its own order, and memory stays one
  slab of the outer domain;
* a top-level Fold (or one under a single outer point) whose combines
  are all exactly ``acc_a ⊕ acc_b`` for one ⊕ in {add, min, max}
  (``kernel.simple_op``) reduces in one pass (``kernel.chain``: a
  sequential float32 ``accumulate`` for a float sum, the first extreme
  for min / max); any other combine, and a HashReduce's, steps by
  occurrence rank within each key, points sorted by key in domain
  order, so every bin sees its values in domain order;
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
  infinity cast to an int, an INT32 value outside int64 (an op result,
  a ``to_int``, a fold's running value), an int past int32 stored to
  an int32 array — worded ``step 'name': arithmetic fault ...:
  <Python's exception>``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import Array, _np_dtype
from repro.patterns.domain import DynDim, RangeDim, StaticDim
from repro.patterns.kernel import (WIDE, binary, cast, chain, simple_op,
                                   to_int, truth, typed, unary)
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
# The evaluator
# ---------------------------------------------------------------------------


class _Points:
    """A set of domain points: the values of each bound symbol
    (:class:`Idx` / :class:`Var`) there, and the memo of the nodes
    evaluated over exactly this set.  A subset (``parent``, ``sel``)
    reads what its supersets have already computed."""

    __slots__ = ("env", "n", "bind", "memo", "parent", "sel")

    def __init__(self, env: Env, n: int, bind,
                 parent: Optional["_Points"] = None, sel=None):
        self.env = env
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
            bind = {k: v[sel] for k, v in self.bind.items()}
            n = len(sel)
        if extra:
            bind.update(extra)
        return _Points(self.env, n, bind, self, sel)

    def inherited(self, node: E.Expr):
        pts, sel = self, None
        while pts.parent is not None:
            if pts.sel is not None:
                sel = pts.sel if sel is None else pts.sel[sel]
            pts = pts.parent
            value = pts.memo.get(node)
            if value is not None:
                return value if sel is None else value[sel]
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


def _compute(node: E.Expr, pts: _Points) -> np.ndarray:
    if isinstance(node, E.Load):
        return _load(node, pts)     # a buffer holds its array's dtype
    if isinstance(node, E.Const):
        value = np.full(pts.n, node.value)
    elif isinstance(node, (E.Idx, E.Var)):
        value = pts.bind.get(node)
        if value is None:
            raise SimulationError(f"unbound symbol {node!r}")
    elif isinstance(node, E.BinOp):
        value = binary(node.op, _eval(node.lhs, pts), _eval(node.rhs, pts))
    elif isinstance(node, E.UnOp):
        value = unary(node.op, _eval(node.operand, pts))
    elif isinstance(node, E.Select):
        value = _select(node, pts)
    else:
        raise SimulationError(f"cannot evaluate node {node!r}")
    return typed(value, node.dtype)


def _select(node: E.Select, pts: _Points) -> np.ndarray:
    take = truth(_eval(node.cond, pts))
    if take.all():
        return _eval(node.if_true, pts)
    if not take.any():
        return _eval(node.if_false, pts)
    yes, no = np.flatnonzero(take), np.flatnonzero(~take)
    value = np.empty(pts.n, WIDE[node.dtype])
    value[yes] = _eval(node.if_true, pts.subset(yes))
    value[no] = _eval(node.if_false, pts.subset(no))
    return value


def _load(node: E.Load, pts: _Points) -> np.ndarray:
    buf = pts.env.buffers[node.array.name]
    wide = WIDE[node.dtype]
    if not node.indices:
        return np.full(pts.n, buf[()] if buf.shape == ()
                       else buf.reshape(-1)[0], wide)
    idxs = [to_int(_eval(i, pts)) for i in node.indices]
    if not pts.n:
        return np.empty(0, wide)
    bad = np.zeros(pts.n, bool)
    for axis, ix in enumerate(idxs):
        size = buf.shape[axis] if axis < buf.ndim else 0
        bad |= (ix < 0) | (ix >= size)
    if bad.any():
        j = int(np.argmax(bad))
        raise SimulationError(
            f"out-of-bounds read {node.array.name}"
            f"[{[int(ix[j]) for ix in idxs]}] (buffer shape {buf.shape})")
    return buf[tuple(idxs)].astype(wide)


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
        return to_int(_eval(dim.lo, pts)), to_int(_eval(dim.hi, pts))
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
            pts.env, 1, {**pts.bind, indices[0]: np.array([value])}))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _inits(pattern, bins: int):
    """``bins`` fresh copies of each accumulator's ``init``, of the
    accumulator's dtype."""
    return [typed(np.full(bins, init), acc.dtype)
            for init, acc in zip(pattern.init, pattern.acc_a)]


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
            **{a: acc[where] for a, acc in zip(pattern.acc_a, accs)},
            **{b: v[rows] for b, v in zip(pattern.acc_b, vals)}})
        new = [_eval(c, step) for c in pattern.combine]
        for acc, value in zip(accs, new):
            acc[where] = value
    return accs


def _fold_values(fold: Fold, outer: _Points, in_order: bool = False):
    """The accumulators of ``fold`` at every point of ``outer``.  Under
    one outer point the fold's whole domain is one slab, unless
    ``in_order`` asks for its points one at a time."""
    if outer.n != 1 or in_order:
        return _fold_stepped(fold, outer)
    pts = _expand(fold.dims, fold.indices, outer)
    vals = [_eval(body, pts) for body in fold.body]
    accs = _inits(fold, 1)
    if simple_op(fold.combine, fold.acc_a, fold.acc_b):
        return [chain(c.op, c.dtype, np.concatenate([acc, v]))
                for c, acc, v in zip(fold.combine, accs, vals)]
    return _combine(fold, pts, np.zeros(pts.n, np.int64), accs, vals)


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
            **{a: acc[rows] for a, acc in zip(fold.acc_a, accs)},
            **dict(zip(fold.acc_b, vals))})
        new = [_eval(c, step) for c in fold.combine]
        for acc, value in zip(accs, new):
            acc[rows] = value
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
    data = cast(value, buf.dtype)
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
        take = truth(_eval(cond, pts))
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
        keys = to_int(_eval(pattern.key, pts))
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
    where = to_int(_eval(pattern.index, pts))
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
    root = _Points(env, 1, {})
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


@contextmanager
def _faults(unit: str):
    """Evaluate with numpy's warnings off; a program's arithmetic fault
    (the kernel lets Python's exception escape) is raised typed."""
    try:
        with np.errstate(all="ignore"):
            yield
    except (ArithmeticError, ValueError) as err:
        raise SimulationError(
            f"{unit}: arithmetic fault in the reference executor: "
            f"{type(err).__name__}: {err}") from None


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
    with _faults(f"step {step.name!r}"):
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
        except (SimulationError, ArithmeticError, ValueError):
            for buf, old in saved:
                buf[...] = old
            _run(step, env, in_order=True)
            raise


def eval_expr(node: E.Expr, env: Env, bindings):
    """Evaluate one symbolic expression at one point to a Python scalar.

    ``bindings`` maps :class:`Idx`/:class:`Var` nodes (by identity) to
    concrete values.  A one-point call of the whole-domain evaluator.
    """
    with _faults("expression"):
        pts = _Points(env, 1, {sym: np.array([value])
                               for sym, value in bindings.items()})
        return _eval(node, pts)[0].item()


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
