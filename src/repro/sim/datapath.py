"""The row table: expressions linearized once, run over lanes or scalars.

The paper compiles an inner controller by "linearizing the data flow
graph … to virtual stages" (§3.6); :class:`Table` does the same, once
per expression set.  Every node is a row ``(kind, ..., operand rows)``
in first-evaluation order, carrying its dtype and, for an int, a value
range proved from INT32 scratchpad dtypes, constants and counter
extents (:func:`index_ranges`) and, where it is affine in the indices,
its coefficient of the innermost one (which bounds how far apart one
issue's addresses lie: ``repro.sim.block.Datapath.widths``).  A
``Select``'s branches are row ranges run only on their own lanes (the
untaken side checks, records and raises nothing); a node with several
users is defined once, in a range of its own, and each use is a
``NEED`` row that runs it on the lanes that lack it.  Every row's
value has its node's dtype (float64 rounded to float32, int64 or bool),
and where the facts prove a runtime test cannot fire — rounding a
rounded value, an int64 wrap, an address out of bounds — the row makes
none.

The block evaluator (``repro.sim.block``) runs the rows over numpy
lanes; the once-per-activation scalars (counter bounds, transfer
offsets and counts, the carry combine) run them on Python values with
the scalar tables of ``repro.patterns.expr`` (:meth:`Table.scalars`).
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.dhdl.ir import ReduceStmt
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns import kernel as K
from repro.patterns.expr import _BINARY_EVAL, _UNARY_EVAL

#: value of a node that has not been evaluated / a symbol that is unbound
_U = object()

_PACK_F32 = struct.Struct("f").pack
_UNPACK_F32 = struct.Struct("f").unpack

#: row kinds
CONST, SYM, LOAD, REG, BIN, UN, SELECT, NEED, FAIL = range(9)

#: what an INT32 scratchpad or register holds
_INT32 = (-(1 << 31), (1 << 31) - 1)


def _rnd(value):
    """``value`` as a FLOAT32-typed node holds it: a float rounded to
    float32 (an int becomes one)."""
    try:
        return _UNPACK_F32(_PACK_F32(value))[0]
    except OverflowError:           # finite but beyond float32: +-inf
        return float(np.float32(value))


def datapath_fault(unit: str, where: str, err: Exception) -> SimulationError:
    """The typed form of an arithmetic fault of the simulated program —
    an integer past its scratchpad's dtype, a division by zero, a
    transcendental outside its domain, NaN cast to an integer — which
    Python and numpy raise as ``ArithmeticError`` / ``ValueError``."""
    return SimulationError(
        f"{unit}: arithmetic fault in {where}: {type(err).__name__}: {err}")


def _span(op: str, a, b=(0, 0)):
    """An INT32 op's value range over its operands' ranges; None where
    unknown or where it may leave int64 (where its int test may fire)."""
    if op == "mod":                             # the divisor's sign rules
        return None if b is None else (0, b[1] - 1) if b[0] > 0 else \
            (b[0] + 1, 0) if b[1] < 0 else None
    if a is None or b is None:
        return None
    if op == "mul":
        ends = [x * y for x in a for y in b]
        lo, hi = min(ends), max(ends)
    elif op in ("add", "sub"):
        lo, hi = (a[0] + b[0], a[1] + b[1]) if op == "add" else \
            (a[0] - b[1], a[1] - b[0])
    elif op in ("min", "max"):
        pick = min if op == "min" else max
        lo, hi = pick(a[0], b[0]), pick(a[1], b[1])
    elif op in ("neg", "abs"):
        lo, hi = (-a[1], -a[0]) if op == "neg" else \
            (max(a[0], 0, -a[1]), max(-a[0], a[1]))
    elif op in ("relu", "to_int"):
        lo, hi = (max(a[0], 0), max(a[1], 0)) if op == "relu" else a
    else:
        return None
    return (lo, hi) if E.INT_MIN <= lo and hi <= E.INT_MAX else None


def _typed_f32(fn):
    return lambda *args: K.typed(fn(*args), E.FLOAT32)


def _rounded(fn):
    return lambda *args: _rnd(fn(*args))


#: the functions op rows call, by number (a row holds only numbers and
#: strings, so the collector need not keep looking into it)
FNS: list = []


@lru_cache(maxsize=None)
def _fns(op: str, dtype: str, exact: bool, proved: bool):
    """The numbers in :data:`FNS` of the ``(vector, scalar)`` functions
    of an op row: ``exact`` — the kernel's value already has ``dtype``;
    ``proved`` — the operand ranges show that no int64 test can fire."""
    scalar = _BINARY_EVAL.get(op) or _UNARY_EVAL[op]
    if op in K.COMPARE:
        vector = K.COMPARE[op]
    elif proved:
        vector = {"neg": np.negative, "abs": np.abs}.get(op) or K.ARITH[op]
    else:
        vector = partial(K.binary if op in _BINARY_EVAL else K.unary, op)
        if not exact:
            vector = _typed_f32(vector)
    FNS.extend((vector, _rounded(scalar) if dtype == E.FLOAT32 else scalar))
    return len(FNS) - 2, len(FNS) - 1


class Table:
    """The rows of ``roots``, each root a range ``(lo, hi, value row)``;
    ``ranges`` binds index nodes to value ranges (:func:`index_ranges`);
    ``coefs`` holds, per int row affine in the indices, the coefficient
    of index ``inner`` (0 for a row that does not use it; None where not
    affine), and ``slopes`` the same of each load site's flat address.

    Rows: ``(CONST, value)``, ``(SYM, node, float32 var)``, ``(LOAD,
    sram, index rows, bounds tests, site key)``, ``(REG, reg)``, ``(BIN,
    vector fn, scalar fn, a, b)``, ``(UN, vector fn, scalar fn, a)``
    (a node, sram or reg is its number in ``objs``, a function its
    number in :data:`FNS`),
    ``(SELECT, cond, true end, false end, true value, false value, cast
    true, cast false, dtype)`` (the true range starts at the next row),
    ``(NEED, memo, lo, hi, value, next row)`` and ``(FAIL, message)``."""

    __slots__ = ("rows", "roots", "objs", "nodes", "dtypes", "spans",
                 "coefs", "slopes", "memos", "_ranges", "_shared", "_defs",
                 "_inner")

    def __init__(self, roots: Sequence[E.Expr], ranges=None, inner=None):
        self.rows, self.nodes, self.dtypes, self.spans = [], [], [], []
        self.coefs, self.slopes, self._inner = [], {}, inner
        self._ranges, self._defs, self.objs = ranges or {}, {}, {}
        uses: Dict[E.Expr, int] = dict.fromkeys(roots, 0)
        for root in roots:
            uses[root] += 1
        stack, seen = list(roots), set()
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                for child in node.children():
                    uses[child] = uses.get(child, 0) + 1
                    stack.append(child)
        self._shared = {n for n, count in uses.items() if count > 1}
        self.roots = []
        for root in roots:
            lo = len(self.rows)
            at = self._emit(root, {})
            self.roots.append((lo, len(self.rows), at))
        # what runs, and facts no GC pass need look into again
        self.rows, self.memos = tuple(self.rows), len(self._defs)
        self.roots, self.spans = tuple(self.roots), tuple(self.spans)
        self.objs, self.coefs = tuple(self.objs), tuple(self.coefs)
        del self._ranges, self._shared, self._defs, self.dtypes, self._inner

    def _obj(self, obj) -> int:
        """``obj``'s number in ``objs``."""
        return self.objs.setdefault(obj, len(self.objs))

    def _row(self, row, node, dtype, span=None, coef=None) -> int:
        self.rows.append(row)
        self.nodes.append(node)
        self.dtypes.append(dtype)
        self.spans.append(span if dtype == E.INT32 else None)
        self.coefs.append(coef if dtype == E.INT32 else None)
        return len(self.rows) - 1

    def _coef(self, op: str, a: int, b: int = None):
        """``inner``'s coefficient in int ``op`` over rows ``a`` (and
        ``b``): known through ``add``, ``sub``, ``neg`` and ``mul`` by
        an int constant (None: not affine)."""
        x = self.coefs[a]
        y = None if b is None else self.coefs[b]
        if op == "neg":
            return None if x is None else -x
        if x is None or y is None:
            return None
        if op in ("add", "sub"):
            return x + y if op == "add" else x - y
        if op == "mul" and self.rows[a][0] == CONST:
            return self.rows[a][1] * y
        if op == "mul" and self.rows[b][0] == CONST:
            return x * self.rows[b][1]
        return None

    def slope(self, rows, shape):
        """``inner``'s coefficient in the flat row-major address that
        index rows ``rows`` make into ``shape`` (None: not affine)."""
        total = 0
        for j, dim in zip(rows, shape):
            if self.coefs[j] is None:
                return None
            total = total * dim + self.coefs[j]
        return total

    def _emit(self, node: E.Expr, local: dict) -> int:
        """The row holding ``node``'s value in the range ``local`` maps."""
        at = local.get(node)
        if at is not None:
            return at
        kind, dtype = type(node), node.dtype
        if kind is E.Const:
            at = self._row((CONST, _rnd(node.value) if dtype == E.FLOAT32
                            else node.value), node, dtype,
                           (node.value, node.value), 0)
        elif kind is E.Idx or kind is E.Var:
            at = self._row((SYM, self._obj(node), kind is E.Var
                            and dtype == E.FLOAT32), node, dtype,
                           self._ranges.get(node),
                           int(node is self._inner) if kind is E.Idx
                           else None)
        elif node in self._shared:
            at = self._row(None, node, dtype)
            define = self._defs.get(node)
            if define is None:              # defined here, once
                value = self._define(node, {})
                define = self._defs[node] = (len(self._defs), at + 1,
                                             len(self.rows), value)
            self.rows[at] = (NEED, *define, max(at + 1, define[2]))
            self.spans[at] = self.spans[define[3]]
            self.coefs[at] = self.coefs[define[3]]
        else:
            at = self._define(node, local)
        local[node] = at
        return at

    def _define(self, node: E.Expr, local: dict) -> int:
        """Rows computing ``node``, operands first; its row."""
        dtype, spans, dtypes = node.dtype, self.spans, self.dtypes
        if isinstance(node, E.Load):
            target = node.array
            if isinstance(target, Reg):
                return self._row((REG, self._obj(target)), node, dtype,
                                 _INT32)
            if not isinstance(target, Sram):
                return self._row((FAIL, f"datapath cannot read "
                                  f"{type(target).__name__} "
                                  f"{getattr(target, 'name', '?')!r}"),
                                 node, dtype)
            rows = []
            for index in node.indices:
                j = self._emit(index, local)
                if dtypes[j] != E.INT32:
                    j = self._row((UN, *_fns("to_int", E.INT32, True, False),
                                   j), None, E.INT32)
                rows.append(j)
            key = (target.name, id(node))
            self.slopes[key] = self.slope(rows, target.shape)
            return self._row((LOAD, self._obj(target), tuple(rows),
                              self.tests(rows, target.shape), key),
                             node, dtype, _INT32)
        if isinstance(node, E.Select):
            cond = self._emit(node.cond, local)
            at = self._row(None, node, dtype)
            yes = self._emit(node.if_true, {})
            split = len(self.rows)
            no = self._emit(node.if_false, {})
            self.rows[at] = (SELECT, cond, split, len(self.rows), yes, no,
                             dtypes[yes] != dtype, dtypes[no] != dtype, dtype)
            if dtype == E.INT32 and spans[yes] and spans[no]:
                spans[at] = (min(spans[yes][0], spans[no][0]),
                             max(spans[yes][1], spans[no][1]))
            return at
        if isinstance(node, E.BinOp):
            op = node.op
            a, b = self._emit(node.lhs, local), self._emit(node.rhs, local)
            span = _span(op, spans[a], spans[b])
            exact = dtype != E.FLOAT32 or op in ("min", "max") \
                and dtypes[a] == dtypes[b] == E.FLOAT32
            return self._row((BIN, *_fns(op, dtype, exact, op in K.ARITH
                                         and span is not None), a, b),
                             node, dtype, span, self._coef(op, a, b))
        if isinstance(node, E.UnOp):
            op = node.op
            x = self._emit(node.operand, local)
            span = _span(op, spans[x])
            exact = dtype != E.FLOAT32 or dtypes[x] == E.FLOAT32 \
                and op in ("neg", "abs", "relu", "to_float")
            return self._row((UN, *_fns(op, dtype, exact, op in (
                "neg", "abs") and span is not None), x), node, dtype, span,
                self._coef(op, x))
        return self._row((FAIL, f"cannot evaluate {node!r} on the datapath"),
                         node, dtype)

    def tests(self, rows, shape) -> tuple:
        """Per dimension, whether index row ``rows[k]`` needs its bounds
        test (its range is not inside the dimension)."""
        return tuple(self.spans[j] is None or self.spans[j][0] < 0
                     or self.spans[j][1] >= dim
                     for j, dim in zip(rows, shape))

    # -- columns --------------------------------------------------------------------------
    def sites(self) -> list:
        """Every scratchpad load site's key, in first-evaluation order."""
        return [row[4] for row in self.rows if row[0] == LOAD]

    def loaded(self) -> set:
        """The names of every memory a row loads."""
        return {n.array.name for n in self.nodes if isinstance(n, E.Load)}

    def ops(self) -> int:
        """The compute nodes (``BinOp``, ``UnOp``, ``Select``) under each
        root, summed over the roots (a node under two roots counts
        twice): a lane's op count."""
        total = 0
        for lo, hi, _at in self.roots:
            seen, ranges = set(), [(lo, hi)]
            while ranges:
                for i in range(*ranges.pop()):
                    if self.rows[i][0] == NEED and self.nodes[i] not in seen:
                        ranges.append(self.rows[i][2:4])    # defined once
                    seen.add(self.nodes[i])
            total += sum(isinstance(n, (E.BinOp, E.UnOp, E.Select))
                         for n in seen)
        return total

    # -- scalars ----------------------------------------------------------------------------
    def scalars(self, mem, env: dict, version, reads=None) -> list:
        """Each root's value under symbol bindings ``env``, each in a
        scope of its own; loads land in ``reads`` (None: the caller
        prices nothing)."""
        v = [None] * len(self.rows)
        out = []
        for lo, hi, at in self.roots:
            self._scalar(lo, hi, v, [_U] * self.memos, mem, env, version,
                         reads)
            out.append(v[at])
        return out

    def _scalar(self, i, end, v, memo, mem, env, version, reads) -> None:
        """Run rows ``[i, end)`` on Python values."""
        rows, objs = self.rows, self.objs
        while i < end:
            row = rows[i]
            kind = row[0]
            if kind == BIN:
                v[i] = FNS[row[2]](v[row[3]], v[row[4]])
            elif kind == UN:
                v[i] = FNS[row[2]](v[row[3]])
            elif kind == CONST:
                v[i] = row[1]
            elif kind == SYM:
                value = env.get(objs[row[1]], _U)
                if value is _U:
                    raise SimulationError(
                        f"unbound symbol {objs[row[1]]!r} in datapath")
                v[i] = _rnd(value) if row[2] else value
            elif kind == NEED:
                if memo[row[1]] is _U:
                    self._scalar(row[2], row[3], v, memo, mem, env, version,
                                 reads)
                    memo[row[1]] = v[row[4]]
                v[i] = memo[row[1]]
                i = row[5]
                continue
            elif kind == SELECT:
                lo, hi, at = (i + 1, row[2], row[4]) if v[row[1]] \
                    else (row[2], row[3], row[5])
                self._scalar(lo, hi, v, memo, mem, env, version, reads)
                v[i] = _rnd(v[at]) if row[8] == E.FLOAT32 else v[at]
                i = row[3]
                continue
            elif kind == LOAD:
                target = objs[row[1]]
                idxs = [int(v[j]) for j in row[2]]
                shape = target.shape
                flat = 0
                for x, dim in zip(idxs, shape):
                    if not 0 <= x < dim:
                        raise SimulationError(
                            f"scratchpad OOB: {target.name}[{idxs}] "
                            f"shape {shape}")
                    flat = flat * dim + x
                if reads is not None:
                    reads.setdefault(row[4], []).append(flat)
                v[i] = mem.scratch(target).read_buffer(version).item(flat)
            elif kind == REG:
                v[i] = mem.reg(objs[row[1]]).read()
            else:
                raise SimulationError(row[1])
            i += 1


def _ints(lo, hi) -> bool:
    """``lo`` and ``hi`` are int constants."""
    return type(lo) is E.Const and type(hi) is E.Const \
        and type(lo.value) is int and type(hi.value) is int


def index_ranges(ctrl) -> Dict[E.Idx, Optional[tuple]]:
    """Each index's value range in ``ctrl`` (a controller): ``lo .. hi -
    1`` of its counter over the ranges its bounds can take (None:
    unknown), for every chain from the root's down to ``ctrl``'s own (an
    inner binding shadows an outer one); kept on the controller."""
    ranges = ctrl._ranges
    if ranges is None:
        ranges = {} if ctrl.parent is None else dict(index_ranges(ctrl.parent))
        chain = getattr(ctrl, "chain", None)
        for index, counter in (zip(chain.indices, chain.counters)
                               if chain is not None else ()):
            lo, hi = counter.lo, counter.hi
            if _ints(lo, hi):
                lo, hi = (lo.value, lo.value), (hi.value, hi.value)
            else:
                table = Table((lo, hi), ranges)
                lo, hi = (table.spans[at] for _lo, _hi, at in table.roots)
            ranges[index] = (lo[0], hi[1] - 1) \
                if lo and hi and lo[0] < hi[1] else None
        ctrl._ranges = ranges
    return ranges


def table_of(owner, roots: Sequence[E.Expr]) -> Table:
    """The (fact-free) table of ``roots``, built once and kept on their
    ``owner`` (an expression, a counter, a reduce statement): a pure
    function of the program, shared by every simulator built from it
    (a program is finished before anything simulates it)."""
    table = owner._table
    if table is None:
        table = owner._table = Table(roots)
    return table


class Evaluator:
    """The scalar expressions of one simulator: counter bounds, transfer
    offsets and counts, carry combines."""

    def __init__(self, mem):
        self.mem = mem

    def _run(self, owner, roots, env, version, reads=None) -> list:
        return table_of(owner, roots).scalars(self.mem, env, version, reads)

    def __call__(self, expr: E.Expr, env: dict, version, reads=None):
        """Value of ``expr`` under symbol bindings ``env``; loads land
        in ``reads`` (None: the caller prices nothing)."""
        if type(expr) is E.Const and type(expr.value) is int:
            return expr.value           # most transfer offsets
        return self._run(expr, (expr,), env, version, reads)[0]

    def bounds(self, counter, env: dict, version, reads=None) -> list:
        """``[lo, hi]`` of one counter, each in a scope of its own,
        ``lo`` first."""
        if _ints(counter.lo, counter.hi):
            return [counter.lo.value, counter.hi.value]
        return self._run(counter, (counter.lo, counter.hi), env, version,
                         reads)

    def combine(self, stmt: ReduceStmt, env: dict, version,
                current: Sequence, values: Sequence) -> list:
        """``stmt.combines`` over (current target contents, reduced
        values) — the carry step at activation end.  Its loads are not
        priced."""
        return self._run(stmt, stmt.combines, {
            **env, **dict(zip(stmt.acc_a, current)),
            **dict(zip(stmt.acc_b, values))}, version)
