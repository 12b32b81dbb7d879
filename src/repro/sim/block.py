"""Leaf bodies: one numpy pass over a block of vector issues.

A PCU is a statically scheduled SIMD pipeline, configured once per
bitstream, so the values an inner controller's body computes do not
depend on when each vector issue happens.  :class:`Datapath` therefore
evaluates a body over a whole block of issues at once and returns the
block's log (:class:`Block`); the leaf prices the log once per banking
configuration (:class:`Schedule`) and then follows it, issue by issue
or a span of issues at a time (``repro.sim.leaves``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.dhdl.ir import EmitStmt, HashReduceStmt, ReduceStmt, WriteStmt
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns import kernel as K
from repro.patterns.collections import _np_dtype
from repro.sim.counters import Run
from repro.sim.datapath import (_U, BIN, CONST, FNS, LOAD, NEED, REG,
                                 SELECT, SYM, UN, Table, _ints, _rnd,
                                 index_ranges, table_of)

#: lanes one block evaluation covers at most (whole issues): enough to
#: pay numpy's per-call cost back many times over, small enough that a
#: block's transient arrays stay within a few MB however long the
#: activation runs
BLOCK_LANES = 8192


class _Redo(Exception):
    """A vector pass met a fault: the block is evaluated again issue by
    issue, and the faulting issue lane by lane, to raise it exactly."""


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (``np.unique`` without its import of
    ``numpy.ma``)."""
    ordered = np.sort(values)
    if not len(ordered):
        return ordered
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _groups(flat: np.ndarray):
    """Lanes grouped by key, stably: ``(order, starts)`` — the lanes in
    key order (each key's in lane order) and where each key begins."""
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    fresh = np.ones(len(flat), np.bool_)
    fresh[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(fresh)


def _ranks(order, starts) -> np.ndarray:
    """Each lane's position among its key's lanes."""
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order)) - np.repeat(
        starts, np.append(starts[1:], len(order)) - starts)
    return rank


def _key_codes(keys):
    """Reduce keys per lane (one int array per address dim) as codes
    ``0, 1, ...`` in first-occurrence order; returns the key tuples,
    the codes and :func:`_groups` of them."""
    n = len(keys[0])
    if not n:
        empty = np.zeros(0, np.int64)
        return [], empty, empty, empty
    spans = [int(k.max()) - int(k.min()) + 1 for k in keys]
    if math.prod(spans) >= 1 << 62:
        index: Dict[tuple, int] = {}
        codes = np.array([index.setdefault(t, len(index))
                          for t in zip(*[k.tolist() for k in keys])],
                         np.int64)
        return list(index), codes, *_groups(codes)
    flat, span = keys[-1] - keys[-1].min(), 1
    for k, inner in zip(keys[-2::-1], spans[:0:-1]):
        span *= inner
        flat = flat + (k - k.min()) * span     # mixed radix, row-major
    order, starts = _groups(flat)
    first = order[starts]                      # each key's first lane
    code_of = np.empty(len(starts), np.int64)
    code_of[np.argsort(first, kind="stable")] = np.arange(len(starts))
    codes = np.empty(n, np.int64)
    codes[order] = np.repeat(code_of, np.append(starts[1:], n) - starts)
    uniq = [None] * len(starts)
    rows = zip(*[k[first].tolist() for k in keys])
    for code, row in zip(code_of.tolist(), rows):
        uniq[code] = row
    return uniq, codes, order, starts


def _body_roots(stmt) -> Tuple[E.Expr, ...]:
    """A statement's expressions in the order its lanes evaluate them,
    but for its combines (a scope of their own)."""
    if isinstance(stmt, WriteStmt):
        return (stmt.value,) + tuple(stmt.addr)
    if isinstance(stmt, EmitStmt):
        return (stmt.cond, stmt.value)
    if isinstance(stmt, ReduceStmt):
        return stmt.values + stmt.addr
    return (stmt.key, stmt.value)


def _fold_parts(stmt):
    """``(combines, acc_a, acc_b)`` of a reduce or hash statement."""
    if isinstance(stmt, ReduceStmt):
        return stmt.combines, stmt.acc_a, stmt.acc_b
    return (stmt.combine,), (stmt.acc_a,), (stmt.acc_b,)


class Datapath:
    """The evaluator of one inner controller's body, built once per leaf
    (:meth:`of`): a row table (``repro.sim.datapath.Table``) of every
    statement's expressions, one per reduce or hash statement of its
    combines, and the columns the leaf needs — load sites in pricing
    order, stored scratchpads, the op count per lane, each store's
    bounds tests.  :meth:`evaluate` runs every statement over a block
    of vector issues at once — statement-major, each row one numpy
    operation over the lanes that reach it — and returns the block's
    :class:`Block` log.  What it keeps of the per-issue semantics:

    * a node is evaluated at most once per lane per issue, across
      statements, and only on the lanes that reach it (``Select`` and
      ``EmitStmt`` values are lazy); reduce and hash combines are
      scopes of their own, whose loads are read and recorded again;
    * a load's address joins its site's group in the issue's order —
      statement, then lane, a combine's read after its lane's value —
      so the groups are the ones an issue-by-issue run prices;
    * every node's value has its static dtype (float64 rounded to
      float32, int64 or bool), through the element-wise kernel
      (``repro.patterns.kernel``) the reference executor uses;
    * reduce accumulators and hash bins combine in issue-then-lane
      order: rank by rank across keys, or key by key along a long
      chain (a sequential float32 sum, never pairwise);
    * a block whose pass faults is evaluated again one issue at a time,
      and the faulting issue lane by lane, raising what the scalar
      semantics raise first; a body that loads a memory it stores to
      always steps that way, its stores landing as it goes.
    """

    @classmethod
    def of(cls, leaf) -> "Datapath":
        """``leaf``'s datapath, built once and kept on the leaf: a pure
        function of the program, shared by every simulator built from
        it."""
        if leaf._datapath is None:
            leaf._datapath = cls(leaf)
        return leaf._datapath

    def __init__(self, leaf):
        self.name = leaf.name
        self.stmts = stmts = leaf.stmts
        #: index -> value range, over every chain binding one
        self.ranges = index_ranges(leaf)
        roots: List[E.Expr] = []
        #: per statement, its roots' positions in ``body.roots``
        self.roots = []
        for stmt in stmts:
            mine = _body_roots(stmt)
            self.roots.append(range(len(roots), len(roots) + len(mine)))
            roots += mine
        inner, counter = leaf.chain.indices[-1], leaf.chain.counters[-1]
        self.body = body = Table(roots, self.ranges, inner)
        self.simple = {si: K.simple_op(*_fold_parts(s))
                       for si, s in enumerate(stmts)
                       if isinstance(s, (ReduceStmt, HashReduceStmt))}
        #: per reduce or hash statement whose combines are not one bare
        #: op (``simple``), the table of its combines
        self.combines = {si: Table(_fold_parts(stmts[si])[0], self.ranges,
                                   inner)
                         for si, op in self.simple.items() if not op}
        #: scratchpad load sites in first-evaluation order: the order
        #: their groups are priced in
        sites = []
        for si, mine in enumerate(self.roots):
            lo, hi = body.roots[mine[0]][0], body.roots[mine[-1]][1]
            sites += [row[4] for row in body.rows[lo:hi] if row[0] == LOAD]
            if si in self.combines:
                sites += self.combines[si].sites()
        self.sites = list(dict.fromkeys(sites))
        bounds = [table_of(c, (c.lo, c.hi)) for c in leaf.chain.counters
                  if not _ints(c.lo, c.hi)]
        #: ``(statement, name)`` of each register write and FIFO emit
        self.regs, self.emits = [], []
        stored: Dict[str, List[int]] = {}
        for si, s in enumerate(stmts):
            if isinstance(s, EmitStmt):
                self.emits.append((si, s.fifo.name))
            elif isinstance(getattr(s, "mem", None), Sram):
                stored.setdefault(s.mem.name, []).append(si)
            elif isinstance(s, WriteStmt) and isinstance(s.mem, Reg):
                self.regs.append((si, s.mem.name))
        loaded = body.loaded().union(
            *(t.loaded() for t in self.combines.values()),
            *(t.loaded() for t in bounds))
        #: per scratchpad the body stores to, in pricing order: ``(name,
        #: storing statements, whether each is a write — not a hash)``
        self.stores = [(name, writers, [isinstance(stmts[si], WriteStmt)
                                        for si in writers])
                       for name, writers in stored.items()]
        #: the body reads what it writes (a load of a memory it stores,
        #: a hash into bins a write stores): every issue steps lane by lane
        self.steps = not loaded.isdisjoint(
            [*stored, *(name for _si, name in self.regs)]) \
            or any(len(set(marked)) > 1 for _n, _w, marked in self.stores)
        #: every scratchpad a stream can name (bound reads, load sites,
        #: stores) -> its first column in a :class:`Schedule`'s rows
        names = dict.fromkeys([key[0] for t in bounds for key in t.sites()]
                              + [key[0] for key in self.sites] + [*stored])
        self.pads = {name: 2 + 3 * j for j, name in enumerate(names)}
        #: compute nodes a lane evaluates (``ops_executed`` per lane): a
        #: bare combine is one op per accumulator
        self.ops = body.ops() + sum(t.ops() for t in self.combines.values()) \
            + sum(len(_fold_parts(stmts[si])[0])
                  for si, op in self.simple.items() if op)
        # per scratchpad store, its address's index rows
        addr = {si: [body.roots[r][2] for r in mine[1:]]
                for si, (s, mine) in enumerate(zip(stmts, self.roots))
                if isinstance(s, WriteStmt) and isinstance(s.mem, Sram)}
        #: per scratchpad store, its address's bounds tests
        self.tests = {si: body.tests(rows, stmts[si].mem.shape)
                      for si, rows in addr.items()}
        # the innermost index's coefficient in each stream's address: a
        # load site's (a site two tables read is one node, of one
        # slope), a scratchpad's stored by one write statement
        slopes: Dict = {}
        for table in (body, *self.combines.values()):
            slopes.update(table.slopes)
        for name, writers in stored.items():
            if len(writers) == 1 and writers[0] in addr:
                slopes[name] = body.slope(addr[writers[0]],
                                          stmts[writers[0]].mem.shape)
        #: per stream key (load site, or scratchpad stored by one write
        #: statement) whose address is affine in the indices: the widest
        #: address span one issue's group can cover, ``|c| · step · (par
        #: − 1)`` — the other indices are constant within an issue, whose
        #: lanes take the innermost ``step`` apart
        self.widths = {key: abs(slope) * counter.step * (counter.par - 1)
                       for key, slope in slopes.items() if slope is not None}

    def evaluate(self, mem, run: Run, version, accs, steps=False):
        """The :class:`Block` of the issues of ``run`` (with the bound
        reads the counter chain handed each) and the reduce accumulators
        after them (``accs`` is not changed).  ``steps``: lane by lane,
        raising the first fault; otherwise a fault raises
        :class:`_Redo`."""
        steps = steps or self.steps
        p = _Pass(self.body, mem, version, steps, run)
        p.dp = self
        p.accs = {si: dict(a) for si, a in accs.items()}
        if steps:
            p.step()
        else:
            try:
                for si, stmt in enumerate(self.stmts):
                    p.stmt = si
                    p.statement(stmt, None)
            except (ArithmeticError, ValueError, SimulationError):
                raise _Redo() from None
        return Block(p), p.accs


class _Pass:
    """One scope of a row table over a block of lanes (or, for a
    combine, over some of them: ``base`` maps them to the block's)."""

    def __init__(self, table: Table, mem, version, steps, run: Run = None,
                 parent: "_Pass" = None, lanes=None, extra=None):
        self.rows, self.roots, self.objs = table.rows, table.roots, table.objs
        self.v = [None] * len(self.rows)
        self.memo = [None] * table.memos
        self.mem, self.version, self.steps = mem, version, steps
        self.parent, self.local = parent, lanes
        if parent is not None:
            self.dp, self.run = parent.dp, parent.run
            self.starts, self.per_issue = parent.starts, parent.per_issue
            self.rec, self.out = parent.rec, parent.out
            self.n, self.sym = len(lanes), extra
            self.base = lanes if parent.base is None else parent.base[lanes]
            self.stmt, self.phase = parent.stmt, 1
            return
        self.stmt = self.phase = 0
        self.run = run
        self.n = run.lanes
        self.per_issue, self.starts, values, outer = run.columns()
        self.base = None
        self.sym = dict(zip(run.names, outer))
        self.sym[run.index] = values
        #: load site key -> [(block lanes, addresses, stmt, phase)]
        self.rec: Dict[tuple, list] = {}
        #: stmt index -> [(block lanes, *columns)]
        self.out: Dict[int, list] = {}
        self.bins: Dict[str, np.ndarray] = {}

    def column(self, node: E.Expr) -> np.ndarray:
        """A symbol's value on every lane of this pass."""
        col = self.sym.get(node)
        if col is None:
            if self.parent is not None:
                col = self.parent.column(node)[self.local]
            else:
                value = self.run.base.get(node, _U)
                if value is _U:
                    raise SimulationError(
                        f"unbound symbol {node!r} in datapath")
                col = np.array([value])
                if isinstance(node, E.Var) and node.dtype == E.FLOAT32:
                    col = K.typed(col, E.FLOAT32)
                col = col.repeat(self.n)
            self.sym[node] = col
        return col

    def lanes(self, sel):
        """Block lanes of ``sel`` (None: all of this pass's; a pass over
        the whole block answers None)."""
        if self.base is None:
            return sel
        return self.base if sel is None else self.base[sel]

    # -- rows ---------------------------------------------------------------------------
    def value(self, r: int, sel) -> np.ndarray:
        """Root ``r``'s value on lanes ``sel`` (None: all)."""
        lo, hi, at = self.roots[r]
        self.compute(lo, hi, sel)
        return self.v[at]

    def int_value(self, r: int, sel) -> np.ndarray:
        return K.to_int(self.value(r, sel))

    def compute(self, i: int, end: int, sel) -> None:
        """Run rows ``[i, end)`` on lanes ``sel``."""
        rows, v = self.rows, self.v
        while i < end:
            row = rows[i]
            kind = row[0]
            if kind == BIN:
                v[i] = FNS[row[1]](v[row[3]], v[row[4]])
            elif kind == UN:
                v[i] = FNS[row[1]](v[row[3]])
            elif kind == CONST:
                v[i] = np.full(self.n if sel is None else len(sel), row[1])
            elif kind == SYM:
                col = self.column(self.objs[row[1]])
                v[i] = col if sel is None else col[sel]
            elif kind == LOAD:
                v[i] = self.load(row, sel)
            elif kind == NEED:
                v[i] = self.need(row, sel)
                i = row[5]
                continue
            elif kind == SELECT:
                v[i] = self.select(i, row, sel)
                i = row[3]
                continue
            elif kind == REG:
                v[i] = np.full(self.n if sel is None else len(sel),
                               self.mem.reg(self.objs[row[1]]).read())
            else:
                raise SimulationError(row[1])
            i += 1

    def need(self, row, sel) -> np.ndarray:
        """A node with several users, computed on the lanes of ``sel``
        that have not computed it yet."""
        _kind, m, lo, hi, at, _next = row
        entry = self.memo[m]
        if entry is None:
            self.compute(lo, hi, sel)
            value = self.v[at]
            if sel is None:
                self.memo[m] = (value, None)
            else:
                full = np.empty(self.n, value.dtype)
                full[sel] = value
                done = np.zeros(self.n, np.bool_)
                done[sel] = True
                self.memo[m] = (full, done)
            return value
        full, done = entry
        if done is not None:
            miss = np.flatnonzero(~done) if sel is None \
                else sel[~done[sel]]
            if len(miss):
                self.compute(lo, hi, miss)
                full[miss] = self.v[at]
                done[miss] = True
                self.memo[m] = (full, None if done.all() else done)
        return full if sel is None else full[sel]

    def select(self, i: int, row, sel) -> np.ndarray:
        _kind, cond, split, end, yes, no, cast_yes, cast_no, dtype = row
        take = K.truth(self.v[cond])
        sides = ((i + 1, split, yes, cast_yes, take),
                 (split, end, no, cast_no, ~take))
        if take.all() or not take.any():
            lo, hi, at, cast, _mask = sides[0 if take.all() else 1]
            self.compute(lo, hi, sel)
            return K.typed(self.v[at], dtype) if cast else self.v[at]
        local = np.arange(self.n) if sel is None else sel
        value = np.empty(len(take), K.WIDE[dtype])
        for lo, hi, at, cast, mask in sides:
            where = np.flatnonzero(mask)
            self.compute(lo, hi, local[where])
            value[where] = K.typed(self.v[at], dtype) if cast else self.v[at]
        return value

    def address(self, what: str, target: Sram, idxs, tests,
                sel) -> np.ndarray:
        """Bounds-test index arrays into ``target`` where ``tests`` say
        (failing with ``what: name[idxs] shape (…)`` at the first bad
        lane); returns the flat word addresses."""
        shape = target.shape
        bad = None
        for i, dim, test in zip(idxs, shape, tests):
            if test:
                out = (i < 0) | (i >= dim)
                bad = out if bad is None else bad | out
        if bad is not None and bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise SimulationError(
                f"{what}: {target.name}[{[i[j:j + 1].tolist()[0] for i in idxs]}]"
                f" shape {shape}")
        if not idxs:
            return np.zeros(self.n if sel is None else len(sel), np.int64)
        flat = idxs[0]
        for i, dim in zip(idxs[1:], shape[1:]):
            flat = flat * dim + i
        return flat

    def load(self, row, sel) -> np.ndarray:
        _kind, obj, idx, tests, key = row
        target = self.objs[obj]
        flat = self.address("scratchpad OOB", target,
                            [self.v[j] for j in idx], tests, sel)
        self.rec.setdefault(key, []).append(
            (self.lanes(sel), flat, self.stmt, self.phase))
        buf = self.mem.scratch(target).read_buffer(self.version)
        return buf.reshape(-1)[flat].astype(K.WIDE[target.dtype],
                                            copy=False)

    # -- statements -------------------------------------------------------------------
    def step(self) -> None:
        """Statement-major, lane-minor, one lane at a time: stores,
        register writes and bins land as they happen."""
        for si, stmt in enumerate(self.dp.stmts):
            self.stmt = si
            if isinstance(stmt, WriteStmt) and isinstance(stmt.mem, Sram):
                self.mem.scratch(stmt.mem).buffer(self.version)
            for lane in range(self.n):
                self.statement(stmt, np.array([lane]))

    def statement(self, stmt, sel) -> None:
        out = self.out.setdefault(self.stmt, [])
        roots = self.dp.roots[self.stmt]
        if isinstance(stmt, WriteStmt):
            value = self.value(roots[0], sel)
            target = stmt.mem
            dtype = _np_dtype(target.dtype)
            if isinstance(target, Reg):
                if self.steps:
                    self.mem.reg(target).write(value.tolist()[0])
                else:
                    K.cast(value, dtype)
                out.append((self.lanes(sel), value))
                return
            idxs = [self.int_value(r, sel) for r in roots[1:]]
            flat = self.address("scratchpad OOB write", target, idxs,
                                self.dp.tests[self.stmt], sel)
            cells = K.cast(value, dtype)
            if self.steps:
                buf = self.mem.scratch(target).buffer(self.version)
                buf.reshape(-1)[flat] = cells
            out.append((self.lanes(sel), flat, value, cells))
        elif isinstance(stmt, EmitStmt):
            take = K.truth(self.value(roots[0], sel))
            local = np.arange(self.n) if sel is None else sel
            local = local[take]
            out.append((self.lanes(local), self.value(roots[1], local)))
        elif isinstance(stmt, ReduceStmt):
            width = stmt.width
            values = [self.value(r, sel) for r in roots[:width]]
            keys = [self.int_value(r, sel) for r in roots[width:]]
            self.reduce(stmt, sel, values, keys)
        elif isinstance(stmt, HashReduceStmt):
            self.hash(stmt, sel, self.int_value(roots[0], sel),
                      self.value(roots[1], sel))
        else:
            raise SimulationError(f"unknown stmt {stmt!r}")

    def _combine(self, combines, accs, vals, lanes):
        """One rank of a fold: the statement's ``combines`` over
        operands ``accs`` and ``vals`` at (this pass's) ``lanes``, in a
        fresh scope."""
        op = self.dp.simple[self.stmt]
        if op:
            return [K.typed(K.binary(op, a, v), c.dtype)
                    for c, a, v in zip(combines, accs, vals)]
        _combines, acc_a, acc_b = _fold_parts(self.dp.stmts[self.stmt])
        scope = _Pass(self.dp.combines[self.stmt], self.mem, self.version,
                      self.steps, parent=self, lanes=lanes,
                      extra={**dict(zip(acc_a, accs)),
                             **dict(zip(acc_b, vals))})
        return [scope.value(k, None) for k in range(len(combines))]

    def reduce(self, stmt: ReduceStmt, sel, values, keys) -> None:
        n = len(values[0])
        if keys:
            uniq, codes, order, starts = _key_codes(keys)
        else:
            uniq, codes = [()], np.zeros(n, np.int64)
            order, starts = np.arange(n), np.zeros(min(n, 1), np.int64)
        accs = self.accs[self.stmt]
        init = [_rnd(i) if a.dtype == E.FLOAT32 else i
                for i, a in zip(stmt.inits, stmt.acc_a)]
        start = [np.array([accs[key][2 + k] if key in accs else init[k]
                           for key in uniq]) for k in range(stmt.width)]
        start = [K.typed(s, E.FLOAT32) if a.dtype == E.FLOAT32 else s
                 for s, a in zip(start, stmt.acc_a)]
        vals = [K.typed(v, E.FLOAT32) if b.dtype == E.FLOAT32 else v
                for v, b in zip(values, stmt.acc_b)]
        final = self._fold(stmt, codes, order, starts, start, vals, sel)
        # the bindings of each key's last lane (the carry combine's)
        last = np.empty(len(uniq), np.int64)
        last[codes[order[starts]]] = order[np.append(starts[1:], n) - 1]
        lanes = last if sel is None else sel[last]
        run = self.run
        # the dims outside the innermost, per key
        outer = list(zip(*[self.sym[node][lanes].tolist()
                           for node in run.names])) or [()] * len(uniq)
        lane_values = self.sym[run.index][lanes].tolist()
        finals = [f.tolist() for f in final]
        for j, key in enumerate(uniq):
            accs[key] = (outer[j], lane_values[j], *[f[j] for f in finals])

    def _fold(self, stmt, codes, order, starts, start, vals, sel):
        """Each key's accumulators after its lanes, in lane order."""
        acc = [s.copy() for s in start]
        if not len(codes):
            return acc
        nkeys = len(starts)
        rank = _ranks(order, starts)
        longest = int(rank.max()) + 1
        op = self.dp.simple[self.stmt]
        if op and longest > nkeys and (op != "add" or all(
                c.dtype != E.FLOAT32 or (s.dtype.kind == v.dtype.kind == "f")
                for c, s, v in zip(stmt.combines, start, vals))):
            # few keys, long chains: each key's chain in closed form
            ends = np.append(starts[1:], len(codes))
            for start_, end in zip(starts, ends):
                lanes = order[start_:end]
                key = codes[lanes[0]]
                for k, c in enumerate(stmt.combines):
                    acc[k][key] = K.chain(op, c.dtype, np.concatenate(
                        (acc[k][key:key + 1], vals[k][lanes])))[0]
            return acc
        local = np.arange(len(codes)) if sel is None else sel
        for r in range(longest):
            at = np.flatnonzero(rank == r)
            keys = codes[at]
            new = self._combine(stmt.combines,
                                [a[keys] for a in acc],
                                [v[at] for v in vals], local[at])
            for k, value in enumerate(new):
                acc[k][keys] = value
        return acc

    def hash(self, stmt: HashReduceStmt, sel, keys, value) -> None:
        target = stmt.mem
        size = int(np.prod(target.shape))
        scratch = self.mem.scratch(target)
        if self.steps:
            bins = scratch.buffer(self.version).reshape(-1)
        else:
            bins = self.bins.get(target.name)
            if bins is None:
                bins = self.bins[target.name] = scratch.buffer(
                    self.version).reshape(-1).copy()
        bad = (keys < 0) | (keys >= size)
        if bad.any():
            key = keys[bad][:1].tolist()[0]
            raise SimulationError(
                f"{self.dp.name}: hash key {key} outside [0, {size})")
        if stmt.acc_b.dtype == E.FLOAT32:
            value = K.typed(value, E.FLOAT32)
        rank = _ranks(*_groups(keys))
        local = np.arange(len(keys)) if sel is None else sel
        results = np.empty(len(keys), K.WIDE[stmt.combine.dtype])
        cells = np.empty(len(keys), bins.dtype)
        for r in range(int(rank.max()) + 1 if len(keys) else 0):
            at = np.flatnonzero(rank == r)
            where = keys[at]
            current = K.typed(bins[where], target.dtype)
            (new,) = self._combine((stmt.combine,), [current],
                                   [value[at]], local[at])
            bins[where] = K.cast(new, bins.dtype)
            results[at] = new
            cells[at] = bins[where]
        self.out.setdefault(self.stmt, []).append(
            (self.lanes(sel), keys, results, cells))


class _BoundPass(_Pass):
    """One scope of a counter bound over a window of positions, one lane
    per position.  Its ``stmt`` counts the loads made, so every piece of
    ``rec`` carries its place in the order they were made in."""

    def load(self, row, sel) -> np.ndarray:
        self.stmt += 1
        return super().load(row, sel)

    def columns(self) -> List[tuple]:
        """Every load piece in the order it was made, ``(site key, lanes,
        addresses)``: the lanes it covers, ascending (None: all of them;
        a lane reads a site at most once per scope), and an address
        each."""
        pieces = sorted(((stmt, key, lanes, flat)
                         for key, got in self.rec.items()
                         for lanes, flat, stmt, _phase in got),
                        key=lambda piece: piece[0])
        return [(key, lanes, flat) for _stmt, key, lanes, flat in pieces]


class BoundWindow:
    """A leaf's innermost counter bounds over a window of positions of
    the enclosing counter (``index``): one lane per position, ``lo`` and
    ``hi`` each one pass in a scope of its own — what the scalar walk
    computes and reads at each position, in one numpy pass per end."""

    def __init__(self, mem, chain, ranges=None):
        self.mem = mem
        self.index = chain.indices[-2]
        counter = chain.counters[-1]
        self.table = Table((counter.lo, counter.hi), ranges)
        self.srams = {n.array for n in self.table.nodes
                      if isinstance(n, E.Load) and isinstance(n.array, Sram)}
        #: the bounds whose proved range (if any) reaches past the
        #: enumerator's int64 sums: their values are tested
        spans = [self.table.spans[at] for _lo, _hi, at in self.table.roots]
        self.wide = [end for end, span in enumerate(spans) if span is None
                     or not -(1 << 62) < span[0] <= span[1] < 1 << 62]

    def evaluate(self, outer: dict, values: range, version):
        """``(lo, hi, reads)`` at each of ``values`` of ``index`` (the
        dims outside it bound by ``outer``): two int arrays and the
        :meth:`_BoundPass.columns` of both ends, ``lo``'s first.  None
        where the pass faults, where a bound is too large for the
        enumerator's int64 sums (the walk's ints have no limit), or
        where a read would create a buffer version (the walk may create
        it later, or never)."""
        positions = Run(self.index, values.step, len(values), outer, (),
                        [(values.start, len(values))], [], 1, len(values))
        try:
            if any(not any(v <= version for v in self.mem.scratch(s).versions)
                   for s in self.srams):
                return None
            ends, reads = [], []
            for end in range(2):
                p = _BoundPass(self.table, self.mem, version, False,
                               positions)
                ends.append(p.int_value(end, None))
                reads += p.columns()
        except (ArithmeticError, ValueError, SimulationError):
            return None
        if any(((ends[end] <= -(1 << 62)) | (ends[end] >= 1 << 62)).any()
               for end in self.wide):
            return None
        return ends[0], ends[1], reads


def _first(pieces) -> int:
    """When a site's first bound read was made."""
    return min(w if type(w) is int else int(w.min()) for _o, _a, w in pieces)


def _bound_columns(pieces):
    """A site's bound-read pieces ``(issue, addresses, order)`` as three
    arrays in the order the reads were made."""
    addrs = np.concatenate([np.asarray(a, np.int64) for _o, a, _w in pieces])
    owner = np.concatenate([np.full(len(a), o) if type(o) is int else o
                            for o, a, _w in pieces])
    when = np.concatenate([np.full(len(a), w) if type(w) is int else w
                           for _o, a, w in pieces])
    if len(pieces) > 1:
        order = np.argsort(when, kind="stable")
        addrs, owner, when = addrs[order], owner[order], when[order]
    return addrs, owner, when


def _last_writes(flats: np.ndarray):
    """Per entry, the position of the next entry with the same address
    (``len(flats)`` for the last): entry ``j`` of a range ``[a, b)`` is
    the write that range leaves iff ``nxt[j] >= b``; None: they ascend."""
    if not np.count_nonzero(flats[1:] <= flats[:-1]):
        return None
    nxt = np.full(len(flats), len(flats), np.int64)
    order = np.argsort(flats, kind="stable")
    ordered = flats[order]
    same = ordered[1:] == ordered[:-1]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


class Block:
    """The log of one block of vector issues, in columns: everything
    that makes issues ``[lo, hi)`` happen.

    ``lanes`` and ``starts`` — each issue's lane count and first lane;
    ``streams`` — the priced address groups, ``(scratchpad, write, key,
    addresses, off)``: issue ``k``'s group is ``addresses[off[k]:
    off[k+1]]`` (a read stream per load site — bound reads first — and
    a write stream per stored scratchpad); ``stores`` — per stored
    scratchpad ``(name, flats, cells, nxt, off, top)``, its writes in
    issue-statement-lane order with ``nxt`` from :func:`_last_writes`
    and ``top[j]`` the highest non-hash address of writes ``0..j`` (-1:
    none; None: only hashed into); ``regs`` — ``(name, values, off)``
    per written register; ``emits`` — ``(fifo, words, off)`` per
    ``EmitStmt``; ``stmts`` — per statement its issue offsets and
    columns.  Which of these a leaf has, in what order, is its
    :class:`Datapath`'s (``dp``) layout.  A block is priced once per
    banking configuration (:meth:`schedule`) and shared by every batch
    follower."""

    __slots__ = ("dp", "n", "lanes", "starts", "streams", "bound", "stores",
                 "regs", "emits", "stmts", "_schedules")

    def __init__(self, p: _Pass):
        dp = self.dp = p.dp
        n = self.n = p.run.issues
        every = self.starts = p.starts
        self.lanes = p.per_issue

        def offsets(lanes):     # a piece's lanes ascend
            return every if lanes is None else np.searchsorted(lanes, every)

        def spread(lanes):
            return np.arange(p.n) if lanes is None else lanes

        self.stmts = {}
        for si, pieces in p.out.items():
            if not pieces:
                continue
            if len(pieces) == 1:
                lanes, *cols = pieces[0]
            else:
                cols = [np.concatenate(c) for c in zip(*(
                    (spread(piece[0]),) + piece[1:] for piece in pieces))]
                order = np.argsort(cols[0], kind="stable")
                lanes, *cols = [c[order] for c in cols]
            self.stmts[si] = (offsets(lanes), cols)
        # read streams: bound reads, then each site's lanes in issue,
        # statement, lane, phase order
        body = {}
        for key in dp.sites:
            pieces = p.rec.get(key)
            if not pieces:
                continue
            if len(pieces) == 1:
                lanes, addrs, _stmt, _phase = pieces[0]
                body[key] = (addrs, offsets(lanes))
                continue
            lanes, addrs, stmt, phase = zip(*pieces)
            lanes = [spread(x) for x in lanes]
            sizes = [len(x) for x in lanes]
            lanes = np.concatenate(lanes)
            issue = np.searchsorted(every, lanes, "right") - 1
            order = np.lexsort((np.repeat(phase, sizes), lanes,
                                np.repeat(stmt, sizes), issue))
            body[key] = (np.concatenate(addrs)[order],
                         np.searchsorted(issue[order], np.arange(n + 1)))
        # bound reads: per site, each issue's ahead of its body reads
        reads: Dict[tuple, list] = {}
        for piece in p.run.reads:
            reads.setdefault(piece[0], []).append(piece[1:])
        #: per bound-read site: the order its reads were made in, and
        #: each issue's offsets into them
        self.bound: Dict[tuple, tuple] = {}
        streams = {}
        for key, pieces in sorted(reads.items(),
                                  key=lambda item: _first(item[1])):
            addrs, owner, when = _bound_columns(pieces)
            got = body.pop(key, None)
            lens = np.bincount(owner, minlength=n)
            starts = np.concatenate(([0], np.cumsum(lens)))
            self.bound[key] = (when, starts)
            if got is not None:
                more, more_off = got
                extra = np.diff(more_off)
                off = np.concatenate(([0], np.cumsum(lens + extra)))
                merged = np.empty(off[-1], np.int64)
                merged[off[owner] + np.arange(len(owner))
                       - starts[owner]] = addrs
                of = np.repeat(np.arange(n), extra)
                merged[off[of] + lens[of] + np.arange(len(more))
                       - more_off[of]] = more
                addrs, starts = merged, off
            streams[key] = (addrs, starts)
        streams.update(body)
        self.streams = [(key[0], False, key, addrs, off)
                        for key, (addrs, off) in streams.items()]
        # stores: a write stream per stored scratchpad
        self.stores = []
        for name, writers, marked in dp.stores:
            if len(writers) == 1:
                off, cols = self.stmts[writers[0]]
                flats, cells = cols[0], cols[-1]
                marks = flats if marked[0] else None
            else:
                iss = np.concatenate([
                    np.repeat(np.arange(n), np.diff(self.stmts[si][0]))
                    for si in writers])
                order = np.argsort(iss, kind="stable")
                flats = np.concatenate([self.stmts[si][1][0]
                                        for si in writers])[order]
                cells = np.concatenate([self.stmts[si][1][-1]
                                        for si in writers])[order]
                marks = np.concatenate([
                    self.stmts[si][1][0] if write
                    else np.full(len(self.stmts[si][1][0]), -1)
                    for si, write in zip(writers, marked)])[order]
                off = np.searchsorted(iss[order], np.arange(n + 1))
            nxt = _last_writes(flats)
            top = marks if marks is None or marks is flats and nxt is None \
                else np.maximum.accumulate(marks)
            self.streams.append((name, True, name, flats, off))
            self.stores.append((name, flats, cells, nxt, off, top))
        self.regs = [(name, self.stmts[si][1][0].tolist(), self.stmts[si][0])
                     for si, name in dp.regs]
        self.emits = [(name, self.stmts[si][1][0].tolist(), self.stmts[si][0])
                      for si, name in dp.emits]
        self._schedules: Dict[tuple, Schedule] = {}

    def schedule(self, banking, scratchpads) -> "Schedule":
        """The block priced under one banking configuration (against
        any ``scratchpads`` so banked), once for every leaf banked
        alike."""
        schedule = self._schedules.get(banking)
        if schedule is None:
            schedule = self._schedules[banking] = Schedule(self, scratchpads)
        return schedule


class Schedule:
    """A block priced under one banking configuration.

    Nothing outside the unit can delay an issue once the activation
    runs (FIFO backpressure aside, which stalls between issues and
    shifts the rest), so issue ``k`` leaves ``offsets[k]`` cycles after
    issue 0 — the sum of ``1 + extra`` over the issues before it — and
    ``rows[k]`` holds what those issues charged, cumulatively: conflict
    cycles, lanes, then reads / writes / conflict cycles of each
    scratchpad of the leaf (``pads``, :attr:`Datapath.pads`: name ->
    first of its three columns).  ``rows[hi] - rows[lo]`` is what issues
    ``[lo, hi)`` charge.  A stream whose scratchpad proves it
    conflict-free at its width (:attr:`Datapath.widths`; a stream
    carrying bound reads has none) is counted, not priced.
    """

    __slots__ = ("offsets", "rows", "pads", "extras")

    def __init__(self, block: Block, scratchpads):
        n = block.n
        self.pads = pads = block.dp.pads
        rows = self.rows = np.zeros((n + 1, 2 + 3 * len(pads)), np.int64)
        rows[:, 1] = block.starts
        worst = None
        #: stream -> each issue's extra cycles (streams with any)
        self.extras: Dict[int, np.ndarray] = {}
        widths = block.dp.widths
        for j, (name, write, key, addrs, off) in enumerate(block.streams):
            col = pads[name]
            rows[:, col + write] += off
            scratch = scratchpads[name]
            if scratch.conflict_free(None if key in block.bound
                                     else widths.get(key), write):
                continue
            lens = off[1:] - off[:-1]
            if lens[0] and (lens == lens[0]).all():     # the usual case
                extra = scratch.conflict_extra(
                    addrs.reshape(n, int(lens[0])), bool(write))
            else:
                extra = np.zeros(n, np.int64)
                for length in _distinct(lens[lens > 0]).tolist():
                    ks = np.flatnonzero(lens == length)
                    group = addrs[off[ks][:, None] + np.arange(length)]
                    extra[ks] = scratch.conflict_extra(group, bool(write))
            if extra.any():
                self.extras[j] = extra
                rows[1:, col + 2] += np.cumsum(extra)
                worst = extra if worst is None else np.maximum(worst, extra)
        if worst is not None:
            np.cumsum(worst, out=rows[1:, 0])
            self.offsets = [0] + np.cumsum(1 + worst).tolist()
        else:
            self.offsets = range(n + 1)

    def conflicts(self, block: Block, k: int):
        """Issue ``k`` of ``block``'s conflicted groups, ``(scratchpad,
        extra, lanes)`` in pricing order — the counter chain's bound
        reads (in the order it first read each site), the load sites,
        the stored scratchpads: the events a tracer is owed."""
        keys = [stream[2] for stream in block.streams]
        first = [keys.index(key) for _when, key in sorted(
            (int(when[off[k]]), key)
            for key, (when, off) in block.bound.items()
            if off[k + 1] > off[k])]
        sites = [keys.index(key) for key in block.dp.sites if key in keys]
        writes = [j for j, stream in enumerate(block.streams) if stream[1]]
        out = []
        for j in first + [j for j in sites if j not in first] + writes:
            extra = self.extras.get(j)
            if extra is not None and extra[k]:
                name, _w, _key, _addrs, off = block.streams[j]
                out.append((name, int(extra[k]),
                            int(off[k + 1] - off[k])))
        return out
