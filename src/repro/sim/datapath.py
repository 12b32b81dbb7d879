"""Datapath kernels: expression DAGs compiled once to straight-line Python.

A PCU is statically configured, so nothing about an inner controller's
body changes between cycles.  Each body is therefore turned — once, on
the leaf's first vector issue — into the source of one function, and a
vector issue is one call of it (:func:`compile_body`): it runs every
statement over the lanes, performs the scratchpad stores, counts every
access and returns the issue's bank-conflict cost.  The
once-per-activation scalars (a counter's ``(lo, hi)``, transfer offsets
and counts, the carry combine) go through the same emitter
(:class:`Evaluator`).  What the generated code keeps, because the
bit-identical invariants and the batch recorder rest on it:

* statement-major, lane-minor order; a store is visible to every later
  lane and statement of the issue, so a scratchpad's buffer is fetched
  once per issue only when the body never stores to it;
* a node is evaluated at most once per lane per issue, *across
  statements*: a node with several users holds the :data:`_U` sentinel
  until the first of them needs it (and travels to later statements in
  a per-lane list); reduce and hash combines are scopes of their own,
  so their loads are re-read and re-recorded;
* ``Select`` and ``EmitStmt`` values are lazy: the untaken side does no
  bounds check, records no access and raises nothing;
* unbounded Python ints, float64 arithmetic rounded to float32 after
  every FLOAT32-typed node (an int reaching one becomes a float there,
  as in the reference executor), ``math.*`` transcendentals (they raise —
  the leaf re-raises a program's arithmetic faults typed,
  :func:`datapath_fault`);
* a store is ``ScratchpadSim.store`` in line — its bounds test and
  message, the dtype constructor as the cast, the version created
  copy-on-write by the storing issue, the watermark;
* one address list per ``(sram name, load site)`` in lane order and one
  per stored scratchpad in store order, each counted and priced in the
  kernel's tail by the scratchpad's one rule
  (:meth:`~repro.sim.scratchpad.ScratchpadSim.conflict_extra`), whose
  two structural shortcuts the tail tests in line.

The address lists, and the ``(flat, value)`` columns of every storing
statement, are also the record an issue leaves for whoever listens —
the batch recorder and the test harness read it; they intercept
nothing.

A generated source names the objects it uses (memories, FIFOs, symbols)
and binds none of them, so its code object is compiled once per process
(:func:`_code`) and each build ``exec``s it into a namespace of its own:
machines share code, never state.
"""

from __future__ import annotations

import functools
import struct
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.dhdl.ir import EmitStmt, HashReduceStmt, ReduceStmt, WriteStmt
from repro.dhdl.memory import BankingMode, Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import _np_dtype
from repro.patterns.expr import _BINARY_EVAL, _UNARY_EVAL
from repro.sim.scratchpad import MemoryState

#: value of a node that has not been evaluated / a symbol that is unbound
_U = object()

_PACK_F32 = struct.Struct("f").pack
_UNPACK_F32 = struct.Struct("f").unpack


def _rnd(value):
    """``value`` as a FLOAT32-typed node holds it: a float rounded to
    float32 (an int becomes one)."""
    try:
        return _UNPACK_F32(_PACK_F32(value))[0]
    except OverflowError:           # finite but beyond float32: +-inf
        return float(np.float32(value))


def _fail(*parts):
    raise SimulationError("".join(map(str, parts)))


def datapath_fault(unit: str, where: str, err: Exception) -> SimulationError:
    """The typed form of an arithmetic fault of the simulated program —
    an integer past its scratchpad's dtype, a division by zero, a
    transcendental outside its domain, NaN cast to an integer — which
    Python and numpy raise as ``ArithmeticError`` / ``ValueError``."""
    return SimulationError(
        f"{unit}: arithmetic fault in {where}: {type(err).__name__}: {err}")


_INFIX = {"add": "+", "sub": "-", "mul": "*", "mod": "%", "lt": "<",
          "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
_PREFIX = {"neg": "-", "not": "not "}

_NAMESPACE = {"_U": _U, "_rnd": _rnd, "_fail": _fail}
_NAMESPACE.update((f"_b_{op}", fn) for op, fn in _BINARY_EVAL.items())
_NAMESPACE.update((f"_u_{op}", fn) for op, fn in _UNARY_EVAL.items())

#: entries of the code-object memo: above the distinct sources of one
#: ``fuzz_mix`` pass (337), so a workload that repeats its programs
#: never evicts; about 4 KB each
CODE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=CODE_MEMO_SIZE)
def _code(source: str, name: str):
    """The code object of one generated source, shared by every build
    of that source in the process.  A source that fails to compile is
    not memoised and fails the same way on every build."""
    return compile(source, f"<datapath {name}>", "exec")


class _Emitter:
    """Source text of one generated function plus the objects it names.

    ``head`` runs once per call (symbol fetches, address lists, hoisted
    buffers), ``body`` is the code proper, ``tail`` tidies up."""

    def __init__(self, mem: MemoryState, stored=(), lanes: str = ""):
        self.mem = mem
        #: names of memories the code itself stores to: their buffers
        #: and registers are fetched per load, the others' once per call
        self.stored = frozenset(stored)
        self.ns = dict(_NAMESPACE)
        self.head: List[str] = []
        self.body: List[str] = []
        self.tail: List[str] = []
        self.ind = 1
        self._n = 0
        #: symbol / load site / memory -> the local or global naming it
        self._named: Dict[object, str] = {}
        self._checked = set()
        #: load sites in first-use order: (address list local, name of
        #: its ``reads`` key, the Load, whether a call may skip it)
        self.sites: List[Tuple[str, str, E.Load, bool]] = []
        #: the expression holding the lane values of a call, in a
        #: kernel; a scalar has none
        self.lanes = lanes

    def name(self, prefix: str) -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def const(self, obj, prefix: str = "k") -> str:
        """Bind an object into the function's globals; returns its name."""
        name = self.name(prefix)
        self.ns[name] = obj
        return name

    def line(self, text: str) -> None:
        self.body.append("    " * self.ind + text)

    def local(self, prefix: str, text: str) -> str:
        """Assign an expression to a fresh local; returns the local."""
        var = self.name(prefix)
        self.line(f"{var} = {text}")
        return var

    @staticmethod
    def fail(before: str, value: str = "''", after: str = "") -> str:
        """A call raising ``SimulationError(before + str(value) + after)``
        where ``value`` is an expression of the generated code."""
        return f"_fail({before!r}, {value}, {after!r})"

    def symbol(self, node, lazy: bool) -> str:
        """Local holding ``env[node]``, fetched once per call.  The
        unbound check is hoisted with it unless only lazily evaluated
        paths read the symbol (then each of them checks)."""
        var = self._named.get(node)
        if var is None:
            var = self._named[node] = self.name("s")
            self.head.append(f"    {var} = env.get({self.const(node)}, _U)")
            if isinstance(node, E.Var) and node.dtype == E.FLOAT32:
                self.head.append(
                    f"    if {var} is not _U: {var} = _rnd({var})")
        if node not in self._checked:
            check = f"if {var} is _U: " + self.fail(
                f"unbound symbol {node!r} in datapath")
            if lazy:
                self.line(check)
            else:
                self.head.append("    " + check)
                self._checked.add(node)
        return var

    def site(self, node: E.Load, lazy: bool) -> str:
        """The address list of one load site, created in first-use
        order like the access map it joins (a site no lane reached
        leaves no entry: whoever builds the tail sees to that)."""
        var = self._named.get(node)
        if var is None:
            var = self._named[node] = self.name("a")
            key = self.const((node.array.name, id(node)))
            self.head.append(f"    {var} = reads.setdefault({key}, [])")
            self.sites.append((var, key, node, lazy))
        return var

    def unreached(self) -> List[str]:
        """Tail lines dropping the entry of every site no evaluation
        reached."""
        return [f"    if not {var}: del reads[{key}]"
                for var, key, _node, lazy in self.sites if lazy]

    def address(self, what: str, target: Sram, idxs: Sequence[str]) -> str:
        """Bounds-test index expressions ``idxs`` into ``target``
        (failing with ``what: name[idxs] shape (…)``); returns the
        expression of the flat word address."""
        shape = target.shape
        checks = " and ".join(f"0 <= {i} < {dim}"
                              for i, dim in zip(idxs, shape))
        self.line(f"if not ({checks}): " + self.fail(
            f"{what}: {target.name}[", f"[{', '.join(idxs)}]",
            f"] shape {shape}"))
        flat = idxs[0]
        for i, dim in zip(idxs[1:], shape[1:]):
            flat = f"({flat}) * {dim} + {i}"
        return self.local("j", flat) if len(idxs) > 1 else flat

    def memory(self, target) -> str:
        """Name bound to the runtime state of memory ``target`` (one
        that was never placed fails the build)."""
        key = (type(target), target.name)
        if key not in self._named:
            sim = self.mem.reg(target) if isinstance(target, Reg) \
                else self.mem.scratch(target)
            self._named[key] = self.const(sim, "m")
        return self._named[key]

    def read(self, target, flat: str, lazy: bool) -> str:
        """Expression reading a register, or word ``flat`` of a
        scratchpad (cells unbox to exactly representable values, so
        loads need no rounding)."""
        is_reg = isinstance(target, Reg)
        fetch = self.memory(target) + (
            ".read()" if is_reg else ".read_buffer(version).item")
        # reading a never-written version creates it, so a buffer only
        # lazy paths read is fetched where it is read
        if target.name not in self.stored and (is_reg or not lazy):
            key = ("hoisted", target.name)
            if key not in self._named:
                self._named[key] = self.name("b")
                self.head.append(f"    {self._named[key]} = {fetch}")
            fetch = self._named[key]
        return fetch if is_reg else f"{fetch}({flat})"

    def build(self, name: str, params: Sequence[str],
              result: str = "") -> Callable:
        lines = [f"def {name}({', '.join(params)}):"] + self.head \
            + self.body + self.tail
        if result:
            lines.append(f"    return {result}")
        source = "\n".join(lines) + "\n"
        try:
            code = _code(source, name)
        except SyntaxError as err:      # ~100 Selects nested in branches
            raise SimulationError(
                f"datapath {name} nests too deeply to compile: {err.msg}")
        exec(code, self.ns)
        fn = self.ns[name]
        fn.source = source
        return fn


class _Scope:
    """One memo scope over the DAG under ``roots``.  A node with one
    user is computed where that user is; a node with several (the
    keys of ``var``) starts each lane as :data:`_U` and is computed by
    whichever user reaches it first."""

    def __init__(self, em: _Emitter, bound: Dict[E.Expr, str],
                 roots: Sequence[E.Expr]):
        self.em = em
        self.roots = roots
        #: symbols the generated code binds itself (loop index,
        #: accumulator operands) -> the expression holding them
        self.bound = bound
        uses = Counter(roots)
        for node in {n: None for r in roots for n in E.postorder(r)}:
            uses.update(node.children())
        #: shared node -> its local (the other nodes get theirs on use)
        self.var: Dict[E.Expr, str] = {
            n: em.name("v") for n, count in uses.items() if count > 1
            and not isinstance(n, (E.Const, E.Idx, E.Var))}
        #: shared nodes some / every path to this point has evaluated
        self.touched, self.done = set(), set()
        #: load this scope has code for -> the local it is read into
        #: once per call ("": it is read per lane)
        self.once: Dict[E.Load, str] = {}
        #: > 0 while emitting code only some executions reach
        self.depth = 0

    @contextmanager
    def lazily(self, depth: int = 1):
        """Emit an indented block only some executions enter."""
        self.em.ind += 1
        self.depth += depth
        done = set(self.done)
        try:
            yield
        finally:
            self.done = done
            self.depth -= depth
            self.em.ind -= 1

    def reset(self, nodes) -> str:
        """Statement marking (shared) ``nodes`` as not evaluated."""
        return " = ".join([self.var[n] for n in nodes] + ["_U"])

    def need(self, node: E.Expr) -> str:
        """Emit whatever evaluates ``node`` here; returns the expression
        naming its value."""
        em = self.em
        if isinstance(node, E.Const):
            value = _rnd(node.value) if node.dtype == E.FLOAT32 \
                else node.value
            if type(value) in (int, bool) or (
                    type(value) is float and abs(value) < float("inf")):
                return f"({value!r})" if value < 0 else repr(value)
            return em.const(value)
        if isinstance(node, (E.Idx, E.Var)):
            return self.bound.get(node) or em.symbol(node, self.depth > 0)
        if isinstance(node, E.Load) and em.lanes:
            if node not in self.once:
                self.once[node] = self._load_once(node) \
                    if self._is_uniform(node) else ""
            if self.once[node]:
                return self.once[node]
        var = self.var.get(node)
        if var is None:                 # its only user: compute it here
            var = em.name("v")
            self._compute(node, var)
        elif node not in self.touched:  # the first user to be emitted
            self.touched.add(node)
            self._compute(node, var)
            self.done.add(node)
        elif node not in self.done:
            # reaching this point evaluates the node one way or the
            # other, so the guarded block is no lazier than this point
            em.line(f"if {var} is _U:")
            with self.lazily(depth=0):
                self._compute(node, var)
            self.done.add(node)
        return var

    def need_int(self, node: E.Expr) -> str:
        """``int(value of node)``: indices and keys truncate."""
        text = self.need(node)
        if isinstance(node, E.Idx) or (
                isinstance(node, E.Const) and type(node.value) is int):
            return text
        return self.em.local("j", f"int({text})")

    def _compute(self, node: E.Expr, var: str) -> None:
        em = self.em
        rounds = node.dtype == E.FLOAT32
        if isinstance(node, E.Load):
            self._load(node, var)
            return
        if isinstance(node, E.Select):
            em.line(f"if {self.need(node.cond)}:")
            for branch in (node.if_true, node.if_false):
                with self.lazily():
                    text = self.need(branch)
                    # a FLOAT32 branch has rounded its value already
                    if rounds and branch.dtype != E.FLOAT32:
                        text = f"_rnd({text})"
                    em.line(f"{var} = {text}")
                if branch is node.if_true:
                    em.line("else:")
            return
        if isinstance(node, E.BinOp):
            lhs, rhs = self.need(node.lhs), self.need(node.rhs)
            text = f"{lhs} {_INFIX[node.op]} {rhs}" if node.op in _INFIX \
                else f"_b_{node.op}({lhs}, {rhs})"
        elif isinstance(node, E.UnOp):
            operand = self.need(node.operand)
            text = f"{_PREFIX[node.op]}{operand}" if node.op in _PREFIX \
                else f"_u_{node.op}({operand})"
        else:
            text = em.fail(f"cannot evaluate {node!r} on the datapath")
        em.line(f"{var} = _rnd({text})" if rounds else f"{var} = {text}")

    def _is_uniform(self, node: E.Load) -> bool:
        """Would every lane of a call evaluate ``node`` here, to one
        value that cannot fault?  A load every lane reaches (this is
        the scope's first code for it, and no lane skips it), of a
        scratchpad the code does not store to, at constant in-range
        indices — ``ptr[0]`` of a CSR segment."""
        return bool(
            self.depth == 0 and isinstance(node.array, Sram)
            and node.array.name not in self.em.stored
            and len(node.indices) == len(node.array.shape)
            and all(type(i) is E.Const and type(i.value) is int
                    and 0 <= i.value < dim
                    for i, dim in zip(node.indices, node.array.shape)))

    def _load_once(self, node: E.Load) -> str:
        """Read a uniform load once per call: the value in the head,
        its address once per lane in the site's group (a scope that
        re-reads it — a reduce combine — adds a group's worth more)."""
        em = self.em
        flat = 0
        for i, dim in zip(node.indices, node.array.shape):
            flat = flat * dim + i.value
        site = em.site(node, False)
        var = em._named.get(("uniform", node))
        if var is None:
            var = em._named["uniform", node] = em.name("h")
            em.head.append(f"    {var} = {em.read(node.array, flat, False)}")
        em.head.append(f"    {site} += [{flat}] * len({em.lanes})")
        return var

    def _load(self, node: E.Load, var: str) -> None:
        em = self.em
        target = node.array
        lazy = self.depth > 0
        if isinstance(target, Reg):
            em.line(f"{var} = {em.read(target, '', lazy)}")
            return
        if not isinstance(target, Sram):
            em.line(em.fail(f"datapath cannot read {type(target).__name__} "
                            f"{getattr(target, 'name', '?')!r}"))
            return
        flat = em.address("scratchpad OOB", target,
                          [self.need_int(i) for i in node.indices])
        em.line(f"{em.site(node, lazy)}.append({flat})")
        em.line(f"{var} = {em.read(target, flat, lazy)}")

    def operand(self, var: E.Var, source, text: str) -> None:
        """Bind accumulator operand ``var`` to the value ``text`` of
        node ``source`` (None: unknown origin).  Reading a FLOAT32
        operand rounds, which only shows when the value did not come
        from a FLOAT32 node."""
        if var.dtype == E.FLOAT32 and (source is None
                                       or source.dtype != E.FLOAT32):
            text = self.em.local("p", f"_rnd({text})")
        self.bound[var] = text


class Evaluator:
    """Per-simulator cache of compiled scalar expressions: counter
    bounds, transfer offsets and counts, carry combines."""

    def __init__(self, mem: MemoryState):
        self.mem = mem
        self._fns: Dict[object, Callable] = {}

    def _compile(self, key, scopes: Sequence[Sequence[E.Expr]],
                 operands: Sequence[E.Var] = ()) -> Callable:
        """``fn(version, env, reads, *operand values)`` -> the values of
        every root, each group of ``scopes`` evaluated in a memo scope
        of its own (a load two groups share is read, and recorded,
        twice)."""
        em = _Emitter(self.mem)
        params = [em.name("q") for _ in operands]
        results = []
        for roots in scopes:
            scope = _Scope(em, {}, roots)
            if scope.var:
                em.line(scope.reset(scope.var))
            for var, param in zip(operands, params):
                scope.operand(var, None, param)
            results += [scope.need(root) for root in roots]
        em.tail = em.unreached()
        fn = self._fns[key] = em.build(
            "scalar", ["version", "env", "reads"] + params,
            f"[{', '.join(results)}]")
        return fn

    def __call__(self, expr: E.Expr, env: dict, version, reads=None):
        """Value of ``expr`` under symbol bindings ``env``; loads land
        in ``reads`` (dropped when the caller prices nothing)."""
        if type(expr) is E.Const and type(expr.value) is int:
            return expr.value           # most transfer offsets
        fn = self._fns.get(expr) or self._compile(expr, [(expr,)])
        return fn(version, env, {} if reads is None else reads)[0]

    def bounds(self, counter, env: dict, version, reads=None) -> list:
        """``[lo, hi]`` of one counter in one call, ``lo`` first."""
        fn = self._fns.get(counter) or self._compile(
            counter, [(counter.lo,), (counter.hi,)])
        return fn(version, env, {} if reads is None else reads)

    def combine(self, stmt: ReduceStmt, env: dict, version,
                current: Sequence, values: Sequence) -> list:
        """``stmt.combines`` over (current target contents, reduced
        values) in one fresh scope — the carry step at activation end.
        Its loads are not priced."""
        fn = self._fns.get(stmt) or self._compile(
            stmt, [stmt.combines], stmt.acc_a + stmt.acc_b)
        return fn(version, env, {}, *current, *values)


def price_reads(scratchpads, groups) -> int:
    """Count and charge read groups ``((sram name, site), addresses)``
    through the general rule; returns the largest extra.  What a kernel
    does with the groups it cannot price in line: the counter chain's
    bound reads, and every group of a body that shares a load with its
    own chain's bounds."""
    extra = 0
    for (name, _site), addrs in groups:
        cost = scratchpads[name].read_cost(addrs)
        if cost > extra:
            extra = cost
    return extra


def _emit_price(em: _Emitter, group: str, target: Sram, write: bool,
                lazy_key: str = "") -> None:
    """Tail code counting address list ``group`` of scratchpad
    ``target`` and raising ``extra`` to its conflict cost.  What the
    configuration decides is decided here: a mode that cannot conflict
    only counts, and on a strided scratchpad the two shapes that cost 0
    by construction — a broadcast, a unit-stride run no longer than the
    bank count at bank stride 1 — are recognised in the addresses;
    anything else is the scratchpad's own rule
    (:meth:`~repro.sim.scratchpad.ScratchpadSim.conflict_extra`, which
    knows the same two shapes)."""
    pad = em.memory(target)
    banks = em.mem.scratch(target).banks
    counter, general = ("writes", "write_cost") if write \
        else ("reads", "read_cost")
    ind = "    "
    if lazy_key:    # a site no lane reached leaves no entry
        em.tail += [f"    if not {group}: del reads[{lazy_key}]",
                    "    else:"]
        ind += "    "
    general = f"extra = max(extra, {pad}.{general}({group}))"
    if target.banking is BankingMode.STRIDED:
        free = f"{group}.count(_a) == _n"
        if target.bank_stride == 1:
            free += (f" or _n <= {banks} and {group}[-1] - _a == _n - 1 "
                     f"and {group} == list(range(_a, _a + _n))")
        lines = [f"_n = len({group}); _a = {group}[0]",
                 f"if {free}: {pad}.{counter} += _n",
                 f"else: {general}"]
    elif write and target.banking is BankingMode.DUPLICATION:
        lines = [general]
    else:
        lines = [f"{pad}.{counter} += len({group})"]
    em.tail += [ind + line for line in lines]


def compile_body(sim) -> Callable:
    """The kernel of one inner controller:
    ``kernel(version, env, lanes, reads, writes, fx, accs) -> extra``
    is one vector issue — every statement of ``sim.leaf`` for the
    innermost index values ``lanes`` under the outer bindings ``env``,
    its scratchpad stores, its access counts and its bank-conflict cost
    (the ``extra`` cycles it returns).

    What it leaves behind is the issue's record, read by whoever
    listens (the batch recorder, the test harness), never by the leaf:
    ``reads`` — the priced read groups, ``(sram name, load site) ->
    addresses`` in pricing order (it arrives holding what the counter
    chain's bound expressions read since the last issue; those are
    priced first); ``writes`` — ``sram name -> flat addresses`` in store
    order, the priced write groups; ``fx`` — one ``("s", sram name,
    flat addresses, values)`` entry per storing statement, in statement
    order.  Registers, hash bins and FIFOs are written through
    ``sim``'s ``_write_reg/_hash_store/_emit_values``; reduce state
    lands in ``accs[stmt index][key] = (env, lane, *values)``."""
    stmts = sim.leaf.stmts
    em = _Emitter(sim.mem, {s.mem.name for s in stmts
                            if isinstance(s, (WriteStmt, HashReduceStmt))},
                  lanes="lanes")
    index = sim.leaf.chain.indices[-1]
    # what each statement's lanes evaluate in the scope they share:
    # everything but the combines, which are scopes of their own
    roots = [[r for r in s.exprs() if r is not getattr(s, "combine", None)
              and r not in getattr(s, "combines", ())] for s in stmts]
    main = _Scope(em, {index: "x"}, [r for rs in roots for r in rs])
    reach = [{n for r in rs for n in E.postorder(r)} for rs in roots]
    #: shared node -> per-lane list an earlier statement left it in
    carried: Dict[E.Expr, str] = {}
    #: stored scratchpad -> the address lists of its storing statements
    stored: Dict[str, Tuple[Sram, List[str]]] = {}
    kernel = em.body
    for si, stmt in enumerate(stmts):
        here = [n for n in main.var if n in reach[si]
                and not main.once.get(n)]
        imports = [n for n in here if n in carried]
        loop = "for x in lanes:" if not imports else \
            "for x, {} in zip(lanes, {}):".format(
                ", ".join(main.var[n] for n in imports),
                ", ".join(carried[n] for n in imports))
        em.body, em.ind = [], 2
        if len(here) > len(imports):
            em.line(main.reset([n for n in here if n not in carried]))
        before, after = _emit_statement(em, sim, main, si, stmt, index)
        if isinstance(getattr(stmt, "mem", None), Sram):
            stored.setdefault(stmt.mem.name, (stmt.mem, []))[1].append(
                f"wa{si}")
        for node in here:
            if not main.once.get(node) and any(
                    node in later for later in reach[si + 1:]):
                carried[node] = em.name("c")
                before.append(f"{carried[node]} = []")
                em.line(f"{carried[node]}.append({main.var[node]})")
        kernel += ["    " + text for text in before + [loop]] + em.body \
            + ["    " + text for text in after]
    em.body = kernel
    # the tail prices the issue, in the access map's order: the bound
    # reads, the load sites in first-use order, the write groups
    general = f"{em.const(price_reads, 'f')}" \
        f"({em.const(sim.mem.scratchpads)}, {{}})"
    in_bounds = {n for c in sim.leaf.chain.counters for b in (c.lo, c.hi)
                 for n in E.postorder(b)}
    if any(node in in_bounds for _var, _key, node, _lazy in em.sites):
        # a site the bounds share is one group with their reads
        em.tail = em.unreached() + [
            "    extra = " + general.format("reads.items()")]
    else:
        em.head.insert(0, "    bound = list(reads.items()) if reads else ()")
        em.tail.append(
            "    extra = " + general.format("bound") + " if bound else 0")
        for var, key, node, lazy in em.sites:
            _emit_price(em, var, node.array, False, key if lazy else "")
    for name, (target, groups) in stored.items():
        em.tail.append(f"    writes[{name!r}] = _g = {' + '.join(groups)}")
        _emit_price(em, "_g", target, True)
    return em.build("kernel", ["version", "env", "lanes", "reads", "writes",
                               "fx", "accs"], "extra")


def _emit_statement(em: _Emitter, sim, main: _Scope, si: int, stmt,
                    index) -> Tuple[List[str], List[str]]:
    """Emit one statement's per-lane code; returns the lines that go
    before and after its lane loop."""
    if isinstance(stmt, WriteStmt):
        value = main.need(stmt.value)
        target = stmt.mem
        if isinstance(target, Reg):
            em.line(f"{em.const(sim._write_reg, 'f')}"
                    f"({em.const(target)}, {value})")
            return [], []
        # ScratchpadSim.store, in line: same bounds test and message,
        # the flat address from the literal shape, the dtype
        # constructor as the cast; the version is created copy-on-write
        # by this issue, the watermark moves once per statement
        flat = em.address("scratchpad OOB write", target,
                          [main.need_int(a) for a in stmt.addr])
        em.line(f"wb{si}[{flat}] = "
                f"{em.const(_np_dtype(target.dtype))}({value})")
        em.line(f"wa{si}.append({flat}); wv{si}.append({value})")
        pad = em.memory(target)
        return ([f"wa{si} = []", f"wv{si} = []",
                 f"wb{si} = {pad}.buffer(version).reshape(-1)"],
                [f"{pad}.note_write(version, max(wa{si}))",
                 f"fx.append(('s', {target.name!r}, wa{si}, wv{si}))"])
    if isinstance(stmt, EmitStmt):
        em.line(f"if {main.need(stmt.cond)}:")
        with main.lazily():
            em.line(f"out{si}.append({main.need(stmt.value)})")
        push = "{}({}, out{})".format(
            em.const(sim._emit_values, "f"),
            em.const(sim.fifos[stmt.fifo.name]), si)
        return [f"out{si} = []"], [f"if out{si}: {push}"]
    if isinstance(stmt, ReduceStmt):
        values = [main.need(v) for v in stmt.values]
        key = "({}{})".format(
            ", ".join([main.need_int(a) for a in stmt.addr]),
            "," if len(stmt.addr) == 1 else "")
        prev = [em.name("p") for _ in values]
        # inits are raw: reading the accumulator operand rounds them
        inits = [em.const(_rnd(i) if a.dtype == E.FLOAT32 else i)
                 for i, a in zip(stmt.inits, stmt.acc_a)]
        em.line(f"_p = acc{si}.get({key})")
        em.line(f"if _p is None: {', '.join(prev)} = {', '.join(inits)}")
        em.line(f"else: _, _, {', '.join(prev)} = _p")
        scope = _Scope(em, {index: "x"}, stmt.combines)
        for k, p in enumerate(prev):
            scope.operand(stmt.acc_a[k], stmt.combines[k], p)
            scope.operand(stmt.acc_b[k], stmt.values[k], values[k])
        before = [f"acc{si} = accs[{si}]"]
        store = f"acc{si}[{key}] = (env, x, {{}})"
    elif isinstance(stmt, HashReduceStmt):
        # a lane-sequential read-modify-write of one bin
        key = main.need_int(stmt.key)
        value = main.need(stmt.value)
        size = int(np.prod(stmt.mem.shape))
        em.line(f"_buf = {em.memory(stmt.mem)}.buffer(version)")
        em.line(f"if not (0 <= {key} < {size}): " + em.fail(
            f"{sim.name}: hash key ", key, f" outside [0, {size})"))
        scope = _Scope(em, {index: "x"}, (stmt.combine,))
        scope.bound[stmt.acc_a] = em.local("p", f"_buf.item({key})")
        scope.operand(stmt.acc_b, stmt.value, value)
        before = [f"wa{si} = []"]
        store = "{}({}, _buf, {}, {{}}); wa{}.append({})".format(
            em.const(sim._hash_store, "f"), em.const(stmt.mem), key, si,
            key)
    else:
        raise SimulationError(f"unknown stmt {stmt!r}")
    if scope.var:
        em.line(scope.reset(scope.var))
    em.line(store.format(", ".join([scope.need(c) for c in scope.roots])))
    return before, []
