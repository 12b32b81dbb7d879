"""Scalar datapath expressions compiled once to straight-line Python.

The once-per-activation scalars of the simulator — a counter's ``(lo,
hi)``, transfer offsets and counts, the carry combine at the end of a
reduce — go through :class:`Evaluator`: each expression DAG is turned,
on first use, into the source of one function.  What the generated code
keeps:

* a node is evaluated at most once per call; ``Select`` values are
  lazy: the untaken side does no bounds check, records no access and
  raises nothing;
* unbounded Python ints, float64 arithmetic rounded to float32 after
  every FLOAT32-typed node, ``math.*`` transcendentals (they raise — a
  caller re-raises a program's arithmetic faults typed,
  :func:`datapath_fault`);
* one address list per ``(sram name, load site)`` in ``reads``, created
  in first-use order, so a leaf's counter chain prices the bound reads
  it makes with the issue they precede.

A generated source names the objects it uses (memories, symbols) and
binds none of them, so its code object is compiled once per process
(:func:`_code`) and each build ``exec``s it into a namespace of its own:
machines share code, never state.  Leaf bodies are evaluated a block of
issues at a time by ``repro.sim.block``.
"""

from __future__ import annotations

import functools
import struct
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.dhdl.ir import ReduceStmt
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
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

#: entries of the code-object memo: far above the distinct scalar
#: sources of one ``fuzz_mix`` pass (40 at seed 3), so a workload that
#: repeats its programs never evicts
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

    def __init__(self, mem: MemoryState):
        self.mem = mem
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
        if is_reg or not lazy:
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
