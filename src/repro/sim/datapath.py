"""Scalar datapath expressions, evaluated by walking their DAG.

The once-per-activation scalars of the simulator — a counter's ``(lo,
hi)``, transfer offsets and counts, the carry combine at the end of a
reduce — go through :class:`Evaluator`, which walks each expression
DAG with the scalar operation tables of ``repro.patterns.expr``.  What
the walk keeps:

* a node is evaluated at most once per scope; ``Select`` is lazy: the
  untaken side does no bounds check, records no access and raises
  nothing;
* Python ints inside int64 (one outside is an ``OverflowError``, the
  rule of ``repro.patterns.expr``), float64 arithmetic rounded to
  float32 after every FLOAT32-typed node, ``math.*`` transcendentals
  (they raise — a caller re-raises a program's arithmetic faults typed,
  :func:`datapath_fault`);
* one address list per ``(sram name, load site)`` in ``reads``, in
  first-evaluation order, so a leaf's counter chain prices the bound
  reads it makes with the issue they precede.

Leaf bodies, and a leaf's innermost counter bounds a window of
positions at a time, are evaluated by ``repro.sim.block``.
"""

from __future__ import annotations

import struct
from typing import Sequence

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


def datapath_fault(unit: str, where: str, err: Exception) -> SimulationError:
    """The typed form of an arithmetic fault of the simulated program —
    an integer past its scratchpad's dtype, a division by zero, a
    transcendental outside its domain, NaN cast to an integer — which
    Python and numpy raise as ``ArithmeticError`` / ``ValueError``."""
    return SimulationError(
        f"{unit}: arithmetic fault in {where}: {type(err).__name__}: {err}")


class _Walk:
    """One memo scope: node values under symbol bindings ``env``."""

    __slots__ = ("mem", "env", "version", "reads", "memo")

    def __init__(self, mem: MemoryState, env: dict, version, reads):
        self.mem, self.env, self.version, self.reads = mem, env, version, reads
        self.memo = {}

    def value(self, node: E.Expr):
        kind = type(node)
        if kind is E.Const:
            return _rnd(node.value) if node.dtype == E.FLOAT32 \
                else node.value
        if kind is E.Idx or kind is E.Var:
            value = self.env.get(node, _U)
            if value is _U:
                raise SimulationError(f"unbound symbol {node!r} in datapath")
            return _rnd(value) if kind is E.Var \
                and node.dtype == E.FLOAT32 else value
        value = self.memo.get(node, _U)
        if value is _U:
            value = self.memo[node] = self._compute(node)
        return value

    def _compute(self, node: E.Expr):
        if isinstance(node, E.Load):
            return self._load(node)
        if isinstance(node, E.Select):
            value = self.value(node.if_true if self.value(node.cond)
                               else node.if_false)
        elif isinstance(node, E.BinOp):
            value = _BINARY_EVAL[node.op](self.value(node.lhs),
                                          self.value(node.rhs))
        elif isinstance(node, E.UnOp):
            value = _UNARY_EVAL[node.op](self.value(node.operand))
        else:
            raise SimulationError(f"cannot evaluate {node!r} on the datapath")
        return _rnd(value) if node.dtype == E.FLOAT32 else value

    def _load(self, node: E.Load):
        """A register, or a bounds-checked scratchpad word (cells unbox
        to exactly representable values, so loads need no rounding)."""
        target = node.array
        if isinstance(target, Reg):
            return self.mem.reg(target).read()
        if not isinstance(target, Sram):
            raise SimulationError(
                f"datapath cannot read {type(target).__name__} "
                f"{getattr(target, 'name', '?')!r}")
        idxs = [E.eval_unary("to_int", self.value(i)) for i in node.indices]
        shape = target.shape
        flat = 0
        for i, dim in zip(idxs, shape):
            if not 0 <= i < dim:
                raise SimulationError(
                    f"scratchpad OOB: {target.name}[{idxs}] shape {shape}")
            flat = flat * dim + i
        if self.reads is not None:
            self.reads.setdefault((target.name, id(node)), []).append(flat)
        return self.mem.scratch(target).read_buffer(self.version).item(flat)


class Evaluator:
    """The scalar expressions of one simulator: counter bounds, transfer
    offsets and counts, carry combines."""

    def __init__(self, mem: MemoryState):
        self.mem = mem

    def __call__(self, expr: E.Expr, env: dict, version, reads=None):
        """Value of ``expr`` under symbol bindings ``env``; loads land
        in ``reads`` (None: the caller prices nothing)."""
        if type(expr) is E.Const and type(expr.value) is int:
            return expr.value           # most transfer offsets
        return _Walk(self.mem, env, version, reads).value(expr)

    def bounds(self, counter, env: dict, version, reads=None) -> list:
        """``[lo, hi]`` of one counter, each in a scope of its own,
        ``lo`` first."""
        return [_Walk(self.mem, env, version, reads).value(end)
                for end in (counter.lo, counter.hi)]

    def combine(self, stmt: ReduceStmt, env: dict, version,
                current: Sequence, values: Sequence) -> list:
        """``stmt.combines`` over (current target contents, reduced
        values) in one fresh scope — the carry step at activation end.
        Its loads are not priced."""
        env = {**env, **dict(zip(stmt.acc_a, current)),
               **dict(zip(stmt.acc_b, values))}
        walk = _Walk(self.mem, env, version, None)
        return [walk.value(c) for c in stmt.combines]
