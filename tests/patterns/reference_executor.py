"""The per-element reference executor, kept for differential tests only.

This is the body of ``repro.patterns.executor`` before it evaluated each
step over its whole index domain: ``eval_expr`` walks the expression
tree once per element through an identity-keyed memo.  It is slow on
purpose -- it is the plain statement of the semantics the vectorised
executor must reproduce, and ``tests/patterns/test_executor_differential.py``
compares the two.  It follows the language's typing rule: a FLOAT32 node
rounds whatever it yields to float32, an int included.  Nothing under
``src/`` may import it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import Array, Dyn, _np_dtype
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

    def read(self, array: Array, idxs):
        """Read one element with bounds checking."""
        buf = self.buffers[array.name]
        if not idxs:
            return buf[()] if buf.shape == () else buf.item(0)
        for axis, idx in enumerate(idxs):
            size = buf.shape[axis] if axis < buf.ndim else 0
            if idx < 0 or idx >= size:
                raise SimulationError(
                    f"out-of-bounds read {array.name}[{idxs}] "
                    f"(buffer shape {buf.shape})")
        return buf[tuple(idxs)].item()

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


def _index(value):
    """An address, key or bound as ``to_int`` makes it (past int64 it
    faults)."""
    return E.eval_unary("to_int", value)


def eval_expr(node: E.Expr, env: Env, bindings, cache=None):
    """Evaluate one symbolic expression to a concrete scalar.

    ``bindings`` maps :class:`Idx`/:class:`Var` nodes (by identity) to
    concrete values.  ``cache`` memoizes shared subtrees within one
    evaluation.
    """
    if cache is None:
        cache = {}
    hit = cache.get(node)
    if hit is not None or node in cache:
        return hit
    if isinstance(node, E.Const):
        result = node.value
    elif isinstance(node, (E.Idx, E.Var)):
        try:
            result = bindings[node]
        except KeyError:
            raise SimulationError(f"unbound symbol {node!r}") from None
    elif isinstance(node, E.Load):
        idxs = [_index(eval_expr(i, env, bindings, cache))
                for i in node.indices]
        result = env.read(node.array, idxs)
    elif isinstance(node, E.BinOp):
        result = E.eval_binary(node.op,
                               eval_expr(node.lhs, env, bindings, cache),
                               eval_expr(node.rhs, env, bindings, cache))
    elif isinstance(node, E.UnOp):
        result = E.eval_unary(node.op,
                              eval_expr(node.operand, env, bindings, cache))
    elif isinstance(node, E.Select):
        cond = eval_expr(node.cond, env, bindings, cache)
        branch = node.if_true if cond else node.if_false
        result = eval_expr(branch, env, bindings, cache)
    else:
        raise SimulationError(f"cannot evaluate node {node!r}")
    if node.dtype == E.FLOAT32:
        result = float(np.float32(result))
    cache[node] = result
    return result


def _dim_range(dim, env: Env, bindings):
    """Concrete (lo, hi) for one domain dimension under ``bindings``."""
    if isinstance(dim, StaticDim):
        return 0, dim.extent
    if isinstance(dim, DynDim):
        return 0, env.scalar(dim.dyn.length_of)
    if isinstance(dim, RangeDim):
        lo = _index(eval_expr(dim.lo, env, bindings))
        hi = _index(eval_expr(dim.hi, env, bindings))
        return lo, hi
    raise SimulationError(f"unknown dim {dim!r}")


def iterate_domain(dims, indices, env: Env, bindings):
    """Yield binding dicts for every point of a (possibly dynamic) domain.

    Later dimensions may depend on earlier indices, so ranges are
    re-evaluated per prefix.
    """
    def _recurse(axis, current):
        if axis == len(dims):
            yield current
            return
        lo, hi = _dim_range(dims[axis], env, current)
        for value in range(lo, hi):
            nxt = dict(current)
            nxt[indices[axis]] = value
            yield from _recurse(axis + 1, nxt)
    yield from _recurse(0, dict(bindings))


def _run_fold(fold: Fold, env: Env, bindings):
    """Evaluate a Fold to its tuple of accumulator values."""
    acc = list(fold.init)
    for point in iterate_domain(fold.dims, fold.indices, env, bindings):
        cache = {}
        vals = [eval_expr(b, env, point, cache) for b in fold.body]
        cbind = dict(point)
        for k in range(fold.width):
            cbind[fold.acc_a[k]] = acc[k]
            cbind[fold.acc_b[k]] = vals[k]
        ccache = {}
        acc = [eval_expr(c, env, cbind, ccache) for c in fold.combine]
    return tuple(acc)


def _offset_indices(point, indices):
    return [point[i] for i in indices]


def run_step(step: Step, env: Env) -> None:
    """Execute one pattern step against the environment."""
    pattern = step.pattern
    if isinstance(pattern, Map):
        for point in iterate_domain(pattern.dims, pattern.indices, env, {}):
            out_idx = _offset_indices(point, pattern.indices)
            if pattern.inner is not None:
                values = _run_fold(pattern.inner, env, point)
                for k, value in enumerate(values):
                    env.write(step.outputs[k],
                              _map_out_idx(step.outputs[k], out_idx), value)
            else:
                cache = {}
                for k, body in enumerate(pattern.body):
                    value = eval_expr(body, env, point, cache)
                    env.write(step.outputs[k],
                              _map_out_idx(step.outputs[k], out_idx), value)
    elif isinstance(pattern, Fold):
        values = _run_fold(pattern, env, {})
        for k, out in enumerate(step.outputs):
            env.write(out, (), values[k])
    elif isinstance(pattern, FlatMap):
        out = step.outputs[0]
        count = 0
        capacity = out.static_elems()
        for point in iterate_domain(pattern.dims, pattern.indices, env, {}):
            cache = {}
            for cond, value in pattern.emits:
                if eval_expr(cond, env, point, cache):
                    if count >= capacity:
                        raise SimulationError(
                            f"FlatMap output {out.name!r} overflow "
                            f"(max_elems={capacity})")
                    env.write(out, (count,),
                              eval_expr(value, env, point, cache))
                    count += 1
        env.write(step.length_output, (), count)
    elif isinstance(pattern, HashReduce):
        accs = [np.array([pattern.init[k]] * pattern.bins, dtype=object)
                for k in range(pattern.width)]
        touched = np.zeros(pattern.bins, dtype=bool)
        for point in iterate_domain(pattern.dims, pattern.indices, env, {}):
            cache = {}
            key = _index(eval_expr(pattern.key, env, point, cache))
            if key < 0 or key >= pattern.bins:
                raise SimulationError(
                    f"HashReduce key {key} outside [0, {pattern.bins})")
            vals = [eval_expr(v, env, point, cache) for v in pattern.value]
            cbind = dict(point)
            for k in range(pattern.width):
                cbind[pattern.acc_a[k]] = accs[k][key]
                cbind[pattern.acc_b[k]] = vals[k]
            ccache = {}
            for k in range(pattern.width):
                accs[k][key] = eval_expr(pattern.combine[k], env, cbind,
                                         ccache)
            touched[key] = True
        for k, out in enumerate(step.outputs):
            for bin_id in range(pattern.bins):
                env.write(out, (bin_id,), accs[k][bin_id])
    elif isinstance(pattern, ScatterMap):
        target = step.outputs[0]
        limit = env.buffers[target.name].shape[0]
        for point in iterate_domain(pattern.dims, pattern.indices, env, {}):
            cache = {}
            where = _index(eval_expr(pattern.index, env, point, cache))
            if where < 0 or where >= limit:
                raise SimulationError(
                    f"scatter index {where} out of bounds for "
                    f"{target.name!r}")
            env.write(target, (where,),
                      eval_expr(pattern.value, env, point, cache))
    else:
        raise SimulationError(f"cannot execute pattern {pattern!r}")


def _map_out_idx(out: Array, idx):
    """Map domain indices to output buffer indices (dynamic outputs are
    flat 1-d buffers)."""
    if out.ndim == 0:
        return ()
    if out.is_dynamic and len(idx) != 1:
        raise SimulationError("dynamic Map outputs require a 1-d domain")
    return idx


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
