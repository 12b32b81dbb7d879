"""Expression rewriting utilities for the lowering passes.

``rewrite`` rebuilds an expression DAG applying a node-replacement
function, preserving sharing (a shared subtree is rewritten once).
``substitute`` is the common special case of replacing index leaves.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.patterns import expr as E


def rewrite(root: E.Expr, replace: Callable[[E.Expr], Optional[E.Expr]],
            memo: Optional[Dict[E.Expr, E.Expr]] = None) -> E.Expr:
    """Rebuild ``root`` bottom-up, applying ``replace`` at every node.

    ``replace`` is consulted *before* recursion: returning a node stops
    descent (the replacement is used as-is); returning None rewrites the
    children and reconstructs the node if any child changed.
    """
    if memo is None:
        memo = {}
    if root in memo:
        return memo[root]
    replaced = replace(root)
    if replaced is not None:
        memo[root] = replaced
        return replaced
    result = _rebuild(root, replace, memo)
    memo[root] = result
    return result


def _rebuild(node: E.Expr, replace, memo) -> E.Expr:
    if isinstance(node, (E.Const, E.Idx, E.Var)):
        return node
    if isinstance(node, E.Load):
        new_indices = [rewrite(i, replace, memo) for i in node.indices]
        if all(a is b for a, b in zip(new_indices, node.indices)):
            return node
        return E.Load(node.array, new_indices)
    if isinstance(node, E.BinOp):
        lhs = rewrite(node.lhs, replace, memo)
        rhs = rewrite(node.rhs, replace, memo)
        if lhs is node.lhs and rhs is node.rhs:
            return node
        return E.BinOp(node.op, lhs, rhs)
    if isinstance(node, E.UnOp):
        operand = rewrite(node.operand, replace, memo)
        if operand is node.operand:
            return node
        return E.UnOp(node.op, operand)
    if isinstance(node, E.Select):
        cond = rewrite(node.cond, replace, memo)
        if_true = rewrite(node.if_true, replace, memo)
        if_false = rewrite(node.if_false, replace, memo)
        if (cond is node.cond and if_true is node.if_true
                and if_false is node.if_false):
            return node
        return E.Select(cond, if_true, if_false)
    raise TypeError(f"cannot rewrite {node!r}")


def substitute(root: E.Expr, mapping: Dict[E.Expr, E.Expr],
               memo: Optional[Dict[E.Expr, E.Expr]] = None) -> E.Expr:
    """Replace exact nodes (by identity) throughout a DAG."""
    return rewrite(root, lambda n: mapping.get(n), memo)


def simplify(root: E.Expr,
             memo: Optional[Dict[E.Expr, E.Expr]] = None) -> E.Expr:
    """Constant-fold trivial arithmetic (x*1, x+0, const op const).

    Keeps generated address expressions readable and stage counts
    honest; only int-safe identities are applied.  A rewrite never
    changes a node's dtype: an identity or a branch pick whose survivor
    has another dtype (``x_int + 0.0``) is not applied, and a folded
    constant is a :class:`Const` of the node's dtype.
    """
    if memo is None:
        memo = {}
    if root in memo:
        return memo[root]
    result = _simplify_node(root, memo)
    memo[root] = result
    return result


def _is_const(node, value=None):
    return isinstance(node, E.Const) and (value is None
                                          or node.value == value)


def _fold(fn, dtype: str, *values) -> Optional[E.Const]:
    """The constant ``fn(*values)`` folds to, of ``dtype`` (a FLOAT32 one
    holds a float); None where the operation faults, so the node stays
    and faults when it runs."""
    try:
        value = fn(*values)
    except (ArithmeticError, ValueError):
        return None
    return E.Const(float(value) if dtype == E.FLOAT32 else value, dtype)


def _simplify_node(node: E.Expr, memo) -> E.Expr:
    if isinstance(node, (E.Const, E.Idx, E.Var)):
        return node
    if isinstance(node, E.Load):
        idxs = [simplify(i, memo) for i in node.indices]
        if all(a is b for a, b in zip(idxs, node.indices)):
            return node
        return E.Load(node.array, idxs)
    if isinstance(node, E.UnOp):
        operand = simplify(node.operand, memo)
        if isinstance(operand, E.Const) and node.op in ("neg", "not"):
            folded = _fold(E.eval_unary, node.dtype, node.op, operand.value)
            if folded is not None:
                return folded
        if operand is node.operand:
            return node
        return E.UnOp(node.op, operand)
    if isinstance(node, E.Select):
        cond = simplify(node.cond, memo)
        if_true = simplify(node.if_true, memo)
        if_false = simplify(node.if_false, memo)
        if _is_const(cond):
            pick = if_true if cond.value else if_false
            if pick.dtype == node.dtype:
                return pick
        if (cond is node.cond and if_true is node.if_true
                and if_false is node.if_false):
            return node
        return E.Select(cond, if_true, if_false)
    if isinstance(node, E.BinOp):
        lhs = simplify(node.lhs, memo)
        rhs = simplify(node.rhs, memo)
        op = node.op
        if _is_const(lhs) and _is_const(rhs) and op in (
                "add", "sub", "mul", "min", "max"):
            folded = _fold(E.eval_binary, node.dtype, op, lhs.value,
                           rhs.value)
            if folded is not None:
                return folded
        if op == "add":
            if _is_const(lhs, 0) and rhs.dtype == node.dtype:
                return rhs
            if _is_const(rhs, 0) and lhs.dtype == node.dtype:
                return lhs
        elif op == "sub":
            if _is_const(rhs, 0) and lhs.dtype == node.dtype:
                return lhs
        elif op == "mul":
            if _is_const(lhs, 1) and rhs.dtype == node.dtype:
                return rhs
            if _is_const(rhs, 1) and lhs.dtype == node.dtype:
                return lhs
            if _is_const(lhs, 0) or _is_const(rhs, 0):
                return E.wrap(0) if node.dtype == E.INT32 else node
        if lhs is node.lhs and rhs is node.rhs:
            return node
        return E.BinOp(op, lhs, rhs)
    return node
