"""Parallel-pattern programming model (Section 2 of the paper).

Public surface::

    from repro.patterns import (
        Program, Map, Fold, FlatMap, Filter, HashReduce, ScatterMap,
        Array, Dyn, run_program,
        select, minimum, maximum, exp, log, sqrt, sigmoid, tanh, relu,
        absolute, to_float, to_int,
        FLOAT32, INT32, BOOL,
    )
"""

from repro.patterns.collections import Array, Dyn, scalar_cell
from repro.patterns.executor import Env, eval_expr, run_program, run_step
from repro.patterns.expr import (BOOL, FLOAT32, INT32, Const, Expr, Idx,
                                 Load, Var, absolute, exp, log, maximum,
                                 minimum, relu, select, sigmoid, sqrt, tanh,
                                 to_float, to_int)
from repro.patterns.patterns import (Filter, FlatMap, Fold, HashReduce, Map,
                                     Pattern, ScatterMap)
from repro.patterns.program import Loop, Program, Step

__all__ = [
    "Array", "Dyn", "scalar_cell",
    "Env", "eval_expr", "run_program", "run_step",
    "BOOL", "FLOAT32", "INT32", "Const", "Expr", "Idx", "Load", "Var",
    "absolute", "exp", "log", "maximum", "minimum", "relu", "select",
    "sigmoid", "sqrt", "tanh", "to_float", "to_int",
    "Filter", "FlatMap", "Fold", "HashReduce", "Map", "Pattern",
    "ScatterMap",
    "Loop", "Program", "Step",
]
