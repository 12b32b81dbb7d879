"""A program's arithmetic fault is a typed error in the executor, as it
is in the simulator.

Python raises ``ZeroDivisionError`` / ``ValueError`` / ``OverflowError``
for what a program's own arithmetic does; numpy would instead return
inf or NaN without a word.  The executor raises, for every point the
scalar semantics evaluate, the error Python raises there — as a
``SimulationError`` naming the step and the original exception — and
``Machine.run`` types the same fault (``repro.sim.datapath.datapath_fault``).
"""

import re

import numpy as np
import pytest

from repro.compiler.artifact import freeze_program
from repro.errors import SimulationError, TraceError
from repro.patterns import (Fold, HashReduce, Program, run_program,
                            select)
from repro.patterns import expr as E

N = 32


def _add(x, y):
    return x + y


class TopFold:
    """A row body that is a top-level int Fold over ``[0, hi(a[0]))``:
    a data-dependent bound of a one-counter leaf, which the simulator
    walks (a Fold nested in a Map has a window of them first)."""

    def __init__(self, hi):
        self.hi = hi


def _program(name, dtype, value, fn, out_dtype):
    prog = Program(name)
    data = np.full(N, value, dtype=np.float32 if dtype == E.FLOAT32
                   else np.int32)
    a = prog.input("a", (N,), dtype=dtype, data=data)
    if isinstance(fn, TopFold):
        out = prog.output("o", (), dtype=out_dtype)
        prog.fold("q", out, ((0, fn.hi(a[0])),), 0, lambda k: k, _add)
        return prog
    out = prog.output("o", (N,), dtype=out_dtype)
    prog.map("q", out, (N,), lambda i: fn(a[i]))
    return prog


INT, FLOAT = E.INT32, E.FLOAT32

#: fault -> (input dtype, input value, body, output dtype, what Python says)
FAULTS = {
    "int_div_by_zero": (INT, 0, lambda x: E.wrap(7) / x, INT,
                        "ZeroDivisionError: integer division by zero in "
                        "traced expression"),
    "float_div_by_zero": (FLOAT, 0.0, lambda x: E.wrap(7.0) / x, FLOAT,
                          "ZeroDivisionError: float division by zero"),
    "int_mod_by_zero": (INT, 0, lambda x: E.wrap(7) % x, INT,
                        "ZeroDivisionError: integer modulo by zero"),
    "log_of_negative": (FLOAT, -1.0, E.log, FLOAT,
                        "ValueError: math domain error"),
    "sqrt_of_negative": (FLOAT, -1.0, E.sqrt, FLOAT,
                         "ValueError: math domain error"),
    "exp_overflow": (FLOAT, 1000.0, E.exp, FLOAT,
                     "OverflowError: math range error"),
    "nan_to_int": (FLOAT, float("nan"), E.to_int, INT,
                   "ValueError: cannot convert float NaN to integer"),
    "inf_to_int": (FLOAT, float("inf"), E.to_int, INT,
                   "OverflowError: cannot convert float infinity to "
                   "integer"),
    "int32_overflow": (INT, 2 ** 20, lambda x: x * x, INT,
                       "OverflowError: Python integer 1099511627776 out "
                       "of bounds for int32"),
    # an INT32 value outside int64 is a fault, wherever it arises
    "int64_mul_overflow": (INT, 2 * 10 ** 9,
                           lambda x: x * x * x * x * x % 7, INT,
                           "OverflowError: integer "
                           "8000000000000000000000000000 outside int64"),
    "int64_fold_overflow": (INT, 2 * 10 ** 9,
                            lambda x: Fold(N, 0, lambda k: x * x * 2, _add),
                            INT, "OverflowError: integer "
                            "16000000000000000000 outside int64"),
    "to_int_past_int64": (FLOAT, 2.0, lambda x: E.to_int(x * 1e30) % 7, INT,
                          "OverflowError: integer "
                          "2000000030094932439753377710080 outside int64"),
    "int64_leaf_bound_walk": (INT, 3, TopFold(lambda x: x * 2 ** 40 * 2 ** 40),
                              INT, "OverflowError: integer "
                              "3626777458843887524118528 outside int64"),
    "int64_leaf_bound_window": (INT, 3, lambda x: Fold(
        (0, x * 2 ** 40 * 2 ** 40), 0, lambda k: k, _add), INT,
        "OverflowError: integer 3626777458843887524118528 outside int64"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_typed_in_executor_and_simulator(fault):
    dtype, value, fn, out_dtype, said = FAULTS[fault]
    with pytest.raises(SimulationError,
                       match="^step 'q': arithmetic fault in the reference "
                             "executor: " + re.escape(said) + "$"):
        run_program(_program(fault, dtype, value, fn, out_dtype))
    artifact = freeze_program(_program(fault, dtype, value, fn, out_dtype),
                              fault, "tiny")
    for scheduler in ("event", "dense"):
        machine = artifact.machine(scheduler=scheduler)
        with pytest.raises(SimulationError, match="arithmetic fault in .*: "
                           + re.escape(said) + "$"):
            machine.run()


#: a combine whose dtype differs from its accumulator's -> what the
#: tracer says.  Each evaluator used to cast it its own way: the
#: executor and the block truncated ``x + y * 0.5`` over INT32 (4.0 for
#: ``a = 1..8``), both per-element references kept the float (5.0), and
#: ``y * 1e30`` became -9.22e18 in the executor
COMBINE_DTYPE = {
    "fold_float_combine": (lambda a: Fold(4, 0, lambda k: a[k],
                                          lambda x, y: x + y * 0.5),
                           "Fold combine returns float32 for accumulator "
                           "acc_a0, which is int32"),
    "fold_float_combine_past_int64": (
        lambda a: Fold(4, 0, lambda k: a[k], lambda x, y: x + y * 1e30),
        "Fold combine returns float32 for accumulator acc_a0, which is "
        "int32"),
    "fold_second_accumulator": (
        lambda a: Fold(4, (0, 0.0), lambda k: (a[k], E.to_float(a[k])),
                       lambda x, y: (x[0] + y[0], E.to_int(x[1] + y[1]))),
        "Fold combine returns int32 for accumulator acc_a1, which is "
        "float32"),
    "hash_reduce_int_combine": (
        lambda a: HashReduce(4, lambda k: a[k] % 2,
                             lambda k: E.to_float(a[k]),
                             lambda x, y: E.to_int(x + y), bins=2),
        "HashReduce combine returns int32 for accumulator acc_a0, which "
        "is float32"),
}


@pytest.mark.parametrize("case", COMBINE_DTYPE)
def test_a_combine_must_return_its_accumulators_dtype(case):
    build, said = COMBINE_DTYPE[case]
    prog = Program(case)
    a = prog.input("a", (8,), dtype=INT,
                   data=np.arange(1, 9, dtype=np.int32))
    with pytest.raises(TraceError, match="^" + re.escape(said) + "$"):
        build(a)


def test_a_fault_no_point_reaches_is_not_raised():
    """A Select's untaken side faults nowhere — the guarded division
    never runs at a zero divisor, in either executor."""
    data = np.arange(N, dtype=np.int32) % 3
    prog = Program("guarded")
    a = prog.input("a", (N,), dtype=INT, data=data)
    out = prog.output("o", (N,), dtype=INT)
    prog.map("q", out, (N,),
             lambda i: select(a[i].ne(0), E.wrap(7) / a[i], -1))
    want = np.where(data != 0, 7 // np.maximum(data, 1), -1)
    assert run_program(prog).buffers["o"].tolist() == want.tolist()
    machine = freeze_program(prog, "guarded", "tiny").machine()
    machine.run()
    assert np.asarray(machine.result("o")).reshape(-1)[:N].tolist() == \
        want.tolist()


def test_the_first_point_in_domain_order_faults_first():
    """The division faults at i=5 and the log at i=2: evaluating the
    division over every point first would name the wrong one."""
    prog = Program("order")
    a = prog.input("a", (N,), dtype=FLOAT, data=np.where(
        np.arange(N) == 5, 0.0, 1.0).astype(np.float32))
    b = prog.input("b", (N,), dtype=FLOAT, data=np.where(
        np.arange(N) == 2, -1.0, 1.0).astype(np.float32))
    out = prog.output("o", (N,), dtype=FLOAT)
    prog.map("q", out, (N,), lambda i: E.wrap(7.0) / a[i] + E.log(b[i]))
    with pytest.raises(SimulationError,
                       match=re.escape("ValueError: math domain error")):
        run_program(prog)
