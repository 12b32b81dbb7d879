"""An arithmetic fault of the simulated program is a typed error.

Python and numpy raise ``OverflowError`` / ``ZeroDivisionError`` /
``ValueError`` for what a program's own arithmetic does — a product past
INT32 stored, an int past int64 anywhere, an integer division by zero,
a transcendental outside its domain, NaN cast to an integer.  Out of
``Machine.run`` those are ``SimulationError``s naming the unit and the
lanes, so the service answers 422 (the program's fault) rather than 500
(ours).
"""

import re

import numpy as np
import pytest

from repro.bitstream.artifact import hash_bytes
from repro.compiler.artifact import freeze_program
from repro.errors import SimulationError
from repro.patterns import Fold, Program, run_program
from repro.patterns import expr as E
from repro.serve import execute_job
from repro.serve.protocol import parse_request
from repro.serve.workers import artifact_path
from repro.sim.block import BoundWindow
from tests.patterns import reference_executor
from tests.sim.reference_datapath import LoggingMachine

N = 32


def _program(name, dtype, data, fn, out_dtype=E.INT32):
    prog = Program(name)
    a = prog.input("a", (N,), dtype=dtype,
                   data=np.full(N, data, dtype=np.float32
                                if dtype == E.FLOAT32 else np.int32))
    out = prog.output("o", (N,), dtype=out_dtype)
    prog.map("q", out, (N,), lambda i: fn(a[i]))
    return prog


FAULTS = {
    "int32_overflow": (
        lambda: _program("overflow", E.INT32, 2 ** 20, lambda x: x * x),
        r"q_body: arithmetic fault in lanes 0\.\.15: OverflowError: "
        r"Python integer 1099511627776 out of bounds for int32"),
    "int_div_by_zero": (
        lambda: _program("divzero", E.INT32, 0, lambda x: E.wrap(7) / x),
        r"q_body: arithmetic fault in lanes 0\.\.15: ZeroDivisionError"),
    "log_of_negative": (
        lambda: _program("logneg", E.FLOAT32, -1.0, E.log,
                         out_dtype=E.FLOAT32),
        r"q_body: arithmetic fault in lanes 0\.\.15: ValueError: "
        r"math domain error"),
    "nan_to_int32": (
        lambda: _program("nan", E.FLOAT32, float("nan"), E.to_int),
        r"q_body: arithmetic fault in lanes 0\.\.15: ValueError: "
        r"cannot convert float NaN to integer"),
}


def _add(x, y):
    return x + y


def _bounded(name, nested):
    """An int Fold over ``[0, a * 2**40 * 2**40)`` with ``a = 3``: at top
    level its leaf's one data-dependent bound is walked; nested in a Map
    a window of them (``BoundWindow``) is evaluated first."""
    prog = Program(name)
    a = prog.input("a", (N,), dtype=E.INT32, data=np.full(N, 3, np.int32))
    if nested:
        out = prog.output("o", (N,), dtype=E.INT32)
        prog.map("q", out, (N,), lambda i: Fold(
            (0, a[i] * 2 ** 40 * 2 ** 40), 0, lambda k: k, _add))
    else:
        out = prog.output("o", (), dtype=E.INT32)
        prog.fold("q", out, ((0, a[0] * 2 ** 40 * 2 ** 40),), 0,
                  lambda k: k, _add)
    return prog


#: an INT32 value outside int64 -> (program, what every evaluator says)
INT64 = {
    "int64_mul_overflow": (
        lambda: _program("mul64", E.INT32, 2 * 10 ** 9,
                         lambda x: x * x * x * x * x % 7),
        "integer 8000000000000000000000000000 outside int64"),
    "int64_fold_overflow": (
        lambda: _program("fold64", E.INT32, 2 * 10 ** 9, lambda x: Fold(
            N, 0, lambda k: x * x * 2, _add)),
        "integer 16000000000000000000 outside int64"),
    "to_int_past_int64": (
        lambda: _program("toint64", E.FLOAT32, 2.0,
                         lambda x: E.to_int(x * 1e30) % 7),
        "integer 2000000030094932439753377710080 outside int64"),
    "int64_leaf_bound_walk": (
        lambda: _bounded("walk64", nested=False),
        "integer 3626777458843887524118528 outside int64"),
    "int64_leaf_bound_window": (
        lambda: _bounded("window64", nested=True),
        "integer 3626777458843887524118528 outside int64"),
}


@pytest.mark.parametrize("row", INT64)
def test_an_int_past_int64_is_the_same_fault_everywhere(row, monkeypatch):
    """The executor, the simulator under both schedulers and both
    per-element references raise the one ``OverflowError``."""
    build, said = INT64[row]
    tail = "OverflowError: " + re.escape(said) + "$"
    with pytest.raises(OverflowError, match=f"^{re.escape(said)}$"):
        reference_executor.run_program(build())
    with pytest.raises(SimulationError, match="^step 'q': arithmetic fault "
                       "in the reference executor: " + tail):
        run_program(build())
    windows = []
    evaluate = BoundWindow.evaluate

    def spy(self, *args):
        windows.append(evaluate(self, *args))
        return windows[-1]

    monkeypatch.setattr(BoundWindow, "evaluate", spy)
    artifact = freeze_program(build(), row, "tiny")
    for machine in (artifact.machine(scheduler="event"),
                    artifact.machine(scheduler="dense"),
                    LoggingMachine(artifact.dhdl, artifact.config,
                                   reference=True)):
        with pytest.raises(SimulationError,
                           match=r"_body: arithmetic fault in [^:]*: " + tail):
            machine.run()
    # a window that meets the fault leaves it to the walk
    assert (None in windows) == row.endswith("_window")


@pytest.mark.parametrize("fault", FAULTS)
def test_arithmetic_fault_is_a_simulation_error(fault):
    build, message = FAULTS[fault]
    machine = freeze_program(build(), fault, "tiny").machine()
    with pytest.raises(SimulationError, match=message):
        machine.run()


def test_fault_in_the_end_of_activation_reduce_is_typed():
    prog = Program("foldflow")
    a = prog.input("a", (N,), dtype=E.INT32,
                   data=np.full(N, 2 ** 30, dtype=np.int32))
    out = prog.output("o", (1,), dtype=E.INT32)
    prog.map("s", out, (1,),
             lambda _: Fold(N, 0, lambda k: a[k], lambda x, y: x + y))
    machine = freeze_program(prog, "foldflow", "tiny").machine()
    with pytest.raises(SimulationError,
                       match=r"arithmetic fault in the end-of-activation "
                             r"reduce: OverflowError"):
        machine.run()


def test_service_answers_422_for_a_faulting_program(tmp_path):
    build, _message = FAULTS["int_div_by_zero"]
    artifact = freeze_program(build(), "divzero", "tiny")
    blob = artifact.to_bytes()
    digest = hash_bytes(blob)
    path = artifact_path(str(tmp_path), digest)
    path.parent.mkdir(parents=True)
    artifact.save(path, blob)
    request = parse_request({"artifact_hash": digest}, "simulate")
    result = execute_job(request.payload(None, str(tmp_path)))
    assert result["status"] == 422, result
    assert result["error"]["stage"] == "simulate"
    assert result["error"]["type"] == "SimulationError"
    assert "ZeroDivisionError" in result["error"]["message"]
