"""An arithmetic fault of the simulated program is a typed error.

Python and numpy raise ``OverflowError`` / ``ZeroDivisionError`` /
``ValueError`` for what a program's own arithmetic does — a product past
INT32, an integer division by zero, a transcendental outside its domain,
NaN cast to an integer.  Out of ``Machine.run`` those are
``SimulationError``s naming the unit and the lanes, so the service
answers 422 (the program's fault) rather than 500 (ours).
"""

import numpy as np
import pytest

from repro.bitstream.artifact import hash_bytes
from repro.compiler.artifact import freeze_program
from repro.errors import SimulationError
from repro.patterns import Fold, Program
from repro.patterns import expr as E
from repro.serve import execute_job
from repro.serve.protocol import parse_request
from repro.serve.workers import artifact_path

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
