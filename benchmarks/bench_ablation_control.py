"""Ablation: coarse-grained pipelining vs sequential outer control.

Section 3.5: the pipeline scheme overlaps tile loads, compute, and
stores through N-buffered scratchpads.  Forcing every outer controller
to the sequential scheme must cost cycles on the tiled benchmarks.
"""

import pytest

from conftest import save_report
from repro.apps import get_app
from repro.compiler import freeze_program
from repro.dhdl import OuterController, Scheme
from repro.eval.report import format_table


def _cycles(app, force_sequential=False):
    program = app.build("small")
    for step in program.walk_steps():
        step.outer_par = 1  # isolate the control scheme from unrolling
    artifact = freeze_program(program, app.name, "small")
    if force_sequential:
        for ctrl in artifact.dhdl.controllers():
            if isinstance(ctrl, OuterController) and \
                    ctrl.scheme is Scheme.PIPELINE:
                ctrl.scheme = Scheme.SEQUENTIAL
    return artifact.machine().run().cycles


@pytest.mark.parametrize("name", ["innerproduct", "gemm",
                                  "outerproduct"])
def test_pipelining_beats_sequential(benchmark, name):
    app = get_app(name)
    pipelined = _cycles(app)
    sequential = benchmark.pedantic(_cycles, args=(app, True),
                                    iterations=1, rounds=1)
    assert sequential > pipelined, (
        f"{name}: pipelining must help ({sequential} vs {pipelined})")
    save_report(f"ablation_control_{name}", format_table(
        ("scheme", "cycles", "speedup"),
        [("coarse-grained pipeline (paper)", pipelined,
          f"{sequential / pipelined:.2f}x"),
         ("sequential (ablation)", sequential, "1.00x")],
        title=f"Control-scheme ablation: {name}"))
