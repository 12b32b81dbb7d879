#!/usr/bin/env python
"""A convolution layer on Plasticine: sliding windows and line buffers.

The convolution's input access ``image[ic, oy+ky, ox+kx]`` has two
indices per dimension — the compiler detects the sliding window, loads
the halo region, and configures the scratchpad in line-buffer mode so
window reads never bank-conflict (Section 4.5's CNN discussion).

Run:  python examples/cnn_linebuffer.py
"""

import sys

import numpy as np

from repro.apps.ml import Cnn
from repro.compiler import freeze_program
from repro.dhdl import BankingMode


def main():
    app = Cnn()
    prog = app.build("small")
    artifact = freeze_program(prog, app.name, "small")

    print("scratchpad configurations chosen by the compiler:")
    for sram in artifact.dhdl.srams:
        print(f"  {sram.name:18s} {str(sram.banking):12s} "
              f"shape={list(sram.shape)} nbuf={sram.nbuf}")
    line_buffered = [s for s in artifact.dhdl.srams
                     if s.banking is BankingMode.LINE_BUFFER]
    assert line_buffered, "expected a line-buffered input tile"

    machine = artifact.machine()
    stats = machine.run()
    expected = app.expected(prog)
    got = machine.result("activated")
    ok = np.allclose(got, expected["activated"], rtol=1e-3, atol=1e-4)
    print("\nconvolution + ReLU matches the reference:", ok)
    print(f"cycles: {stats.cycles}, bank-conflict stalls: "
          f"{stats.conflict_cycles}")
    return ok


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
