#!/usr/bin/env python
"""Quickstart: write a parallel-pattern program, compile it to the
Plasticine fabric, and cycle-simulate it.

Run:  python examples/quickstart.py
"""

import sys

import numpy as np

from repro.compiler import freeze_program
from repro.dhdl import format_program
from repro.patterns import Fold, Program, run_program


def main():
    # 1. a program: GEMM written as a tiled Map of dot-product Folds
    m, k, n = 16, 32, 8
    rng = np.random.default_rng(42)
    a_data = rng.standard_normal((m, k)).astype(np.float32)
    b_data = rng.standard_normal((k, n)).astype(np.float32)

    prog = Program("quickstart_gemm")
    a = prog.input("a", (m, k), data=a_data)
    b = prog.input("b", (k, n), data=b_data)
    c = prog.output("c", (m, n))
    prog.map("matmul", c, (m, n),
             lambda i, j: Fold(k, 0.0,
                               lambda kk: a[i, kk] * b[kk, j],
                               lambda x, y: x + y)).set_par(1, 1, inner=16)

    # 2. functional semantics: the reference executor (float32
    #    accumulation in order, so close to numpy's float32 matmul, not
    #    bit-equal)
    env = run_program(prog)
    ok = np.allclose(env.buffers["c"], a_data @ b_data, rtol=1e-3,
                     atol=1e-5)
    print("reference result matches numpy:", ok)

    # 3. compile: tiling, partitioning, placement, routing, checked
    #    into the one artifact the simulator runs
    artifact = freeze_program(prog, prog.name, "example")
    print()
    print(format_program(artifact.dhdl))
    config = artifact.config
    util = config.utilization()
    print(f"\nmapped onto {config.pcus_used} PCUs / "
          f"{config.pmus_used} PMUs "
          f"({100 * util['pcu']:.0f}% / {100 * util['pmu']:.0f}% of the "
          f"fabric)")

    # 4. cycle-level simulation against the DDR3 model
    machine = artifact.machine()
    stats = machine.run()
    print(f"simulated {stats.cycles} cycles "
          f"({stats.dram['reads']} DRAM read bursts, "
          f"{stats.dram['writes']} writes, "
          f"{stats.ops_executed} datapath ops)")
    # the simulator is bit-identical to the reference executor
    same = np.array_equal(machine.result("c"), env.buffers["c"])
    print("simulated result equals the reference executor's:", same)
    return ok and same


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
