"""Ablation: outer-loop unrolling (Section 3.6's parallelization).

Unrolling duplicates a step's inner controllers so several tiles stream
through the fabric concurrently — trading PCUs/PMUs for throughput.
This harness sweeps the factor on GEMM and checks speedup scales with
the duplicated resources (sub-linearly: the tiles share DRAM bandwidth).
"""

import numpy as np
import pytest

from conftest import save_report
from repro.compiler import freeze_program
from repro.eval.report import format_table
from repro.patterns import Fold, Program


def _gemm(outer):
    m, k, n = 64, 32, 16
    p = Program("g")
    rng = np.random.default_rng(1)
    a_data = rng.standard_normal((m, k)).astype(np.float32)
    b_data = rng.standard_normal((k, n)).astype(np.float32)
    a = p.input("a", (m, k), data=a_data)
    b = p.input("b", (k, n), data=b_data)
    c = p.output("c", (m, n))
    step = p.map("mm", c, (m, n),
                 lambda i, j: Fold(k, 0.0,
                                   lambda kk: a[i, kk] * b[kk, j],
                                   lambda x, y: x + y))
    step.set_par(1, 1, inner=16, outer=outer)
    step.tile = (8, 16)
    artifact = freeze_program(p, p.name, "tiny")
    machine = artifact.machine()
    stats = machine.run()
    assert np.allclose(machine.result("c"), a_data @ b_data,
                       rtol=1e-3, atol=1e-3)
    return stats.cycles, artifact.config.pcus_used


def test_unrolling_scales_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: {u: _gemm(u) for u in (1, 2, 4)},
        iterations=1, rounds=1)
    base_cycles, base_pcus = results[1]
    rows = []
    for factor, (cycles, pcus) in results.items():
        rows.append((f"outer={factor}", cycles, pcus,
                     f"{base_cycles / cycles:.2f}x"))
    save_report("ablation_unrolling_gemm", format_table(
        ("unroll", "cycles", "PCUs", "speedup"), rows,
        title="Outer-loop unrolling ablation: GEMM"))
    # 2x the units buys a real speedup, 4x keeps helping
    assert results[2][0] < 0.70 * base_cycles
    assert results[4][0] < results[2][0]
    # and resource usage grows with the factor
    assert results[4][1] > results[2][1] > base_pcus
