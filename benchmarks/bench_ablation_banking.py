"""Ablation: configurable banking vs a single-banked scratchpad.

The paper argues banked scratchpads are what keeps the SIMD lanes fed
(Table 2, Section 3.2).  We re-run compute-dense benchmarks with the
scratchpads forced to one bank: every 16-lane vector access serialises,
so cycle counts must inflate several-fold.
"""

import pytest

from conftest import save_report
from repro.apps import get_app
from repro.compiler import compile_to_bitstream
from repro.eval.report import format_table


def _cycles(app, banks_override=None):
    artifact = compile_to_bitstream(app.name, "small")
    artifact.config.banks_override = banks_override
    stats = artifact.machine().run()
    return stats.cycles, stats.conflict_cycles


@pytest.mark.parametrize("name", ["gemm", "gda", "outerproduct"])
def test_single_bank_serialises_lanes(benchmark, name):
    app = get_app(name)
    banked_cycles, banked_conflicts = _cycles(app)
    single_cycles, single_conflicts = benchmark.pedantic(
        _cycles, args=(app, 1), iterations=1, rounds=1)
    assert single_cycles > 2.0 * banked_cycles, (
        f"{name}: banking should matter "
        f"({single_cycles} vs {banked_cycles})")
    assert single_conflicts > banked_conflicts
    save_report(f"ablation_banking_{name}", format_table(
        ("config", "cycles", "conflict cycles"),
        [("16 banks (paper)", banked_cycles, banked_conflicts),
         ("1 bank (ablation)", single_cycles, single_conflicts)],
        title=f"Banking ablation: {name}"))
