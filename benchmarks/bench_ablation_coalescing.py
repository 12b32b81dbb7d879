"""Ablation: the coalescing unit for sparse DRAM traffic.

Section 3.4: the coalescing cache merges sparse addresses that fall in
the same DRAM burst.  Disabling it (one outstanding entry, no merging)
must increase both issued DRAM requests and cycle counts for the
gather-bound benchmarks.
"""

import pytest

from conftest import save_report
from repro.apps import get_app
from repro.compiler import compile_to_bitstream
from repro.eval.report import format_table


def _run(app, entries):
    artifact = compile_to_bitstream(app.name, "small")
    artifact.config.coalesce_entries = entries
    stats = artifact.machine().run()
    return stats.cycles, stats.dram["reads"] + stats.dram["writes"]


@pytest.mark.parametrize("name", ["smdv", "pagerank", "bfs"])
def test_coalescing_reduces_requests(benchmark, name):
    app = get_app(name)
    with_cycles, with_reqs = _run(app, 48)
    without_cycles, without_reqs = benchmark.pedantic(
        _run, args=(app, 1), iterations=1, rounds=1)
    assert without_reqs >= with_reqs, name
    assert without_cycles >= with_cycles, name
    save_report(f"ablation_coalescing_{name}", format_table(
        ("config", "cycles", "DRAM requests"),
        [("48-entry coalescer (paper)", with_cycles, with_reqs),
         ("no coalescing (ablation)", without_cycles, without_reqs)],
        title=f"Coalescing ablation: {name}"))
