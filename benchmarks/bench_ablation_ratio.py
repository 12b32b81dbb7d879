"""Ablation: the PMU:PCU ratio (Section 3.7).

The paper experimented with 2:1 PMU:PCU ratios and found them less
energy efficient despite sometimes higher unit utilization; we sweep the
fabric mix and report fit and utilization per benchmark.
"""

import pytest

from conftest import save_report
from repro.bitstream import CompileOptions
from repro.compiler import compile_to_bitstream
from repro.errors import MappingError
from repro.eval.report import format_table

RATIOS = {"1:1 (paper)": 0.5, "2:1": 2 / 3, "1:2": 1 / 3}


def _fit(name, fraction):
    try:
        artifact = compile_to_bitstream(
            name, "small", options=CompileOptions(pmu_fraction=fraction))
    except MappingError:
        return None
    return artifact.config.utilization()


@pytest.mark.parametrize("name", ["gemm", "kmeans", "blackscholes"])
def test_ratio_sweep(benchmark, name):
    results = benchmark.pedantic(
        lambda: {label: _fit(name, frac)
                 for label, frac in RATIOS.items()},
        iterations=1, rounds=1)
    rows = []
    for label, util in results.items():
        if util is None:
            rows.append((label, "does not fit", "-"))
        else:
            rows.append((label, f"{100 * util['pcu']:.1f}%",
                         f"{100 * util['pmu']:.1f}%"))
    save_report(f"ablation_ratio_{name}", format_table(
        ("ratio", "PCU util", "PMU util"), rows,
        title=f"PMU:PCU ratio ablation: {name}"))
    # the paper's 1:1 must fit everything
    assert results["1:1 (paper)"] is not None
