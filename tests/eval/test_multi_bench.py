"""The multi-tenancy benchmark and its CI gate logic.

One real ``run_multi_benchmark`` call (tiny scale) anchors the report
shape and the solo-equivalence invariant; the gate tests then hold it
to doctored ``benchmarks/multi_baseline.json``-shaped baselines — the
cycle counts are deterministic, so the gate demands *exact* equality
and a committed aggregate-throughput floor.
"""

import copy

import pytest

from repro.eval.gate import check
from repro.eval.multi import (DEFAULT_PAIR, render_multi,
                              run_multi_benchmark)


@pytest.fixture(scope="module")
def report():
    return run_multi_benchmark(DEFAULT_PAIR, scale="tiny")


def test_report_shape_and_equivalence(report):
    assert report["apps"] == list(DEFAULT_PAIR)
    assert report["equivalence_failures"] == []
    assert report["fabric_cycles"] > 0
    assert report["sequential_cycles"] > report["fabric_cycles"]
    assert report["aggregate_speedup"] > 1.0
    assert report["pack_report"]["feasible"] is True
    assert len(report["tenants"]) == 2
    for row in report["tenants"]:
        assert row["validated"] is True
        assert row["co_cycles"] >= row["solo_cycles"]
        assert row["slowdown"] >= 1.0
        assert row["region"] is not None
        assert row["channel_util"]
    # co-residency slows at least one tenant via DRAM contention
    assert any(row["co_cycles"] > row["solo_cycles"]
               for row in report["tenants"])


def _baseline(report, **overrides):
    base = {
        "apps": report["apps"],
        "sequential_cycles": report["sequential_cycles"],
        "fabric_cycles": report["fabric_cycles"],
        "min_aggregate_speedup": round(
            report["aggregate_speedup"] - 0.05, 3),
        "equivalence_failures": [],
        "tenants": [{"name": row["name"], "validated": True}
                    for row in report["tenants"]],
    }
    base.update(overrides)
    return base


def test_gate_passes_against_its_own_numbers(report):
    assert check(report, _baseline(report)) == []


def test_gate_catches_cycle_drift(report):
    failures = check(report, _baseline(
        report, fabric_cycles=report["fabric_cycles"] + 1))
    assert len(failures) == 1
    assert failures[0].startswith(
        f"fabric_cycles: {report['fabric_cycles']}, pinned at")


def test_gate_catches_throughput_regression(report):
    failures = check(report, _baseline(
        report,
        min_aggregate_speedup=report["aggregate_speedup"] + 0.5))
    assert len(failures) == 1
    assert failures[0].startswith("aggregate_speedup: ")
    assert "below the committed floor" in failures[0]


def test_gate_catches_workload_change(report):
    failures = check(report, {"apps": ["gemm", "kmeans"]})
    assert len(failures) == 1
    assert failures[0].startswith("apps: ['gemm', 'tpchq6'], pinned")


def test_gate_propagates_equivalence_and_validation_failures(report):
    doctored = copy.deepcopy(report)
    doctored["equivalence_failures"] = ["gemm: diverged"]
    doctored["tenants"][0]["validated"] = False
    failures = check(doctored, _baseline(report))
    assert len(failures) == 2
    assert "gemm: diverged" in failures[0]
    name = report["tenants"][0]["name"]
    assert failures[1].startswith(f"tenants[{name}].validated: False")


def test_render_mentions_every_tenant(report):
    text = render_multi(report)
    for row in report["tenants"]:
        assert row["name"] in text
    assert "aggregate" in text
