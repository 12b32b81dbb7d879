"""The QoS arbitration benchmark and its CI gate logic.

One real ``run_qos_benchmark`` call (a small two-tenant workload)
anchors the report shape; the gate tests then hold it to doctored
baselines shaped like the ``qos`` section of
``benchmarks/baseline.json``.  Cycle counts are deterministic, so the
gate demands exact equality, a strict weighted-beats-unweighted
invariant (``priority_helped``), and a committed high-priority-speedup
floor.
"""

import pytest

from repro.eval.gate import check
from repro.eval.multi import (QOS_APPS, QOS_PRIORITIES, render_qos,
                              run_qos_benchmark)


@pytest.fixture(scope="module")
def report():
    return run_qos_benchmark(("gemm", "tpchq6", "tpchq6"), (8, 1, 1),
                             scale="tiny")


def test_report_shape(report):
    assert report["apps"] == ["gemm", "tpchq6", "tpchq6"]
    assert report["priorities"] == [8, 1, 1]
    assert report["hi_tenant"] == "gemm"
    assert report["validated"] is True
    assert report["unweighted_hi_cycles"] > 0
    assert report["weighted_hi_cycles"] > 0
    assert report["hi_speedup"] == pytest.approx(
        report["unweighted_hi_cycles"] / report["weighted_hi_cycles"],
        abs=1e-4)
    assert report["qos"]["weighted"] is True


def test_priority_actually_buys_latency(report):
    assert report["weighted_hi_cycles"] < report["unweighted_hi_cycles"]
    assert report["priority_helped"] is True


def test_priority_helped_is_false_when_weights_buy_nothing():
    """All-equal weights run plain FR-FCFS on both sides: same finish
    cycle, so the field a zero floor cannot hide must read false."""
    flat = run_qos_benchmark(("gemm", "tpchq6"), (1, 1), scale="tiny")
    assert flat["weighted_hi_cycles"] == flat["unweighted_hi_cycles"]
    assert flat["priority_helped"] is False


def test_default_workload_is_one_hi_many_riders():
    assert len(QOS_APPS) == len(QOS_PRIORITIES)
    assert QOS_PRIORITIES.count(max(QOS_PRIORITIES)) == 1


def test_mismatched_priorities_rejected():
    with pytest.raises(ValueError, match="priorities"):
        run_qos_benchmark(("gemm", "tpchq6"), (8,))


def test_render_mentions_the_key_numbers(report):
    text = render_qos(report)
    assert str(report["weighted_hi_cycles"]) in text
    assert "gemm" in text and "weight 8" in text


# ---------------------------------------------------------------------------
# Gate logic (doctored baselines; no simulation)
# ---------------------------------------------------------------------------


def _baseline(report, **overrides):
    base = {
        "apps": report["apps"],
        "priorities": report["priorities"],
        "unweighted_hi_cycles": report["unweighted_hi_cycles"],
        "weighted_hi_cycles": report["weighted_hi_cycles"],
        "unweighted_fabric_cycles": report["unweighted_fabric_cycles"],
        "weighted_fabric_cycles": report["weighted_fabric_cycles"],
        "min_hi_speedup": 1.0,
        "priority_helped": True,
        "validated": True,
    }
    base.update(overrides)
    return base


def test_gate_passes_against_matching_baseline(report):
    assert check(report, _baseline(report)) == []


def test_gate_fails_on_workload_mismatch(report):
    failures = check(report, _baseline(report, apps=["gemm", "gemm"]))
    assert len(failures) == 1 and failures[0].startswith("apps: ")


def test_gate_pins_exact_cycles(report):
    doctored = _baseline(report,
                         weighted_hi_cycles=report["weighted_hi_cycles"]
                         + 1)
    failures = check(report, doctored)
    assert len(failures) == 1
    assert failures[0].startswith("weighted_hi_cycles: ")
    assert "answer changed" in failures[0]


def test_gate_enforces_speedup_floor(report):
    failures = check(
        report, _baseline(report,
                          min_hi_speedup=report["hi_speedup"] + 1.0))
    assert len(failures) == 1
    assert failures[0].startswith("hi_speedup: ")
    assert "committed floor" in failures[0]


def test_gate_rejects_useless_priority(report):
    doctored = dict(report, hi_speedup=1.0, priority_helped=False,
                    weighted_hi_cycles=report["unweighted_hi_cycles"])
    baseline = _baseline(
        doctored, weighted_hi_cycles=doctored["weighted_hi_cycles"],
        min_hi_speedup=0.0)
    failures = check(doctored, baseline)
    assert len(failures) == 1
    assert failures[0].startswith("priority_helped: False, pinned at "
                                  "True")


def test_gate_rejects_unvalidated_report(report):
    failures = check(dict(report, validated=False), _baseline(report))
    assert len(failures) == 1
    assert failures[0].startswith("validated: False, pinned at True")
