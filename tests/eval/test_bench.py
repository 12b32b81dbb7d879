"""``repro bench``, the answer gate: the ``solo`` section's shape, its
rows held to ``benchmarks/baseline.json``-shaped gates, the synthetic
workload, and CLI wiring."""

import copy
import json
import os

from repro.eval import bench, gate
from tests.eval.test_gate import BENCHMARKS, gate_report


def _report():
    """A ``solo`` section."""
    return {
        "scale": "tiny",
        "scheduler": "event",
        "benchmarks": [
            {"name": "gemm", "cycles": 1000, "executed_cycles": 400,
             "fast_forwarded_cycles": 600},
        ],
        "totals": {"cycles": 1000},
    }


def _baseline():
    """What ``benchmarks/baseline.json`` states about :func:`_report`."""
    return {"scale": "tiny", "scheduler": "event",
            "benchmarks": [{"name": "gemm", "cycles": 1000}],
            "totals": {"cycles": 1000}}


def test_compare_passes_against_itself():
    assert gate.check(_report(), _baseline()) == []
    assert gate.check(_report(), _report()) == []


def test_compare_flags_cycle_count_change_as_correctness():
    baseline = _baseline()
    baseline["benchmarks"][0]["cycles"] = 999
    failures = gate.check(_report(), baseline)
    assert len(failures) == 1
    assert failures[0].startswith("benchmarks[gemm].cycles: 1000")
    assert "answer changed" in failures[0]


def test_compare_ignores_benchmarks_missing_from_baseline():
    baseline = _baseline()
    current = _report()
    current["benchmarks"].append({"name": "brand_new", "cycles": 7})
    assert gate.check(current, baseline) == []
    # ...but a benchmark that vanished from the report is a failure
    baseline["benchmarks"].append({"name": "kmeans", "cycles": 1052})
    assert any("benchmarks[kmeans]" in f
               for f in gate.check(current, baseline))


def test_run_benchmarks_report_shape():
    section = gate_report()["solo"]
    assert section["scale"] == "tiny"
    assert len(section["benchmarks"]) == 14
    for row in section["benchmarks"]:
        assert set(row) == {"name", "cycles", "executed_cycles",
                            "fast_forwarded_cycles"}
        assert row["cycles"] > 0
        assert (row["executed_cycles"] + row["fast_forwarded_cycles"]
                == row["cycles"])
    assert section["totals"] == {
        "cycles": sum(r["cycles"] for r in section["benchmarks"])}


def test_run_benchmarks_keeps_request_order_and_splits_wall():
    """Registry apps first, then the hand-built stressors; and no wall
    time to split any more: no field of the report is timed."""
    from repro.apps.registry import ALL_APPS
    report = gate_report()
    assert [r["name"] for r in report["solo"]["benchmarks"]] == \
        [app.name for app in ALL_APPS] + list(bench.SYNTHETIC)

    def keys(value):
        if isinstance(value, dict):
            for key, inner in value.items():
                yield key
                yield from keys(inner)
        elif isinstance(value, list):
            for inner in value:
                yield from keys(inner)

    timed = [k for k in keys(report)
             if k.endswith(("_s", "_per_sec")) or "speedup_vs" in k]
    assert timed == []


def test_synthetic_rowconf_is_row_miss_bound():
    """The layout trick must actually produce row conflicts."""
    from repro.sim import Machine
    dhdl, config, check = bench.SYNTHETIC["dram_rowconf"]("tiny")
    machine = Machine(dhdl, config)
    stats = machine.run()
    check(machine)
    assert stats.dram["row_hits"] == 0
    assert stats.dram["row_misses"] > 0


def test_write_report_creates_directory(tmp_path, capsys):
    path = tmp_path / "nested" / "dir" / "GATE_abc1234.json"
    assert gate.finish(_report(), str(path), None) == 0
    assert json.loads(path.read_text()) == _report()
    out = capsys.readouterr().out
    assert f"wrote {path}" in out and "gate passed" not in out


def test_cli_bench_quick_with_baseline(tmp_path, capsys, monkeypatch):
    """The real command holds the committed baseline; its report, used
    as a baseline, then holds a second, independent run whole: every
    field is a simulated answer, so two runs agree on all of them."""
    from repro.cli import main
    out = tmp_path / "out"
    assert main(["bench", "--out", str(out), "--baseline",
                 os.path.join(BENCHMARKS, "baseline.json")]) == 0
    assert "gate passed: all 78 baseline pins held" \
        in capsys.readouterr().out
    report_path = next(out.glob("GATE_*.json"))
    monkeypatch.setattr(bench, "run_gate",
                        lambda: copy.deepcopy(gate_report()))
    assert main(["bench", "--out", str(out),
                 "--baseline", str(report_path)]) == 0
    assert "baseline pins held" in capsys.readouterr().out


def test_cli_bench_fails_on_cycle_change(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    monkeypatch.setattr(bench, "run_gate",
                        lambda: copy.deepcopy(gate_report()))
    cycles = next(row["cycles"]
                  for row in gate_report()["solo"]["benchmarks"]
                  if row["name"] == "innerproduct")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"solo": {"benchmarks": [
        {"name": "innerproduct", "cycles": cycles + 1}]}}))
    rc = main(["bench", "--out", str(tmp_path / "out"),
               "--baseline", str(baseline)])
    assert rc == 1
    assert (f"FAIL: solo.benchmarks[innerproduct].cycles: {cycles}, "
            f"pinned at {cycles + 1}") in capsys.readouterr().err


def test_render_lists_every_benchmark():
    text = bench.render_solo(_report())
    assert "gemm" in text
    assert "total" in text
    whole = bench.render(gate_report())
    for title in ("solo", "batched simulation", "multi-tenant fabric",
                  "qos arbitration"):
        assert title in whole


def test_bench_has_only_out_and_baseline_options():
    from repro.cli import build_parser
    parser = build_parser()
    sub = next(action for action in parser._actions
               if action.dest == "command").choices["bench"]
    assert sorted(opt for action in sub._actions
                  for opt in action.option_strings) == \
        ["--baseline", "--help", "--out", "-h"]
