"""The ``repro bench`` perf harness: report shape, its report held to
``benchmarks/baseline.json``-shaped gates, synthetic workloads, and CLI
wiring."""

import json

from repro.eval import bench, gate


def _report(**totals):
    base = {
        "format": bench.FORMAT,
        "rev": "abc1234",
        "scale": "tiny",
        "scheduler": "event",
        "repeat": 1,
        "benchmarks": [
            {"name": "gemm", "compile_s": 0.01, "cycles": 1000,
             "wall_s": 0.05, "cycles_per_sec": 20000,
             "executed_cycles": 400, "fast_forwarded_cycles": 600},
        ],
        "totals": {"cycles": 1000, "wall_s": 0.05,
                   "cycles_per_sec": 20000},
    }
    base["totals"].update(totals)
    return base


def _baseline(**totals):
    """What ``benchmarks/baseline.json`` states about :func:`_report`."""
    return {"scale": "tiny", "scheduler": "event",
            "benchmarks": [{"name": "gemm", "cycles": 1000}],
            "totals": {"cycles": 1000, **totals}}


def test_compare_passes_against_itself():
    assert gate.check(_report(), _baseline(min_cycles_per_sec=20000)) \
        == []


def test_compare_flags_cycle_count_change_as_correctness():
    baseline = _baseline()
    baseline["benchmarks"][0]["cycles"] = 999
    failures = gate.check(_report(), baseline)
    assert len(failures) == 1
    assert failures[0].startswith("benchmarks[gemm].cycles: 1000")
    assert "answer changed" in failures[0]


def test_compare_flags_throughput_regression_beyond_threshold():
    failures = gate.check(_report(cycles_per_sec=14000),
                          _baseline(min_cycles_per_sec=15000))
    assert failures == ["totals.cycles_per_sec: 14000 is below the "
                        "committed floor 15000"]


def test_compare_tolerates_regression_within_threshold():
    assert gate.check(_report(cycles_per_sec=16000),
                      _baseline(min_cycles_per_sec=15000)) == []


def test_compare_ignores_benchmarks_missing_from_baseline():
    baseline = _baseline()
    baseline["benchmarks"] = [{"name": "gemm", "cycles": 1000}]
    current = _report()
    current["benchmarks"].append({"name": "brand_new", "cycles": 7})
    assert gate.check(current, baseline) == []
    # ...but a benchmark that vanished from the report is a failure
    baseline["benchmarks"].append({"name": "kmeans", "cycles": 1052})
    assert any("benchmarks[kmeans]" in f
               for f in gate.check(current, baseline))


def test_run_benchmarks_report_shape():
    report = bench.run_benchmarks(scale="tiny", repeat=1,
                                  apps=["innerproduct"])
    assert report["format"] == bench.FORMAT
    assert [r["name"] for r in report["benchmarks"]] == ["innerproduct"]
    row = report["benchmarks"][0]
    assert row["cycles"] > 0
    assert row["cycles_per_sec"] > 0
    assert (row["executed_cycles"] + row["fast_forwarded_cycles"]
            == row["cycles"])
    assert report["totals"]["cycles"] == row["cycles"]


def test_run_benchmarks_keeps_request_order_and_splits_wall():
    report = bench.run_benchmarks(scale="tiny", repeat=1,
                                  apps=["gemm", "dram_rowconf"])
    assert [r["name"] for r in report["benchmarks"]] == \
        ["gemm", "dram_rowconf"]
    totals = report["totals"]
    assert totals["compile_s"] > 0 and totals["simulate_s"] > 0
    assert totals["simulate_s"] == totals["wall_s"]
    assert "jobs" not in report


def test_run_benchmarks_compare_dense_reports_speedup():
    report = bench.run_benchmarks(scale="tiny", repeat=1,
                                  apps=["dram_rowconf"],
                                  compare_dense=True)
    row = report["benchmarks"][0]
    assert row["cycles"] == row["dense"]["cycles"]
    assert row["speedup_vs_dense"] > 0
    assert row["compile_s"] == 0.0  # hand-built DHDL: no compiler run


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
    path = tmp_path / "nested" / "dir" / "BENCH_abc1234.json"
    assert gate.finish(_report(), str(path), None) == 0
    assert json.loads(path.read_text()) == _report()
    out = capsys.readouterr().out
    assert f"wrote {path}" in out and "gate passed" not in out


def test_cli_bench_quick_with_baseline(tmp_path, capsys):
    from repro.cli import main
    baseline = tmp_path / "baseline.json"
    out = tmp_path / "out"
    rc = main(["bench", "--quick", "--apps", "innerproduct",
               "--out", str(out)])
    assert rc == 0
    report_path = next(out.glob("BENCH_*.json"))
    row = json.loads(report_path.read_text())["benchmarks"][0]
    baseline.write_text(json.dumps({
        "benchmarks": [{"name": row["name"], "cycles": row["cycles"]}],
        "totals": {"cycles": row["cycles"], "min_cycles_per_sec": 1}}))
    rc = main(["bench", "--quick", "--apps", "innerproduct",
               "--out", str(out), "--baseline", str(baseline)])
    assert rc == 0
    assert "gate passed: all 4 baseline pins held" \
        in capsys.readouterr().out
    # no code path accepts the old raw-report baselines: every leaf of
    # a report is an exact pin, the wall-clock fields included (any one
    # of them can tie at microsecond resolution, not all of them)
    baseline.write_text(report_path.read_text())
    rc = main(["bench", "--quick", "--apps", "innerproduct",
               "--out", str(out), "--baseline", str(baseline)])
    assert rc == 1
    assert "_s: " in capsys.readouterr().err


def test_cli_bench_fails_on_cycle_change(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "out"
    rc = main(["bench", "--quick", "--apps", "innerproduct",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(next(out.glob("BENCH_*.json")).read_text())
    cycles = report["benchmarks"][0]["cycles"]
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"benchmarks": [
        {"name": "innerproduct", "cycles": cycles + 1}]}))
    rc = main(["bench", "--quick", "--apps", "innerproduct",
               "--out", str(out), "--baseline", str(baseline)])
    assert rc == 1
    assert (f"FAIL: benchmarks[innerproduct].cycles: {cycles}, pinned "
            f"at {cycles + 1}") in capsys.readouterr().err


def test_render_lists_every_benchmark():
    text = bench.render(_report())
    assert "gemm" in text
    assert "total" in text
