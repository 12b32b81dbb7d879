"""The batch benchmark harness and its CI gate (`compare_batch`)."""

import copy

from repro.eval.bench import (batch_param_grid, compare_batch,
                              render_batch, run_batch_benchmark)


def _small_report():
    return run_batch_benchmark(
        app="innerproduct", scale="tiny",
        params=batch_param_grid(stages=(4, 8), banks=(4, 16),
                                output_hops=(1,)),
        sample=2)


def test_default_grid_shape():
    grid = batch_param_grid()
    assert len(grid) == 78
    assert {"stages", "banks", "output_hops"} == set(grid[0])
    assert len({tuple(sorted(g.items())) for g in grid}) == 78


def test_run_batch_benchmark_reports_and_verifies():
    report = _small_report()
    assert report["instances"] == 4
    assert report["cohorts"] == 1
    assert report["replayed"] == 3
    assert report["sampled"] == 2
    assert report["verified"] == 2
    assert report["mismatches"] == []
    assert report["errors"] == []
    assert report["batch_s"] > 0 and report["est_sequential_s"] > 0
    assert report["speedup"] > 0
    rendered = render_batch(report)
    assert "bit-identical" in rendered
    assert "speedup" in rendered


def test_compare_batch_gates_on_speedup_floor():
    report = _small_report()
    baseline = {"min_speedup": report["speedup"] + 100,
                "instances": report["instances"]}
    failures = compare_batch(report, baseline)
    assert any("speedup regression" in f for f in failures)
    # a ratio is reported with its base: the solo run it divides by
    assert any("base: solo" in f and "ms/run" in f for f in failures)
    baseline["min_speedup"] = 0.0
    assert compare_batch(report, baseline) == []


def test_compare_batch_flags_workload_and_mismatch_changes():
    report = _small_report()
    baseline = {"min_speedup": 0.0, "instances": 78}
    failures = compare_batch(report, baseline)
    assert any("workload changed" in f for f in failures)
    bad = copy.deepcopy(report)
    bad["mismatches"] = ["instance 1: SimStats diverge"]
    assert "instance 1: SimStats diverge" in compare_batch(
        bad, {"min_speedup": 0.0})
