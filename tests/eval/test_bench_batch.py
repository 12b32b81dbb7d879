"""The batch benchmark harness and its report held to a
``benchmarks/batch_baseline.json``-shaped gate."""

from repro.eval.bench import (batch_param_grid, render_batch,
                              run_batch_benchmark)
from repro.eval.gate import check


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
    # deterministic: three innerproduct-tiny followers of 51, 67 and 55
    # cycles, of which the event core executes 22 each (24 before
    # completions that wake no unit were delivered inside jumps)
    assert report["follower_cycles"] == 51 + 67 + 55
    assert report["follower_executed_cycles"] == 3 * 22
    rendered = render_batch(report)
    assert "bit-identical" in rendered
    assert "speedup" in rendered
    assert "66 of 173 simulated cycles executed" in rendered


def test_dense_followers_execute_every_cycle():
    report = run_batch_benchmark(
        app="innerproduct", scale="tiny", scheduler="dense",
        params=batch_param_grid(stages=(4, 8), banks=(16,),
                                output_hops=(1,)), sample=1)
    assert report["follower_executed_cycles"] \
        == report["follower_cycles"] > 0


def test_compare_batch_gates_on_speedup_floor():
    report = _small_report()
    baseline = {"min_speedup": report["speedup"] + 100,
                "instances": report["instances"]}
    failures = check(report, baseline)
    assert len(failures) == 1
    assert failures[0].startswith(f"speedup: {report['speedup']} is "
                                  f"below the committed floor")
    # a ratio is reported with its base: the solo run it divides by is
    # printed by render_batch, directly above any FAIL line
    assert "ms/run" in render_batch(report)
    baseline["min_speedup"] = 0.0
    assert check(report, baseline) == []


def test_compare_batch_flags_workload_and_mismatch_changes():
    report = _small_report()
    baseline = {"instances": 78, "mismatches": [], "errors": []}
    failures = check(report, baseline)
    assert len(failures) == 1
    assert failures[0].startswith("instances: 4, pinned at 78")
    bad = dict(report, mismatches=["instance 1: SimStats diverge"],
               errors=["instance 3: boom"])
    failures = check(bad, {"mismatches": [], "errors": []})
    assert "instance 1: SimStats diverge" in failures[0]
    assert "instance 3: boom" in failures[1]


def test_committed_baseline_keys_resolve():
    """The committed floor needs the 78-instance small-scale run (CI
    only); that every key it gates exists in the report is held here."""
    from tests.eval.test_gate import unresolved
    assert unresolved(_small_report(), "batch_baseline.json") == []
    assert unresolved({}, "batch_baseline.json")     # the check bites
