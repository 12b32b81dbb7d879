"""The ``batch`` section of ``repro bench`` and its report held to
``benchmarks/baseline.json``-shaped gates."""

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
    # deterministic: three innerproduct-tiny followers of 51, 67 and 55
    # cycles, of which the event core executes 20 each (22 before
    # cycles in which only tile streams and channels act were stepped
    # by ``EventScheduler._run_alone``; 24 before completions that wake no
    # unit were delivered inside jumps)
    assert report["follower_cycles"] == 51 + 67 + 55
    assert report["follower_executed_cycles"] == 3 * 20
    rendered = render_batch(report)
    assert "bit-identical" in rendered
    assert "60 of 173 simulated cycles executed" in rendered


def test_dense_followers_execute_every_cycle():
    """The section counts the cycles the event core executed for the
    followers; the dense reference executes every one of the same
    cycles (it keeps no split), with identical stats."""
    from repro.compiler.artifact import compile_to_bitstream
    from repro.sim.batch import run_batch
    artifact = compile_to_bitstream("innerproduct", "tiny")
    grid = batch_param_grid(stages=(4, 8), banks=(16,), output_hops=(1,))
    event, dense = (run_batch(artifact, grid, scheduler=mode)
                    for mode in ("event", "dense"))
    for ev, de in zip(event, dense):
        assert ev.stats.same_as(de.stats)
        assert de.machine.scheduler_stats is None
    follower = event[1]
    assert follower.role == "replay"
    assert 0 < follower.machine.scheduler_stats.executed_cycles \
        < follower.stats.cycles


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
    """Every key the committed ``batch`` section gates exists in a
    small-grid report too (the whole section is held in
    ``test_gate.py``)."""
    from tests.eval.test_gate import unresolved
    assert [f for f in unresolved({"batch": _small_report()},
                                  "baseline.json")
            if f.startswith("batch")] == []
    assert unresolved({}, "baseline.json")     # the check bites
