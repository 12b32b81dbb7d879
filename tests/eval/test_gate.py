"""The one baseline checker (``repro.eval.gate``).

``CASES`` is the format, row by row: a baseline is a partial report
whose leaves are exact pins, whose ``min_``/``max_`` keys are bounds,
and in which a key the report lacks is a failure.  The bottom of the
file holds the *committed* ``benchmarks/baseline.json`` against the
report ``repro bench`` builds in-process, so a model drift fails tier-1
and not only CI.
"""

import copy
import functools
import json
import os

import pytest

from repro.eval import gate

REPORT = {
    "scale": "tiny",
    "apps": ["gemm", "tpchq6"],
    "cycles": 100,
    "speedup": 2.5,
    "p99_ms": 40.0,
    "mismatches": [],
    "validated": True,
    "totals": {"cycles": 300, "cycles_per_sec": 5000},
    "benchmarks": [{"name": "gemm", "cycles": 143, "wall_s": 0.1},
                   {"name": "bfs", "cycles": 1705, "wall_s": 0.2}],
}

#: (what the row shows, baseline, one substring per expected failure)
CASES = [
    ("exact pin holds", {"cycles": 100, "scale": "tiny"}, []),
    ("exact pin off by one", {"cycles": 101},
     ["cycles: 100, pinned at 101"]),
    ("an exact failure says when a refresh is legitimate",
     {"cycles": 99}, ["only for an intended model change"]),
    ("list and bool leaves are exact pins too",
     {"apps": ["gemm", "tpchq6"], "mismatches": [], "validated": True},
     []),
    ("workload change", {"apps": ["gemm", "kmeans"]},
     ["apps: ['gemm', 'tpchq6'], pinned at ['gemm', 'kmeans']"]),
    ("invariant pinned false", {"validated": False},
     ["validated: True, pinned at False"]),
    ("min_ floor held, equality included",
     {"min_speedup": 2.5, "min_cycles": 1}, []),
    ("min_ floor missed", {"min_speedup": 2.6},
     ["speedup: 2.5 is below the committed floor 2.6"]),
    ("max_ ceiling held, equality included", {"max_p99_ms": 40.0}, []),
    ("max_ ceiling missed", {"max_p99_ms": 39.9},
     ["p99_ms: 40.0 is above the committed ceiling 39.9"]),
    ("a bound on a non-number fails instead of raising",
     {"min_mismatches": 1}, ["mismatches: [] is below"]),
    ("nesting: the failure names the full path",
     {"totals": {"cycles": 300, "min_cycles_per_sec": 6000}},
     ["totals.cycles_per_sec: 5000 is below the committed floor 6000"]),
    ("named rows match on name, not position",
     {"benchmarks": [{"name": "bfs", "cycles": 1705},
                     {"name": "gemm", "cycles": 143}]}, []),
    ("named row drifted",
     {"benchmarks": [{"name": "bfs", "cycles": 1704}]},
     ["benchmarks[bfs].cycles: 1705, pinned at 1704"]),
    ("report rows the baseline lacks are new benchmarks: ignored",
     {"benchmarks": [{"name": "gemm", "cycles": 143}]}, []),
    ("baseline row the report lacks",
     {"benchmarks": [{"name": "kmeans", "cycles": 1052}]},
     ["benchmarks[kmeans]: pinned by the baseline but the report has "
      "no row"]),
    ("unknown key is a failure, never a skip", {"cycels": 100},
     ["cycels: gated by the baseline (key 'cycels')"]),
    ("misspelt floor cannot silently become no floor",
     {"min_aggregate_speedup": 1.3},
     ["aggregate_speedup: gated by the baseline (key "
      "'min_aggregate_speedup') but the report has no such field"]),
    ("a dict pinned where the report holds a scalar",
     {"cycles": {"total": 100}}, ["cycles.total: gated by"]),
    ("comment keys are skipped at any depth",
     {"comment": "why", "totals": {"_comment": "why", "cycles": 300}},
     []),
    ("every failure is reported, in baseline order",
     {"cycles": 1, "min_speedup": 9, "nope": 0},
     ["cycles:", "speedup:", "nope:"]),
]


@pytest.mark.parametrize("baseline, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_check(baseline, expected):
    failures = gate.check(REPORT, baseline)
    assert len(failures) == len(expected), failures
    for failure, want in zip(failures, expected):
        assert want in failure


def test_pins_counts_gated_values_only():
    assert gate.pins({}) == 0
    assert gate.pins({"comment": "x", "_comment": "y"}) == 0
    assert gate.pins({"a": 1, "min_b": 2, "c": {"d": [], "comment": ""},
                      "rows": [{"name": "r", "cycles": 3}]}) == 5


# ---------------------------------------------------------------------------
# load: an unusable baseline is a usage error *before* anything runs
# ---------------------------------------------------------------------------


def test_load_none_means_ungated():
    assert gate.load(None) is None


@pytest.mark.parametrize("content, why", [
    (None, "No such file"),
    ("{not json", "Expecting property name"),
    ("{}", "pins nothing"),
    ('{"comment": "only prose"}', "pins nothing"),
    ("[1, 2]", "pins nothing"),
], ids=["missing", "malformed", "empty", "comment-only", "not-an-object"])
def test_load_rejects_unusable_baseline(tmp_path, capsys, content, why):
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        gate.load(str(path))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert why in err and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bound", ["5", None, True, [1], {"x": 1}],
                         ids=["str", "null", "bool", "list", "dict"])
@pytest.mark.parametrize("baseline, where", [
    (lambda b: {"min_speedup": b}, "min_speedup"),
    (lambda b: {"batch": {"instances": 78, "max_errors": b}},
     "batch.max_errors"),
    (lambda b: {"solo": {"benchmarks": [{"name": "gemm",
                                         "min_cycles": b}]}},
     "solo.benchmarks[gemm].min_cycles"),
], ids=["top", "nested", "named-row"])
def test_load_rejects_a_bound_that_is_not_a_number(
        tmp_path, capsys, bound, baseline, where):
    """``check`` compared the report with the bound only after the
    whole run, and a string or ``null`` bound raised ``TypeError``
    there; ``True`` passed as 1."""
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline(bound)))
    with pytest.raises(SystemExit) as exit_info:
        gate.load(str(path))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{where} = {bound!r}" in err and "must be a number" in err
    assert err.count("\n") == 1


def test_load_accepts_int_and_float_bounds(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"min_a": 1, "max_b": 2.5,
                                "comment": "min_ in prose is fine",
                                "c": {"min_d": 0}}))
    assert gate.load(str(path))["c"] == {"min_d": 0}


@pytest.mark.parametrize("argv, baseline, why", [
    (["bench"], {}, "pins nothing"),
    (["bench"], {"batch": {"min_follower_cycles": "201613"}},
     "batch.min_follower_cycles = '201613'"),
    (["bench"], {"multi": {"min_aggregate_speedup": None}},
     "multi.min_aggregate_speedup = None"),
    (["bench"], {"qos": {"min_hi_speedup": True}},
     "qos.min_hi_speedup = True"),
    (["loadtest", "--spawn"], {}, "pins nothing"),
], ids=["bench", "batch", "multi", "qos", "loadtest"])
def test_cli_rejects_empty_baseline_before_any_simulation(
        argv, baseline, why, tmp_path, capsys, monkeypatch):
    """``{}`` used to print ``multi gate passed (floor 0.000x)``; a
    bound that is not a number, in any section, is just as unusable."""
    from repro.cli import main
    from repro.eval import bench, loadtest, multi

    def must_not_run(*args, **kwargs):
        raise AssertionError("benchmark ran before the baseline check")

    monkeypatch.setattr(bench, "run_benchmarks", must_not_run)
    monkeypatch.setattr(bench, "run_batch_benchmark", must_not_run)
    monkeypatch.setattr(multi, "run_multi_benchmark", must_not_run)
    monkeypatch.setattr(multi, "run_qos_benchmark", must_not_run)
    monkeypatch.setattr(loadtest, "spawned_server", must_not_run)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--baseline", str(path)])
    assert exit_info.value.code == 2
    assert why in capsys.readouterr().err


# ---------------------------------------------------------------------------
# finish: the shared command tail (that it writes the report, creating
# the directory, is ``test_bench.py::test_write_report_creates_directory``)
# ---------------------------------------------------------------------------


def test_finish_passes_and_says_how_much_it_held(capsys):
    assert gate.finish(REPORT, None, {"cycles": 100,
                                      "min_speedup": 2.0}) == 0
    assert "gate passed: all 2 baseline pins held" \
        in capsys.readouterr().out


def test_finish_prints_each_failure_and_exits_1(tmp_path, capsys):
    path = tmp_path / "report.json"
    status = gate.finish(REPORT, str(path),
                         {"cycles": 101, "min_speedup": 3.0})
    assert status == 1
    assert path.exists()        # the report is written even on failure
    captured = capsys.readouterr()
    assert captured.err.count("FAIL: ") == 2
    assert "FAIL: cycles: 100, pinned at 101" in captured.err
    assert "gate passed" not in captured.out


def test_finish_invariants_apply_with_and_without_a_baseline(capsys):
    doctored = dict(REPORT, mismatches=["instance 1: SimStats diverge"])
    for baseline in (None, {"cycles": 100}):
        assert gate.finish(doctored, None, baseline,
                           {"mismatches": []}) == 1
        assert "instance 1: SimStats diverge" in capsys.readouterr().err
    assert gate.finish(REPORT, None, None, {"mismatches": []}) == 0


# ---------------------------------------------------------------------------
# The committed baselines, against reports produced in-process
# ---------------------------------------------------------------------------

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")


def _committed(name):
    return gate.load(os.path.join(BENCHMARKS, name))


@functools.lru_cache(maxsize=None)
def _gate_report():
    from repro.eval.bench import run_gate
    return run_gate()


def gate_report():
    """The report ``repro bench`` builds, simulated once per process
    (a fresh copy per call)."""
    return copy.deepcopy(_gate_report())


#: one exact pin per section, and the failure doctoring it must cause
DOCTORED = {
    "solo": (("benchmarks", 13, "executed_cycles"),
             "solo.benchmarks[dram_rowconf].executed_cycles: 899"),
    "batch": (("follower_executed_cycles",),
              "batch.follower_executed_cycles: 9202"),
    "multi": (("tenants", 1, "co_cycles"),
              "multi.tenants[tpchq6].co_cycles: 95"),
    "qos": (("weighted_hi_cycles",), "qos.weighted_hi_cycles: 171"),
}


def test_committed_baselines_hold():
    """The whole committed baseline — every section, every pin — holds
    the report ``repro bench`` builds; one doctored pin per section
    fails by name."""
    report = gate_report()
    baseline = _committed("baseline.json")
    assert gate.pins(baseline) == 78
    assert gate.check(report, baseline) == []
    for section, (keys, failure) in DOCTORED.items():
        doctored = copy.deepcopy(baseline)
        *inner, last = (section,) + keys
        target = doctored
        for key in inner:
            target = target[key]
        target[last] += 1
        assert [f.split(",")[0] for f in gate.check(report, doctored)] \
            == [failure], section


def unresolved(report, baseline_name):
    """Failures that mean a committed baseline names a key (or row)
    its report does not have — a typo, or a renamed report field.
    ``baseline.json`` is held whole above; the serve baselines need runs
    too big for tier-1, so ``tests/serve/test_loadtest.py`` holds their
    *keys* to a small report with this (and ``test_bench_batch.py`` the
    batch section's keys to a small grid)."""
    return [failure
            for failure in gate.check(report, _committed(baseline_name))
            if "the report has no" in failure]
