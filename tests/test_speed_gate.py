"""The host-speed gate (tools/speed_gate.py)."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "speed_gate", REPO / "tools" / "speed_gate.py")
speed_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(speed_gate)

PR33 = REPO / "benchmarks" / "BENCH_bfa463c_pr33.json"


def _workloads(path=PR33):
    return {w["workload"]: w
            for w in json.loads(path.read_text())["workloads"]}


def _write(tmp_path, report, name="report.json"):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_bound_comes_from_the_benchmark_contract():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert speed_gate.wall_bound() == next(
        m["bound"] for m in contract["end_to_end"] if m["name"] == "wall_s")


def _only(path=PR33):
    """The references of one committed file."""
    return {name: (speed_gate._wall(w), path.name)
            for name, w in _workloads(path).items()}


def test_committed_file_passes_against_itself(capsys):
    committed = json.loads(PR33.read_text())
    assert speed_gate.check(committed["workloads"], _only(), 0.25) == []
    out = capsys.readouterr().out
    assert ("dram_stream: wall_s 0.745 s against 0.745 s "
            "(BENCH_bfa463c_pr33.json) x 1.25") in out


def test_one_wall_s_at_1_26x_fails(capsys):
    slow = _workloads()
    slow["dse_sweep"]["metrics"]["wall_s"]["value"] *= 1.26
    failures = speed_gate.check(list(slow.values()), _only(), 0.25)
    assert len(failures) == 1
    assert failures[0].startswith("dse_sweep.wall_s: ")
    assert "above the committed ceiling" in failures[0]
    inside = _workloads()
    inside["dse_sweep"]["metrics"]["wall_s"]["value"] *= 1.24
    assert speed_gate.check([inside["dse_sweep"]], _only(), 0.25) == []


def _bench(directory, name, walls):
    (directory / name).write_text(json.dumps({"workloads": [
        {"workload": load, "metrics": {"wall_s": {"value": wall}}}
        for load, wall in walls.items()]}))


def test_references_take_the_median_of_the_three_newest(tmp_path):
    """Per workload, the three files with the highest PR numbers that
    have it (numerically: 33 is newer than 5); fewer when fewer have
    it.  A file without a PR number is not a reference."""
    _bench(tmp_path, "BENCH_aaa_pr4.json", {"a": 0.1, "b": 2.0})
    _bench(tmp_path, "BENCH_bbb_pr33.json", {"a": 1.5, "b": 1.0})
    _bench(tmp_path, "BENCH_ccc_pr5.json", {"a": 1.0, "c": 3.0})
    _bench(tmp_path, "BENCH_eee_pr6.json", {"a": 2.0})
    _bench(tmp_path, "BENCH_ddd.json", {"a": 0.1})
    assert speed_gate.references(str(tmp_path)) == {
        "a": (1.5, "BENCH_bbb_pr33.json, BENCH_eee_pr6.json, "
                   "BENCH_ccc_pr5.json"),
        "b": (1.5, "BENCH_bbb_pr33.json, BENCH_aaa_pr4.json"),
        "c": (3.0, "BENCH_ccc_pr5.json")}
    assert speed_gate.references(str(tmp_path / "empty")) == {}


def test_one_low_reading_does_not_set_the_ceiling(tmp_path, monkeypatch):
    """The newest of three files reads ``multi_tenant`` at 0.1357 s
    against 0.167 and 0.157 s in the other two: the ceiling is the
    median's, 0.157 s x 1.25 = 0.196 s, so a 0.178 s reading passes,
    which the lowest reading's ceiling (0.170 s) would have failed."""
    _bench(tmp_path, "BENCH_aaa_pr39.json", {"multi_tenant": 0.167})
    _bench(tmp_path, "BENCH_bbb_pr40.json", {"multi_tenant": 0.157})
    _bench(tmp_path, "BENCH_ccc_pr41.json", {"multi_tenant": 0.1357})
    best = speed_gate.references(str(tmp_path))
    assert best["multi_tenant"][0] == 0.157
    report = {"workload": "multi_tenant",
              "metrics": {"wall_s": {"value": 0.178}}}
    assert speed_gate.check([report], best, 0.25) == []
    assert 0.178 > 0.1357 * 1.25
    report["metrics"]["wall_s"]["value"] = 0.197
    assert len(speed_gate.check([report], best, 0.25)) == 1


def test_main_compares_with_the_newest_committed_wall_s(tmp_path, capsys):
    floor, names = speed_gate.references(speed_gate.BENCHMARKS)[
        "dram_stream"]
    assert floor <= speed_gate._wall(_workloads()["dram_stream"])
    # a fresh reading at the committed reference: the older file's own
    # reading is above the ceiling once committed speed-ups lower it
    fresh = _workloads()["dram_stream"]
    fresh["metrics"]["wall_s"]["value"] = floor
    report = _write(tmp_path, fresh)
    assert speed_gate.main([report]) == 0
    assert len(names.split(", ")) == speed_gate.NEWEST
    out = capsys.readouterr().out
    assert ("against the median wall_s of the 3 newest committed files "
            "in benchmarks") in out
    assert f"against {floor:.3f} s ({names})" in out


def test_main_fails_a_report_over_the_ceiling(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(speed_gate, "references",
                        lambda directory: _only())
    slow = _workloads()["dram_stream"]
    slow["metrics"]["wall_s"]["value"] *= 1.26
    assert speed_gate.main([_write(tmp_path, slow)]) == 1
    assert "FAIL: dram_stream.wall_s: " in capsys.readouterr().err


def test_main_exits_2_on_a_workload_the_committed_file_lacks(
        tmp_path, capsys):
    report = dict(_workloads()["dram_stream"], workload="no_such_load")
    assert speed_gate.main([_write(tmp_path, report)]) == 2
    assert "no workload 'no_such_load'" in capsys.readouterr().err


def test_main_exits_2_without_a_committed_file(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr(speed_gate, "BENCHMARKS", str(tmp_path))
    report = _write(tmp_path, _workloads()["dram_stream"])
    assert speed_gate.main([report]) == 2
    assert "no BENCH_<rev>_pr<N>.json" in capsys.readouterr().err


def test_main_usage_error(capsys):
    assert speed_gate.main([]) == 2
    assert "Usage" in capsys.readouterr().err
