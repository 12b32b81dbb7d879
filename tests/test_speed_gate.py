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


def test_references_take_each_workloads_lowest_wall_s(tmp_path):
    """A newer file that reads a workload slower does not raise its
    ceiling; one that reads it faster lowers it.  A file without a PR
    number is not a reference."""
    _bench(tmp_path, "BENCH_aaa_pr4.json", {"a": 1.0, "b": 2.0})
    _bench(tmp_path, "BENCH_bbb_pr33.json", {"a": 1.5, "b": 1.0})
    _bench(tmp_path, "BENCH_ccc_pr5.json", {"a": 1.0, "c": 3.0})
    _bench(tmp_path, "BENCH_ddd.json", {"a": 0.1})
    assert speed_gate.references(str(tmp_path)) == {
        "a": (1.0, "BENCH_ccc_pr5.json"),      # tied: the higher number
        "b": (1.0, "BENCH_bbb_pr33.json"),
        "c": (3.0, "BENCH_ccc_pr5.json")}
    assert speed_gate.references(str(tmp_path / "empty")) == {}


def test_main_compares_with_the_lowest_committed_wall_s(tmp_path, capsys):
    report = _write(tmp_path, _workloads()["dram_stream"])
    assert speed_gate.main([report]) == 0
    floor, name = speed_gate.references(speed_gate.BENCHMARKS)[
        "dram_stream"]
    assert floor <= speed_gate._wall(_workloads()["dram_stream"])
    out = capsys.readouterr().out
    assert "against the lowest committed wall_s in benchmarks" in out
    assert f"against {floor:.3f} s ({name})" in out


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
