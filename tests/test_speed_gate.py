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


def test_committed_file_passes_against_itself(capsys):
    committed = json.loads(PR33.read_text())
    assert speed_gate.check(committed["workloads"], committed, 0.25) == []
    out = capsys.readouterr().out
    assert "dram_stream: wall_s 0.745 s against 0.745 s x 1.25" in out


def test_one_wall_s_at_1_26x_fails(capsys):
    committed = json.loads(PR33.read_text())
    slow = _workloads()
    slow["dse_sweep"]["metrics"]["wall_s"]["value"] *= 1.26
    failures = speed_gate.check(list(slow.values()), committed, 0.25)
    assert len(failures) == 1
    assert failures[0].startswith("dse_sweep.wall_s: ")
    assert "above the committed ceiling" in failures[0]
    inside = _workloads()
    inside["dse_sweep"]["metrics"]["wall_s"]["value"] *= 1.24
    assert speed_gate.check([inside["dse_sweep"]], committed, 0.25) == []


def test_newest_sorts_pr_numbers_as_numbers(tmp_path):
    for name in ("BENCH_aaa_pr4.json", "BENCH_bbb_pr33.json",
                 "BENCH_ccc_pr5.json", "BENCH_ddd.json"):
        (tmp_path / name).write_text("{}")
    assert Path(speed_gate.newest(str(tmp_path))).name == \
        "BENCH_bbb_pr33.json"
    assert speed_gate.newest(str(tmp_path / "empty")) is None


def test_main_compares_with_the_newest_committed_file(tmp_path, capsys):
    report = _write(tmp_path, _workloads()["dram_stream"])
    assert speed_gate.main([report]) == 0
    newest = Path(speed_gate.newest(speed_gate.BENCHMARKS)).name
    assert f"against benchmarks/{newest}" in capsys.readouterr().out


def test_main_fails_a_report_over_the_ceiling(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr(speed_gate, "newest", lambda directory: str(PR33))
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
