"""CLI tests for the batched-simulation entry points."""

import json

from repro.cli import _parse_sweeps, main


def test_run_batch_default_stages_sweep(capsys):
    assert main(["run", "innerproduct", "--scale", "tiny",
                 "--batch"]) == 0
    out = capsys.readouterr().out
    assert "13 instances" in out          # Figure 7a's stages axis
    assert "12 replayed" in out
    assert "VALIDATED" in out
    assert "leader" in out and "replay" in out


def test_run_batch_cross_product_sweep(capsys):
    assert main(["run", "innerproduct", "--scale", "tiny", "--batch",
                 "--sweep", "stages=4,8", "--sweep", "banks=4,16"]) == 0
    out = capsys.readouterr().out
    assert "4 instances" in out
    assert "stages=4, banks=16" in out


def test_run_batch_explicit_params(capsys):
    params = json.dumps([{}, {"stages": 6, "dram_queue_depth": 4}])
    assert main(["run", "innerproduct", "--scale", "tiny", "--batch",
                 "--batch-params", params]) == 0
    out = capsys.readouterr().out
    assert "2 instances" in out
    assert "(as compiled)" in out
    assert "stages=6, dram_queue_depth=4" in out


def test_run_batch_params_file(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"stages": 5}, {"stages": 9}]))
    assert main(["run", "innerproduct", "--scale", "tiny", "--batch",
                 "--batch-params", f"@{path}"]) == 0
    assert "2 instances" in capsys.readouterr().out


def test_run_batch_failing_instance_sets_status(capsys):
    params = json.dumps([{}, {"max_cycles": 20}])
    assert main(["run", "gemm", "--scale", "tiny", "--batch",
                 "--batch-params", params]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out


def test_run_batch_rejects_bad_sweep(capsys):
    assert main(["run", "gemm", "--batch", "--sweep", "stages"]) == 2
    assert "--sweep wants" in capsys.readouterr().err


def test_run_batch_needs_app_or_artifact(capsys):
    assert main(["run", "--batch"]) == 2
    assert "give an APP" in capsys.readouterr().err


def test_parse_sweeps_cross_product():
    grid = _parse_sweeps(["stages=4,8", "banks=4,16"])
    assert len(grid) == 4
    assert {"stages": 8, "banks": 4} in grid


def test_figure7_simulate(capsys):
    assert main(["figure7", "stages", "--simulate", "--scale", "tiny",
                 "--app", "innerproduct"]) == 0
    out = capsys.readouterr().out
    assert "simulated sweep: stages" in out


def test_figure7_simulate_rejects_area_params(capsys):
    assert main(["figure7", "regs_per_stage", "--simulate"]) == 2
    assert "cannot sweep" in capsys.readouterr().err


def test_bench_batch_quick(tmp_path, capsys, monkeypatch):
    from repro.eval import bench
    from tests.eval.test_gate import gate_report
    monkeypatch.setattr(bench, "run_gate", gate_report)
    assert main(["bench", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "batched simulation" in out
    assert "bit-identical" in out
    reports = list(tmp_path.glob("GATE_*.json"))
    assert len(reports) == 1
    report = json.loads(reports[0].read_text())["batch"]
    assert report["instances"] == 78
    assert report["mismatches"] == []


def test_bench_batch_baseline_gate_failure(tmp_path, capsys, monkeypatch):
    from repro.eval import bench
    from tests.eval.test_gate import gate_report
    monkeypatch.setattr(bench, "run_gate", gate_report)
    baseline = tmp_path / "pins.json"
    baseline.write_text(json.dumps(
        {"batch": {"follower_executed_cycles": 9203}}))
    assert main(["bench", "--out", str(tmp_path),
                 "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "FAIL: batch.follower_executed_cycles: 9202, pinned at 9203" \
        in err


def test_fuzz_batch_oracle(capsys):
    assert main(["fuzz", "--seed", "0", "--runs", "2",
                 "--batch-oracle"]) == 0
    assert "batched oracle: 2 specs" in capsys.readouterr().out
