"""CLI tests (python -m repro)."""

import json

import pytest

from repro.bitstream import SCHEMA_VERSION
from repro.cli import build_parser, main, render_floorplan


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "112.796" in out
    assert "TFLOPS" in out


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out and "pagerank" in out
    assert out.count("\n") == 13


def test_run_validates(capsys):
    assert main(["run", "innerproduct", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "VALIDATED" in out
    assert "cycles" in out


def test_run_with_ir_and_floorplan(capsys):
    assert main(["run", "gemm", "--scale", "tiny", "--ir",
                 "--floorplan"]) == 0
    out = capsys.readouterr().out
    assert "dhdl gemm" in out
    assert "floorplan" in out


def test_run_unknown_app(capsys):
    assert main(["run", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro run: unknown benchmark 'nonexistent'; "
                          "available: ['bfs', ")


BAD_INPUT = {
    "run-unknown-app": ["run", "nosuch"],
    "compile-unknown-app": ["compile", "nosuch"],
    "bench-out-not-a-directory": ["bench", "--out", "/dev/null"],
    "figure7-simulate-unknown-app":
        ["figure7", "stages", "--simulate", "--app", "nosuch"],
    "run-multi-unknown-app": ["run", "--multi", "gemm", "nosuch"],
    "run-batch-unknown-sweep-key":
        ["run", "gemm", "--batch", "--sweep", "foo=1"],
    "run-batch-params-not-dicts":
        ["run", "gemm", "--batch", "--batch-params", "[1]"],
    "run-missing-artifact": ["run", "--artifact", "/nonexistent.json"],
    "run-artifact-not-json": ["run", "--artifact", "@not-json"],
    "run-artifact-missing-key": ["run", "--artifact", "@missing-key"],
    "run-artifact-nested": ["run", "--artifact", "@nested"],
    "run-artifact-empty-program": ["run", "--artifact", "@empty-program"],
    "run-artifact-empty-config": ["run", "--artifact", "@empty-config"],
    "run-artifact-unknown-timing-key":
        ["run", "--artifact", "@unknown-timing-key"],
    "chaos-unknown-scale":
        ["chaos", "--scale", "huge", "--scenarios", "1"],
}


def _gemm_artifact(edit) -> bytes:
    """gemm's artifact at ``tiny``, its dict changed by ``edit``."""
    from repro.compiler.artifact import compile_to_bitstream
    data = compile_to_bitstream("gemm", "tiny").to_dict()
    edit(data)
    return json.dumps(data).encode("utf-8")


def _unknown_timing_key(data):
    next(iter(data["config"]["leaf_timing"].values()))["bogus"] = 1


#: the malformed artifact files ``@name`` stands for in ``BAD_INPUT``,
#: each the bytes or a function making them
BAD_ARTIFACTS = {
    "not-json": b"{this is not json",
    "missing-key": b'{"schema": %d}' % SCHEMA_VERSION,
    "nested": b"[" * 100_000,
    "empty-program": json.dumps({
        "schema": SCHEMA_VERSION, "app": "x", "scale": "tiny",
        "options": {}, "program": {}, "config": {}}).encode("utf-8"),
    "empty-config": lambda: _gemm_artifact(
        lambda data: data.update(config={})),
    "unknown-timing-key": lambda: _gemm_artifact(_unknown_timing_key),
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_is_one_line_on_stderr(argv, tmp_path, tmp_path_factory,
                                         monkeypatch, capsys):
    """Each of these used to end in a Python traceback and status 1."""
    files = tmp_path_factory.mktemp("artifacts")
    for name in (a[1:] for a in argv if a.startswith("@")):
        raw = BAD_ARTIFACTS[name]
        (files / f"{name}.json").write_bytes(raw() if callable(raw)
                                             else raw)
    argv = [str(files / f"{a[1:]}.json") if a.startswith("@") else a
            for a in argv]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    try:
        status = main(argv)
    except SystemExit as exit_:  # argparse rejected the value itself
        status = exit_.code
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # argparse prefixes its one line with the command's usage block
    lines = [line for line in captured.err.splitlines()
             if not line.startswith(("usage:", " "))]
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {argv[0]}: ")
    assert not list(tmp_path.iterdir())


def test_table5(capsys):
    assert main(["table5"]) == 0
    assert "Table 5" in capsys.readouterr().out


def test_figure7_unknown_param(capsys):
    assert main(["figure7", "bogus"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_floorplan_marks_units():
    from repro.compiler.artifact import compile_to_bitstream
    artifact = compile_to_bitstream("gemm", "tiny")
    text = render_floorplan(artifact)
    assert "floorplan" in text
    assert "matmul_body" in text
    # every recorded site carries its unit's letter
    assert sum(row.count(tag) for row in text.splitlines()[1:9]
               for tag in "ABCDEFGHIJKLMNOPQRSTUVWXYZ") == \
        sum(len(sites) for sites in artifact.config.sites.values())
    # grid is 8 rows of 16 sites
    grid_lines = [l for l in text.splitlines()
                  if l and l[0] in ".,ABCDEFGHIJKLMNOPQRSTUVWXYZ"]
    assert len(grid_lines) == 8


def test_run_with_trace_prints_attribution(capsys):
    assert main(["run", "gemm", "--scale", "tiny", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "VALIDATED" in out
    assert "Stall attribution" in out
    assert "utilization waterfall" in out
    assert "legend:" in out


def test_run_with_trace_path_writes_chrome_json(tmp_path, capsys):
    import json
    path = tmp_path / "trace.json"
    assert main(["run", "gemm", "--scale", "tiny",
                 f"--trace={path}", "--trace-sample", "4"]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["sample"] == 4


@pytest.mark.parametrize("from_artifact", [False, True],
                         ids=["app", "artifact"])
def test_run_unwritable_trace_path_is_an_error_not_a_traceback(
        from_artifact, tmp_path, capsys):
    """Both ``run`` paths share one trace tail; the artifact path used
    to die with a ``FileNotFoundError`` traceback."""
    target = ["innerproduct", "--scale", "tiny"]
    if from_artifact:
        saved = tmp_path / "a.json"
        assert main(["compile", "innerproduct", "--scale", "tiny",
                     "--no-cache", "--out", str(saved)]) == 0
        target = ["--artifact", str(saved)]
    missing = tmp_path / "no" / "such" / "dir" / "t.json"
    assert main(["run", *target, f"--trace={missing}"]) == 1
    captured = capsys.readouterr()
    assert "VALIDATED" in captured.out
    assert "Stall attribution" in captured.out
    assert f"cannot write trace to {missing}" in captured.err


def test_run_without_trace_has_no_attribution(capsys):
    assert main(["run", "gemm", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Stall attribution" not in out


@pytest.mark.parametrize("mode", ["event", "dense"])
def test_run_multi_forwards_scheduler(mode, capsys, monkeypatch):
    """``--scheduler`` means the same with and without ``--multi``."""
    import repro.sim.fabric as fabric_mod
    seen = []
    run_machines = fabric_mod.run_machines

    def spy(machines, limit, scheduler):
        seen.append(scheduler)
        return run_machines(machines, limit, scheduler)

    monkeypatch.setattr(fabric_mod, "run_machines", spy)
    assert main(["run", "--multi", "gemm", "tpchq6", "--scale", "tiny",
                 "--scheduler", mode]) == 0
    assert seen == [mode]
    out = capsys.readouterr().out
    assert "2 tenants, 161 cycles" in out
    assert out.count("yes") == 2


def test_run_multi_trace_prints_each_tenants_attribution(capsys):
    """A weighted, traced co-run prints one stall-attribution table per
    tenant, and the dense reference prints the same output but for the
    wall time in the header line."""
    argv = ["run", "--multi", "gemm", "tpchq6", "--scale", "tiny",
            "--priority", "8", "1", "--trace"]
    outputs = []
    for mode in ("event", "dense"):
        assert main(argv + ["--scheduler", mode]) == 0
        outputs.append(capsys.readouterr().out.split("\n", 1)[1])
    assert outputs[0] == outputs[1]
    assert outputs[0].count("Stall attribution over") == 2
    assert "\ngemm:\nStall attribution over 151 cycles" in outputs[0]
    assert "QoS arbitration" in outputs[0]
    assert main(["run", "--multi", "gemm", "tpchq6", "--trace=t.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro run --multi: --trace takes no")


@pytest.mark.parametrize("argv", [["table7", "--scale", "tiny"],
                                  ["figure7", "stages", "--scale", "tiny"]],
                         ids=["table7", "figure7"])
def test_evaluation_writes_nothing_to_the_cache_dir(argv, tmp_path,
                                                    monkeypatch, capsys):
    """A bare ``repro table7`` used to leave 13 artifacts in the
    default compile cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command",
                         ["bench", "table6", "table7", "figure7"])
@pytest.mark.parametrize("option", [["--jobs", "2"], ["--cache-dir", "d"],
                                    ["--no-cache"]],
                         ids=["jobs", "cache-dir", "no-cache"])
def test_evaluation_commands_have_no_pool_or_cache_options(
        command, option, capsys):
    argv = [command] + (["stages"] if command == "figure7" else [])
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv + option)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compile_keeps_its_cache_options():
    args = build_parser().parse_args(
        ["compile", "gemm", "--cache-dir", "d", "--no-cache"])
    assert (args.cache_dir, args.no_cache) == ("d", True)
