"""Tests of the benchmark itself, at ``--smoke`` sizes.

Run with ``python -m pytest bench/test_bench.py`` (tier-1 collects only
``tests/``).  They check the harness, not the program: that what a run
prints matches ``BENCHMARK.json``, that the output checks bite, and that
span self times add up.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import paths  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


UNITS = {m["name"]: m["unit"] for g in ("end_to_end", "per_layer")
         for m in CONTRACT[g]}


@pytest.fixture
def smoke_run():
    """A set-up ``run.Run`` at smoke size, its sampler stopped after."""
    made = []

    def make(name):
        made.append(run.Run(name, 0, UNITS, smoke=True))
        made[-1].setup(1)
        return made[-1]

    yield make
    for bench_run in made:
        bench_run.meter.stop()


def bench(*argv, cwd=None, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(BENCH_DIR, "run.py"),
         *argv], capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_the_contract(name, trace):
    proc = bench("--workload", name, "--smoke", "--passes", "2",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = CONTRACT["end_to_end" if trace == 0 else "per_layer"]
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in group})
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_contract_shape():
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert len(WORKLOADS) == 7
    names = [m["name"] for g in ("end_to_end", "per_layer")
             for m in CONTRACT[g]]
    assert len(names) == len(set(names))
    setup = next(m for m in CONTRACT["end_to_end"]
                 if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    # every span the passes record feeds a declared per-layer metric
    assert set(run.SPAN_METRICS.values()) <= set(names)


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_reference_fails_the_run(name, monkeypatch, capsys):
    original = run.Run.setup

    def setup_then_corrupt(self, repeats=1):
        original(self, 1)
        self.workload.corrupt_reference()

    monkeypatch.setattr(run.Run, "setup", setup_then_corrupt)
    code = run.main(["--workload", name, "--smoke", "--passes", "2",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_changed_exact_counter_fails_the_run(smoke_run):
    bench_run = smoke_run("dense_compute")
    bench_run.one_pass(False)
    bench_run.one_pass(False)
    assert bench_run.verdict()[1] == 0
    bench_run.untraced[1].exact["sim.vector_issues"] += 1
    attempted, failed, problems = bench_run.verdict()
    assert failed == 1 and "sim.vector_issues" in problems[0]


def test_self_times_sum_to_the_root():
    rec = spans.Recorder()
    with rec.span("op", op="x"):
        with rec.span("a"):
            with rec.span("b"):
                sum(range(20000))
        with rec.span("c"):
            sum(range(20000))
    (root,) = rec.roots()
    assert rec.spans[root].duration > 0
    assert rec.subtree_self_s(root) == pytest.approx(
        rec.spans[root].duration, abs=1e-9)
    assert {s.op for s in rec.spans} == {"x"}
    assert rec.spans[2].parent == 1 and rec.spans[3].parent == root


@pytest.mark.parametrize("name", ["fuzz_mix", "serve_mix"])
def test_traced_pass_spans_add_up_and_export(name, smoke_run):
    bench_run = smoke_run(name)
    bench_run.one_pass(True)
    result, rec = bench_run.traced[0]
    roots = [i for i in rec.roots() if rec.spans[i].name == "op"]
    assert len(roots) == len(result.ops)
    for root in roots:
        assert rec.subtree_self_s(root) == pytest.approx(
            rec.spans[root].duration, abs=1e-9)
    path = bench_run.write_trace()
    assert path == os.path.join(paths.OUT_DIR, f"{name}.trace.json")
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "X") == len(rec.spans)


def test_meter_divides_by_the_slowdown_around_an_interval():
    meter = speed.Meter()
    assert meter.slowdown(0.0, 1.0) == 1.0      # no samples: no scaling
    # hand-made samples: (begin, end, slowdown)
    for begin, value in ((9.0, 1.0), (10.5, 2.0), (11.5, 2.0), (20.0, 4.0)):
        meter._begins.append(begin)
        meter._ends.append(begin + 0.01)
        meter._values.append(value)
    assert meter.slowdown(10.0, 12.0) == 2.0    # the two samples inside
    assert meter.slowdown(14.0, 15.0) == 3.0    # none near: nearest each side
    assert meter.sampling_s(10.0, 12.0) == pytest.approx(0.02)
    # 2 s, of which 0.02 s sampling, on a machine running 2x slow
    assert meter.at_reference([(10.0, 12.0)]) == pytest.approx(0.99)


def test_meter_samples_inside_a_long_call():
    meter = speed.Meter()
    meter.start()
    try:
        started = speed.time.perf_counter()
        while speed.time.perf_counter() - started < 0.35:
            sum(range(1000))
    finally:
        meter.stop()
    assert len(meter._values) >= 2
    assert all(0.2 < value < 20 for value in meter._values)


def test_null_recorder_records_nothing():
    with spans.NULL.span("op", op=1) as index:
        assert index is None
    assert spans.NULL.add("x", 0.0, 1.0) is None
    assert not spans.NULL.enabled


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: non-zero exit, no result line."""
    shutil.copy(paths.CONTRACT, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = bench("--workload", "dense_compute", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
