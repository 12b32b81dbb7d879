"""Exporter tests: Chrome Trace Event JSON and terminal waterfall."""

import json

import pytest

from repro.compiler import compile_to_bitstream
from repro.trace import (CAUSE_GLYPHS, RingTracer, StallCause,
                         chrome_trace, render_waterfall,
                         write_chrome_trace)


@pytest.fixture(scope="module")
def traced_gemm():
    compiled = compile_to_bitstream("gemm", "tiny")
    tracer = RingTracer()
    machine = compiled.machine(tracer=tracer)
    machine.run()
    return tracer, machine.trace_report()


def test_chrome_trace_shape(traced_gemm):
    tracer, report = traced_gemm
    doc = chrome_trace(tracer, report)
    json.dumps(doc)  # must serialise
    events = doc["traceEvents"]
    assert events
    # required metadata: process names for all three tracks
    process_names = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    assert process_names == {"fabric units", "FIFOs", "DRAM channels"}
    # every unit has a thread_name metadata record
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    for unit, kind in report.unit_kind.items():
        assert f"{kind}:{unit}" in thread_names


def test_chrome_trace_slices_cover_non_idle(traced_gemm):
    tracer, report = traced_gemm
    doc = chrome_trace(tracer, report)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices
    for e in slices:
        assert e["dur"] > 0
        assert e["ts"] >= 0
        assert e["name"] != str(StallCause.IDLE)
    # per-unit slice durations equal the unit's non-idle cycles
    by_tid = {}
    for e in slices:
        by_tid[e["tid"]] = by_tid.get(e["tid"], 0) + e["dur"]
    non_idle = {unit: sum(n for c, n in counts.items()
                          if c is not StallCause.IDLE)
                for unit, counts in report.per_unit.items()}
    assert sorted(by_tid.values()) == sorted(
        v for v in non_idle.values() if v)


def test_chrome_trace_other_data(traced_gemm):
    tracer, report = traced_gemm
    other = chrome_trace(tracer, report)["otherData"]
    assert other["cycles"] == report.cycles
    assert other["control_overhead"] == report.control_overhead()
    assert sum(other["totals"].values()) == report.unit_cycles()


def test_write_chrome_trace_roundtrip(tmp_path, traced_gemm):
    tracer, report = traced_gemm
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer, report)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_waterfall_renders_all_units(traced_gemm):
    tracer, report = traced_gemm
    text = render_waterfall(tracer, report)
    lines = text.splitlines()
    assert "utilization waterfall" in lines[0]
    for unit in report.per_unit:
        assert any(line.startswith(unit) for line in lines), unit
    assert "legend:" in lines[-1]
    # rows only use known glyphs
    glyphs = set(CAUSE_GLYPHS.values())
    for line in lines[1:-1]:
        row = line.split("|")[1]
        assert set(row) <= glyphs, row


def test_waterfall_width_clamps_to_cycles():
    t = RingTracer()
    t.register_unit("u", "pcu", ("root",))
    for cycle in range(1, 4):
        t.begin_cycle(cycle)
        t.mark("u", StallCause.BUSY)
        t.end_cycle()
    t.finalize(3)

    from repro.trace import build_report

    class FakeStats:
        cycles = 3

    report = build_report(t, FakeStats())
    text = render_waterfall(t, report, width=64)
    row = text.splitlines()[1].split("|")[1]
    assert row == "###"
