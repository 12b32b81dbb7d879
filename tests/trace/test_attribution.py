"""Stall-attribution tests: exact reconciliation against SimStats and
invariants against the legacy ad-hoc counters."""

import pytest

from repro.compiler import compile_to_bitstream
from repro.errors import SimulationError
from repro.trace import (CAUSE_ORDER, CONTROL_CAUSES, RingTracer,
                         StallCause)

APPS = ("gemm", "innerproduct", "kmeans", "tpchq6", "pagerank")


def traced_run(name, scale="tiny", **tracer_kw):
    compiled = compile_to_bitstream(name, scale)
    tracer = RingTracer(**tracer_kw)
    machine = compiled.machine(tracer=tracer)
    stats = machine.run()
    return tracer, stats, machine


@pytest.mark.parametrize("name", APPS)
def test_attribution_reconciles_exactly(name):
    """Every unit's cause counts sum to exactly stats.cycles."""
    tracer, stats, machine = traced_run(name)
    report = machine.trace_report()
    assert report.cycles == stats.cycles
    for unit, counts in report.per_unit.items():
        assert sum(counts.values()) == stats.cycles, unit
    report.reconcile()  # must not raise


def test_reconcile_raises_on_corruption():
    tracer, stats, machine = traced_run("gemm")
    report = machine.trace_report()
    unit = next(iter(report.per_unit))
    report.per_unit[unit][StallCause.IDLE] += 1
    with pytest.raises(SimulationError, match="reconcil"):
        report.reconcile()


@pytest.mark.parametrize("name", APPS)
def test_attributed_stalls_cover_legacy_counters(name):
    """The taxonomy must account for at least every stall the old
    ad-hoc counters saw (it sees more: waits legacy counters miss)."""
    tracer, stats, machine = traced_run(name, scale="small")
    assert (tracer.total_cause_cycles(StallCause.BANK_CONFLICT)
            >= stats.conflict_cycles)
    assert (tracer.total_cause_cycles(StallCause.FIFO_FULL)
            >= stats.fifo_stall_cycles)
    assert (tracer.total_cause_cycles(StallCause.FIFO_EMPTY)
            >= stats.fifo_empty_stall_cycles)
    assert (tracer.total_cause_cycles(StallCause.DRAM_BANDWIDTH)
            >= stats.dram_stall_cycles)


@pytest.mark.parametrize("name", APPS)
def test_busy_attribution_brackets_stats_busy_cycles(name):
    """The legacy busy counter sits between the attributed BUSY cycles
    and BUSY plus occupancy-charged stalls (conflict serialisation,
    drain, in-flight DRAM)."""
    tracer, stats, machine = traced_run(name)
    report = machine.trace_report()
    occupancy = (StallCause.BUSY, StallCause.BANK_CONFLICT,
                 StallCause.DRAIN, StallCause.DRAM_LATENCY,
                 StallCause.DRAM_BANDWIDTH)
    for unit, counts in report.per_unit.items():
        busy = stats.busy_cycles.get(unit, 0)
        low = counts.get(StallCause.BUSY, 0)
        high = sum(counts.get(c, 0) for c in occupancy)
        assert low <= busy <= high, unit


def test_per_controller_rollup_sums_children():
    tracer, stats, machine = traced_run("kmeans")
    report = machine.trace_report()
    assert report.per_controller
    for ctrl, counts in report.per_controller.items():
        members = [u for u, path in report.unit_path.items()
                   if ctrl in path]
        assert members, ctrl
        assert (sum(counts.values())
                == stats.cycles * len(members))


def test_control_overhead_fraction_in_range():
    tracer, stats, machine = traced_run("gemm")
    report = machine.trace_report()
    assert 0.0 <= report.control_overhead() <= 1.0
    control = report.control_cycles()
    totals = report.totals()
    assert control == sum(totals.get(c, 0) for c in CONTROL_CAUSES)


def test_breakdown_is_json_shaped():
    import json
    tracer, stats, machine = traced_run("innerproduct")
    report = machine.trace_report()
    d = report.breakdown()
    json.dumps(d)  # must serialise
    assert d["cycles"] == stats.cycles
    assert set(d["totals"]) <= {str(c) for c in CAUSE_ORDER}


def test_trace_report_requires_enabled_tracer():
    compiled = compile_to_bitstream("gemm", "tiny")
    machine = compiled.machine()
    machine.run()
    with pytest.raises(SimulationError):
        machine.trace_report()


def test_disabled_tracer_not_attached():
    from repro.trace import NULL_TRACER
    compiled = compile_to_bitstream("gemm", "tiny")
    machine = compiled.machine(tracer=NULL_TRACER)
    assert machine.tracer is None
    stats = machine.run()
    assert stats.cycles > 0


def test_traced_run_matches_untraced_results():
    """Tracing must not perturb simulation semantics."""
    import numpy as np
    compiled = compile_to_bitstream("gemm", "tiny")
    plain = compiled.machine()
    plain_stats = plain.run()
    tracer, stats, machine = traced_run("gemm")
    assert stats.cycles == plain_stats.cycles
    assert stats.ops_executed == plain_stats.ops_executed
    np.testing.assert_array_equal(machine.result("c"),
                                  plain.result("c"))
