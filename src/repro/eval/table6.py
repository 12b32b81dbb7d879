"""Table 6 regeneration: area overheads of the generalization ladder.

For each benchmark we compile (to get the virtual-unit requirements) and
run the homogenization ladder of :mod:`repro.arch.asic`: heterogeneous
reconfigurable units (a), homogeneous PMUs (b), homogeneous PCUs (c),
application-generalized PMUs (d) and PCUs (e), each relative to a
benchmark-specific ASIC estimate.

The module also measures the *control-protocol* overhead of each
benchmark — the fraction of unit-cycles spent waiting on tokens and
credits (Section 3.5) — using the exact stall-attribution pass of
:mod:`repro.trace` rather than ad-hoc counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps import ALL_APPS, App
from repro.arch.asic import overhead_table
from repro.compiler.artifact import compile_to_bitstream
from repro.eval.paper_data import TABLE6_CUMULATIVE, TABLE6_STEP_A
from repro.eval.report import format_table

#: the paper's Table 6 covers 12 benchmarks (CNN excluded)
TABLE6_APPS = [a for a in ALL_APPS if a.name != "cnn"]


def generate(scale: str = "small",
             apps: Optional[List[App]] = None) -> Dict[str, Dict]:
    """Per-benchmark successive and cumulative overheads."""
    return {app.name: overhead_table(
                compile_to_bitstream(app.name, scale).config.requirements)
            for app in (apps or TABLE6_APPS)}


def control_overhead(scale: str = "tiny",
                     apps: Optional[List[App]] = None
                     ) -> Dict[str, Dict]:
    """Per-benchmark control-protocol overhead from stall attribution.

    Simulates each benchmark with a counters-only tracer and classifies
    every unit-cycle with :func:`repro.trace.build_report`; the reported
    overhead is token+credit wait cycles over non-idle cycles.
    """
    from repro.trace import RingTracer, StallCause, build_report
    results: Dict[str, Dict] = {}
    for app in (apps or TABLE6_APPS):
        # counters-only: keep no event ring, sample (almost) nothing
        tracer = RingTracer(capacity=1, sample=1 << 30)
        machine = compile_to_bitstream(app.name, scale).machine(
            tracer=tracer)
        stats = machine.run()
        report = build_report(tracer, stats)
        totals = report.totals()
        results[app.name] = {
            "cycles": stats.cycles,
            "units": len(report.per_unit),
            "busy": totals.get(StallCause.BUSY, 0),
            "token_wait": totals.get(StallCause.TOKEN_WAIT, 0),
            "credit_wait": totals.get(StallCause.CREDIT_WAIT, 0),
            "active": report.active_cycles(),
            "control_overhead": report.control_overhead(),
        }
    return results


def render_control(results: Dict[str, Dict]) -> str:
    """Control-protocol overhead table (token/credit wait attribution)."""
    headers = ["Benchmark", "cycles", "units", "busy", "token",
               "credit", "ctl ovh"]
    rows = []
    for name, r in results.items():
        rows.append([
            name, str(r["cycles"]), str(r["units"]), str(r["busy"]),
            str(r["token_wait"]), str(r["credit_wait"]),
            f"{r['control_overhead']:.3f}",
        ])
    mean = geomean(max(r["control_overhead"], 1e-9)
                   for r in results.values())
    rows.append(["GeoMean", "", "", "", "", "", f"{mean:.3f}"])
    return format_table(
        headers, rows,
        title="Control overhead: token/credit waits / non-idle "
              "unit-cycles (stall attribution)")


def geomean(values) -> float:
    """Geometric mean."""
    values = list(values)
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def render(results: Dict[str, Dict]) -> str:
    """Paper-style table with cumulative values in parentheses."""
    headers = ["Benchmark", "a", "b (cum)", "c (cum)", "d (cum)",
               "e (cum)", "paper a", "paper e cum"]
    rows = []
    for name, t in results.items():
        rows.append([
            name, f"{t['a']:.2f}",
            f"{t['b']:.2f} ({t['b_cum']:.2f})",
            f"{t['c']:.2f} ({t['c_cum']:.2f})",
            f"{t['d']:.2f} ({t['d_cum']:.2f})",
            f"{t['e']:.2f} ({t['e_cum']:.2f})",
            f"{TABLE6_STEP_A.get(name, 0):.2f}",
            f"{TABLE6_CUMULATIVE.get(name, 0):.2f}",
        ])
    rows.append([
        "GeoMean",
        f"{geomean(t['a'] for t in results.values()):.2f}",
        "", "", "",
        f"(cum {geomean(t['e_cum'] for t in results.values()):.2f})",
        "2.77", "(11.46)",
    ])
    return format_table(headers, rows,
                        title="Table 6: generalization overheads vs ASIC")
