"""Stall attribution: classify every cycle of every unit.

The tracer records, per physical unit (PCU chain or AG transfer engine),
exactly one :class:`~repro.trace.events.StallCause` per simulated cycle.
This module rolls those counters up into an :class:`AttributionReport`:

* **per-unit** — the full cause histogram for each leaf;
* **per-controller** — the same histograms aggregated over each outer
  controller's subtree (the hierarchy the DHDL program declares);
* **totals** — chip-wide cause histogram and derived fractions, among
  them the control-protocol overhead (token + credit waits) the paper's
  Section 3.5 / Figure 7 discussion revolves around.

The report *must* reconcile: for every unit the cause counts sum to
``SimStats.cycles``.  ``build_report`` verifies this and raises
:class:`~repro.errors.SimulationError` otherwise — a failed
reconciliation means an instrumentation hook double- or under-counted a
cycle, which would silently corrupt every number downstream.

Attribution is scheduler-independent.  Under the dense loop every unit
marks its cause each cycle; under the event scheduler parked units have
their park's marks replayed per visited cycle and fast-forwarded spans
charged in bulk through ``Tracer.account_span``.  Both paths feed the
same counters, so the reconciliation check above doubles as the
cross-check that fast-forward jumps attributed every skipped cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.trace.events import CONTROL_CAUSES, StallCause
from repro.trace.tracer import RingTracer

#: rendering order for breakdown tables
CAUSE_ORDER = (
    StallCause.BUSY, StallCause.DRAIN, StallCause.BANK_CONFLICT,
    StallCause.FIFO_FULL, StallCause.FIFO_EMPTY, StallCause.TOKEN_WAIT,
    StallCause.CREDIT_WAIT, StallCause.DRAM_LATENCY,
    StallCause.DRAM_BANDWIDTH, StallCause.IDLE,
)


@dataclass
class AttributionReport:
    """Per-unit / per-controller / chip-wide stall accounting."""

    cycles: int
    #: unit -> cause -> cycles (sums to ``cycles`` for every unit)
    per_unit: Dict[str, Dict[StallCause, int]]
    #: unit -> "pcu" | "ag"
    unit_kind: Dict[str, str]
    #: unit -> controller names from the root down to its parent
    unit_path: Dict[str, Tuple[str, ...]]
    #: controller -> cause -> cycles summed over its subtree units
    per_controller: Dict[str, Dict[StallCause, int]] = \
        field(default_factory=dict)

    def __post_init__(self):
        if not self.per_controller:
            for unit, counts in self.per_unit.items():
                for ctrl in self.unit_path.get(unit, ()):
                    rollup = self.per_controller.setdefault(ctrl, {})
                    for cause, n in counts.items():
                        rollup[cause] = rollup.get(cause, 0) + n

    # -- invariants ----------------------------------------------------------------
    def reconcile(self) -> None:
        """Every unit's causes must sum exactly to the run's cycles."""
        for unit, counts in self.per_unit.items():
            total = sum(counts.values())
            if total != self.cycles:
                raise SimulationError(
                    f"stall attribution does not reconcile for "
                    f"{unit!r}: {total} attributed cycles vs "
                    f"{self.cycles} simulated")

    # -- aggregates ----------------------------------------------------------------
    def totals(self) -> Dict[StallCause, int]:
        """Chip-wide cause histogram (unit-cycles)."""
        out: Dict[StallCause, int] = {}
        for counts in self.per_unit.values():
            for cause, n in counts.items():
                out[cause] = out.get(cause, 0) + n
        return out

    def unit_cycles(self) -> int:
        """Total unit-cycles accounted (units x cycles)."""
        return self.cycles * len(self.per_unit)

    def active_cycles(self) -> int:
        """Unit-cycles spent inside an activation (everything but
        IDLE)."""
        totals = self.totals()
        return sum(n for cause, n in totals.items()
                   if cause is not StallCause.IDLE)

    def control_cycles(self) -> int:
        """Unit-cycles lost to the control protocol (token + credit)."""
        totals = self.totals()
        return sum(totals.get(cause, 0) for cause in CONTROL_CAUSES)

    def control_overhead(self) -> float:
        """Control-protocol overhead: fraction of non-idle unit-cycles
        spent waiting on tokens or credits."""
        active = self.active_cycles()
        return self.control_cycles() / active if active else 0.0

    # -- machine-readable export ------------------------------------------------------
    def breakdown(self) -> Dict:
        """JSON-able dict consumed by the evaluation harnesses."""
        return {
            "cycles": self.cycles,
            "units": {
                unit: {str(cause): n for cause, n in counts.items()}
                for unit, counts in self.per_unit.items()},
            "controllers": {
                ctrl: {str(cause): n for cause, n in counts.items()}
                for ctrl, counts in self.per_controller.items()},
            "totals": {str(cause): n
                       for cause, n in self.totals().items()},
            "control_overhead": self.control_overhead(),
        }

    # -- rendering -----------------------------------------------------------------
    def render(self) -> str:
        """Fixed-width per-unit stall breakdown table."""
        from repro.eval.report import format_table
        headers = ["unit", "kind"] + [str(c) for c in CAUSE_ORDER]
        rows = []
        for unit in sorted(self.per_unit):
            counts = self.per_unit[unit]
            rows.append([unit, self.unit_kind.get(unit, "?")]
                        + [counts.get(c, 0) for c in CAUSE_ORDER])
        totals = self.totals()
        rows.append(["TOTAL", ""]
                    + [totals.get(c, 0) for c in CAUSE_ORDER])
        title = (f"Stall attribution over {self.cycles} cycles "
                 f"(control overhead "
                 f"{100 * self.control_overhead():.1f}%)")
        return format_table(headers, rows, title=title)


def build_report(tracer: RingTracer, stats) -> AttributionReport:
    """Assemble (and reconcile) the report for one finished run."""
    if not tracer.enabled:
        raise SimulationError(
            "cannot build an attribution report from a disabled tracer")
    report = AttributionReport(
        cycles=stats.cycles,
        per_unit={u: dict(c) for u, c in tracer.counts.items()},
        unit_kind={u: kind for u, (kind, _) in tracer.units.items()},
        unit_path={u: path for u, (_, path) in tracer.units.items()},
    )
    report.reconcile()
    return report
