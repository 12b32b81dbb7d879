"""Table 7 regeneration: Plasticine vs FPGA across all 13 benchmarks.

For every benchmark:

1. compile and cycle-simulate the scaled dataset — validating the result
   against the reference executor and measuring resource utilization and
   unit activity;
2. extrapolate the Plasticine runtime to the Table 4 dataset with the
   analytical model (:mod:`repro.perf`);
3. estimate the FPGA baseline runtime and power
   (:mod:`repro.arch.fpga`);
4. report utilization, powers, performance ratio and perf/W ratio next
   to the paper's published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps import ALL_APPS, App
from repro.arch.fpga import fpga_power_w, fpga_runtime_s
from repro.arch.power import chip_power
from repro.compiler.artifact import compile_to_bitstream
from repro.eval.paper_data import TABLE7, TABLE7_UTIL
from repro.eval.report import format_table
from repro.perf import plasticine_runtime_s


@dataclass
class Table7Row:
    """One benchmark's measurements."""

    name: str
    util_pcu: float = 0.0
    util_pmu: float = 0.0
    util_ag: float = 0.0
    util_fu: float = 0.0
    fpga_power_w: float = 0.0
    plasticine_power_w: float = 0.0
    plasticine_s: float = 0.0
    fpga_s: float = 0.0
    sim_cycles: int = 0
    paper_perf: Optional[float] = None
    paper_perf_w: Optional[float] = None

    @property
    def perf_ratio(self) -> float:
        """FPGA time / Plasticine time (higher = Plasticine faster)."""
        return self.fpga_s / self.plasticine_s if self.plasticine_s else 0

    @property
    def perf_per_watt_ratio(self) -> float:
        """Perf/W ratio of Plasticine over the FPGA."""
        if not self.plasticine_s or not self.plasticine_power_w:
            return 0.0
        plas = 1.0 / (self.plasticine_s * self.plasticine_power_w)
        fpga = 1.0 / (self.fpga_s * self.fpga_power_w)
        return plas / fpga


def evaluate_app(app: App, scale: str = "small",
                 validate: bool = True) -> Table7Row:
    """Measure one benchmark end to end."""
    artifact = compile_to_bitstream(app.name, scale)
    config = artifact.config
    machine = artifact.machine()
    stats = machine.run()
    if validate:
        expected = app.expected(app.build(scale))
        results = {name: machine.result(name) for name in expected}
        app.check(artifact.dhdl, results, expected)

    util = config.utilization()
    activity = stats.activity(config, config.params)
    profile = app.paper_profile()

    # project the scaled-down mapping to the paper-sized one: the paper
    # unrolls outer loops by the benchmark's parallelization factor,
    # which duplicates inner controllers (and their memories/AGs)
    from dataclasses import replace as _replace
    params = config.params
    factor = max(1, profile.outer_parallelism)
    # activities are floored at steady-state levels: the paper's runs
    # keep their (unrolled) units saturated for the bulk of execution,
    # while our scaled datasets spend a larger fraction in fill/drain
    projected = _replace(
        activity,
        pcus_used=min(params.num_pcus, activity.pcus_used * factor),
        pcu_activity=min(1.0, max(activity.pcu_activity * 1.5, 0.55)),
        pmus_used=min(params.num_pmus, activity.pmus_used * factor),
        pmu_activity=min(1.0, max(activity.pmu_activity * 1.5, 0.5)),
        ags_used=min(params.num_ags, max(activity.ags_used,
                                         activity.ags_used * factor // 2)),
        ag_activity=min(1.0, max(activity.ag_activity, 0.5)),
        switches_used=min((params.grid_cols + 1) * (params.grid_rows + 1),
                          activity.switches_used * factor),
        switch_activity=min(1.0, max(activity.switch_activity, 0.4)),
    )
    power = chip_power(projected, params)
    plasticine_s = plasticine_runtime_s(profile)
    fpga_s = fpga_runtime_s(profile)
    fpga_w = fpga_power_w(profile)

    paper = TABLE7.get(app.name)
    row = Table7Row(
        name=app.name,
        util_pcu=util["pcu"], util_pmu=util["pmu"], util_ag=util["ag"],
        util_fu=util["fu"],
        fpga_power_w=fpga_w,
        plasticine_power_w=power,
        plasticine_s=plasticine_s,
        fpga_s=fpga_s,
        sim_cycles=stats.cycles,
        paper_perf=paper[2] if paper else None,
        paper_perf_w=paper[3] if paper else None,
    )
    return row


def generate(scale: str = "small", apps: Optional[List[App]] = None,
             validate: bool = True) -> List[Table7Row]:
    """Regenerate the full Table 7, one row per app in registry order."""
    return [evaluate_app(app, scale=scale, validate=validate)
            for app in (apps or ALL_APPS)]


def render(rows: List[Table7Row]) -> str:
    """Format the table like the paper's, with paper values inline."""
    headers = ["Benchmark", "PCU%", "PMU%", "AG%", "FU%",
               "FPGA W", "Plas W", "Perf", "Perf(paper)",
               "Perf/W", "Perf/W(paper)"]
    body = []
    for row in rows:
        body.append([
            row.name,
            f"{100 * row.util_pcu:.1f}", f"{100 * row.util_pmu:.1f}",
            f"{100 * row.util_ag:.1f}", f"{100 * row.util_fu:.1f}",
            f"{row.fpga_power_w:.1f}",
            f"{row.plasticine_power_w:.1f}",
            f"{row.perf_ratio:.1f}",
            f"{row.paper_perf:.1f}" if row.paper_perf else "-",
            f"{row.perf_per_watt_ratio:.1f}",
            f"{row.paper_perf_w:.1f}" if row.paper_perf_w else "-",
        ])
    return format_table(headers, body,
                        title="Table 7: Plasticine vs FPGA")
