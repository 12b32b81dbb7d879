"""Figure 7 regeneration: PCU parameter sweeps.

For each candidate value of one PCU parameter, each benchmark's inner
controllers are re-partitioned with that constraint; the resulting
physical-PCU count times per-PCU area gives ``AreaPCU``.  The reported
overhead is ``AreaPCU / MinPCU - 1`` where ``MinPCU`` is the benchmark's
minimum over the sweep, exactly as the paper defines it.  Infeasible
values (the paper's X marks) come out as ``None``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.apps import ALL_APPS, App
from repro.arch.area import pcu_area
from repro.arch.params import DEFAULT, PcuParams
from repro.compiler.artifact import compile_to_bitstream, lower_program
from repro.compiler.partition import feasible, partition_pcu
from repro.compiler.scheduling import schedule
from repro.dhdl.ir import InnerCompute
from repro.eval.report import format_table

#: the sweeps shown in Figure 7 (subfigure -> parameter and range)
SWEEPS = {
    "a_stages": ("stages", tuple(range(4, 17))),
    "b_registers": ("regs_per_stage", tuple(range(2, 17, 2))),
    "c_scalar_in": ("scalar_in", (1, 2, 4, 6, 8, 10)),
    "d_scalar_out": ("scalar_out", (1, 2, 3, 4, 5, 6)),
    "e_vector_in": ("vector_in", (2, 3, 4, 6, 8, 10)),
    "f_vector_out": ("vector_out", (1, 2, 3, 4, 5, 6)),
}


def area_for(schedules, pcu: PcuParams) -> Optional[float]:
    """Total PCU area for one benchmark at one candidate shape."""
    total = 0.0
    for sched in schedules:
        if not feasible(sched, pcu):
            return None
        part = partition_pcu(sched, pcu)
        total += part.num_pcus * pcu_area(pcu)
    return total


def sweep(param: str, values: Sequence[int],
          apps: Optional[List[App]] = None,
          scale: str = "tiny"
          ) -> Dict[str, Dict[int, Optional[float]]]:
    """Overhead curves for one parameter across benchmarks.

    Returns ``{app: {value: overhead or None-if-infeasible}}``.
    """
    apps = apps or [a for a in ALL_APPS if a.name != "cnn"]
    curves: Dict[str, Dict[int, Optional[float]]] = {}
    for app in apps:
        dhdl = lower_program(app.build(scale))
        schedules = [schedule(leaf) for leaf in dhdl.leaves()
                     if isinstance(leaf, InnerCompute)
                     and not leaf.address_class]
        areas = {value: area_for(schedules,
                                 replace(DEFAULT.pcu, **{param: value}))
                 for value in values}
        floor = min((a for a in areas.values() if a is not None),
                    default=None)
        curves[app.name] = {
            v: None if a is None else a / floor - 1.0
            for v, a in areas.items()}
    return curves


def average_curve(curves: Dict[str, Dict[int, Optional[float]]]
                  ) -> Dict[int, Optional[float]]:
    """Benchmark-average overhead per swept value (feasible apps only)."""
    values = next(iter(curves.values())).keys()
    result = {}
    for value in values:
        samples = [c[value] for c in curves.values()
                   if c[value] is not None]
        result[value] = sum(samples) / len(samples) if samples else None
    return result


def best_value(curves) -> int:
    """The swept value minimising the average overhead."""
    avg = average_curve(curves)
    feasible_vals = {v: o for v, o in avg.items() if o is not None}
    return min(feasible_vals, key=feasible_vals.get)


def pmu_sweep(values: Sequence[int] = (4, 8, 16, 32, 64),
              apps: Optional[List[App]] = None) -> Dict[int, Dict]:
    """Section 3.7's PMU sizing study: sweep the bank capacity.

    The paper's criterion: "ideal tile sizes for our benchmarks are at
    most 4000 words per bank. We therefore set the PMU to have 16
    configurable 16KB banks."  A tile that fits a single PMU keeps its
    16-way banked access; one that splits across PMUs pays interconnect
    and loses banking.  For each candidate we report (i) the fraction of
    benchmarks whose dominant paper-scale tile fits one PMU and (ii)
    the stranded-capacity overhead of benchmarks with small tiles.

    The selection rule is the paper's: the smallest bank size with a
    perfect fit fraction.
    """
    apps = apps or [a for a in ALL_APPS if a.name != "cnn"]
    tiles = []
    for app in apps:
        ws = max(1024, int(app.paper_profile().working_set_words))
        tiles.append(min(ws, 16 * 4000))  # <=4000 words per bank
    report: Dict[int, Dict] = {}
    for value in values:
        capacity = 16 * value * 256  # words per PMU
        fits = [t <= capacity for t in tiles]
        stranded = [max(0.0, 1.0 - t / capacity) for t in tiles]
        report[value] = {
            "fit_fraction": sum(fits) / len(fits),
            "avg_stranded": sum(stranded) / len(stranded),
        }
    return report


def select_bank_kb(report: Dict[int, Dict]) -> int:
    """The paper's rule: smallest bank size that fits every tile."""
    for value in sorted(report):
        if report[value]["fit_fraction"] >= 1.0:
            return value
    return max(report)


#: timing parameters the batched simulator can sweep directly: each
#: candidate value becomes one instance of a single compiled design in
#: one ``run_batch`` call (the area sweeps above re-partition
#: instead; these measure *cycles*)
SIM_SWEEPS = {
    "stages": tuple(range(4, 17)),
    "banks": (2, 4, 8, 16),
    "input_hops": (0, 1, 2, 4),
    "output_hops": (0, 1, 2, 4),
    "dram_queue_depth": (2, 4, 8, 16, 32, 64),
}


def sim_sweep(param: str, values: Sequence[int], app: str = "gemm",
              scale: str = "tiny", scheduler: str = "event") -> Dict:
    """Simulated-cycle curve for one timing parameter via run_batch.

    Compiles ``app`` once and simulates every candidate value as one
    batch instance — all values share a single leader's functional log,
    so the sweep costs one full simulation plus cheap replays.
    """
    if param not in SIM_SWEEPS:
        raise ValueError(
            f"cannot sweep {param!r} in the simulator; one of: "
            f"{sorted(SIM_SWEEPS)}")
    from repro.sim.batch import run_batch
    batch = run_batch(compile_to_bitstream(app, scale),
                      [{param: v} for v in values], scheduler=scheduler)
    curve: Dict[int, Optional[int]] = {}
    for value, inst in zip(values, batch):
        curve[value] = inst.stats.cycles if inst.ok else None
    return {"app": app, "scale": scale, "param": param, "curve": curve,
            "cohorts": batch.cohorts, "replayed": batch.replayed}


def render_sim(result: Dict) -> str:
    """ASCII rendering of one simulated sweep."""
    curve = result["curve"]
    values = sorted(curve)
    best = min((c for c in curve.values() if c is not None),
               default=None)
    rows = [[str(v),
             "X" if curve[v] is None else str(curve[v]),
             "" if curve[v] is None or not best
             else f"{curve[v] / best:.2f}x"] for v in values]
    title = (f"simulated sweep: {result['param']} on {result['app']} "
             f"({result['scale']}) — {result['cohorts']} cohort(s), "
             f"{result['replayed']} replayed")
    return format_table([result["param"], "cycles", "vs best"], rows,
                        title=title)


def render(param: str, curves) -> str:
    """ASCII rendering of one subfigure."""
    values = sorted(next(iter(curves.values())).keys())
    headers = ["Benchmark"] + [str(v) for v in values]
    rows = []
    for name, curve in curves.items():
        rows.append([name] + [
            "X" if curve[v] is None else f"{100 * curve[v]:.0f}%"
            for v in values])
    avg = average_curve(curves)
    rows.append(["Average"] + [
        "X" if avg[v] is None else f"{100 * avg[v]:.0f}%"
        for v in values])
    return format_table(headers, rows,
                        title=f"Figure 7 sweep: {param} "
                              f"(normalized area overhead)")
