"""Multi-tenancy benchmark: ``repro bench --multi``.

Quantifies what co-residency buys and costs, entirely in *simulated
cycles* (deterministic, so the CI gate is noise-free):

* each app runs solo (classic ``Machine.run``) for its baseline cycle
  count, and is also run as a lone tenant on a Fabric to assert the
  solo-equivalence invariant (bit-identical ``SimStats``);
* the whole set then runs co-resident on one shared fabric;
* ``aggregate_speedup`` = sum of solo cycles / fabric makespan — the
  throughput gain of sharing the chip instead of time-multiplexing it;
* per-tenant slowdowns and per-channel utilization expose the DRAM
  interference the sharing introduces.

The committed ``benchmarks/multi_baseline.json`` and
``qos_baseline.json`` gate fresh reports through
:mod:`repro.eval.gate`: exact cycle counts (the model's answer must not
drift silently), the speedup floors, and the invariants the reports
carry (``equivalence_failures``, ``validated``, ``priority_helped``).
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro.eval import gate
from repro.eval.bench import git_rev

#: report format version
MULTI_FORMAT = 1

#: QoS report format version
QOS_FORMAT = 1

#: default co-resident pair: compute-light, DRAM-hungry streaming apps
#: whose footprints trivially fit side by side at every scale
DEFAULT_PAIR = ("gemm", "tpchq6")

#: QoS benchmark workload: one latency-sensitive tenant leading, then
#: memory-bound riders that contend for the shared DRAM channels
QOS_APPS = ("gemm", "tpchq6", "tpchq6", "tpchq6")
QOS_PRIORITIES = (8, 1, 1, 1)


def run_multi_benchmark(apps: Sequence[str] = DEFAULT_PAIR,
                        scale: str = "tiny") -> dict:
    """Solo vs co-resident comparison for one set of apps."""
    from repro.compiler.artifact import compile_to_bitstream
    from repro.sim.fabric import Fabric
    from repro.sim.machine import Machine
    from repro.tenancy import co_run

    solo_stats = {}
    equivalence: List[str] = []
    for i, app in enumerate(apps):
        if app in solo_stats:
            continue
        artifact = compile_to_bitstream(app, scale)
        machine = Machine(artifact.dhdl, artifact.config)
        solo_stats[app] = machine.run()
        lone = Fabric()
        tenant = lone.add_tenant(artifact.dhdl, artifact.config,
                                 name=app)
        lone.run()
        if not tenant.machine.stats.same_as(solo_stats[app]):
            equivalence.append(
                f"{app}: lone-tenant fabric stats diverge from solo "
                f"Machine.run")

    co = co_run(list(apps), scale=scale, validate=True)
    sequential_cycles = sum(solo_stats[t.app].cycles
                            for t in co.tenants)
    fabric_cycles = co.fabric_cycles
    rows = []
    for tenant in co.tenants:
        solo = solo_stats[tenant.app]
        rows.append({
            "app": tenant.app,
            "name": tenant.name,
            "region": list(tenant.region) if tenant.region else None,
            "solo_cycles": solo.cycles,
            "co_cycles": tenant.stats.cycles,
            "slowdown": round(tenant.stats.cycles / solo.cycles, 4)
            if solo.cycles else 0.0,
            "dram_stall_cycles": tenant.stats.dram_stall_cycles,
            "solo_dram_stall_cycles": solo.dram_stall_cycles,
            "dram_bytes": tenant.stats.dram.get("bytes", 0),
            "channel_util": tenant.channel_util,
            "validated": tenant.validated,
        })
    return {
        "format": MULTI_FORMAT,
        "rev": git_rev(),
        "scale": scale,
        "apps": list(apps),
        "tenants": rows,
        "sequential_cycles": sequential_cycles,
        "fabric_cycles": fabric_cycles,
        "aggregate_speedup": round(sequential_cycles / fabric_cycles, 4)
        if fabric_cycles else 0.0,
        "channel_util": co.channel_util,
        "pack_report": co.pack_report,
        "equivalence_failures": equivalence,
    }


def render_multi(report: dict) -> str:
    """Human-readable multi benchmark summary."""
    lines = [
        f"multi-tenant fabric — {'+'.join(report['apps'])} "
        f"({report['scale']}), rev={report['rev']}",
        f"  {'tenant':14s} {'region':>10s} {'solo':>8s} {'co':>8s} "
        f"{'slowdown':>9s} {'dram stalls':>12s}",
    ]
    for row in report["tenants"]:
        if row["region"]:
            col0, row0, cols, rows_ = row["region"]
            region = f"{cols}x{rows_}@({col0},{row0})"
        else:
            region = "full"
        lines.append(
            f"  {row['name']:14s} {region:>10s} {row['solo_cycles']:8d} "
            f"{row['co_cycles']:8d} {row['slowdown']:8.3f}x "
            f"{row['solo_dram_stall_cycles']:5d} -> "
            f"{row['dram_stall_cycles']:d}")
    lines.append(
        f"  sequential {report['sequential_cycles']} cycles vs "
        f"co-resident {report['fabric_cycles']} cycles  ->  aggregate "
        f"speedup {report['aggregate_speedup']:.3f}x")
    util = ", ".join(f"{ch}={v['util'] * 100:.1f}%"
                     for ch, v in sorted(report["channel_util"].items()))
    lines.append(f"  shared channel utilization: {util}")
    if report["equivalence_failures"]:
        lines.append(
            f"  EQUIVALENCE FAILURES: {report['equivalence_failures']}")
    else:
        lines.append("  solo-equivalence: every app bit-identical as a "
                     "lone tenant")
    return "\n".join(lines)


def run_qos_benchmark(apps: Sequence[str] = QOS_APPS,
                      priorities: Sequence[int] = QOS_PRIORITIES,
                      scale: str = "tiny") -> dict:
    """Weighted vs unweighted DRAM arbitration for one QoS workload.

    Runs the same co-resident set twice — plain FR-FCFS, then with the
    given per-tenant weights — and reports the high-priority tenant's
    completion latency under both.  Both runs are deterministic, so the
    gate pins exact cycle counts; the point of the benchmark is that
    the weighted run finishes the high-priority tenant measurably
    earlier while total makespan stays sane.
    """
    from repro.tenancy import co_run

    if len(priorities) != len(apps):
        raise ValueError(f"{len(priorities)} priorities for "
                         f"{len(apps)} apps")
    base = co_run(list(apps), scale=scale, validate=True)
    weighted = co_run(list(apps), scale=scale, validate=True,
                      priorities=list(priorities))
    hi = max(range(len(priorities)), key=lambda k: priorities[k])
    hi_base, hi_weighted = base.tenants[hi], weighted.tenants[hi]
    speedup = (hi_base.finish_cycle / hi_weighted.finish_cycle
               if hi_weighted.finish_cycle else 0.0)
    return {
        "format": QOS_FORMAT,
        "rev": git_rev(),
        "scale": scale,
        "apps": list(apps),
        "priorities": list(priorities),
        "hi_tenant": hi_weighted.name,
        "unweighted_hi_cycles": hi_base.finish_cycle,
        "weighted_hi_cycles": hi_weighted.finish_cycle,
        "hi_speedup": round(speedup, 4),
        # pinned true by the baseline: a zero floor must not let
        # "priority buys nothing" through
        "priority_helped":
            hi_weighted.finish_cycle < hi_base.finish_cycle,
        "unweighted_fabric_cycles": base.fabric_cycles,
        "weighted_fabric_cycles": weighted.fabric_cycles,
        "qos": weighted.qos,
        "validated": all(t.validated for t in base.tenants)
        and all(t.validated for t in weighted.tenants),
    }


def render_qos(report: dict) -> str:
    """Human-readable QoS benchmark summary."""
    pairs = ", ".join(f"{a}:{p}" for a, p in zip(report["apps"],
                                                 report["priorities"]))
    lines = [
        f"qos arbitration — {pairs} ({report['scale']}), "
        f"rev={report['rev']}",
        f"  high-priority tenant {report['hi_tenant']}: finish cycle "
        f"{report['unweighted_hi_cycles']} unweighted -> "
        f"{report['weighted_hi_cycles']} weighted "
        f"({report['hi_speedup']:.3f}x faster completion)",
        f"  fabric makespan: {report['unweighted_fabric_cycles']} "
        f"unweighted -> {report['weighted_fabric_cycles']} weighted",
    ]
    qos = report.get("qos") or {}
    for name, entry in sorted((qos.get("tenants") or {}).items()):
        lines.append(
            f"    {name}: weight {entry['priority']}, won "
            f"{entry['arb_won']} / deferred {entry['arb_deferred']} "
            f"contended grants")
    return "\n".join(lines)


def cmd_bench_multi(args) -> int:
    """The ``repro bench --multi`` path (wired from ``cmd_bench``)."""
    baseline = gate.load(args.baseline)
    qos_baseline = gate.load(args.qos_baseline)
    scale = "tiny" if args.quick else args.scale
    report = run_multi_benchmark(apps=args.apps or list(DEFAULT_PAIR),
                                 scale=scale)
    print(render_multi(report))
    path = os.path.join(args.out, f"MULTI_{report['rev']}.json")
    status = gate.finish(report, path, baseline,
                         {"equivalence_failures": []})
    if status or qos_baseline is None:
        return status
    qos_report = run_qos_benchmark(scale=scale)
    print()
    print(render_qos(qos_report))
    path = os.path.join(args.out, f"QOS_{qos_report['rev']}.json")
    return gate.finish(qos_report, path, qos_baseline)
