"""The chaos harness behind ``repro chaos``.

Every scenario draws a seeded random :class:`~repro.faults.plan.FaultPlan`
against one registry app and must terminate in one of four classified
states — never a hang, never silent corruption:

``clean``
    the run completed bit-correct and no injected event fired (the plan
    scheduled everything after the app finished);
``degraded``
    faults fired, the run still completed, and the end-to-end DRAM-image
    checksums match the golden run exactly (timing-only degradation);
``recovered``
    a fault was *detected* — a typed
    :class:`~repro.errors.FaultError` from the liveness watchdog, or an
    end-to-end checksum mismatch — and a recovery action (recompiling
    around the failed sites with ``excluded_sites``, or replaying with
    the transient corruption gone) produced a bit-correct result;
``fault``
    recovery was impossible (e.g. the grid cannot route around the dead
    units) and the scenario ends with the typed, attributed error —
    cycle, unit, sites, kind all populated.

Anything else (an untyped exception, an unattributable mismatch) is an
``error`` and fails the campaign: that is the invariant the harness
enforces.

Every ``--multi-every``-th scenario runs the multi-tenant path instead:
two apps packed on one fabric, a unit failure injected into one tenant,
detection must name the tenant and its region, and recovery migrates
the victim to a fresh rectangle via
:func:`repro.tenancy.packer.repack` and replays through
:func:`repro.tenancy.run.co_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.artifact import compile_to_bitstream, freeze_lowered
from repro.errors import FaultError, MappingError, ReproError
from repro.faults.plan import (TRANSIENT_KINDS, FaultEvent, FaultPlan,
                               random_plan)

#: light registry apps the solo scenarios rotate through
CHAOS_APPS = ("innerproduct", "gemm", "tpchq6", "outerproduct")

#: recovery attempts per scenario before the typed error stands
MAX_RECOVERIES = 3

#: cycles without progress before a dead unit is declared (small: tiny
#: apps finish in a few hundred cycles, so detection stays fast)
WATCHDOG = 2_500

#: hard scenario bound — no chaos run may exceed this many cycles
MAX_CYCLES = 200_000


@dataclass
class _Golden:
    """Memoized no-fault reference for one (app, scale)."""

    artifact: object
    cycles: int
    checksums: Dict[str, int]


_GOLDEN: Dict[Tuple[str, str], _Golden] = {}


def _golden(app: str, scale: str) -> _Golden:
    """The memoized clean run: cycle count + DRAM-image checksums."""
    key = (app, scale)
    if key not in _GOLDEN:
        artifact = compile_to_bitstream(app, scale)
        machine = artifact.machine(watchdog=WATCHDOG,
                                   max_cycles=MAX_CYCLES)
        stats = machine.run()
        _GOLDEN[key] = _Golden(artifact, stats.cycles,
                               machine.image.checksums())
    return _GOLDEN[key]


def _plan_for(golden: _Golden, seed: int) -> FaultPlan:
    """A seeded plan whose events can actually land mid-run."""
    artifact = golden.artifact
    units = tuple(sorted(
        name for name in artifact.config.sites
        if name in artifact.config.leaf_timing))
    arrays = tuple(sorted(
        (ref.name, ref.words()) for ref in artifact.dhdl.drams))
    return random_plan(
        seed, units=units, arrays=arrays,
        channels=artifact.config.params.dram.channels,
        max_cycle=max(2, golden.cycles - 1))


def run_scenario(index: int, seed: int, scale: str = "tiny") -> dict:
    """One solo chaos scenario; always returns a classified record."""
    app = CHAOS_APPS[index % len(CHAOS_APPS)]
    golden = _golden(app, scale)
    plan = _plan_for(golden, seed)
    record = {"scenario": index, "app": app, "seed": seed,
              "plan": plan.describe(), "events": len(plan),
              "outcome": None, "recoveries": [],
              "attribution": None, "cycles": None}
    artifact = golden.artifact
    excluded: List[Tuple[int, int]] = []
    current_plan = plan
    for attempt in range(1 + MAX_RECOVERIES):
        machine = artifact.machine(fault_plan=current_plan,
                                   watchdog=WATCHDOG,
                                   max_cycles=MAX_CYCLES)
        try:
            machine.run()
        except FaultError as err:
            record["attribution"] = err.attribution()
            if (err.kind == "unit_fail" and err.sites
                    and attempt < MAX_RECOVERIES):
                # declare the blamed sites dead, map the lowered
                # program around them, and drop that unit's kill from
                # the replay
                excluded.extend(err.sites)
                try:
                    artifact = freeze_lowered(
                        golden.artifact.dhdl, app, scale,
                        excluded_sites=excluded)
                except MappingError as remap:
                    record["outcome"] = "fault"
                    record["recoveries"].append(
                        f"recompile around {excluded} failed: {remap}")
                    return record
                current_plan = FaultPlan(
                    [e for e in current_plan.events
                     if not (e.kind == "unit_fail"
                             and e.unit == err.unit)],
                    seed=current_plan.seed)
                record["recoveries"].append(
                    f"excluded sites {excluded}, recompiled")
                continue
            record["outcome"] = "fault"
            return record
        except ReproError as err:
            record["outcome"] = "error"
            record["error"] = f"{type(err).__name__}: {err}"
            return record
        sums = machine.image.checksums()
        fired = machine.faults.fired if machine.faults else []
        if sums == golden.checksums:
            if attempt == 0 and not fired:
                record["outcome"] = "clean"
            elif attempt == 0:
                record["outcome"] = "degraded"
            else:
                record["outcome"] = "recovered"
            record["cycles"] = machine.cycle
            return record
        # end-to-end checksum mismatch: corruption detected.  The only
        # data-mutating kind is transient (dram_corrupt), so replaying
        # without it on the (healthy) artifact must be bit-correct.
        transient = [e for e in current_plan.events
                     if e.kind in TRANSIENT_KINDS]
        if transient and attempt < MAX_RECOVERIES:
            bad = sorted(name for name in sums
                         if sums[name] != golden.checksums.get(name))
            record["recoveries"].append(
                f"checksum mismatch in {bad}; replaying without "
                f"{len(transient)} transient event(s)")
            current_plan = current_plan.without(TRANSIENT_KINDS)
            continue
        record["outcome"] = "error"
        record["error"] = ("silent corruption: checksums diverged "
                           "with no transient event to blame")
        return record
    record["outcome"] = "error"
    record["error"] = f"no stable state after {MAX_RECOVERIES} recoveries"
    return record


def run_multi_scenario(index: int, seed: int,
                       scale: str = "tiny") -> dict:
    """A multi-tenant scenario: kill a unit inside one tenant, expect
    tenant-attributed detection, recover by migrating the tenant."""
    from repro.compiler.place_route import Region
    from repro.sim.fabric import Fabric
    from repro.tenancy.packer import pack_apps, repack
    from repro.tenancy.run import co_run
    apps = ["gemm", "tpchq6"]
    record = {"scenario": index, "app": "+".join(apps), "seed": seed,
              "outcome": None, "recoveries": [], "attribution": None,
              "cycles": None, "multi": True}
    report = pack_apps(apps, scale)
    if not report.feasible:
        record["outcome"] = "error"
        record["error"] = f"packing infeasible: {report.reason}"
        return record
    victim_index = seed % len(report.tenants)
    victim = report.tenants[victim_index]
    units = sorted(victim.artifact.config.leaf_timing)
    placed_units = [u for u in units
                    if victim.artifact.config.leaf_timing[u].num_pcus]
    if not placed_units:
        placed_units = units
    plan = FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=placed_units[seed
                                                   % len(placed_units)])])
    record["plan"] = plan.describe()
    record["events"] = len(plan)
    fabric = Fabric(watchdog=WATCHDOG, max_cycles=MAX_CYCLES)
    for i, (tenant, app) in enumerate(zip(report.tenants, apps)):
        fabric.add_tenant(
            tenant.artifact.dhdl, tenant.artifact.config, name=app,
            fault_plan=plan if i == victim_index else None)
    try:
        fabric.run()
    except FaultError as err:
        record["attribution"] = err.attribution()
        if err.region is None or err.tenant is None:
            record["outcome"] = "error"
            record["error"] = ("multi-tenant FaultError lacks tenant/"
                               "region attribution")
            return record
        failed_region = Region(*err.region)
        new_report = repack(report, failed_region, apps, scale)
        if not new_report.feasible:
            record["outcome"] = "fault"
            record["recoveries"].append(
                f"repack out of {failed_region} infeasible: "
                f"{new_report.reason}")
            return record
        record["recoveries"].append(
            f"tenant {err.tenant} migrated out of {failed_region}")
        try:
            result = co_run(apps, scale, packing=new_report,
                            watchdog=WATCHDOG, max_cycles=MAX_CYCLES)
        except ReproError as replay:
            record["outcome"] = "error"
            record["error"] = (f"replay after repack failed: "
                               f"{type(replay).__name__}: {replay}")
            return record
        if all(t.validated for t in result.tenants):
            record["outcome"] = "recovered"
            record["cycles"] = result.fabric_cycles
        else:
            record["outcome"] = "error"
            record["error"] = "replayed tenants failed validation"
        return record
    except ReproError as err:
        record["outcome"] = "error"
        record["error"] = f"{type(err).__name__}: {err}"
        return record
    record["outcome"] = "error"
    record["error"] = ("fabric completed although a tenant unit was "
                       "killed at cycle 5 (fault never detected)")
    return record


@dataclass
class ChaosReport:
    """One campaign's worth of classified scenarios."""

    seed: int
    scale: str
    scenarios: List[dict] = field(default_factory=list)

    #: outcomes that satisfy the chaos invariant
    ACCEPTABLE = ("clean", "degraded", "recovered", "fault")

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for record in self.scenarios:
            tally[record["outcome"]] = tally.get(record["outcome"],
                                                 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        return all(r["outcome"] in self.ACCEPTABLE
                   for r in self.scenarios)

    def failures(self) -> List[dict]:
        return [r for r in self.scenarios
                if r["outcome"] not in self.ACCEPTABLE]

    def as_dict(self) -> dict:
        return {"seed": self.seed, "scale": self.scale,
                "total": len(self.scenarios), "ok": self.ok,
                "counts": self.counts(),
                "scenarios": self.scenarios}

    def render(self) -> str:
        from repro.eval.report import format_table
        counts = self.counts()
        rows = [[outcome, counts.get(outcome, 0),
                 {"clean": "no event fired before completion",
                  "degraded": "faults fired, result bit-correct",
                  "recovered": "detected + recovered, bit-correct",
                  "fault": "typed FaultError, recovery impossible",
                  }.get(outcome, "INVARIANT VIOLATION")]
                for outcome in (*self.ACCEPTABLE,
                                *(k for k in sorted(counts)
                                  if k not in self.ACCEPTABLE))]
        table = format_table(
            ["outcome", "scenarios", "meaning"], rows,
            title=f"repro chaos — seed {self.seed}, "
                  f"{len(self.scenarios)} scenarios")
        lines = [table]
        for bad in self.failures():
            lines.append(f"  FAILED scenario {bad['scenario']} "
                         f"({bad['app']}): {bad.get('error')}")
        return "\n".join(lines)


def run_campaign(seed: int, scenarios: int, scale: str = "tiny",
                 multi_every: int = 10,
                 progress=None) -> ChaosReport:
    """Run ``scenarios`` seeded scenarios; deterministic per seed."""
    report = ChaosReport(seed=seed, scale=scale)
    for index in range(scenarios):
        scenario_seed = seed * 1_000_003 + index
        if multi_every and index and index % multi_every == 0:
            record = run_multi_scenario(index, scenario_seed, scale)
        else:
            record = run_scenario(index, scenario_seed, scale)
        report.scenarios.append(record)
        if progress is not None:
            progress(record)
    return report


def cmd_chaos(args) -> int:
    """``repro chaos`` behind the CLI."""
    import json
    import sys

    def progress(record):
        if args.verbose:
            print(f"  [{record['scenario']:>4}] {record['app']:<14} "
                  f"{record['outcome']:<10} "
                  f"{record.get('plan', '')}", flush=True)

    report = run_campaign(args.seed, args.scenarios, scale=args.scale,
                          multi_every=args.multi_every,
                          progress=progress)
    print(report.render())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    if not report.ok:
        print(f"\n{len(report.failures())} scenario(s) violated the "
              f"chaos invariant", file=sys.stderr)
        return 1
    return 0
