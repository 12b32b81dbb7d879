"""The tenancy packer: disjoint-region placement of several artifacts.

Each distinct app is lowered once per call
(:func:`~repro.compiler.artifact.lower_program`) and mapped per region
(:func:`~repro.compiler.artifact.freeze_lowered`): lowering never reads
the grid, so every co-resident copy and every retry maps the one
lowered program, and each artifact is byte-identical to a full compile
into the same region.  Packing is two-phase:

1. *Plan* — each app's exact unit footprint is its partition counts
   (:func:`~repro.compiler.driver.unit_demand`: the PCUs and PMUs any
   mapping of it places, read without placing).  Regions are then
   chosen by first-fit-decreasing over footprint area: apps are
   considered largest first, and each takes the first (smallest-area
   shape, row-major anchor) rectangle whose PCU/PMU site capacity
   covers its footprint and which does not overlap any region already
   claimed.  Pricing a candidate is O(1) (``region_capacity`` reads a
   summed-area table), so a plan costs its overlap tests, not the grid.
   Area is the only ordering key: every tenant's DRAM slice stripes
   over all channels wherever its region sits, so placement cannot
   change DRAM contention.
2. *Commit* — each app's lowered program is mapped into its planned
   region.  Placement can still fail inside a capacity-feasible region
   (routing detours consume no sites but fragmentation can defeat the
   nearest-site heuristic), so a failed commit retries the plan with
   that app's capacity requirement inflated, growing its region.

The result carries a :class:`PackReport` feasibility report: per-tenant
regions, footprints and capacities plus fabric-level occupancy — or,
when the fleet cannot fit, which app failed and why.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import DEFAULT, PlasticineParams
from repro.bitstream.artifact import Bitstream, CompileOptions
from repro.compiler.driver import unit_demand
from repro.compiler.place_route import Region, region_capacity
from repro.errors import MappingError

#: commit retries per app before the packing is declared infeasible
_MAX_RETRIES = 4

#: the site kind a placement failure names ("no free PCU site ...")
_FAILED_KIND = re.compile(r"no free (PCU|PMU) site")


@dataclass
class Footprint:
    """Exact unit demand of one app: its partition counts."""

    app: str
    pcus: int
    pmus: int

    @property
    def area(self) -> int:
        return self.pcus + self.pmus


@dataclass
class PackedTenant:
    """One app bound to a region, with its committed artifact."""

    app: str
    region: Region
    footprint: Footprint
    capacity: Tuple[int, int]
    artifact: Optional[Bitstream] = None


@dataclass
class PackReport:
    """Feasibility report for one packing attempt."""

    feasible: bool
    tenants: List[PackedTenant] = field(default_factory=list)
    #: grid sites claimed by regions / total grid sites
    sites_used: int = 0
    sites_total: int = 0
    #: populated when infeasible: which app failed, and why
    failed_app: Optional[str] = None
    reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "tenants": [
                {"app": t.app, "region": list(t.region.as_tuple()),
                 "pcus": t.footprint.pcus, "pmus": t.footprint.pmus,
                 "capacity": list(t.capacity)}
                for t in self.tenants],
            "sites_used": self.sites_used,
            "sites_total": self.sites_total,
            "failed_app": self.failed_app,
            "reason": self.reason,
        }


#: (grid_cols, grid_rows) -> sorted shape list; shapes depend only on
#: the grid, and _first_fit re-enumerates them for every candidate, so
#: memoizing saves an O(cols*rows*log) sort per fit attempt
_SHAPES_CACHE: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}


def _shapes(params: PlasticineParams) -> List[Tuple[int, int]]:
    """All region shapes, smallest area first (ties: squarer first)."""
    key = (params.grid_cols, params.grid_rows)
    cached = _SHAPES_CACHE.get(key)
    if cached is not None:
        return cached
    shapes = [(cols, rows)
              for cols in range(1, params.grid_cols + 1)
              for rows in range(1, params.grid_rows + 1)]
    shapes.sort(key=lambda s: (s[0] * s[1], abs(s[0] - s[1]), s))
    _SHAPES_CACHE[key] = shapes
    return shapes


def _first_fit(params: PlasticineParams, need_pcus: int, need_pmus: int,
               taken: Sequence[Region]) -> Optional[PackedTenant]:
    """Smallest capacity-feasible free rectangle, row-major anchors.

    A rectangle's capacity is ``(pcus, area - pcus)``, so one whose
    area is below ``need_pcus + need_pmus`` can never fit: those shapes
    are not priced."""
    need = need_pcus + need_pmus
    for cols, rows in _shapes(params):
        if cols * rows < need:
            continue
        for row0 in range(params.grid_rows - rows + 1):
            for col0 in range(params.grid_cols - cols + 1):
                region = Region(col0, row0, cols, rows)
                if any(region.overlaps(t) for t in taken):
                    continue
                cap = region_capacity(params, region)
                if cap[0] >= need_pcus and cap[1] >= need_pmus:
                    return PackedTenant("?", region,
                                        Footprint("?", need_pcus,
                                                  need_pmus), cap)
    return None


def plan_regions(footprints: Sequence[Footprint],
                 params: PlasticineParams = DEFAULT,
                 slack: Optional[Dict[str, Tuple[int, int]]] = None
                 ) -> PackReport:
    """First-fit-decreasing region plan for a list of footprints.

    ``slack`` maps app name -> extra ``(pcus, pmus)`` to demand beyond
    the measured footprint (the commit phase uses it to grow — along
    the failing resource only — a region whose exact-capacity
    placement failed).  Order within the returned report follows the
    *input* order, so tenant ids are stable regardless of the packing
    order.
    """
    slack = slack or {}
    order = sorted(footprints, key=lambda f: f.area, reverse=True)
    taken: List[Region] = []
    placed: Dict[str, PackedTenant] = {}
    total = params.grid_cols * params.grid_rows
    for fp in order:
        extra_pcus, extra_pmus = slack.get(fp.app, (0, 0))
        fit = _first_fit(params, fp.pcus + extra_pcus,
                         fp.pmus + extra_pmus, taken)
        if fit is None:
            return PackReport(
                feasible=False, tenants=list(placed.values()),
                sites_used=sum(r.area for r in taken), sites_total=total,
                failed_app=fp.app,
                reason=(f"no free rectangle provides "
                        f"{fp.pcus + extra_pcus} PCUs + "
                        f"{fp.pmus + extra_pmus} PMUs alongside "
                        f"{[str(r) for r in taken]}"))
        fit.app = fp.app
        fit.footprint = fp
        taken.append(fit.region)
        placed[fp.app] = fit
    tenants = [placed[fp.app] for fp in footprints]
    return PackReport(feasible=True, tenants=tenants,
                      sites_used=sum(r.area for r in taken),
                      sites_total=total)


def _grow_slack(slack: Dict[str, Tuple[int, int]], app: str,
                message: str) -> None:
    """Inflate one app's demanded capacity along the failing resource.

    Placement failures name the exhausted site kind ("no free PCU
    site ..."); only that resource grows.  A failure that names no
    kind (e.g. routing congestion) grows both, since either could
    relieve it.
    """
    pcus, pmus = slack.get(app, (0, 0))
    match = _FAILED_KIND.search(message)
    if match is None:
        slack[app] = (pcus + 2, pmus + 2)
    elif match.group(1) == "PCU":
        slack[app] = (pcus + 2, pmus)
    else:
        slack[app] = (pcus, pmus + 2)


def pack_apps(apps: Sequence[str], scale: str = "tiny",
              params: PlasticineParams = DEFAULT,
              options: Optional[CompileOptions] = None) -> PackReport:
    """Plan and commit a packing: region-compiled artifacts for all apps.

    Duplicate app names are allowed (the same workload co-resident with
    itself); each occurrence gets its own tenant and region, and all
    of them share one lowered program and its footprint.  An app that
    cannot be mapped, or overflows the whole fabric, is a
    :class:`~repro.errors.MappingError`.
    """
    from repro.apps.registry import get_app
    from repro.compiler.artifact import freeze_lowered, lower_program
    names = _unique_names(apps)
    options = options or CompileOptions()
    lowered = {app: lower_program(get_app(app).build(scale), options)
               for app in dict.fromkeys(apps)}
    measured = {app: unit_demand(dhdl, params, options.pmu_fraction)
                for app, dhdl in lowered.items()}
    footprints = [Footprint(name, *measured[app])
                  for name, app in zip(names, apps)]
    slack: Dict[str, Tuple[int, int]] = {}
    report = None
    for _ in range(_MAX_RETRIES):
        report = plan_regions(footprints, params, slack)
        if not report.feasible:
            return report
        failed = None
        for tenant, app in zip(report.tenants, apps):
            try:
                tenant.artifact = freeze_lowered(
                    lowered[app], app, scale, params=params,
                    options=options, region=tenant.region)
            except MappingError as err:
                failed = (tenant.app, str(err))
                break
        if failed is None:
            return report
        # grow the offender's demanded capacity along the failing
        # resource and replan
        _grow_slack(slack, failed[0], failed[1])
        report.feasible = False
        report.failed_app, report.reason = failed
    return report


def repack(report: PackReport, failed_region: Region,
           apps: Sequence[str], scale: str = "tiny",
           params: PlasticineParams = DEFAULT,
           options: Optional[CompileOptions] = None) -> PackReport:
    """Migrate tenants out of a failed region and recommit them.

    ``failed_region`` marks hardware declared broken (e.g. from a
    :class:`~repro.errors.FaultError`'s unit sites).  Tenants whose
    regions do not touch it keep their committed artifacts untouched;
    each overlapping tenant is re-placed into a fresh rectangle that
    avoids both the failed region and every healthy tenant, and its
    committed artifact's lowered program is mapped there (same
    grow-and-retry loop as :func:`pack_apps`; nothing is traced or
    lowered).  The result is a fresh :class:`PackReport` in the original
    tenant order, ready to replay through
    :func:`repro.tenancy.run.co_run`.
    """
    from repro.compiler.artifact import freeze_lowered
    failed_region = failed_region.validate(params)
    if not report.feasible:
        raise MappingError(
            "cannot repack an infeasible packing "
            f"(failed app: {report.failed_app})")
    if len(report.tenants) != len(apps):
        raise MappingError(
            f"repack needs the packing's app list: {len(apps)} apps "
            f"for {len(report.tenants)} tenants")
    total = params.grid_cols * params.grid_rows
    keep = [t for t in report.tenants
            if not t.region.overlaps(failed_region)]
    movers = [(t, app) for t, app in zip(report.tenants, apps)
              if t.region.overlaps(failed_region)]
    if not movers:
        return report
    taken = [t.region for t in keep] + [failed_region]
    migrated: Dict[int, PackedTenant] = {}

    def _failure(failed_fp: Footprint, reason: str) -> PackReport:
        """Infeasible report in the *original* tenant order.

        Movers migrated before the failure keep their freshly
        committed placements; movers never re-placed are reported with
        their stale (failed-region) rectangles but with artifacts
        cleared — those bitstreams target broken hardware and must not
        be replayed.  The caller's feasible report is never mutated.
        """
        by_old = {id(t): migrated[i]
                  for i, (t, _) in enumerate(movers) if i in migrated}
        unmigrated = {id(t) for i, (t, _) in enumerate(movers)
                      if i not in migrated}
        tenants = []
        for tenant in report.tenants:
            if id(tenant) in by_old:
                tenants.append(by_old[id(tenant)])
            elif id(tenant) in unmigrated:
                tenants.append(replace(tenant, artifact=None))
            else:
                tenants.append(tenant)
        return PackReport(
            feasible=False, tenants=tenants,
            sites_used=sum(r.area for r in taken
                           if r is not failed_region),
            sites_total=total, failed_app=failed_fp.app,
            reason=reason)

    # largest movers first: hardest to place, same FFD discipline
    order = sorted(range(len(movers)),
                   key=lambda i: movers[i][0].footprint.area,
                   reverse=True)
    for index in order:
        tenant, app = movers[index]
        fp = tenant.footprint
        slack = (0, 0)
        placed = None
        for _ in range(_MAX_RETRIES):
            fit = _first_fit(params, fp.pcus + slack[0],
                             fp.pmus + slack[1], taken)
            if fit is None:
                return _failure(
                    fp,
                    f"no free rectangle left for {fp.app} "
                    f"({fp.pcus} PCUs + {fp.pmus} PMUs) after "
                    f"excluding failed region {failed_region}")
            try:
                artifact = freeze_lowered(
                    tenant.artifact.dhdl, app, scale, params=params,
                    options=options, region=fit.region)
            except MappingError as err:
                grown = {fp.app: slack}
                _grow_slack(grown, fp.app, str(err))
                slack = grown[fp.app]
                continue
            placed = PackedTenant(fp.app, fit.region, fp,
                                  fit.capacity, artifact)
            break
        if placed is None:
            return _failure(
                fp,
                f"could not commit {fp.app} into any fresh "
                f"rectangle after {_MAX_RETRIES} retries")
        taken.append(placed.region)
        migrated[index] = placed
    by_old = {id(t): migrated[i]
              for i, (t, _) in enumerate(movers) if i in migrated}
    tenants = [by_old.get(id(t), t) for t in report.tenants]
    return PackReport(
        feasible=True, tenants=tenants,
        sites_used=sum(t.region.area for t in tenants),
        sites_total=total)


def _unique_names(apps: Sequence[str]) -> List[str]:
    """Stable unique tenant names for possibly-repeated app names."""
    seen: Dict[str, int] = {}
    names = []
    for app in apps:
        count = seen.get(app, 0)
        names.append(app if count == 0 else f"{app}#{count}")
        seen[app] = count + 1
    return names
