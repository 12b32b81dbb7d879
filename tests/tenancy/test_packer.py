"""Tenancy packer: disjointness properties and feasibility reports.

The core safety property of a packing — for *every* packing the packer
emits — is that any two tenants claim pairwise-disjoint regions, and
that each tenant's committed artifact only uses unit sites inside its
own region, so no two tenants can ever touch the same PCU, PMU or
scratchpad bank.  The property test sweeps seeded random app subsets;
the rest pin down the planner's shape (first-fit-decreasing, stable
tenant order) and the infeasibility report.
"""

import random

import pytest

from repro.apps import ALL_APPS
from repro.arch.params import DEFAULT
from repro.compiler import artifact as compiler_artifact
from repro.compiler.artifact import compile_to_bitstream
from repro.compiler.lowering import Lowerer
from repro.compiler.place_route import Region, region_capacity
from repro.errors import MappingError
from repro.patterns.program import Program
from repro.tenancy import PackReport, pack_apps, plan_regions
from repro.tenancy.packer import Footprint, _first_fit, _shapes
from tests.compiler.test_region_capacity import brute_force_capacity

APP_NAMES = [a.name for a in ALL_APPS]


def _unit_sites(artifact):
    """Every site the artifact's compute leaves and scratchpads hold."""
    return {site for sites in artifact.config.sites.values()
            for site in sites}


# ---------------------------------------------------------------------------
# The disjointness property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_packings_are_pairwise_disjoint(seed):
    rng = random.Random(seed)
    apps = rng.sample(APP_NAMES, rng.randint(2, 4))
    packing = pack_apps(apps, "tiny")
    assert packing.feasible, packing.reason
    assert [t.app for t in packing.tenants] == apps

    regions = [t.region for t in packing.tenants]
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert not a.overlaps(b), f"{a} overlaps {b}"

    # every committed artifact stays inside its region, so the PCU and
    # PMU sites of different tenants are disjoint
    all_sites = []
    for tenant in packing.tenants:
        assert tenant.artifact is not None
        assert tenant.artifact.config.region \
            == tenant.region.as_tuple()
        sites = _unit_sites(tenant.artifact)
        for site in sites:
            assert tenant.region.contains(site), \
                f"{tenant.app} unit at {site} escapes {tenant.region}"
        all_sites.append(sites)
    for i, a in enumerate(all_sites):
        for b in all_sites[i + 1:]:
            assert not (a & b), f"shared unit sites {a & b}"


def test_duplicate_apps_get_distinct_tenants():
    packing = pack_apps(["gemm", "gemm"], "tiny")
    assert packing.feasible, packing.reason
    names = [t.app for t in packing.tenants]
    assert names == ["gemm", "gemm#1"]
    a, b = (t.region for t in packing.tenants)
    assert not a.overlaps(b)


# ---------------------------------------------------------------------------
# Planner shape
# ---------------------------------------------------------------------------


def test_plan_keeps_input_order_but_packs_largest_first():
    small = Footprint("small", 1, 1)
    large = Footprint("large", 20, 20)
    report = plan_regions([small, large])
    assert report.feasible
    assert [t.app for t in report.tenants] == ["small", "large"]
    by_app = {t.app: t for t in report.tenants}
    # FFD: the large app anchors at the origin, the small one fits
    # into remaining space
    assert by_app["large"].region.col0 == 0
    assert by_app["large"].region.row0 == 0
    assert not by_app["small"].region.overlaps(by_app["large"].region)


def test_plan_regions_capacity_covers_footprint():
    fps = [Footprint("a", 5, 7), Footprint("b", 3, 2)]
    report = plan_regions(fps)
    assert report.feasible
    for tenant, fp in zip(report.tenants, fps):
        cap = region_capacity(DEFAULT, tenant.region)
        assert cap == tenant.capacity
        assert cap[0] >= fp.pcus and cap[1] >= fp.pmus
    assert report.sites_used \
        == sum(t.region.area for t in report.tenants)
    assert report.sites_total \
        == DEFAULT.grid_cols * DEFAULT.grid_rows


def test_infeasible_plan_names_the_offender():
    whale = Footprint("whale", 60, 60)
    minnow = Footprint("minnow", 1, 1)
    report = plan_regions([whale, whale, minnow])
    assert not report.feasible
    assert report.failed_app == "whale"
    assert "no free rectangle" in report.reason
    d = report.as_dict()
    assert d["feasible"] is False
    assert d["failed_app"] == "whale"


def test_pack_report_as_dict_is_json_shaped():
    packing = pack_apps(["gemm", "tpchq6"], "tiny")
    d = packing.as_dict()
    assert d["feasible"] is True
    assert len(d["tenants"]) == 2
    for row in d["tenants"]:
        assert isinstance(row["region"], list) and len(row["region"]) == 4
        assert row["pcus"] >= 1 and row["pmus"] >= 1
        assert isinstance(row["capacity"], list)
    assert 0 < d["sites_used"] <= d["sites_total"]
    assert set(d) == {"feasible", "tenants", "sites_used", "sites_total",
                      "failed_app", "reason"}


def test_pack_report_type_exported():
    assert isinstance(pack_apps(["gemm"], "tiny"), PackReport)


def test_region_helpers():
    region = Region(2, 1, 4, 3)
    assert region.area == 12
    assert region.contains((2, 1)) and region.contains((5, 3))
    assert not region.contains((6, 1)) and not region.contains((2, 4))
    assert region.overlaps(Region(5, 3, 2, 2))
    assert not region.overlaps(Region(6, 1, 2, 2))
    cap = region_capacity(DEFAULT, region)
    assert cap[0] + cap[1] == region.area


# ---------------------------------------------------------------------------
# The capacity table and the footprint dedupe change no packing
# ---------------------------------------------------------------------------


def _reference_first_fit(need_pcus, need_pmus, taken):
    """``_first_fit``'s search with every candidate priced site by
    site: the region it must return (or None)."""
    for cols, rows in _shapes(DEFAULT):
        for row0 in range(DEFAULT.grid_rows - rows + 1):
            for col0 in range(DEFAULT.grid_cols - cols + 1):
                region = Region(col0, row0, cols, rows)
                if any(region.overlaps(t) for t in taken):
                    continue
                cap = brute_force_capacity(DEFAULT, region)
                if cap[0] >= need_pcus and cap[1] >= need_pmus:
                    return region, cap
    return None


@pytest.mark.parametrize("seed", range(40))
def test_first_fit_equals_brute_force_reference(seed):
    rng = random.Random(seed)
    taken = []
    for _ in range(rng.randint(0, 4)):
        cols, rows = rng.randint(1, 10), rng.randint(1, 5)
        taken.append(Region(rng.randint(0, DEFAULT.grid_cols - cols),
                            rng.randint(0, DEFAULT.grid_rows - rows),
                            cols, rows))
    need_pcus, need_pmus = rng.randint(0, 40), rng.randint(0, 40)
    fit = _first_fit(DEFAULT, need_pcus, need_pmus, taken)
    expected = _reference_first_fit(need_pcus, need_pmus, taken)
    if expected is None:
        assert fit is None
    else:
        assert (fit.region, fit.capacity) == expected


def test_each_distinct_app_is_lowered_once(monkeypatch):
    """One trace and one lowering per distinct app per call, however
    many copies are packed and however often a commit is retried: every
    copy and every retry maps the one lowered program."""
    traced, lowered, mapped = [], [], []
    trace, lower, freeze = (Program.__init__, Lowerer.lower,
                            compiler_artifact.freeze_lowered)

    def tracing(self, name):
        traced.append(name)
        trace(self, name)

    def lowering(self):
        lowered.append(self.program.name)
        return lower(self)

    def mapping(dhdl, app, *args, **kwargs):
        mapped.append((app, dhdl))
        if len(mapped) == 1:
            # the first commit fails, so the plan grows gemm's region
            # and maps every tenant again
            raise MappingError("no free PCU site left in the region")
        return freeze(dhdl, app, *args, **kwargs)

    monkeypatch.setattr(Program, "__init__", tracing)
    monkeypatch.setattr(Lowerer, "lower", lowering)
    monkeypatch.setattr(compiler_artifact, "freeze_lowered", mapping)
    packing = pack_apps(["gemm", "tpchq6", "tpchq6", "tpchq6"], "tiny")
    assert packing.feasible, packing.reason
    assert traced == lowered == ["gemm", "tpchq6"]
    assert [app for app, _ in mapped] \
        == ["gemm", "gemm", "tpchq6", "tpchq6", "tpchq6"]
    assert len({id(dhdl) for app, dhdl in mapped if app == "gemm"}) == 1
    assert [t.app for t in packing.tenants] \
        == ["gemm", "tpchq6", "tpchq6#1", "tpchq6#2"]
    # co-resident copies share one lowered program
    assert len({id(t.artifact.dhdl) for t in packing.tenants[1:]}) == 1
    assert len({(t.footprint.pcus, t.footprint.pmus)
                for t in packing.tenants[1:]}) == 1


MIXES = [("gemm", "tpchq6", "innerproduct", "outerproduct"),
         ("gemm", "tpchq6", "tpchq6", "tpchq6")]


@pytest.mark.parametrize("apps", MIXES, ids=["uniform", "weighted"])
def test_packed_artifacts_equal_region_compiles(apps):
    """Mapping one lowered program per region gives each tenant the
    bytes a full compile into that region gives (the two
    ``multi_tenant`` benchmark mixes at ``small``)."""
    packing = pack_apps(apps, "small")
    assert packing.feasible, packing.reason
    for tenant, app in zip(packing.tenants, apps):
        assert tenant.artifact.to_bytes() == compile_to_bitstream(
            app, "small", region=tenant.region).to_bytes(), tenant.app


@pytest.mark.parametrize("apps,regions", [
    (MIXES[0], [(1, 4, 9, 1), (1, 0, 15, 2), (1, 2, 7, 2), (11, 2, 3, 3)]),
    (MIXES[1], [(1, 6, 9, 1), (1, 0, 15, 2), (1, 2, 15, 2), (1, 4, 15, 2)]),
], ids=["uniform", "weighted"])
def test_benchmark_mixes_keep_their_regions(apps, regions):
    """The two ``multi_tenant`` mixes at ``small``, as packed at
    ``b1e8b16`` (per-candidate ``site_kinds`` rebuild, one footprint
    compile per occurrence)."""
    packing = pack_apps(apps, "small")
    assert packing.feasible, packing.reason
    assert [t.region.as_tuple() for t in packing.tenants] == regions


@pytest.mark.parametrize("apps,regions", [
    (("tpchq6", "gemm", "tpchq6"),
     [(1, 0, 7, 1), (1, 1, 5, 1), (9, 0, 7, 1)]),
    (("gemm", "cnn", "gda", "logreg"),
     [(9, 3, 5, 1), (5, 0, 3, 4), (9, 0, 3, 3), (1, 0, 3, 5)]),
], ids=["repeated", "mixed"])
def test_default_packing_keeps_its_regions(apps, regions):
    """Mixes of memory- and compute-bound apps at ``tiny``, as packed
    at ``4d89fd4`` (before area became the packer's only ordering
    key)."""
    packing = pack_apps(apps, "tiny")
    assert packing.feasible, packing.reason
    assert [t.region.as_tuple() for t in packing.tenants] == regions
