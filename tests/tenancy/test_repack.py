"""Tenant migration after a region failure: ``repack`` + replay."""

import pytest

from repro.compiler.artifact import compile_to_bitstream
from repro.compiler.lowering import Lowerer
from repro.compiler.place_route import Region
from repro.errors import MappingError
from repro.patterns.program import Program
from repro.tenancy.packer import PackReport, pack_apps, repack
from repro.tenancy.run import co_run

APPS = ["gemm", "tpchq6"]


@pytest.fixture(scope="module")
def packing():
    report = pack_apps(APPS, "tiny")
    assert report.feasible, report.reason
    return report


def test_repack_migrates_only_overlapping_tenants(packing):
    victim = packing.tenants[0]
    failed = victim.region
    migrated = repack(packing, failed, APPS, "tiny")
    assert migrated.feasible, migrated.reason
    assert len(migrated.tenants) == len(packing.tenants)
    # the victim moved off the failed region...
    assert not migrated.tenants[0].region.overlaps(failed)
    assert migrated.tenants[0].artifact is not None
    # ...the healthy tenant kept its committed artifact untouched
    assert migrated.tenants[1] is packing.tenants[1]
    # and the new regions are still pairwise disjoint
    a, b = (t.region for t in migrated.tenants)
    assert not a.overlaps(b)


def test_repack_maps_the_committed_lowered_program(packing, monkeypatch):
    """A migrated tenant maps its committed artifact's lowered program
    into the fresh rectangle, tracing and lowering nothing, and gets the
    bytes a full compile into that rectangle gives."""
    def untouched(*args, **kwargs):
        raise AssertionError("repack traced or lowered a program")

    monkeypatch.setattr(Program, "__init__", untouched)
    monkeypatch.setattr(Lowerer, "lower", untouched)
    victim = packing.tenants[0]
    migrated = repack(packing, victim.region, APPS, "tiny")
    monkeypatch.undo()
    assert migrated.feasible, migrated.reason
    moved = migrated.tenants[0]
    assert moved.region != victim.region
    assert moved.artifact.dhdl is victim.artifact.dhdl
    assert moved.artifact.to_bytes() == compile_to_bitstream(
        APPS[0], "tiny", region=moved.region).to_bytes()


def test_repack_without_overlap_is_identity(packing):
    taken = [t.region for t in packing.tenants]
    for col0 in range(16):
        for row0 in range(16):
            probe = Region(col0, row0, 1, 1)
            try:
                probe.validate(packing.tenants[0].artifact.config
                               .params)
            except MappingError:
                continue
            if not any(probe.overlaps(r) for r in taken):
                assert repack(packing, probe, APPS, "tiny") is packing
                return
    pytest.skip("grid fully packed; no untouched probe region")


def test_repacked_fleet_replays_through_co_run(packing):
    failed = packing.tenants[0].region
    migrated = repack(packing, failed, APPS, "tiny")
    result = co_run(APPS, "tiny", packing=migrated)
    assert [t.validated for t in result.tenants] == [True, True]
    assert result.tenants[0].region == \
        migrated.tenants[0].region.as_tuple()


def test_repack_rejects_infeasible_report():
    broken = PackReport(feasible=False, failed_app="gemm",
                        reason="synthetic")
    with pytest.raises(MappingError):
        repack(broken, Region(0, 0, 2, 2), APPS, "tiny")


def test_repack_rejects_mismatched_apps(packing):
    with pytest.raises(MappingError):
        repack(packing, packing.tenants[0].region, ["gemm"], "tiny")


def test_repack_infeasible_when_grid_exhausted(packing):
    """Failing (almost) the whole grid leaves nowhere to migrate."""
    params = packing.tenants[0].artifact.config.params
    whole = Region(0, 0, params.grid_cols, params.grid_rows)
    report = repack(packing, whole, APPS, "tiny")
    assert not report.feasible
    assert report.failed_app
    assert "no free rectangle" in report.reason


def test_repack_infeasible_preserves_input_order(packing):
    """Regression: the infeasible report used to come back in the
    internal largest-first placement order, so callers indexing it by
    the apps list read the wrong tenant."""
    params = packing.tenants[0].artifact.config.params
    whole = Region(0, 0, params.grid_cols, params.grid_rows)
    report = repack(packing, whole, APPS, "tiny")
    assert not report.feasible
    assert [t.app for t in report.tenants] == APPS
    assert len(report.tenants) == len(packing.tenants)


def test_repack_infeasible_clears_stale_artifacts(packing):
    """Regression: unmigrated movers kept bitstreams targeting the
    failed hardware.  They must come back artifact-less (replaying
    them would program broken sites) while their stale rectangles
    remain readable for diagnostics."""
    params = packing.tenants[0].artifact.config.params
    whole = Region(0, 0, params.grid_cols, params.grid_rows)
    report = repack(packing, whole, APPS, "tiny")
    assert not report.feasible
    for original, tenant in zip(packing.tenants, report.tenants):
        assert tenant.artifact is None
        assert tenant.region == original.region


def test_repack_infeasible_never_mutates_caller(packing):
    """The caller's feasible report must survive a failed repack
    intact — artifacts still committed, still replayable."""
    params = packing.tenants[0].artifact.config.params
    whole = Region(0, 0, params.grid_cols, params.grid_rows)
    before = [(t.app, t.region, t.artifact) for t in packing.tenants]
    repack(packing, whole, APPS, "tiny")
    assert packing.feasible
    for (app, region, artifact), tenant in zip(before,
                                               packing.tenants):
        assert tenant.app == app
        assert tenant.region == region
        assert tenant.artifact is artifact
        assert tenant.artifact is not None
