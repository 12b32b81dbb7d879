"""Region-constrained placement and routing.

Region compiles are the foundation of multi-tenancy: every site a
constrained compile allocates must lie inside the requested rectangle,
sites outside stay untouched, and a footprint that exceeds the region
must fail loudly — the historical bug class here was placement
silently assuming a (0, 0) origin and spilling past the rectangle,
which would let co-resident tenants overlap.
"""

import pytest

from repro.arch.params import DEFAULT
from repro.compiler.artifact import compile_to_bitstream
from repro.compiler.partition import region_fits
from repro.compiler.place_route import (Fabric, Region, region_capacity,
                                        site_kinds)
from repro.errors import MappingError


# ---------------------------------------------------------------------------
# Region geometry
# ---------------------------------------------------------------------------


def test_region_validate_rejects_out_of_grid():
    with pytest.raises(MappingError, match="does not fit"):
        Region(12, 0, 8, 2).validate(DEFAULT)
    with pytest.raises(MappingError, match="empty"):
        Region(0, 0, 0, 2).validate(DEFAULT)


def test_region_capacity_partitions_the_grid():
    """Disjoint regions tiling the grid account for every site, and
    each site keeps the kind the full-grid checkerboard gives it."""
    kinds = site_kinds(DEFAULT)
    left = Region(0, 0, 8, DEFAULT.grid_rows)
    right = Region(8, 0, DEFAULT.grid_cols - 8, DEFAULT.grid_rows)
    lp, lm = region_capacity(DEFAULT, left)
    rp, rm = region_capacity(DEFAULT, right)
    assert lp + rp == sum(1 for k in kinds.values() if k == "pcu")
    assert lm + rm == sum(1 for k in kinds.values() if k == "pmu")
    assert lp + lm == left.area and rp + rm == right.area


def test_checkerboard_anchored_to_full_grid():
    """A region's site kinds never depend on the region itself."""
    kinds = site_kinds(DEFAULT)
    region = Region(5, 2, 6, 4)
    fabric = Fabric(region=region)
    for site in fabric.free_pcus:
        assert kinds[site] == "pcu" and region.contains(site)
    for site in fabric.free_pmus:
        assert kinds[site] == "pmu" and region.contains(site)


# ---------------------------------------------------------------------------
# Constrained placement
# ---------------------------------------------------------------------------


def test_placement_never_escapes_the_region():
    region = Region(9, 3, 4, 3)
    fabric = Fabric(region=region)
    pcus = fabric.place_pcus("u", 3, near=(0, 0))
    pmus = fabric.place_pmus("m", 3, near=(0, 0))
    for site in pcus + pmus:
        assert region.contains(site), f"{site} outside {region}"


def test_footprint_exceeding_region_raises_clearly():
    region = Region(0, 0, 2, 1)
    fabric = Fabric(region=region)
    cap_pcus, _ = region_capacity(DEFAULT, region)
    fabric.place_pcus("u", cap_pcus)
    with pytest.raises(MappingError) as err:
        fabric.place_pcus("overflow", 1)
    message = str(err.value)
    assert "exceeds region" in message
    assert str(region) in message
    assert "larger region" in message


def test_region_fits_precheck_names_the_shortfall():
    region = Region(0, 0, 4, 1)
    capacity = region_capacity(DEFAULT, region)
    region_fits(capacity[0], capacity[1], region, capacity)  # exact fit
    with pytest.raises(MappingError, match="PCU"):
        region_fits(capacity[0] + 1, 0, region, capacity)
    with pytest.raises(MappingError, match="PMU"):
        region_fits(0, capacity[1] + 1, region, capacity)


def test_region_compile_stays_inside_and_records_region():
    region = Region(0, 4, 8, 4)
    compiled = compile_to_bitstream("gemm", "tiny", region=region)
    assert compiled.config.region == region.as_tuple()
    for name, sites in compiled.config.sites.items():
        for site in sites:
            assert region.contains(site), \
                f"{name} at {site} escapes {region}"


def test_region_compile_too_small_fails_not_spills():
    with pytest.raises(MappingError, match="region"):
        compile_to_bitstream("gemm", "tiny", region=Region(0, 0, 1, 1))


def test_same_region_shape_placement_translates():
    """Anchoring the same shape elsewhere still succeeds — placement
    must not assume a (0, 0) origin."""
    for anchor in ((0, 0), (8, 4), (11, 6)):
        artifact = compile_to_bitstream(
            "gemm", "tiny", region=Region(anchor[0], anchor[1], 5, 2))
        region = Region(*artifact.config.region)
        for sites in artifact.config.sites.values():
            for site in sites:
                assert region.contains(site)
