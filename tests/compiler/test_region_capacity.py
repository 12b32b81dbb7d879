"""``region_capacity`` reads a summed-area table; ``site_kinds`` is the
definition.

Both come out of one quota scan of the full grid
(``place_route._checkerboard``), so they cannot drift — this file is
the check that the table arithmetic is right: every rectangle of the
grid, priced by four lookups, equals a site-by-site count over
``site_kinds``, for the paper's 1:1 checkerboard, the 2:1 ratio of
Section 3.7 and a PCU-heavy mix whose quota carries across row ends.
"""

import dataclasses

import pytest

from repro.arch.params import DEFAULT
from repro.compiler.place_route import Region, region_capacity, site_kinds


def brute_force_capacity(params, region, pmu_fraction=0.5):
    """``(pcu_sites, pmu_sites)`` counted site by site."""
    kinds = site_kinds(params, pmu_fraction)
    pcus = sum(1 for site in region.sites() if kinds[site] == "pcu")
    return pcus, region.area - pcus


def all_rectangles(params):
    for cols in range(1, params.grid_cols + 1):
        for rows in range(1, params.grid_rows + 1):
            for row0 in range(params.grid_rows - rows + 1):
                for col0 in range(params.grid_cols - cols + 1):
                    yield Region(col0, row0, cols, rows)


@pytest.mark.parametrize("pmu_fraction", [0.5, 2 / 3, 0.25])
def test_every_rectangle_of_the_default_grid(pmu_fraction):
    checked = 0
    for region in all_rectangles(DEFAULT):
        assert region_capacity(DEFAULT, region, pmu_fraction) \
            == brute_force_capacity(DEFAULT, region, pmu_fraction), \
            str(region)
        checked += 1
    assert checked == 4896


@pytest.mark.parametrize("pmu_fraction", [0.5, 2 / 3, 0.25])
def test_every_rectangle_of_an_odd_grid(pmu_fraction):
    """7 x 5: odd in both dimensions, so at 0.5 the checkerboard's
    phase flips from row to row."""
    params = dataclasses.replace(DEFAULT, grid_cols=7, grid_rows=5)
    for region in all_rectangles(params):
        assert region_capacity(params, region, pmu_fraction) \
            == brute_force_capacity(params, region, pmu_fraction), \
            str(region)


def test_site_kinds_hands_out_its_own_dict():
    """The scan is memoized; a caller editing its result must not
    change what the next caller (or the capacity table) sees."""
    kinds = site_kinds(DEFAULT)
    assert list(kinds)[:3] == [(0, 0), (1, 0), (2, 0)]    # row-major
    kinds[(0, 0)] = "broken"
    assert site_kinds(DEFAULT)[(0, 0)] == "pcu"
    assert region_capacity(DEFAULT, Region(0, 0, 1, 1)) == (1, 0)
