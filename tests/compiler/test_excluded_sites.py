"""Recompiling around failed unit sites (``excluded_sites``)."""

import pytest

from repro.apps.registry import get_app
from repro.arch.params import DEFAULT
from repro.compiler import freeze_program
from repro.compiler.place_route import Region
from repro.errors import MappingError


@pytest.fixture(scope="module")
def program():
    return get_app("innerproduct").build("tiny")


def test_excluded_sites_are_never_used(program):
    baseline = freeze_program(program, "innerproduct", "tiny")
    # fail every site the baseline used: the recompile must find a
    # completely disjoint placement
    used = sorted({site for sites in baseline.config.sites.values()
                   for site in sites})
    rerouted = freeze_program(program, "innerproduct", "tiny",
                              excluded_sites=used)
    reused = {site for sites in rerouted.config.sites.values()
              for site in sites}
    assert not reused & set(used)
    assert rerouted.config.pcus_used == baseline.config.pcus_used
    assert rerouted.config.pmus_used == baseline.config.pmus_used


def test_excluding_nothing_changes_nothing(program):
    from repro.bitstream.artifact import config_to_dict
    baseline = freeze_program(program, "innerproduct", "tiny")
    same = freeze_program(program, "innerproduct", "tiny",
                          excluded_sites=[])
    assert config_to_dict(same.config) == \
        config_to_dict(baseline.config)


def test_exhaustion_mentions_excluded_sites(program):
    params = DEFAULT
    all_sites = [(c, r) for c in range(params.grid_cols)
                 for r in range(params.grid_rows)]
    with pytest.raises(MappingError) as excinfo:
        freeze_program(program, "innerproduct", "tiny",
                       excluded_sites=all_sites)
    assert "excluded as failed" in str(excinfo.value)


def test_region_capacity_discounts_failed_sites(program):
    """A region exactly sized for the design must be rejected once a
    needed site inside it is declared failed."""
    region = Region(0, 0, 4, 4)
    compiled = freeze_program(program, "innerproduct", "tiny",
                              region=region)
    used = sorted({site for sites in compiled.config.sites.values()
                   for site in sites})
    # fail every site of one kind the design needs inside the region:
    # with a 4x4 region there may still be spares, so fail ALL the
    # region's sites of that kind
    from repro.compiler.place_route import site_kinds
    kinds = site_kinds(params=DEFAULT)
    kind_needed = kinds[used[0]]
    failed = [s for s in region.sites() if kinds[s] == kind_needed]
    with pytest.raises(MappingError):
        freeze_program(program, "innerproduct", "tiny", region=region,
                       excluded_sites=failed)
