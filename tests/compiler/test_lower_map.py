"""A compile is two halves: lowering, which never reads the grid, and
mapping, which maps the lowered program wherever it is asked to.

The split is what lets the tenancy packer lower each app once and map it
per region, so these tests hold its seams: the footprint read from the
partition counts is what a full-grid mapping places, and mapping leaves
the lowered program as it found it, so any number of mappings of one
lowered program give the bytes of as many full compiles.
"""

import pytest

from repro.apps import ALL_APPS, get_app
from repro.compiler.artifact import (compile_to_bitstream, freeze_lowered,
                                     lower_program)
from repro.compiler.driver import unit_demand
from repro.compiler.place_route import Region
from repro.dhdl.serialize import program_to_dict


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_partition_footprint_is_the_full_grid_placement(app, scale):
    config = compile_to_bitstream(app.name, scale).config
    dhdl = lower_program(app.build(scale))
    assert unit_demand(dhdl) == (config.pcus_used, config.pmus_used)


def test_one_lowering_maps_like_full_compiles():
    """Map one lowered gemm three times (whole grid, a region, around a
    failed site); each artifact equals the matching full compile and the
    lowered program is unchanged throughout."""
    dhdl = lower_program(get_app("gemm").build("tiny"))
    before = program_to_dict(dhdl)
    region = Region(0, 0, 8, 4)
    whole = freeze_lowered(dhdl, "gemm", "tiny")
    site = whole.config.sites[next(iter(whole.config.sites))][0]
    for kwargs in ({}, {"region": region}, {"excluded_sites": [site]}):
        mapped = freeze_lowered(dhdl, "gemm", "tiny", **kwargs)
        assert mapped.dhdl is dhdl
        assert mapped.to_bytes() == compile_to_bitstream(
            "gemm", "tiny", **kwargs).to_bytes(), kwargs
    assert program_to_dict(dhdl) == before
