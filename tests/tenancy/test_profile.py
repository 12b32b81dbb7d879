"""The pack report carries no bandwidth profile.

Packing is by region area alone; nothing measures an app's DRAM
bandwidth before it is placed, so the report has no section for it.
"""

from repro.tenancy import pack_apps


def test_pack_apps_default_has_no_bandwidth_section():
    packing = pack_apps(["gemm", "tpchq6"], "tiny")
    assert packing.feasible
    assert "bandwidth" not in packing.as_dict()
