"""Multi-tenant fault attribution: a dying tenant names itself.

Satellite of the fault-injection issue: when a shared fabric stalls,
the report must say WHICH tenant and WHERE (its region) — a fabric
hosting N tenants is useless if a deadlock report reads like a solo
machine's.
"""

import pytest

from repro.errors import FaultError
from repro.faults import FaultEvent, FaultPlan
from repro.sim.fabric import Fabric
from repro.tenancy.packer import pack_apps

APPS = ["gemm", "tpchq6"]


@pytest.fixture(scope="module")
def packing():
    report = pack_apps(APPS, "tiny")
    assert report.feasible, report.reason
    return report


def _victim_leaf(tenant) -> str:
    timing = tenant.artifact.config.leaf_timing
    placed = sorted(n for n, t in timing.items() if t.num_pcus)
    return placed[0]


def _fail(packing, victim_index) -> FaultError:
    """Co-run the packed tenants with one compute leaf of tenant
    ``victim_index`` killed at cycle 5; the error the fabric raises."""
    fabric = Fabric(watchdog=2_500, max_cycles=200_000)
    plan = FaultPlan([FaultEvent(
        cycle=5, kind="unit_fail",
        unit=_victim_leaf(packing.tenants[victim_index]))])
    for i, (tenant, app) in enumerate(zip(packing.tenants, APPS)):
        fabric.add_tenant(tenant.artifact.dhdl, tenant.artifact.config,
                          name=app,
                          fault_plan=plan if i == victim_index
                          else None)
    with pytest.raises(FaultError) as excinfo:
        fabric.run()
    return excinfo.value


@pytest.mark.parametrize("victim_index", [0, 1])
def test_tenant_fault_names_tenant_and_region(packing, victim_index):
    err = _fail(packing, victim_index)
    victim = packing.tenants[victim_index]
    assert err.tenant == APPS[victim_index]
    assert tuple(err.region) == victim.region.as_tuple()
    # the message itself carries the tenant id, name and region
    message = str(err)
    assert f"({APPS[victim_index]})" in message
    assert f"tenant {victim_index}" in message
    cols, rows = victim.region.cols, victim.region.rows
    assert f"{cols}x{rows}@" in message


@pytest.mark.parametrize("victim_index", [0, 1])
def test_tenant_fault_names_its_sites(packing, victim_index):
    """The killed unit's sites come from its tenant's artifact, as a
    solo machine's do, and lie inside the tenant's region."""
    err = _fail(packing, victim_index)
    victim = packing.tenants[victim_index]
    sites = victim.artifact.config.sites[_victim_leaf(victim)]
    assert sites
    assert err.sites == sites
    assert all(victim.region.contains(site) for site in sites)
    assert f"at sites {list(sites)}" in str(err)


def test_healthy_cotenant_is_not_blamed(packing):
    err = _fail(packing, 0)
    assert err.tenant == APPS[0]
    assert err.tenant != APPS[1]
