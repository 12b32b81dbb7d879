"""Multi-tenant Fabric: solo-equivalence, co-residency, attribution.

The load-bearing invariant of the tenancy refactor is that hosting one
tenant on a :class:`Fabric` is *bit-identical* to the classic solo
``Machine.run``: same ``SimStats``, same final DRAM image, same stall
attribution.  These tests assert that for every registry app, then
exercise the genuinely multi-tenant paths: co-resident execution with
validated outputs, per-tenant DRAM accounting that reconciles exactly
with the aggregate counters, and the safety checks (missing regions,
overlapping regions).
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.apps.registry import get_app
from repro.compiler.artifact import compile_to_bitstream
from repro.compiler.place_route import Region
from repro.errors import SimulationError
from repro.sim import Fabric, Machine
from repro.sim.scheduler import SCHEDULER_MODES
from repro.tenancy import pack_apps
from repro.trace import RingTracer

from tests.sim.test_machine_edges import (assert_same_images,
                                          assert_share_no_state, outcome)

PAIR = ("gemm", "tpchq6")


def _solo(artifact, traced=False):
    tracer = RingTracer(sample=4) if traced else None
    machine = Machine(artifact.dhdl, artifact.config, tracer=tracer)
    stats = machine.run()
    return machine, stats, tracer


def _lone_tenant(artifact, name, traced=False, scheduler="event"):
    tracer = RingTracer(sample=4) if traced else None
    fabric = Fabric()
    tenant = fabric.add_tenant(artifact.dhdl, artifact.config,
                               name=name, tracer=tracer)
    fabric.run(scheduler=scheduler)
    return fabric, tenant, tracer


# ---------------------------------------------------------------------------
# Solo equivalence: one tenant on a Fabric == classic Machine.run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_lone_tenant_bit_identical_to_solo(app):
    artifact = compile_to_bitstream(app.name, "tiny")
    solo_machine, solo_stats, _ = _solo(artifact)
    solo_bufs = solo_machine.image.buffers
    for scheduler in SCHEDULER_MODES:
        fabric, tenant, _ = _lone_tenant(artifact, app.name,
                                         scheduler=scheduler)
        assert fabric.cycle == tenant.finish_cycle == solo_stats.cycles
        assert dataclasses.asdict(tenant.stats) \
            == dataclasses.asdict(solo_stats)
        # identical final DRAM image, array by array
        ten_bufs = tenant.machine.image.buffers
        assert set(solo_bufs) == set(ten_bufs)
        for name in solo_bufs:
            np.testing.assert_array_equal(solo_bufs[name],
                                          ten_bufs[name])


@pytest.mark.parametrize("app", PAIR)
def test_lone_tenant_attribution_identical_to_solo(app):
    """Traced runs agree on the full stall-attribution breakdown."""
    artifact = compile_to_bitstream(app, "tiny")
    solo_machine, solo_stats, _ = _solo(artifact, traced=True)
    _, tenant, _ = _lone_tenant(artifact, app, traced=True)
    assert tenant.stats.same_as(solo_stats)
    assert tenant.machine.trace_report().render() \
        == solo_machine.trace_report().render()


def test_lone_tenant_channel_util_matches_aggregate():
    artifact = compile_to_bitstream("gemm", "tiny")
    fabric, tenant, _ = _lone_tenant(artifact, "gemm")
    assert tenant.stats.dram_channels == fabric.channel_util()
    assert tenant.stats.dram_channels \
        == fabric.tenant_channel_util(tenant)


# ---------------------------------------------------------------------------
# Co-resident execution
# ---------------------------------------------------------------------------


def _co_resident_pair():
    from repro.tenancy import pack_apps
    packing = pack_apps(list(PAIR), "tiny")
    assert packing.feasible, packing.reason
    fabric = Fabric()
    tenants = [fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                 name=t.app)
               for t in packing.tenants]
    fabric.run()
    return fabric, tenants


def test_co_resident_pair_completes_and_validates():
    fabric, tenants = _co_resident_pair()
    assert fabric.cycle == max(t.finish_cycle for t in tenants)
    for app_name, tenant in zip(PAIR, tenants):
        assert tenant.done
        app = get_app(app_name)
        expected = app.expected(app.build("tiny"))
        results = {name: tenant.machine.result(name)
                   for name in expected}
        app.check(tenant.machine.dhdl, results, expected)


def test_co_residency_interference_is_observable():
    """Sharing DRAM channels costs cycles relative to running solo."""
    solos = {}
    for app in PAIR:
        artifact = compile_to_bitstream(app, "tiny")
        _, stats, _ = _solo(artifact)
        solos[app] = stats
    _, tenants = _co_resident_pair()
    for app, tenant in zip(PAIR, tenants):
        assert tenant.stats.cycles >= solos[app].cycles
    # at least one tenant actually observed contention
    assert any(t.stats.cycles > solos[a].cycles
               for a, t in zip(PAIR, tenants))


def test_per_tenant_dram_accounting_reconciles():
    """Per-tenant DRAM stats and channel utilization sum to the
    aggregate counters — nothing is double-counted or dropped."""
    fabric, tenants = _co_resident_pair()
    dram = fabric.dram
    aggregate = dram.stats()
    for key in ("reads", "writes", "row_hits", "row_misses",
                "row_empties", "bytes"):
        parts = sum(dram.stats_for(t.id)[key] for t in tenants)
        assert parts == aggregate[key], key
    # channel views over the same makespan denominator sum exactly
    # (each tenant's *own* stats.dram_channels uses its finish cycle,
    # so those are per-tenant rates, not shares of the makespan)
    agg_util = fabric.channel_util()
    for ch, entry in agg_util.items():
        parts = [fabric.tenant_channel_util(t).get(
                     ch, {"bursts": 0, "bytes": 0, "util": 0.0})
                 for t in tenants]
        assert sum(p["bursts"] for p in parts) == entry["bursts"]
        assert sum(p["bytes"] for p in parts) == entry["bytes"]
        assert sum(p["util"] for p in parts) \
            == pytest.approx(entry["util"])


def test_per_tenant_tracers_attribute_dram_traffic():
    from repro.tenancy import co_run
    tracers = {}

    def factory(name):
        tracers[name] = RingTracer(sample=4)
        return tracers[name]

    result = co_run(list(PAIR), scale="tiny", tracer_factory=factory)
    assert set(tracers) == set(PAIR)
    for tenant in result.tenants:
        assert tenant.validated
        # each tenant's own stats carry DRAM traffic it can see in its
        # private channel-utilization view
        assert tenant.stats.dram.get("bytes", 0) > 0
        assert any(entry["bursts"] > 0
                   for entry in tenant.channel_util.values())


# ---------------------------------------------------------------------------
# Safety checks
# ---------------------------------------------------------------------------


def _smdv_pair():
    packing = pack_apps(["smdv", "smdv"], "tiny")
    assert packing.feasible, packing.reason
    fabric = Fabric()
    tenants = [fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                 name=t.app) for t in packing.tenants]
    fabric.run()
    return packing, [t.machine for t in tenants]


def test_two_tenants_of_one_app_finish_like_solo_runs():
    """Two smdv tenants write what a solo smdv run writes, a repeated
    co-run finishes exactly as the first, and the tenants share no
    state."""
    packing, machines = _smdv_pair()
    _, again = _smdv_pair()
    solo = packing.tenants[0].artifact.machine()
    solo.run()
    for machine, repeat in zip(machines, again):
        stats, images = outcome(machine)
        assert stats == outcome(repeat)[0]
        assert_same_images(images, outcome(repeat)[1])
        assert_same_images(images, outcome(solo)[1])
    assert_share_no_state(*machines)


def test_fabric_requires_regions_beyond_first_tenant():
    artifact = compile_to_bitstream("gemm", "tiny")
    assert artifact.config.region is None
    fabric = Fabric()
    fabric.add_tenant(artifact.dhdl, artifact.config, name="a")
    with pytest.raises(SimulationError, match="region"):
        fabric.add_tenant(artifact.dhdl, artifact.config, name="b")


def test_fabric_rejects_overlapping_regions():
    left = compile_to_bitstream("gemm", "tiny",
                                region=Region(0, 0, 8, 2))
    right = compile_to_bitstream("tpchq6", "tiny",
                                 region=Region(4, 0, 8, 2))
    fabric = Fabric()
    fabric.add_tenant(left.dhdl, left.config, name="gemm")
    with pytest.raises(SimulationError, match="overlap"):
        fabric.add_tenant(right.dhdl, right.config, name="tpchq6")


def test_empty_fabric_refuses_to_run():
    with pytest.raises(SimulationError, match="no tenants"):
        Fabric().run()


def test_duplicate_tenant_names_are_suffixed():
    packing_region = Region(0, 0, 8, 2)
    other_region = Region(8, 0, 8, 2)
    a = compile_to_bitstream("gemm", "tiny", region=packing_region)
    b = compile_to_bitstream("gemm", "tiny", region=other_region)
    fabric = Fabric()
    first = fabric.add_tenant(a.dhdl, a.config, name="gemm")
    second = fabric.add_tenant(b.dhdl, b.config, name="gemm")
    assert first.name == "gemm"
    assert second.name == "gemm#1"
