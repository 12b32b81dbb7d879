"""Multi-tenant event scheduler ≡ multi-tenant dense reference.

``Fabric.run`` hands its tenant machines to the one stepping core
(``repro.sim.scheduler``), so co-resident tenants get parking and DRAM
fast-forward like a solo run.  Everything observable must match the
dense reference: per-tenant ``SimStats``, DRAM images, finish cycles,
stall attribution (tables and RLE timelines), the QoS summary — and the
failure paths (fault attribution, ``max_cycles``) must trip on the same
cycle.  Swept over the two ``multi_tenant`` benchmark mixes, same-app
co-tenants (who share every FIFO and unit *name*), and seeded random
registry subsets, x priorities x a timing-only fault plan x tracing.
"""

import functools
import random

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import FaultError, SimulationError
from repro.faults import FaultEvent, FaultPlan
from repro.sim import Fabric
from repro.sim.scheduler import SCHEDULER_MODES
from repro.tenancy import pack_apps
from repro.trace import RingTracer

NAMES = sorted(app.name for app in ALL_APPS)


def _random_mix(seed):
    """2-4 registry apps (repeats allowed) + non-uniform priorities."""
    rng = random.Random(seed)
    apps = tuple(rng.choice(NAMES) for _ in range(rng.randint(2, 4)))
    priorities = [rng.choice((1, 2, 4, 8)) for _ in apps]
    if len(set(priorities)) == 1:
        priorities[0] = 2 * priorities[0]
    return apps, tuple(priorities)


#: (apps, the mix's non-uniform priorities)
MIXES = [
    (("gemm", "tpchq6", "innerproduct", "outerproduct"), (1, 2, 4, 8)),
    (("gemm", "tpchq6", "tpchq6", "tpchq6"), (8, 1, 1, 1)),
    (("cnn", "cnn"), (1, 4)),
] + [_random_mix(seed) for seed in range(10)]


@functools.lru_cache(maxsize=None)
def _packing(apps):
    report = pack_apps(apps, "tiny")
    assert report.feasible, report.reason
    return report


def _leaf_of(tenant) -> str:
    timing = tenant.artifact.config.leaf_timing
    placed = sorted(n for n, t in timing.items() if t.num_pcus)
    return (placed or sorted(timing))[0]


def _degrade_plan(tenant) -> FaultPlan:
    """Timing-only faults: results must not change, only cycles."""
    return FaultPlan([
        FaultEvent(cycle=5, kind="link_degrade", unit=_leaf_of(tenant),
                   extra=24),
        FaultEvent(cycle=9, kind="dram_slow", channel=0, extra=40)])


def _build(apps, priorities=None, plan_for=None, traced=False, **kwargs):
    """A fabric over ``apps``; ``plan_for(tenant)`` builds the fault
    plan of the LAST tenant (a relocated one)."""
    packing = _packing(apps)
    fabric = Fabric(**kwargs)
    handles = []
    for k, tenant in enumerate(packing.tenants):
        last = k == len(packing.tenants) - 1
        handles.append(fabric.add_tenant(
            tenant.artifact.dhdl, tenant.artifact.config,
            name=tenant.footprint.app,
            tracer=RingTracer(sample=4) if traced else None,
            priority=priorities[k] if priorities else 1,
            fault_plan=plan_for(tenant) if plan_for and last else None))
    return packing, fabric, handles


def _observe(fabric, handles, traced):
    out = {"cycle": fabric.cycle, "qos": fabric.qos_summary(),
           "util": fabric.channel_util(), "tenants": []}
    for handle in handles:
        entry = {
            "name": handle.name,
            "stats": handle.stats.as_dict(),
            "finish": handle.finish_cycle,
            "util": fabric.tenant_channel_util(handle),
            "image": {name: buf.tobytes() for name, buf in
                      handle.machine.image.buffers.items()}}
        if traced:
            entry["report"] = handle.machine.trace_report().render()
            entry["timelines"] = {
                unit: list(timeline) for unit, timeline in
                handle.machine.tracer.timelines.items()}
        out["tenants"].append(entry)
    return out


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("degraded", [False, True],
                         ids=["noplan", "degraded"])
@pytest.mark.parametrize("mixed", [False, True],
                         ids=["uniform", "mixed"])
@pytest.mark.parametrize("mix", MIXES, ids=lambda m: "+".join(m[0]))
def test_co_run_event_identical_to_dense(mix, mixed, degraded, traced):
    apps, priorities = mix
    seen = {}
    for mode in SCHEDULER_MODES:
        _, fabric, handles = _build(
            apps, priorities if mixed else None,
            _degrade_plan if degraded else None, traced)
        fabric.run(scheduler=mode)
        assert all(handle.done for handle in handles)
        assert fabric.dram.weighted == mixed
        if degraded:
            assert len(handles[-1].machine.faults.fired) == 2
        seen[mode] = _observe(fabric, handles, traced)
    assert seen["event"] == seen["dense"]


def test_same_app_cotenants_keep_their_own_state():
    """Three copies of one app share every FIFO and unit *name*.  The
    scheduler keys FIFO waiters by the ``FifoSim`` object and replays
    park accounting into the parked unit's own machine, so each copy
    computes what a lone copy computes and charges only itself."""
    _, fabric, handles = _build(("tpchq6",) * 3)
    fabric.run()
    assert [h.name for h in handles] == ["tpchq6", "tpchq6#1",
                                         "tpchq6#2"]
    assert len({tuple(h.machine.fifos) for h in handles}) == 1
    _, lone, (alone,) = _build(("tpchq6",))
    lone.run()
    for handle in handles:
        for name, buf in alone.machine.image.buffers.items():
            np.testing.assert_array_equal(
                buf, handle.machine.image.buffers[name])
        assert handle.stats.vector_issues == alone.stats.vector_issues
        assert set(handle.stats.busy_cycles) \
            == set(alone.stats.busy_cycles)
        for fifo, lone_fifo in zip(handle.machine.fifos.values(),
                                   alone.machine.fifos.values()):
            assert fifo.pushed == lone_fifo.pushed


def test_co_run_fast_forwards():
    """Co-resident DRAM-bound tenants skip cycles too, and the split
    accounts for every fabric cycle."""
    _, fabric, _ = _build(("tpchq6", "bfs"))
    fabric.run()
    sched = fabric.scheduler_stats
    assert sched.fast_forwarded_cycles > 0
    assert (sched.executed_cycles + sched.fast_forwarded_cycles
            == fabric.cycle)
    _, dense, _ = _build(("tpchq6", "bfs"))
    dense.run(scheduler="dense")
    assert dense.scheduler_stats is None
    assert dense.cycle == fabric.cycle


def _kill_plan(tenant) -> FaultPlan:
    return FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=_leaf_of(tenant))])


def test_unit_fail_raises_identically_under_both_schedulers():
    apps = ("gemm", "tpchq6")
    errors = {}
    for mode in SCHEDULER_MODES:
        packing, fabric, handles = _build(
            apps, plan_for=_kill_plan, watchdog=2_500,
            max_cycles=200_000)
        with pytest.raises(FaultError) as excinfo:
            fabric.run(scheduler=mode)
        err = excinfo.value
        assert err.cycle == 5 and err.tenant == "tpchq6"
        assert tuple(err.region) == packing.tenants[1].region.as_tuple()
        errors[mode] = (str(err), err.attribution(), fabric.cycle)
    assert errors["event"] == errors["dense"]


@pytest.mark.parametrize("mode", SCHEDULER_MODES)
def test_max_cycles_trip_leaves_the_fabric_clock_at_the_trip(mode):
    """A run that raises still reports where it stopped: the fabric
    clock is the trip cycle and channel utilisation is over that span
    (it used to stay 0 — bursts counted, util 0.0)."""
    _, fabric, handles = _build(("gemm", "tpchq6"), max_cycles=40)
    with pytest.raises(SimulationError,
                       match=r"exceeded max_cycles=40 with "
                             r"\['gemm', 'tpchq6'\] still running"):
        fabric.run(scheduler=mode)
    assert fabric.cycle == 41
    assert not any(handle.done for handle in handles)
    assert all(handle.finish_cycle is None for handle in handles)
    ch0 = fabric.channel_util()["ch0"]
    assert ch0["bursts"] > 0 and ch0["util"] > 0.0


def test_fired_fault_turns_the_limit_trip_into_a_fault_error():
    results = {}
    for mode in SCHEDULER_MODES:
        _, fabric, _ = _build(("gemm", "tpchq6"), plan_for=_kill_plan,
                              watchdog=10_000, max_cycles=300)
        with pytest.raises(FaultError, match="max_cycles=300") as excinfo:
            fabric.run(scheduler=mode)
        results[mode] = (str(excinfo.value), fabric.cycle)
    assert results["event"] == results["dense"]
    assert results["event"][1] == 301
