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
from repro.dhdl import (DhdlProgram, Gather, OuterController, Scheme,
                        TileLoad, validate)
from repro.dhdl.memory import BankingMode
from repro.dram.model import DramModel
from repro.errors import FaultError, SimulationError
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import AgAssignment, Fabric, FabricConfig, LeafTiming
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


def _transfer_tenant(name, region, gather):
    """One tenant's program: a 256-address gather (after the load of its
    addresses), or a 4 096-word tile load — 256 bursts of one stream."""
    rng = np.random.default_rng(len(name))
    dhdl = DhdlProgram(name)
    if gather:
        table = dhdl.dram(Array("tbl", (1024,), E.FLOAT32,
                                data=np.arange(1024, dtype=np.float32)))
        idx = dhdl.dram(Array("idx", (256,), E.INT32, data=rng.integers(
            0, 1024, 256).astype(np.int32)))
        idx_tile = dhdl.sram("idx_tile", (256,), E.INT32)
        dst_tile = dhdl.sram("dst_tile", (256,), E.FLOAT32,
                             banking=BankingMode.DUPLICATION)
        body = OuterController("body", Scheme.SEQUENTIAL)
        dhdl.root.add(body)
        body.add(TileLoad("load_idx", idx, idx_tile, (0,), (256,)))
        body.add(Gather("gather", table, idx_tile, dst_tile))
    else:
        src = dhdl.dram(Array("src", (4096,), E.FLOAT32, data=rng.standard_normal(
            4096).astype(np.float32)))
        tile = dhdl.sram("tile", (4096,), E.FLOAT32)
        body = OuterController("body", Scheme.SEQUENTIAL)
        dhdl.root.add(body)
        body.add(TileLoad("load", src, tile, (0,), (4096,)))
    validate(dhdl)
    config = FabricConfig(region=region)
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    config.pcus_used = config.pmus_used = config.ags_used = 1
    return dhdl, config


@pytest.mark.parametrize("gather_first", [True, False],
                         ids=["gather_below_stream", "gather_above_stream"])
def test_cotenant_stream_and_gather_share_a_channel_in_dense_order(
        gather_first, monkeypatch):
    """One tenant's tile stream and another's gather submit to one
    channel in one cycle, behind two-deep queues: the tenant admitted
    first (the lower dense positions) goes first, under both schedulers,
    whichever of the two it is."""
    seen = {}
    for mode in SCHEDULER_MODES:
        fabric = Fabric(dram=DramModel(queue_depth=2))
        specs = [("g", (0, 0, 8, 4), True), ("s", (8, 0, 8, 4), False)]
        for name, region, gather in specs if gather_first else specs[::-1]:
            fabric.add_tenant(*_transfer_tenant(name, region, gather),
                              name=name)
        index = {id(c): k for k, c in enumerate(fabric.dram.channels)}
        log = []
        submit = DramModel.submit

        def logged(model, request, callback=None, channel=None):
            # an engine hands over its request decoded, with the channel
            log.append((request.req_id, model.cycle, index[id(channel)],
                        callback.__self__.name, request.byte_addr))
            submit(model, request, callback, channel)

        monkeypatch.setattr(DramModel, "submit", logged)
        fabric.run(scheduler=mode)
        monkeypatch.undo()
        assert [entry[0] for entry in log] == sorted(e[0] for e in log)
        seen[mode] = ([entry[1:] for entry in log],
                      [t.stats.as_dict() for t in fabric.tenants])
    assert seen["event"] == seen["dense"]
    units = {}
    for cycle, channel, unit, _ in seen["event"][0]:
        units.setdefault((cycle, channel), []).append(unit)
    shared = [order for order in units.values()
              if {"gather", "load"} <= set(order)]
    assert shared
    first = "gather" if gather_first else "load"
    assert all(order[0] == first for order in shared)
