"""Lazy park accounting ≡ the per-cycle replay it replaced.

The event core charges a park's numeric effects once, as
``span x effect``, when the park ends — and every exit that leaves
parks open (cycle limit, watchdog, a unit's own exception) flushes them
to what the dense loop had accounted by then.  The equivalence suites
compare *completed* runs; this file interrupts runs everywhere a park
can be open and compares what is left behind, limit by limit, and pins
the number of ``tick`` calls the run queue makes to the number the list
scan made (same parks, same wakes — only the visits that found nothing
are gone).
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.compiler.place_route import Region
from repro.errors import DeadlockError, SimulationError
from repro.eval.bench import SYNTHETIC
from repro.patterns import Program
from repro.patterns import expr as E
from repro.sim import Fabric, Machine, scheduler
from repro.sim.scheduler import SCHEDULER_MODES
from repro.tenancy import pack_apps
from repro.trace import RingTracer
from tests.sim.test_fifo_stalls import _fifo_bound
from tests.sim.test_scheduler_equivalence import _deadlock_machine


def _left_behind(machine):
    """Everything a park charges, as an interrupted run leaves it."""
    stats = machine.stats.as_dict()
    del stats["cycles"]
    return {"stats": stats,
            "busy_order": list(machine.stats.busy_cycles),
            "fifos": {name: (fifo.full_stalls, fifo.empty_stalls)
                      for name, fifo in machine.fifos.items()}}


def _registry(name, **config):
    compiled = compile_to_bitstream(name, "tiny")
    tuned = dataclasses.replace(compiled.config, **config)
    return lambda: (compiled.dhdl, tuned)


def _rowconf():
    return SYNTHETIC["dram_rowconf"]("tiny")[:2]


#: (program, cycles of a complete run, the limits tried).  gemm and the
#: FIFO-stall program (full- and empty-stall parks) at every limit; bfs
#: (the one registry app with STREAMING controllers) at every 13th;
#: dram_rowconf (latency parks, long jumps) is 128 identical 78-cycle
#: iterations, so every 13th limit of its first 2 000 cycles; bfs with
#: a one-entry coalescing cache (coalescer-full bandwidth parks, which
#: the default 48 entries never reach at ``tiny``) at every 13th
LIMITED = {
    "gemm": (_registry("gemm"), 143, range(1, 143)),
    "fifo_bound": (_fifo_bound, 116, range(1, 116)),
    "bfs": (_registry("bfs"), 1705, range(1, 1705, 13)),
    "dram_rowconf": (_rowconf, 10019, range(1, 2000, 13)),
    "bfs_coalesce_1": (_registry("bfs", coalesce_entries=1), 2470,
                       range(1, 2470, 13)),
}


@pytest.mark.parametrize("name", LIMITED)
def test_cycle_limit_flush_equals_dense_at_every_limit(name):
    build, cycles, limits = LIMITED[name]
    assert Machine(*build()).run().cycles == cycles
    charged = set()
    for limit in limits:
        seen = {}
        for mode in SCHEDULER_MODES:
            machine = Machine(*build(), scheduler=mode)
            with pytest.raises(SimulationError) as err:
                machine.run(max_cycles=limit)
            seen[mode] = (str(err.value), _left_behind(machine))
        assert seen["event"] == seen["dense"], f"max_cycles={limit}"
        stats = seen["event"][1]["stats"]
        charged.update(key for key in ("dram_stall_cycles",
                                       "fifo_stall_cycles",
                                       "fifo_empty_stall_cycles",
                                       "busy_cycles") if stats[key])
    assert "busy_cycles" in charged
    if name == "fifo_bound":
        assert {"fifo_stall_cycles", "fifo_empty_stall_cycles"} <= charged
    if name == "bfs_coalesce_1":
        assert "dram_stall_cycles" in charged


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_watchdog_trip_flushes_the_park_that_never_ends(traced):
    """``emit_only`` parks on a full FIFO nobody drains: the 500-cycle
    watchdog spin is one jump, charged at the trip."""
    seen = {}
    for mode in SCHEDULER_MODES:
        machine = _deadlock_machine(
            mode, RingTracer(sample=4) if traced else None)
        with pytest.raises(DeadlockError) as err:
            machine.run()
        seen[mode] = (str(err.value), _left_behind(machine))
    assert seen["event"] == seen["dense"]
    left = seen["event"][1]
    assert left["stats"]["fifo_stall_cycles"] > 500
    assert left["fifos"]["f"][0] == left["stats"]["fifo_stall_cycles"]


def _bad_gather(region=None):
    """``test_gather_out_of_bounds_index_reported``'s program: its
    gather raises from inside the unit phase of cycle 38."""
    program = Program("t")
    idx = program.input("idx", (8,), E.INT32,
                        data=np.array([0, 1, 2, 3, 4, 5, 6, 99],
                                      dtype=np.int32))
    table = program.input("tbl", (16,),
                          data=np.zeros(16, dtype=np.float32),
                          offchip=True)
    out = program.output("o", (8,))
    program.map("g", out, 8, lambda i: table[idx[i]])
    return freeze_program(program, program.name, "tiny", region=region)


def test_unit_exception_mid_phase_solo():
    compiled = _bad_gather()
    seen = {}
    for mode in SCHEDULER_MODES:
        machine = compiled.machine(scheduler=mode)
        with pytest.raises(SimulationError, match="out of bounds") as err:
            machine.run()
        seen[mode] = (str(err.value), machine.cycle,
                      _left_behind(machine))
    assert seen["event"] == seen["dense"]


@pytest.mark.parametrize("faulty_first", [False, True],
                         ids=["parks_before", "parks_after"])
def test_unit_exception_mid_phase_flushes_both_sides_of_it(faulty_first):
    """The exception comes out of one node's tick: parks at earlier
    dense positions (a co-tenant admitted before the faulty one) had
    been accounted through that cycle, later ones (admitted after it)
    through the cycle before.  gemm's ``load_b`` is still on its
    latency park, opened at cycle 5, when the gather raises."""
    bystander = compile_to_bitstream("gemm", "tiny",
                                     region=Region(0, 0, 16, 4))
    faulty = _bad_gather(Region(0, 4, 16, 4))
    order = [faulty, bystander] if faulty_first else [bystander, faulty]
    seen = {}
    for mode in SCHEDULER_MODES:
        fabric = Fabric()
        handles = [fabric.add_tenant(c.dhdl, c.config) for c in order]
        with pytest.raises(SimulationError, match="out of bounds") as err:
            fabric.run(scheduler=mode)
        seen[mode] = (str(err.value), fabric.cycle,
                      [_left_behind(h.machine) for h in handles])
    assert seen["event"] == seen["dense"]
    _, cycle, left = seen["event"]
    busy = left[1 if faulty_first else 0]["stats"]["busy_cycles"]
    assert busy["load_b"] > cycle // 2      # mostly the flushed span


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_tenant_retires_while_cotenants_hold_parks(traced, monkeypatch):
    """innerproduct finishes long before gemm and bfs do; at the close
    of that cycle the others' open parks stay open (nothing of theirs is
    settled early or dropped) and every tenant ends equal to dense."""
    apps = ("innerproduct", "gemm", "bfs")
    packing = pack_apps(apps, "tiny")
    assert packing.feasible, packing.reason
    #: per retirement under the event core: co-tenant nodes then parked
    held = []
    close_cycle = scheduler._close_cycle

    def watching(machine, cycle):
        retired = close_cycle(machine, cycle)
        if retired and machine._nodes[0]._sched is not None:
            sched = machine._nodes[0]._sched
            held.append(sum(
                node._sched_state == scheduler._PARKED
                for other in sched.machines if not other.finished
                for node in other._nodes))
        return retired

    monkeypatch.setattr(scheduler, "_close_cycle", watching)
    seen = {}
    for mode in SCHEDULER_MODES:
        fabric = Fabric()
        handles = [
            fabric.add_tenant(
                tenant.artifact.dhdl, tenant.artifact.config,
                name=tenant.footprint.app,
                tracer=RingTracer(sample=4) if traced else None)
            for tenant in packing.tenants]
        fabric.run(scheduler=mode)
        seen[mode] = [
            (handle.finish_cycle, handle.stats.as_dict(),
             _left_behind(handle.machine),
             handle.machine.trace_report().render() if traced else None)
            for handle in handles]
    assert seen["event"] == seen["dense"]
    finishes = [entry[0] for entry in seen["event"]]
    assert finishes[0] < min(finishes[1:])
    assert len(held) == 3 and held[0] > 0 and held[-1] == 0


#: ``tick`` calls of one event-core run.  Pinned at ``b1e8b16``, where
#: the unit phase scanned every node and ticked the running ones;
#: re-pinned at ``adab8e1`` + PR 19, which deleted
#: ``OuterControllerSim._predict_park``: every count rose by exactly
#: the number of predictions that used to succeed (each saved the one
#: next, unmoved outer tick, which now runs and parks itself) — e.g.
#: gemm 46 -> 47, bfs 1 021 -> 1 057.  Cycles and executed cycles did
#: not move.  Lowered when compute leaves began to follow their own
#: logs: a leaf that emits nothing parks across its block instead of
#: ticking per issue (e.g. gemm 47 -> 33, cnn 305 -> 95); cycles did
#: not move.  Lowered again when a tile transfer became a burst stream
#: the DRAM model pulls: the engine ticks once when it starts (and once
#: more to complete) instead of on every issue cycle (e.g. gemm 33 ->
#: 28, cnn 95 -> 72, bfs 1 057 -> 1 015); cycles did not move.  Lowered
#: once more when a gather or scatter became an address stream too: it
#: ticks at its start and at its last completion instead of on every
#: cycle it dispatched or waited on queue room (smdv 58 -> 42, pagerank
#: 177 -> 137, bfs 1 015 -> 995); cycles did not move.
REGISTRY_TINY_TICKS = {
    "innerproduct": 29, "outerproduct": 28, "blackscholes": 32,
    "tpchq6": 37, "gemm": 28, "gda": 50, "logreg": 169, "sgd": 179,
    "kmeans": 277, "cnn": 72, "smdv": 42, "pagerank": 137, "bfs": 995,
}

#: the two ``multi_tenant`` benchmark mixes at ``small``: 18 624 ticks
#: per pass (6 223 + 12 338 = 18 561 with ``_predict_park``), 13 824
#: once compute leaves park across their blocks (was 6 282 + 12 342),
#: 1 410 once tile transfers are streams (was 3 732 + 10 092)
MIX_SMALL_TICKS = [
    (("gemm", "tpchq6", "innerproduct", "outerproduct"), (1, 1, 1, 1),
     731),
    (("gemm", "tpchq6", "tpchq6", "tpchq6"), (8, 1, 1, 1), 679),
]


def _count_ticks(machines):
    """Wrap every node's ``tick``; returns the one-element call count."""
    calls = [0]
    for machine in machines:
        for node in machine._nodes:
            def counted(cycle, tick=node.tick):
                calls[0] += 1
                tick(cycle)
            node.tick = counted
    return calls


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_run_queue_ticks_what_the_scan_ticked_registry(app):
    compiled = compile_to_bitstream(app.name, "tiny")
    machine = compiled.machine()
    calls = _count_ticks([machine])
    machine.run()
    assert calls[0] == REGISTRY_TINY_TICKS[app.name]


@pytest.mark.parametrize("apps,priorities,ticks", MIX_SMALL_TICKS,
                         ids=["uniform", "weighted"])
def test_run_queue_ticks_what_the_scan_ticked_mixes(apps, priorities,
                                                    ticks):
    packing = pack_apps(apps, "small")
    fabric = Fabric()
    handles = [fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                 name=t.footprint.app, priority=p)
               for t, p in zip(packing.tenants, priorities)]
    calls = _count_ticks([handle.machine for handle in handles])
    fabric.run()
    assert calls[0] == ticks
