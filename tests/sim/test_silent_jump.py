"""Completions that wake nobody ride the fast-forward, and cycles in
which only burst streams and channels act skip the unit phase.

A burst completion that reaches a transfer engine parked on its own
latency park, with other bursts of it still outstanding, changes
nothing a unit observes (ARCHITECTURE §5, rule 1).  The event core
delivers such completions at their own cycles while the memory system
runs alone (``EventScheduler._run_alone``) instead of executing a cycle for
each, and steps there too the cycles in which tile streams admit or
channels hold queued requests, with no unit phase (rules 3 and 4).
Every case here makes completions land inside such a run — counted, so
a case that stops doing so fails rather than passing vacuously — and
requires what the dense loop leaves: SimStats, stall attribution, DRAM
images, and the error's type, message and cycle when the run fails.
"""

import dataclasses

import numpy as np
import pytest

from repro.dhdl import (DhdlProgram, OuterController, Scheme, TileLoad,
                        TileStore, validate)
from repro.dram.model import DramModel
from repro.dram.timing import DramGeometry
from repro.errors import ReproError
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import Fabric, Machine
from repro.sim.scheduler import EventScheduler
from repro.tenancy import pack_apps
from repro.trace import RingTracer

from tests.sim.test_wake_filter import _config

WORDS = 64 * 16


def _copy_program(sram_words=WORDS):
    """load 64 bursts of ``a`` into a scratchpad, store them to ``o``."""
    data = np.arange(WORDS, dtype=np.float32)
    dhdl = DhdlProgram("copy")
    source = dhdl.dram(Array("a", (WORDS,), E.FLOAT32, data=data))
    sink = dhdl.dram(Array("o", (WORDS,), E.FLOAT32))
    tile = dhdl.sram("tile", (sram_words,), E.FLOAT32)
    body = OuterController("body", Scheme.SEQUENTIAL)
    dhdl.root.add(body)
    body.add(TileLoad("load", source, tile, (0,), (WORDS,)))
    body.add(TileStore("store", sink, tile, (0,), (WORDS,)))
    validate(dhdl)
    return dhdl


@pytest.fixture
def jumps(monkeypatch):
    """Counts what the event core's jumps deliver: ``delivered`` (and
    ``raised`` when a delivery's callback raised inside a jump)."""
    seen = {"delivered": 0, "raised": 0}
    fast_forward = EventScheduler._fast_forward

    def counting(self, cycle, live, max_cycles):
        before = self.dram._delivered
        try:
            return fast_forward(self, cycle, live, max_cycles)
        except ReproError:
            seen["raised"] += 1
            raise
        finally:
            seen["delivered"] += self.dram._delivered - before

    monkeypatch.setattr(EventScheduler, "_fast_forward", counting)
    return seen


@pytest.fixture
def steps(monkeypatch):
    """Counts the cycles ``EventScheduler._run_alone`` stepped while a
    tile stream was admitting (``stepped``; ``raised`` when an error
    left it)."""
    seen = {"stepped": 0, "raised": 0}
    run_alone = EventScheduler._run_alone

    def counting(self, horizon, live, acted):
        dram = self.dram
        tick = dram.tick

        def counted():
            seen["stepped"] += bool(dram.streams)
            tick()

        dram.tick = counted
        try:
            return run_alone(self, horizon, live, acted)
        except ReproError:
            seen["raised"] += 1
            raise
        finally:
            del dram.tick

    monkeypatch.setattr(EventScheduler, "_run_alone", counting)
    return seen


def _observe(run, machines):
    """Everything observable after ``run()``: the error (type, message,
    every machine's cycle), stats, DRAM images, attribution."""
    error = None
    try:
        run()
    except ReproError as err:
        error = (type(err).__name__, str(err), [m.cycle for m in machines])
    seen = {"error": error,
            "stats": [dataclasses.asdict(m.stats) for m in machines],
            "images": [{name: buf.tobytes()
                        for name, buf in m.image.buffers.items()}
                       for m in machines]}
    for k, machine in enumerate(machines):
        tracer = machine.tracer
        if tracer is not None:
            seen[f"counts{k}"] = tracer.counts
            seen[f"timelines{k}"] = {unit: list(timeline) for unit, timeline
                                     in tracer.timelines.items()}
            if error is None:
                seen[f"report{k}"] = machine.trace_report().render()
    return seen


def _solo(mode, sram_words=WORDS, streams=1, traced=False, dram=None,
          **kwargs):
    dhdl = _copy_program(sram_words)
    machine = Machine(dhdl, _config(dhdl, streams), scheduler=mode,
                      tracer=RingTracer(sample=1) if traced else None,
                      dram=None if dram is None else dram(), **kwargs)
    return _observe(machine.run, [machine])


def _one_bank(queue_depth=1):
    """One channel, one bank, one burst per row: every burst of the copy
    row-misses, so a one-deep queue holds the load's stream back for
    tens of cycles between admits."""
    return DramModel(geometry=DramGeometry(channels=1, banks_per_channel=1,
                                           row_bytes=64),
                     queue_depth=queue_depth)


def _both(jumps, build):
    """``build(mode)`` under the dense loop and the event core; the
    event run's jump counts."""
    dense = build("dense")
    assert jumps["delivered"] == 0
    event = build("event")
    assert event == dense
    return event, dict(jumps)


@pytest.mark.parametrize("streams", [1, 4])
def test_traced_run(jumps, streams):
    event, seen = _both(jumps, lambda mode: _solo(mode, streams=streams,
                                                  traced=True))
    assert event["error"] is None
    assert seen["delivered"] > 32


def test_dram_slow_and_a_corruption_in_flight(jumps):
    """``dram_slow`` from cycle 40 on channel 0; at cycle ``f`` a word
    of ``a`` is flipped whose burst was issued before ``f`` and is
    delivered after it, so the copy carries the flip."""
    issued = {}
    delivered = {}
    word = 60 * 16                 # burst 60: issued late, in flight
    plain = _copy_program()
    probe = Machine(plain, _config(plain), scheduler="dense")
    deliver = probe.dram.deliver

    def recording():
        ready = deliver()
        for request in ready:
            issued[request.byte_addr] = request.arrival_cycle
            delivered[request.byte_addr] = probe.dram.cycle
        return ready

    probe.dram.deliver = recording
    probe.run()
    addr = probe.image.byte_addr("a", word)
    flip = issued[addr] + 1
    assert flip < delivered[addr]
    plan = FaultPlan([
        FaultEvent(cycle=40, kind="dram_slow", channel=0, extra=40),
        FaultEvent(cycle=flip, kind="dram_corrupt", array="a", word=word,
                   xor_mask=1 << 22)])
    event, seen = _both(jumps, lambda mode: _solo(mode, fault_plan=plan))
    assert event["error"] is None
    assert seen["delivered"] > 32
    out = np.frombuffer(event["images"][0]["o"], np.float32)
    assert out[word] != word and out[word + 1] == word + 1


def test_weighted_co_run(jumps):
    packing = pack_apps(("gemm", "tpchq6"), "tiny")
    assert packing.feasible, packing.reason

    def build(mode):
        fabric = Fabric()
        handles = [fabric.add_tenant(tenant.artifact.dhdl,
                                     tenant.artifact.config,
                                     name=tenant.footprint.app,
                                     priority=priority,
                                     tracer=RingTracer(sample=1))
                   for tenant, priority in zip(packing.tenants, (8, 1))]
        machines = [handle.machine for handle in handles]
        seen = _observe(lambda: fabric.run(scheduler=mode), machines)
        seen["qos"] = fabric.qos_summary()
        seen["finish"] = [handle.finish_cycle for handle in handles]
        return seen

    event, seen = _both(jumps, build)
    assert event["error"] is None
    assert event["qos"]["weighted"]
    assert all(row["arb_won"] for row in event["qos"]["tenants"].values())
    assert seen["delivered"] > 0


def test_watchdog_trips_inside_a_jump(jumps):
    """Channel 0 slows by 80 cycles at cycle 40: the other channels'
    completions arrive inside one jump, then nothing for longer than
    the 12-cycle watchdog."""
    plan = FaultPlan([FaultEvent(cycle=40, kind="dram_slow", channel=0,
                                 extra=80)])
    event, seen = _both(jumps, lambda mode: _solo(
        mode, watchdog=12, fault_plan=plan))
    kind, message, cycles = event["error"]
    assert kind == "FaultError" and "no progress since cycle" in message
    assert seen["delivered"] > 16
    assert cycles == [131]


def test_tile_overrun_raises_inside_a_jump(jumps):
    """The scratchpad is two bursts short: the load's 63rd burst
    overruns it while the 64th is still in flight, so the error is
    raised by a delivery inside a jump."""
    event, seen = _both(jumps, lambda mode: _solo(
        mode, sram_words=WORDS - 32))
    assert event["error"] == ("SimulationError",
                              "load: tile overruns scratchpad 'tile'",
                              [117])
    assert seen["raised"] == 1 and seen["delivered"] > 32


def test_unit_fail_ends_a_latency_park(jumps):
    """The load dies at cycle 90, parked on its latency park with bursts
    in flight.  A dead unit's tick charges nothing, so from the fault
    on the park must not be charged either: the watchdog trips with
    the load's busy cycles those of the dense loop."""
    plan = FaultPlan([FaultEvent(cycle=90, kind="unit_fail",
                                 unit="load")])
    event, _ = _both(jumps, lambda mode: _solo(mode, watchdog=50,
                                                fault_plan=plan))
    kind, message, _ = event["error"]
    assert kind == "FaultError" and "unit_fail load" in message
    assert event["stats"][0]["busy_cycles"]["load"] < 90


# -- tile streams admitting while the memory system runs alone ------------


@pytest.mark.parametrize("streams", [1, 4])
def test_traced_run_steps_streams(jumps, steps, streams):
    """Each stepped cycle is opened and closed by the core: the load's
    admit marks (``BUSY``, ``DRAM_BANDWIDTH``) and the parked store's
    are the dense loop's, cycle by cycle."""
    event, _ = _both(jumps, lambda mode: _solo(
        mode, streams=streams, traced=True, dram=_one_bank))
    assert event["error"] is None
    assert event["stats"][0]["dram_stall_cycles"] > 0
    assert steps["stepped"] > WORDS // 16


def test_watchdog_trips_inside_the_steps(jumps, steps):
    """A blocked stream makes no progress between the bursts its
    one-deep queue lets through: the 12-cycle watchdog trips while the
    load still has bursts to admit."""
    event, _ = _both(jumps, lambda mode: _solo(mode, watchdog=12,
                                                dram=_one_bank))
    kind, message, cycles = event["error"]
    assert kind == "DeadlockError" and "busy leaves: ['load']" in message
    assert steps["stepped"] > 0
    dhdl = _copy_program()
    machine = Machine(dhdl, _config(dhdl), watchdog=12, dram=_one_bank())
    with pytest.raises(ReproError):
        machine.run()
    load = machine._leaves[0]
    assert load._bursts and machine.dram.streams == [load]
    assert machine.cycle == cycles[0]


def test_tile_overrun_raises_inside_the_steps(jumps, steps):
    """A one-burst scratchpad: the load's second burst overruns it on
    delivery while its stream still admits, so the error leaves the
    steps, with the clocks where the dense loop's stand."""
    event, _ = _both(jumps, lambda mode: _solo(mode, sram_words=16))
    kind, message, cycles = event["error"]
    assert (kind, message) == ("SimulationError",
                               "load: tile overruns scratchpad 'tile'")
    assert cycles[0] < WORDS // 16
    assert steps["raised"] == 1


def test_unit_fail_stops_a_streaming_engine(jumps, steps):
    """The load dies at cycle 20, halfway through admitting its table:
    its stream stops with its tick, what it has in flight still lands,
    and the watchdog's typed fault names it."""
    plan = FaultPlan([FaultEvent(cycle=20, kind="unit_fail",
                                 unit="load")])
    event, _ = _both(jumps, lambda mode: _solo(mode, watchdog=50,
                                                fault_plan=plan))
    kind, message, _ = event["error"]
    assert kind == "FaultError" and "unit_fail load" in message
    assert event["stats"][0]["busy_cycles"]["load"] < 20
    assert steps["stepped"] > 0
