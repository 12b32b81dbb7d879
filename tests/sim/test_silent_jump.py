"""Completions that wake nobody ride the fast-forward, and cycles in
which only burst streams and channels act skip the unit phase.

A burst completion that reaches a transfer engine parked on its own
latency park, with other bursts of it still outstanding, changes
nothing a unit observes (ARCHITECTURE §5, rule 1).  While the memory
system runs alone (``EventScheduler._run_alone``), the event core steps
the cycles in which tile streams admit or channels hold queued
requests, with no unit phase, and once only completions are left it
lands every one before the first that wakes a unit in one pass
(``DramModel.drain``; rules 3 and 4).  Every case here makes
completions land inside such a run — counted, so a case that stops
doing so fails rather than passing vacuously — and requires what the
dense loop leaves: SimStats, stall attribution, DRAM images, and the
error's type, message and cycle when the run fails.
"""

import dataclasses

import numpy as np
import pytest

from repro.arch.params import DramParams
from repro.bitstream import Bitstream
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, Scheme, StreamStore,
                        TileLoad, TileStore, validate)
from repro.dram.model import DramModel
from repro.errors import ReproError
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import Fabric, Machine
from repro.sim.batch import run_batch
from repro.sim.leaves import StreamStoreSim
from repro.sim.scheduler import EventScheduler
from repro.tenancy import pack_apps
from repro.trace import RingTracer

from tests.dram.test_ddr3_command_log import _memcpy
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


@pytest.fixture
def drains(monkeypatch):
    """Records every delivery pass (``DramModel.drain``), grouped by the
    fast-forward it ran in: per pass ``(first, last, count, stop,
    store)`` — the cycles of its first and last delivery (None when it
    delivered nothing), how many it delivered, the cycle it stopped
    before, and whether a stream store had bursts in flight — plus
    ``raised``, the passes an error left, and ``landed``: per DRAM
    model, the requests its passes were due to deliver."""
    seen = {"runs": [], "raised": 0, "landed": {}}
    fast_forward = EventScheduler._fast_forward
    drain = DramModel.drain

    def grouping(self, cycle, live, max_cycles):
        seen["runs"].append([])
        return fast_forward(self, cycle, live, max_cycles)

    def recording(model, stop, last):
        first = model.next_completion()
        before = model._delivered
        store = any(isinstance(w, StreamStoreSim) for w in model.wakers)
        seen["landed"].setdefault(id(model), []).extend(
            request for due, _, request in model._completed if due < stop)
        try:
            drain(model, stop, last)
        except ReproError:
            seen["raised"] += 1
            raise
        count = model._delivered - before
        seen["runs"][-1].append((first if count else None,
                                 model.cycle if count else None, count,
                                 stop, store))

    monkeypatch.setattr(EventScheduler, "_fast_forward", grouping)
    monkeypatch.setattr(DramModel, "drain", recording)
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


def _solo(mode, sram_words=WORDS, streams=1, traced=False, configure=None,
          **kwargs):
    dhdl = _copy_program(sram_words)
    config = _config(dhdl, streams)
    machine = Machine(dhdl, config if configure is None
                      else configure(config), scheduler=mode,
                      tracer=RingTracer(sample=1) if traced else None,
                      **kwargs)
    return _observe(machine.run, [machine])


def _one_bank(config):
    """``config`` on one channel, one bank, one burst per row: every
    burst of the copy row-misses, so a one-deep queue holds the load's
    stream back for tens of cycles between admits."""
    return dataclasses.replace(config, params=dataclasses.replace(
        config.params, dram=DramParams(channels=1, banks_per_channel=1,
                                       row_bytes=64, queue_depth=1)))


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
        mode, streams=streams, traced=True, configure=_one_bank))
    assert event["error"] is None
    assert event["stats"][0]["dram_stall_cycles"] > 0
    assert steps["stepped"] > WORDS // 16


def test_watchdog_trips_inside_the_steps(jumps, steps):
    """A blocked stream makes no progress between the bursts its
    one-deep queue lets through: the 12-cycle watchdog trips while the
    load still has bursts to admit."""
    event, _ = _both(jumps, lambda mode: _solo(mode, watchdog=12,
                                                configure=_one_bank))
    kind, message, cycles = event["error"]
    assert kind == "DeadlockError" and "busy leaves: ['load']" in message
    assert steps["stepped"] > 0
    dhdl = _copy_program()
    machine = Machine(dhdl, _one_bank(_config(dhdl)), watchdog=12)
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


# -- the delivery pass: everything before the first wake, at once ----------


def test_a_pipelined_memcpy_steps_no_delivery_only_cycle(monkeypatch):
    """A pipelined 16 x 512 memcpy: the run-alone loop steps the cycles
    in which a stream admits or a channel holds a queued request, and
    no other.  Every cycle after that in which only completions land
    is covered by a delivery pass (``memory_steps`` counts the stepped
    cycles, each one ``DramModel.tick``)."""
    seen = {"ticks": 0, "idle": 0}
    run_alone = EventScheduler._run_alone

    def counting(self, horizon, live, acted):
        dram = self.dram
        tick = dram.tick

        def counted():
            seen["ticks"] += 1
            seen["idle"] += not dram.streams and not any(
                channel.queue for channel in dram.channels)
            tick()

        dram.tick = counted
        try:
            return run_alone(self, horizon, live, acted)
        finally:
            del dram.tick

    monkeypatch.setattr(EventScheduler, "_run_alone", counting)
    machine = Machine(*_memcpy(Scheme.PIPELINE, 16, 512))
    stats = machine.run()
    sched = machine.scheduler_stats
    assert seen["idle"] == 0
    assert sched.memory_steps == seen["ticks"] > 16 * 512 // 16
    assert sched.memory_steps < sched.fast_forwarded_cycles
    assert (sched.executed_cycles + sched.fast_forwarded_cycles
            == stats.cycles)


def test_a_pass_crosses_no_retirement_boundary(jumps, drains):
    """A pipelined memcpy through a double-buffered scratchpad: its
    drains run across multiples of 256, where the dense loop runs the
    retirement sweep between two cycles' deliveries.  The fast-forward
    splits its passes there, so a delivery before the boundary lands in
    the buffers the sweep has not retired yet, and one after it in
    those it left."""
    build = lambda: _memcpy(Scheme.PIPELINE, 8, 512)    # noqa: E731

    def solo(mode):
        machine = Machine(*build(), scheduler=mode)
        return _observe(machine.run, [machine])

    def boundary(cycle):
        """The first multiple of 256 at or after ``cycle``."""
        return -(-cycle // 256) * 256

    event, seen = _both(jumps, solo)
    assert event["error"] is None and seen["delivered"] > 256
    runs = [[entry for entry in run if entry[2]] for run in drains["runs"]]
    # some fast-forward delivers on both sides of a boundary ...
    assert any(boundary(a[1]) < c[0] for run in runs for a in run
               for c in run)
    # ... and no single pass does
    for run in runs:
        for first, last, _, _, _ in run:
            assert last <= boundary(first)


def test_the_watchdog_trip_is_a_pass_horizon(jumps, drains):
    """As ``test_watchdog_trips_inside_a_jump``: each pass stops at the
    watchdog trip its machine's last delivery sets, 12 + 1 cycles on;
    the next pass goes on from there, and the last one, which lands
    nothing, stops at the cycle the main loop then trips in."""
    plan = FaultPlan([FaultEvent(cycle=40, kind="dram_slow", channel=0,
                                 extra=80)])
    event, _ = _both(jumps, lambda mode: _solo(mode, watchdog=12,
                                                fault_plan=plan))
    kind, _, cycles = event["error"]
    assert kind == "FaultError"
    run = max(drains["runs"], key=len)
    assert len(run) > 2 and run[-1][2] == 0 and run[-1][3] == cycles[0]
    for before, after in zip(run, run[1:]):
        assert after[3] == before[1] + 12 + 1


def test_a_corruption_in_flight_lands_through_a_pass(jumps, drains):
    """A ``dram_corrupt`` of a word whose load burst a pass lands, at
    the cycle after the burst's submit: the flip is read when the pass
    lands the burst, as the dense loop reads it when its cycle
    delivers it."""
    dhdl = _copy_program()
    probe = Machine(dhdl, _config(dhdl))
    probe.run()
    jumps.update(delivered=0, raised=0)
    base = probe.image.byte_addr("a", 0)
    loads = [request for request in drains["landed"][id(probe.dram)]
             if not request.is_write
             and request.complete_cycle > request.arrival_cycle + 1]
    request = loads[len(loads) // 2]
    word = (request.byte_addr - base) // 4
    flip = request.arrival_cycle + 1
    plan = FaultPlan([FaultEvent(cycle=flip, kind="dram_corrupt",
                                 array="a", word=word, xor_mask=1 << 22)])
    drains["landed"].clear()
    event, seen = _both(jumps, lambda mode: _solo(mode, fault_plan=plan))
    assert event["error"] is None and seen["delivered"] > 32
    out = np.frombuffer(event["images"][0]["o"], np.float32)
    assert out[word] != word and out[word + 16] == word + 16
    (landed,) = drains["landed"].values()
    assert request.byte_addr in {r.byte_addr for r in landed
                                 if r.arrival_cycle < flip}


def test_a_tile_overrun_is_raised_by_a_pass(jumps, drains):
    """The load's 63rd burst overruns a scratchpad two bursts short
    inside a delivery pass: the error leaves the clocks at that
    burst's cycle, where the dense loop's stand."""
    event, _ = _both(jumps, lambda mode: _solo(
        mode, sram_words=WORDS - 32))
    assert event["error"][:2] == ("SimulationError",
                                  "load: tile overruns scratchpad 'tile'")
    assert drains["raised"] == 1


def _filter_and_copy(n=256):
    """A pipelined pair of iterations: a load, a streaming filter whose
    stream store writes every kept word back, and a tile store of the
    loaded tile — the tile store's completions and the stream store's
    land in the same drains."""
    data = np.arange(1, n + 1, dtype=np.float32)
    dhdl = DhdlProgram("filter_copy")
    source = dhdl.dram(Array("a", (2 * n,), E.FLOAT32, data=np.tile(
        data, 2)))
    kept = dhdl.dram(Array("kept", (2 * n,), E.FLOAT32))
    copy = dhdl.dram(Array("o", (2 * n,), E.FLOAT32))
    dhdl.dram(Array("count", (), E.INT32))
    tile = dhdl.sram("tile", (n,), E.FLOAT32, nbuf=2)
    fifo = dhdl.fifo("kept_fifo", E.FLOAT32, depth=4)
    count_reg = dhdl.reg("count_reg", E.INT32)
    t, i = E.Idx("t"), E.Idx("i")
    pipe = OuterController("pipe", Scheme.PIPELINE, chain=CounterChain(
        [Counter(0, 2, par=1)], [t]))
    dhdl.root.add(pipe)
    pipe.add(TileLoad("load", source, tile, (t * n,), (n,)))
    stream = OuterController("stream", Scheme.STREAMING)
    pipe.add(stream)
    stream.add(InnerCompute(
        "select", CounterChain([Counter(0, n, par=16)], [i]),
        [EmitStmt(fifo, tile[i] > 0.0, tile[i])]))
    stream.add(StreamStore("drain", kept, fifo, count_reg,
                           base_offset=t * n))
    pipe.add(TileStore("store", copy, tile, (t * n,), (n,)))
    dhdl.reg_outputs[count_reg.name] = "count"
    validate(dhdl)
    return dhdl


def test_a_stream_store_in_flight_stops_the_pass(jumps, drains):
    """Each completion of a stream store wakes it, so a pass that starts
    with stream-store bursts in flight stops before the first of them,
    however many completions of other engines come before."""

    def solo(mode):
        dhdl = _filter_and_copy()
        machine = Machine(dhdl, _config(dhdl), scheduler=mode)
        return _observe(machine.run, [machine])

    event, seen = _both(jumps, solo)
    assert event["error"] is None and seen["delivered"] > 0
    assert any(store and count for run in drains["runs"]
               for _, _, count, _, store in run)


def test_a_batch_follower_drains_as_the_dense_loop(jumps, drains):
    """A batch's follower replays its leader's compute but runs its
    transfers on its own DRAM model: its drains land what a dense
    batch's follower delivers cycle by cycle."""

    def batch(mode):
        dhdl = _copy_program()
        source = Bitstream("copy", "tiny", dhdl, _config(dhdl))
        result = run_batch(source, [{}, {}], scheduler=mode)
        machines = [inst.machine for inst in result]
        seen = _observe(lambda: None, machines)
        seen["roles"] = [inst.role for inst in result]
        seen["cycles"] = [inst.stats.cycles for inst in result]
        return seen

    drains["landed"].clear()
    event, seen = _both(jumps, batch)
    assert event["roles"] == ["leader", "replay"]
    assert seen["delivered"] > 2 * 32
    assert len(drains["landed"]) == 2       # leader's model, follower's
    assert all(len(landed) > 32 for landed in drains["landed"].values())
