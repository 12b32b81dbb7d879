"""A burst completion wakes its transfer leaf only if the leaf's next
tick would differ.

A ``TileLoad`` whose burst stream the DRAM model is still admitting
reads nothing a completion changes when it is not admitting; once it
has issued everything it sits on its pure-latency park
(``_TransferCommon._park_latency``), and each completion that leaves
bursts outstanding would only make it charge the same busy cycle, mark
the same ``DRAM_LATENCY`` and re-park — which the park already replays
— so the completion callback skips those wakes.  Everything observable
stays equal to the dense loop; a ``StreamStore``, whose parks depend on
its FIFO, is still woken by every completion.
"""

import dataclasses

import numpy as np
import pytest

from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, Scheme, StreamStore,
                        TileLoad, TileStore, validate)
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import AgAssignment, FabricConfig, LeafTiming, Machine
from repro.sim.scheduler import EventScheduler
from repro.trace import RingTracer

BURSTS = 64
WORDS = BURSTS * 16


def _config(dhdl, streams=1) -> FabricConfig:
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(
            ag_ids=tuple(range(streams)))
    config.pcus_used = config.pmus_used = 4
    config.ags_used = 2 * streams
    return config


def _copy_program():
    """load 64 bursts -> store 64 bursts."""
    data = np.arange(WORDS, dtype=np.float32)
    dhdl = DhdlProgram("copy")
    source = dhdl.dram(Array("a", (WORDS,), E.FLOAT32, data=data))
    sink = dhdl.dram(Array("o", (WORDS,), E.FLOAT32))
    tile = dhdl.sram("tile", (WORDS,), E.FLOAT32)
    body = OuterController("body", Scheme.SEQUENTIAL)
    dhdl.root.add(body)
    body.add(TileLoad("load", source, tile, (0,), (WORDS,)))
    body.add(TileStore("store", sink, tile, (0,), (WORDS,)))
    validate(dhdl)
    return dhdl, data


def _count_ticks(machine, name):
    leaf = next(leaf for leaf in machine._leaves if leaf.name == name)
    ticks = [0]

    def counted(cycle, tick=leaf.tick):
        ticks[0] += 1
        tick(cycle)

    leaf.tick = counted
    return ticks


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_tile_transfers_tick_per_activation_not_per_issue_cycle(streams):
    """The DRAM model admits a tile's bursts (its stream), so the engine
    ticks when it starts and when its last completion wakes it — not
    on each of its ``BURSTS // streams`` issue cycles, and not on the
    completions before the last."""
    dhdl, data = _copy_program()
    machine = Machine(dhdl, _config(dhdl, streams))
    load_ticks = _count_ticks(machine, "load")
    store_ticks = _count_ticks(machine, "store")
    stats = machine.run()
    np.testing.assert_array_equal(machine.result("o"), data)
    assert load_ticks == store_ticks == [2]
    assert stats.busy_cycles["load"] > BURSTS // streams


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("streams", [1, 4])
def test_skipped_wakes_are_unobservable(streams, traced):
    seen = {}
    for mode in ("dense", "event"):
        dhdl, data = _copy_program()
        tracer = RingTracer(sample=1) if traced else None
        machine = Machine(dhdl, _config(dhdl, streams), tracer=tracer,
                          scheduler=mode)
        stats = machine.run()
        np.testing.assert_array_equal(machine.result("o"), data)
        seen[mode] = {"stats": dataclasses.asdict(stats)}
        if traced:
            seen[mode]["report"] = machine.trace_report().render()
            seen[mode]["timelines"] = {
                unit: list(timeline)
                for unit, timeline in tracer.timelines.items()}
    assert seen["event"] == seen["dense"]
    busy = seen["event"]["stats"]["busy_cycles"]
    assert busy["load"] > BURSTS // streams     # the park charged the wait


def test_stream_store_is_woken_by_every_completion(monkeypatch):
    n = 256
    data = np.arange(1, n + 1, dtype=np.float32)    # all kept: 16 bursts
    dhdl = DhdlProgram("filter")
    source = dhdl.dram(Array("a", (n,), E.FLOAT32, data=data))
    kept = dhdl.dram(Array("kept", (n,), E.FLOAT32))
    dhdl.dram(Array("count", (), E.INT32))
    tile = dhdl.sram("tile", (n,), E.FLOAT32)
    fifo = dhdl.fifo("kept_fifo", E.FLOAT32, depth=4)
    count_reg = dhdl.reg("count_reg", E.INT32)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("load", source, tile, (0,), (n,)))
    stream = OuterController("stream", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    stream.add(InnerCompute(
        "select", CounterChain([Counter(0, n, par=16)], [i]),
        [EmitStmt(fifo, tile[i] > 0.0, tile[i])]))
    stream.add(StreamStore("drain", kept, fifo, count_reg))
    dhdl.reg_outputs[count_reg.name] = "count"
    validate(dhdl)

    wakes = {}
    node_event = EventScheduler.node_event

    def counting(self, node):
        wakes[node.name] = wakes.get(node.name, 0) + 1
        node_event(self, node)

    monkeypatch.setattr(EventScheduler, "node_event", counting)
    machine = Machine(dhdl, _config(dhdl))
    stats = machine.run()
    assert machine.scalar("count") == n
    np.testing.assert_array_equal(machine.result("kept"), data)
    assert stats.dram["writes"] == n // 16
    assert wakes["drain"] == n // 16            # one per burst it wrote
    assert wakes["load"] < n // 16              # filtered
