"""Machine-level edge cases: deadlock detection, cycle limits,
write-back, timing scaling."""

import numpy as np
import pytest

from repro.bitstream import CompileOptions
from repro.compiler import compile_to_bitstream, freeze_program
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, Scheme,
                        StreamStore, TileLoad, WriteStmt)
from repro.dhdl.analysis import scope_edges
from repro.errors import DeadlockError, SimulationError
from repro.patterns import Array, Fold, Program
from repro.patterns import expr as E
from repro.sim import AgAssignment, FabricConfig, LeafTiming, Machine

from tests.dhdl.reference_access import mem_reads, mem_writes


def test_watchdog_detects_streaming_deadlock():
    """A producer filling a FIFO nobody drains must trip the watchdog,
    not hang."""
    dhdl = DhdlProgram("dead")
    array_in = Array("a", (64,), E.FLOAT32,
                     data=np.ones(64, dtype=np.float32))
    dram_in = dhdl.dram(array_in)
    tile = dhdl.sram("t", (64,), E.FLOAT32)
    fifo = dhdl.fifo("f", depth=1)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("ld", dram_in, tile, (0,), (64,)))
    stream = OuterController("s", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    chain = CounterChain([Counter(0, 64, par=16)], [i])
    stream.add(InnerCompute("emit_only", chain,
                            [EmitStmt(fifo, True, tile[i])]))
    # no StreamStore: the FIFO fills and nothing drains it
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment()
    machine = Machine(dhdl, config, watchdog=500)
    with pytest.raises(DeadlockError, match="emit_only"):
        machine.run()


def test_max_cycles_guard():
    compiled = compile_to_bitstream("gemm", "tiny")
    machine = compiled.machine()
    with pytest.raises(SimulationError, match="max_cycles"):
        machine.run(max_cycles=3)


def test_reg_writeback_happens_once_at_epilogue():
    p = Program("t")
    a = p.input("a", (32,), data=np.ones(32, dtype=np.float32))
    o = p.output("o")
    p.fold("sum", o, 32, 0.0, lambda i: a[i], lambda x, y: x + y)
    compiled = freeze_program(p, p.name, "tiny")
    machine = compiled.machine()
    machine.run()
    assert machine.scalar("o") == pytest.approx(32.0)


def test_cycles_scale_linearly_for_streams():
    """Steady-state streaming throughput: 4x the data ~ 4x the cycles
    (the basis for the analytical extrapolation)."""
    def cycles(n):
        p = Program(f"s{n}")
        a = p.input("a", (n,),
                    data=np.ones(n, dtype=np.float32))
        o = p.output("o", (n,))
        p.map("scale", o, n, lambda i: a[i] * 2.0).set_par(16)
        compiled = freeze_program(p, p.name, "tiny", options=CompileOptions(
            tile_words=256, whole_budget=128))
        machine = compiled.machine()
        machine.run()
        return machine.stats.cycles

    small, big = cycles(2048), cycles(8192)
    assert big / small == pytest.approx(4.0, rel=0.25)


def test_stats_activity_reasonable():
    compiled = compile_to_bitstream("gemm", "small")
    machine = compiled.machine()
    stats = machine.run()
    activity = stats.activity(compiled.config)
    assert 0 < activity.pcu_activity <= 1
    assert activity.pcus_used == compiled.config.pcus_used
    assert stats.seconds() == pytest.approx(stats.cycles / 1e9)


def test_dram_stats_fields_present():
    compiled = compile_to_bitstream("innerproduct", "tiny")
    machine = compiled.machine()
    stats = machine.run()
    for key in ("reads", "writes", "row_hits", "row_misses", "bytes"):
        assert key in stats.dram
    assert 0 <= stats.dram_busy_fraction <= 1


def test_machine_rejects_restart_of_busy_root():
    compiled = compile_to_bitstream("gemm", "tiny")
    machine = compiled.machine()
    machine.root.start({}, ())
    with pytest.raises(SimulationError):
        machine.root.start({}, ())


def test_sim_is_deterministic():
    results = []
    for _ in range(2):
        compiled = compile_to_bitstream("kmeans", "tiny")
        machine = compiled.machine()
        stats = machine.run()
        results.append((stats.cycles, stats.ops_executed,
                        machine.result("centroids").tobytes()))
    assert results[0] == results[1]


def outcome(machine):
    """What a run leaves: its stats and its DRAM image."""
    return machine.stats.as_dict(), {
        name: buf.copy() for name, buf in machine.image.buffers.items()}


def assert_same_images(got, want):
    assert got.keys() == want.keys()
    for name, buf in want.items():
        assert got[name].dtype == buf.dtype
        assert got[name].tobytes() == buf.tobytes(), name


def assert_share_no_state(a, b):
    """No memory, register or DRAM buffer of machine ``a`` is ``b``'s."""
    assert a.mem is not b.mem and a.image is not b.image
    for name, pad in a.mem.scratchpads.items():
        other = b.mem.scratchpads[name]
        assert pad is not other
        for buf in pad.versions.values():
            assert not any(np.shares_memory(buf, theirs)
                           for theirs in other.versions.values()), name
    for name, reg in a.mem.registers.items():
        assert reg is not b.mem.registers[name]
    for name, buf in a.image.buffers.items():
        assert not np.shares_memory(buf, b.image.buffers[name]), name


@pytest.mark.parametrize("app", ["smdv", "tpchq6", "bfs"])
def test_two_machines_of_one_artifact_finish_like_a_solo_run(app):
    artifact = compile_to_bitstream(app, "tiny")
    solo = artifact.machine()
    solo.run()
    want = outcome(solo)
    first, second = artifact.machine(), artifact.machine()
    first.run()
    second.run()
    for machine in (first, second):
        stats, images = outcome(machine)
        assert stats == want[0]
        assert_same_images(images, want[1])
    assert_share_no_state(first, second)


def test_gather_out_of_bounds_index_reported():
    p = Program("t")
    idx = p.input("idx", (8,), E.INT32,
                  data=np.array([0, 1, 2, 3, 4, 5, 6, 99],
                                dtype=np.int32))
    table = p.input("tbl", (16,),
                    data=np.zeros(16, dtype=np.float32), offchip=True)
    o = p.output("o", (8,))
    p.map("g", o, 8, lambda i: table[idx[i]])
    compiled = freeze_program(p, p.name, "tiny")
    for mode in ("dense", "event"):
        machine = compiled.machine(scheduler=mode)
        with pytest.raises(SimulationError,
                           match="gather_tbl: gather index 99 out of "
                                 "bounds for 'tbl'"):
            machine.run()
        # the bound is read once per activation, not per address: the
        # bad index is still caught on the cycle it reaches the AG
        assert machine.cycle == 38


def test_deadlock_message_reports_progress_and_stall_causes():
    """With tracing on, the deadlock report names the last cycle that
    made progress and what the stuck units were waiting on."""
    from repro.trace import EventKind, RingTracer

    dhdl = DhdlProgram("dead")
    array_in = Array("a", (64,), E.FLOAT32,
                     data=np.ones(64, dtype=np.float32))
    dram_in = dhdl.dram(array_in)
    tile = dhdl.sram("t", (64,), E.FLOAT32)
    fifo = dhdl.fifo("f", depth=1)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("ld", dram_in, tile, (0,), (64,)))
    stream = OuterController("s", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    chain = CounterChain([Counter(0, 64, par=16)], [i])
    stream.add(InnerCompute("emit_only", chain,
                            [EmitStmt(fifo, True, tile[i])]))
    # no StreamStore: the FIFO fills and nothing ever drains it
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment()
    tracer = RingTracer()
    machine = Machine(dhdl, config, watchdog=500, tracer=tracer)
    with pytest.raises(DeadlockError) as err:
        machine.run()
    message = str(err.value)
    assert "no progress since cycle" in message
    assert str(tracer.last_progress_cycle) in message
    assert "stall causes" in message
    assert "fifo_full" in message  # the producer is backpressured
    # the tracer records the deadlock itself as a discrete event
    assert any(e.kind is EventKind.DEADLOCK for e in tracer.events)


@pytest.mark.parametrize("name", ["gemm", "kmeans", "bfs"])
def test_scope_edges_are_one_analysis_per_program(name):
    """The producer->consumer edges are a pure function of the program:
    analysed once, kept on it, and wired identically into every machine
    built from it.  Credits are the memory's N-buffer depth (DRAM
    arrays and FIFOs: 1)."""
    compiled = compile_to_bitstream(name, "tiny")
    dhdl = compiled.dhdl
    edges = scope_edges(dhdl)
    assert scope_edges(dhdl) is edges
    nbuf = {mem.name: mem.nbuf for mem in [*dhdl.srams, *dhdl.regs]}
    for ctrl, scope in edges.items():
        for producer, consumer, mem, credits in scope:
            assert producer < consumer
            assert mem in mem_writes(ctrl.children[producer])
            assert mem in (mem_reads(ctrl.children[consumer])
                           | mem_writes(ctrl.children[consumer]))
            assert credits == nbuf.get(mem, 1)

    def wired(machine):
        return {outer.name: [(e.producer, e.consumer, e.mem_name,
                              e.credits) for e in outer.edges]
                for outer in machine._outers}

    first = wired(Machine(dhdl, compiled.config))
    assert first == wired(Machine(dhdl, compiled.config))
    assert first == {ctrl.name: [(p, c, m, max(1, n))
                                 for p, c, m, n in scope]
                     for ctrl, scope in edges.items()}
    assert any(first.values())
