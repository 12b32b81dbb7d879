"""FIFO stall attribution: dense vs event equality under fast-forward.

A streaming producer/drain pair is built so that *both* stall classes
fire — ``empty_stalls`` while the drain waits out the initial tile load,
``full_stalls`` once the two-emit producer (32 words/cycle) overruns the
drain (16 words/cycle) — and the event scheduler's fast-forward effect
replay must reproduce the dense loop's counters exactly.

Also holds the regression for the per-statement FIFO room precheck:
several EmitStmts feeding one FIFO used to be checked one at a time, so
a batch could pass the check with room for only one statement's worth
of lanes and overflow the FIFO on the second push.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import freeze_program
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, Scheme, StreamStore,
                        TileLoad, validate)
from repro.patterns import Array, Dyn, Program
from repro.patterns import expr as E
from repro.sim import AgAssignment, FabricConfig, LeafTiming, Machine

N = 256


def _fifo_bound():
    """Producer outruns drain: 2 EmitStmts x 16 lanes vs 16-word bursts."""
    dhdl = DhdlProgram("fifo_bound")
    src = dhdl.dram(Array("a", (N,), E.FLOAT32,
                          data=np.arange(N, dtype=np.float32)))
    out = dhdl.dram(Array("o", (2 * N,), E.FLOAT32,
                          data=np.zeros(2 * N, dtype=np.float32)))
    tile = dhdl.sram("t", (N,), E.FLOAT32)
    fifo = dhdl.fifo("f", depth=4)  # 64-word capacity
    count = dhdl.reg("c", E.INT32, init=0)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("ld", src, tile, (0,), (N,)))
    stream = OuterController("s", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    chain = CounterChain([Counter(0, N, par=16)], [i])
    stream.add(InnerCompute("emit", chain,
                            [EmitStmt(fifo, True, tile[i]),
                             EmitStmt(fifo, True, tile[i] * 2.0)]))
    stream.add(StreamStore("drain", out, fifo, count))
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment()
    return dhdl, config


def _expected_interleave():
    src = np.arange(N, dtype=np.float32)
    out = np.empty(2 * N, dtype=np.float32)
    for b in range(N // 16):
        chunk = src[b * 16:(b + 1) * 16]
        out[b * 32:b * 32 + 16] = chunk
        out[b * 32 + 16:b * 32 + 32] = chunk * np.float32(2.0)
    return out


def _run(scheduler):
    dhdl, config = _fifo_bound()
    machine = Machine(dhdl, config, scheduler=scheduler)
    stats = machine.run()
    return machine, stats


def test_multi_emit_batch_does_not_overflow_fifo():
    """Regression: the room precheck must sum demand across EmitStmts
    feeding the same FIFO (this program used to raise 'FIFO overflow')."""
    machine, _ = _run("dense")
    np.testing.assert_array_equal(machine.result("o"),
                                  _expected_interleave())


def test_workload_exercises_both_stall_classes():
    machine, stats = _run("dense")
    fifo = machine.fifos["f"]
    assert fifo.full_stalls > 0, "producer never hit a full FIFO"
    assert fifo.empty_stalls > 0, "drain never starved"
    assert stats.fifo_stall_cycles == fifo.full_stalls
    assert stats.fifo_empty_stall_cycles == fifo.empty_stalls


@pytest.mark.parametrize("counter", ["full_stalls", "empty_stalls",
                                     "pushed", "popped"])
def test_dense_and_event_fifo_counters_identical(counter):
    dense, _ = _run("dense")
    event, _ = _run("event")
    assert (getattr(dense.fifos["f"], counter)
            == getattr(event.fifos["f"], counter))


def test_dense_and_event_stats_identical_with_fast_forward():
    """The event scheduler must fast-forward through the stall spans and
    still replay the per-cycle stall accounting exactly."""
    dense, sd = _run("dense")
    event, se = _run("event")
    assert dataclasses.asdict(sd) == dataclasses.asdict(se)
    np.testing.assert_array_equal(dense.result("o"), event.result("o"))
    sched = event.scheduler_stats
    assert sched.fast_forwarded_cycles > 0
    assert sched.executed_cycles + sched.fast_forwarded_cycles == se.cycles


def test_compiled_filter_empty_stalls_identical():
    """Same equality on the real compiler path: a FlatMap filter whose
    drain starves while the producer works through its input."""

    def build():
        program = Program("filter_stalls")
        src = program.input("src", (N,),
                            data=np.linspace(-1, 1, N).astype(np.float32))
        count = program.output("count", (), E.INT32)
        kept = program.output("kept", (Dyn(count),), max_elems=N)
        program.filter("keep", kept, count, N,
                       cond=lambda i: src[i] > -2.0,
                       value=lambda i: src[i] * 2.0).set_par(16)
        return freeze_program(program, program.name, "tiny")

    runs = {}
    for mode in ("dense", "event"):
        compiled = build()
        machine = compiled.machine(scheduler=mode)
        stats = machine.run()
        fifo = machine.fifos["kept_fifo"]
        runs[mode] = (dataclasses.asdict(stats), fifo.full_stalls,
                      fifo.empty_stalls)
        assert fifo.empty_stalls > 0
    assert runs["dense"] == runs["event"]
