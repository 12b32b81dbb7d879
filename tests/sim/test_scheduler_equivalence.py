"""Dense vs event scheduler: cycle-exact equivalence.

The event-driven wakeup scheduler must be *indistinguishable* from the
dense tick-everything loop in every observable output: final results,
``SimStats`` (cycle counts, busy/stall counters, DRAM statistics), and
— with tracing on — the full stall-attribution breakdown and per-unit
timelines.  These tests sweep the whole benchmark registry plus the
failure paths (deadlock, max-cycles) under both schedulers.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        Gather, InnerCompute, OuterController, Scheme,
                        TileLoad, validate)
from repro.dhdl.memory import BankingMode
from repro.dram.model import DramModel
from repro.errors import DeadlockError, SimulationError
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import (AgAssignment, Fabric, FabricConfig, LeafTiming,
                       Machine)
from repro.sim.batch import run_batch
from repro.tenancy import co_run
from repro.trace import RingTracer


def _run(compiled, scheduler, traced=False):
    tracer = RingTracer(sample=4) if traced else None
    machine = compiled.machine(tracer=tracer, scheduler=scheduler)
    stats = machine.run()
    report = machine.trace_report() if traced else None
    return machine, stats, report


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_registry_stats_identical(app):
    program = app.build("tiny")
    expected = app.expected(program)
    compiled = freeze_program(program, app.name, "tiny")
    md, sd, _ = _run(compiled, "dense")
    me, se, _ = _run(compiled, "event")
    assert dataclasses.asdict(sd) == dataclasses.asdict(se)
    for name in expected:
        np.testing.assert_array_equal(md.result(name), me.result(name))
    app.check(program, {n: me.result(n) for n in expected}, expected)


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_registry_attribution_identical(app):
    """Traced runs: identical stall breakdown and RLE timelines."""
    compiled = compile_to_bitstream(app.name, "tiny")
    _, sd, rd = _run(compiled, "dense", traced=True)
    _, se, re_ = _run(compiled, "event", traced=True)
    assert dataclasses.asdict(sd) == dataclasses.asdict(se)
    assert rd.render() == re_.render()


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
def test_full_coalescer_wait_identical(traced):
    """bfs with a one-entry coalescing cache: every miss behind an open
    entry is a bandwidth wait on the *coalescer* (``len(_open) >=
    COALESCE_ENTRIES``), which the default 48 entries never reach at
    ``tiny`` (1 705 cycles, no ``dram_stall_cycles``)."""
    compiled = compile_to_bitstream("bfs", "tiny")
    compiled.config = dataclasses.replace(compiled.config,
                                          coalesce_entries=1)
    seen = {}
    for mode in ("dense", "event"):
        machine, stats, report = _run(compiled, mode, traced)
        seen[mode] = {"stats": dataclasses.asdict(stats)}
        if traced:
            seen[mode]["report"] = report.render()
            seen[mode]["timelines"] = {
                unit: list(timeline) for unit, timeline
                in machine.tracer.timelines.items()}
    assert seen["event"] == seen["dense"]
    stats = seen["event"]["stats"]
    assert (stats["cycles"], stats["dram_stall_cycles"]) == (2470, 716)


def test_event_scheduler_fast_forwards():
    """A DRAM-bound app must actually skip cycles, and the split must
    account for every simulated cycle."""
    compiled = compile_to_bitstream(ALL_APPS[0].name, "tiny")
    machine = compiled.machine(scheduler="event")
    stats = machine.run()
    sched = machine.scheduler_stats
    assert sched.fast_forwarded_cycles > 0
    assert (sched.executed_cycles + sched.fast_forwarded_cycles
            == stats.cycles)


def test_dense_scheduler_has_no_scheduler_stats():
    compiled = compile_to_bitstream(ALL_APPS[0].name, "tiny")
    machine = compiled.machine(scheduler="dense")
    machine.run()
    assert machine.scheduler_stats is None


def test_unknown_scheduler_rejected():
    """Every entry point takes the same modes and raises the same
    error for anything else."""
    compiled = compile_to_bitstream(ALL_APPS[0].name, "tiny")
    fabric = Fabric()
    fabric.add_tenant(compiled.dhdl, compiled.config)
    for run in (
            compiled.machine(scheduler="optimistic").run,
            lambda: fabric.run(scheduler="optimistic"),
            lambda: run_batch(compiled, [{}], scheduler="optimistic"),
            lambda: co_run([ALL_APPS[0].name],
                           scheduler="optimistic")):
        with pytest.raises(SimulationError,
                           match="unknown scheduler 'optimistic'; "
                                 "one of: event, dense"):
            run()


def _rowconf_machine(scheduler):
    """A long-fast-forward workload (see eval.bench dram_rowconf)."""
    from repro.eval.bench import SYNTHETIC
    dhdl, config, _check = SYNTHETIC["dram_rowconf"]("tiny")
    return Machine(dhdl, config, scheduler=scheduler)


def test_retirement_across_fast_forward_jumps():
    """Scratchpad N-buffer retirement happens on every 256-cycle
    boundary even when fast-forward jumps span several boundaries: the
    set of live buffer versions must match the dense loop's exactly."""
    versions = {}
    for mode in ("dense", "event"):
        machine = _rowconf_machine(mode)
        machine.run()
        versions[mode] = {name: sorted(sp.versions)
                          for name, sp in
                          machine.mem.scratchpads.items()}
    assert versions["dense"] == versions["event"]
    if machine.scheduler_stats is not None:
        # the workload must actually exercise multi-boundary jumps
        assert machine.scheduler_stats.fast_forwarded_cycles > 512


def _deadlock_machine(scheduler, tracer=None):
    dhdl = DhdlProgram("dead")
    dram_in = dhdl.dram(Array("a", (64,), E.FLOAT32,
                              data=np.ones(64, dtype=np.float32)))
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
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment()
    return Machine(dhdl, config, watchdog=500, tracer=tracer,
                   scheduler=scheduler)


def test_deadlock_trips_at_same_cycle_under_both_schedulers():
    """The watchdog must fire on the same cycle whether the stuck spin
    is executed densely or skipped by fast-forward."""
    cycles = {}
    for mode in ("dense", "event"):
        with pytest.raises(DeadlockError) as err:
            _deadlock_machine(mode).run()
        cycles[mode] = str(err.value)
    assert "emit_only" in cycles["event"]
    assert cycles["dense"] == cycles["event"]


def test_max_cycles_trips_at_same_cycle_under_both_schedulers():
    compiled = compile_to_bitstream("gemm", "tiny")
    messages = {}
    for mode in ("dense", "event"):
        machine = compiled.machine(scheduler=mode)
        with pytest.raises(SimulationError, match="max_cycles") as err:
            machine.run(max_cycles=37)
        messages[mode] = str(err.value)
    assert messages["dense"] == messages["event"]


def _gather_and_stream(gather_first):
    """A gather and a tile load started by one PIPELINE controller in
    the same cycle: the gather's misses and the load's burst stream
    fall on shared channels behind two-deep queues, the gather at a
    lower dense position than the load's engine (``gather_first``) or
    at a higher one."""
    n = 256
    rng = np.random.default_rng(5)
    dhdl = DhdlProgram("beside")
    table = dhdl.dram(Array("tbl", (1024,), E.FLOAT32,
                            data=np.arange(1024, dtype=np.float32)))
    idx = dhdl.dram(Array("idx", (n,), E.INT32,
                          data=rng.integers(0, 1024, n).astype(np.int32)))
    src = dhdl.dram(Array("src", (2048,), E.FLOAT32,
                          data=rng.standard_normal(2048).astype(np.float32)))
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
    dst_tile = dhdl.sram("dst_tile", (n,), E.FLOAT32,
                         banking=BankingMode.DUPLICATION)
    tile = dhdl.sram("tile", (2048,), E.FLOAT32)
    prep = OuterController("prep", Scheme.SEQUENTIAL)
    dhdl.root.add(prep)
    prep.add(TileLoad("load_idx", idx, idx_tile, (0,), (n,)))
    both = OuterController("both", Scheme.PIPELINE)
    dhdl.root.add(both)
    leaves = [Gather("gather", table, idx_tile, dst_tile),
              TileLoad("load", src, tile, (0,), (2048,))]
    for leaf in leaves if gather_first else leaves[::-1]:
        both.add(leaf)
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    config.pcus_used = config.pmus_used = 1
    config.ags_used = 2
    return dhdl, config


def _submissions(machine, monkeypatch):
    """Every request's ``(cycle, channel, unit, byte address)``, in the
    order the channels took them (= ``req_id`` order: a transfer builds
    a request just before submitting it)."""
    log = []
    index = {id(channel): k for k, channel in
             enumerate(machine.dram.channels)}
    submit = DramModel.submit

    def logged(model, request, callback=None, channel=None):
        # an engine hands over its request decoded, with the channel
        log.append((request.req_id, model.cycle, index[id(channel)],
                    callback.__self__.name, request.byte_addr))
        submit(model, request, callback, channel)

    monkeypatch.setattr(DramModel, "submit", logged)
    return log


@pytest.mark.parametrize("gather_first", [True, False],
                         ids=["gather_below_stream", "gather_above_stream"])
def test_stream_and_gather_share_a_channel_in_dense_order(gather_first,
                                                         monkeypatch):
    seen = {}
    for mode in ("dense", "event"):
        machine = Machine(*_gather_and_stream(gather_first),
                          dram=DramModel(queue_depth=2), scheduler=mode)
        log = _submissions(machine, monkeypatch)
        stats = machine.run()
        assert [entry[0] for entry in log] == sorted(e[0] for e in log)
        seen[mode] = ([entry[1:] for entry in log],
                      dataclasses.asdict(stats))
        monkeypatch.undo()
    assert seen["event"] == seen["dense"]
    # the two submit to one channel in one cycle, in dense order
    units = {}
    for cycle, channel, unit, _ in seen["event"][0]:
        units.setdefault((cycle, channel), []).append(unit)
    shared = [order for order in units.values()
              if {"gather", "load"} <= set(order)]
    assert shared
    first = "gather" if gather_first else "load"
    assert all(order[0] == first for order in shared)
    assert seen["event"][1]["dram_stall_cycles"] > 0
