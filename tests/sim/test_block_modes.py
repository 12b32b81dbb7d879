"""A compute leaf follows its own log: every mode against the stepped run.

A leaf evaluates its body a block of issues at a time and then follows
the block's log.  One that emits nothing, on a machine with no tracer
and no fault plan, parks across the block (it runs free); any other
steps issue by issue.  Whatever ends a run — completion, a cycle limit,
the watchdog, a runaway bound, an arithmetic fault, a dead unit — the
free-running leaf must leave what the stepped one leaves: the same
error at the same cycle, the same statistics, scratchpads and DRAM.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.registry import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.dhdl import (Counter, CounterChain, DhdlProgram, InnerCompute,
                        OuterController, ReduceStmt, Scheme, TileLoad,
                        TileStore, WriteStmt, validate)
from repro.dhdl.memory import Reg
from repro.errors import SimulationError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.patterns import Array, Fold, Program
from repro.patterns import expr as E
from repro.patterns.executor import run_program
from repro.sim import Machine
from repro.sim import counters
from repro.sim.block import BLOCK_LANES
from repro.sim.leaves import InnerComputeSim
from repro.trace import RingTracer

from tests.sim.reference_chain import ReferenceChain
from tests.sim.reference_datapath import LoggingMachine
from tests.sim.test_machine_handbuilt import default_config

I32, F32 = E.INT32, E.FLOAT32


def _stepped(machine):
    """``machine`` with every compute leaf stepping issue by issue."""
    for leaf in machine._leaves:
        if isinstance(leaf, InnerComputeSim):
            leaf.free = False
    return machine


def _outcome(machine):
    """How a run ended and everything it left behind."""
    try:
        machine.run()
        error = None
    except SimulationError as err:
        error = f"{type(err).__name__}: {err}"
    pads = {name: (sorted((v, buf.tobytes())
                          for v, buf in pad.versions.items()),
                   pad.reads, pad.writes, pad.conflict_cycles,
                   sorted(pad.watermark.items()))
            for name, pad in machine.mem.scratchpads.items()}
    regs = {name: repr(reg.value)
            for name, reg in machine.mem.registers.items()}
    dram = {name: buf.tobytes() for name, buf in machine.image.buffers.items()}
    return error, machine.cycle, machine.stats.as_dict(), pads, regs, dram


def _all_alike(build, reference=True):
    """Free-running (event and dense) and stepped runs end alike, and
    — unless it would take too long — as the per-issue reference
    interpreter does (the same error at the same cycle, statistics and
    DRAM; it alone lands the stores of a faulting issue's earlier
    lanes); returns the outcome."""
    free = _outcome(build(Machine, {}))
    assert _outcome(build(Machine, {"scheduler": "dense"})) == free
    assert _outcome(_stepped(build(Machine, {}))) == free
    if reference:
        error, cycle, stats, _pads, _regs, dram = _outcome(
            build(LoggingMachine, {"reference": True}))
        assert (error, cycle, stats, dram) == (free[0], free[1], free[2],
                                               free[5])
        if error is None:
            assert (_pads, _regs) == free[3:5]
    return free


def _compiled(app, scale="small"):
    compiled = compile_to_bitstream(app, scale)
    return lambda cls, kw, **more: cls(compiled.dhdl, compiled.config,
                                       **kw, **more)


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_untraced_dense_equals_event_equals_stepped(app):
    error, *_ = _all_alike(_compiled(app.name), reference=False)
    assert error is None


@pytest.mark.parametrize("app", ["gemm", "kmeans", "bfs", "pagerank"])
def test_traced_stats_equal_untraced_stats(app):
    build = _compiled(app)
    plain = build(Machine, {})
    traced = build(Machine, {"tracer": RingTracer()})
    assert traced.run().as_dict() == plain.run().as_dict()
    assert not any(leaf.free for leaf in traced._leaves
                   if isinstance(leaf, InnerComputeSim))


@pytest.mark.parametrize("limit", [400, 701, 1100])
def test_a_cycle_limit_inside_a_free_run(limit):
    build = _compiled("gemm")
    error, cycle, *_ = _all_alike(
        lambda cls, kw: build(cls, {**kw, "max_cycles": limit}))
    assert error == f"SimulationError: exceeded max_cycles={limit}"


@pytest.mark.parametrize("app", ["gemm", "kmeans"])
def test_a_watchdog_trip_between_serialised_issues(app):
    """Banked down to one bank, every issue stalls longer than the
    watchdog allows: the trip comes between two issues."""
    compiled = compile_to_bitstream(app, "small")
    config = compiled.config
    config.banks_override = 1
    error, *_ = _all_alike(
        lambda cls, kw: cls(compiled.dhdl, config, watchdog=6, **kw))
    assert error.startswith("DeadlockError: no progress since cycle")


def _counting_leaf(n, stmts_of, srams=None, regs=(), data=None):
    """One compute leaf over ``[0, n)`` under a sequential root, its
    inputs tile-loaded from DRAM first."""
    dhdl = DhdlProgram("counting")
    seq = OuterController("main", Scheme.SEQUENTIAL)
    dhdl.root.add(seq)
    pads = {}
    srams = srams or {}
    for name, (shape, dtype) in srams.items():
        pads[name] = dhdl.sram(name, shape, dtype)
    for name, values in (data or {}).items():
        array = Array(f"{name}_dram", pads[name].shape, pads[name].dtype,
                      data=np.asarray(values))
        seq.add(TileLoad(f"load_{name}", dhdl.dram(array), pads[name],
                         (0,), pads[name].shape))
    for reg in regs:
        dhdl.regs.append(reg)
    i = E.Idx("i")
    seq.add(InnerCompute("leaf", CounterChain([Counter(0, n, par=16)], [i]),
                         stmts_of(i, pads)))
    outputs = [name for name in srams if name not in (data or {})]
    for name in outputs:
        array = Array(f"{name}_out", pads[name].shape, pads[name].dtype)
        seq.add(TileStore(f"store_{name}", dhdl.dram(array), pads[name],
                          (0,), pads[name].shape))
    validate(dhdl)
    config = default_config(dhdl)
    return lambda cls, kw: cls(dhdl, config, **kw)


def test_an_arithmetic_fault_at_a_later_issue():
    """Lane 37 divides by zero: the block's pass faults, the issues
    before it still happen, and the fault is raised by the issue that
    meets it, with the per-issue message."""
    build = _counting_leaf(
        64, lambda i, p: [WriteStmt(p["o"], (i,),
                                    E.wrap(7) / (p["d"][i] - 37))],
        srams={"d": ((64,), I32), "o": ((64,), I32)},
        data={"d": np.arange(64, dtype=np.int32)})
    error, *_ = _all_alike(build)
    assert error == ("SimulationError: leaf: arithmetic fault in lanes "
                     "32..47: ZeroDivisionError: integer division by "
                     "zero in traced expression")


def test_a_runaway_bound_trips_at_the_stepped_issue(monkeypatch):
    for enumerator in (counters.ChainEnumerator, ReferenceChain):
        monkeypatch.setattr(enumerator.__init__, "__defaults__",
                            (None, 1000))
    acc = Reg("acc", I32, init=0)
    va, vb = E.Var("acc_a0", I32), E.Var("acc_b0", I32)
    build = _counting_leaf(
        5000, lambda i, p: [
            WriteStmt(p["o"], (i % 64,), E.to_float(i)),
            ReduceStmt([acc], [i], [va + vb], [va], [vb], [0])],
        srams={"o": ((64,), F32)}, regs=[acc])
    error, *_ = _all_alike(build)
    assert error == ("SimulationError: counter chain exceeded "
                     "max_total=1000 iterations; runaway dynamic bound?")


def test_a_unit_fail_inside_an_activation():
    """A fault plan makes every compute leaf step; the dead unit stops
    issuing where the interpreter's does, with the same FaultError."""
    compiled = compile_to_bitstream("gemm", "small")
    leaf = next(leaf.name for leaf in compiled.dhdl.leaves()
                if isinstance(leaf, InnerCompute))
    plan = FaultPlan([FaultEvent(cycle=700, kind="unit_fail", unit=leaf)])
    outcomes = [_outcome(cls(compiled.dhdl, compiled.config,
                             fault_plan=plan, watchdog=500, **kw))
                for cls, kw in ((Machine, {}),
                                (Machine, {"scheduler": "dense"}),
                                (LoggingMachine, {"reference": True}))]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0].startswith("FaultError: ")
    assert 0 < outcomes[0][2]["vector_issues"] < _outcome(
        compiled.machine())[2]["vector_issues"]


def test_a_million_lane_activation_stays_within_the_block_budget():
    n = 1_000_000
    acc = Reg("acc", I32, init=0)
    va, vb = E.Var("acc_a0", I32), E.Var("acc_b0", I32)
    build = _counting_leaf(
        n, lambda i, p: [ReduceStmt([acc], [i % 7], [va + vb], [va], [vb],
                                    [0])], regs=[acc])
    machine = build(Machine, {})
    tracemalloc.start()
    machine.run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert machine.mem.registers["acc"].read() == sum(k % 7
                                                      for k in range(n))
    # a block's transients, not the activation's: ~8 B a lane per array
    assert peak < 64 * BLOCK_LANES * 8 < n * 8


# -- consecutive empty CSR rows, through the public API and by hand ----------


ROWS = 10_000


def _csr_program():
    p = Program("empty_rows")
    ptr = p.input("ptr", (ROWS + 1,), I32,
                  data=np.array([0] * ROWS + [1], np.int32))
    col = p.input("col", (1,), I32, data=np.zeros(1, np.int32))
    val = p.input("val", (1,), data=np.full(1, 2.0, np.float32))
    x = p.input("x", (ROWS,), data=np.ones(ROWS, np.float32))
    y = p.output("y", (ROWS,))
    p.map("spmv", y, ROWS,
          lambda i: Fold((ptr[i], ptr[i + 1]), 0.0,
                         lambda j: val[j] * x[col[j]], lambda a, b: a + b))
    return p


def test_ten_thousand_empty_rows_in_a_leaf_chain():
    want = run_program(_csr_program()).buffers["y"]
    assert want[-1] == 2.0 and not want[:-1].any()
    compiled = freeze_program(_csr_program(), "csr", "tiny")
    machine = compiled.machine()
    machine.run()
    np.testing.assert_array_equal(machine.result("y"), want)


def test_ten_thousand_empty_rows_in_an_outer_controller_chain():
    """The row loop with its data-dependent inner range is an outer
    controller's chain: its body runs once, for the one full row."""
    want = run_program(_csr_program()).buffers["y"]
    dhdl = DhdlProgram("empty_rows_outer")
    ptr_d = np.array([0] * ROWS + [1], np.int32)
    seq = OuterController("main", Scheme.SEQUENTIAL)
    dhdl.root.add(seq)
    ptr = dhdl.sram("ptr_buf", (ROWS + 1,), I32)
    val = dhdl.sram("val_buf", (1,), F32)
    y = dhdl.sram("y_buf", (ROWS,), F32)
    seq.add(TileLoad("load_ptr", dhdl.dram(Array("ptr", (ROWS + 1,), I32,
                                                 data=ptr_d)),
                     ptr, (0,), (ROWS + 1,)))
    seq.add(TileLoad("load_val", dhdl.dram(Array(
        "val", (1,), F32, data=np.full(1, 2.0, np.float32))),
        val, (0,), (1,)))
    i, j, k = E.Idx("i"), E.Idx("j"), E.Idx("k")
    rows = OuterController("rows", Scheme.SEQUENTIAL, chain=CounterChain(
        [Counter(0, ROWS), Counter(ptr[i], ptr[i + 1])], [i, j]))
    rows.add(InnerCompute("body", CounterChain([Counter(0, 1)], [k]),
                          [WriteStmt(y, (i,), val[j] * 1.0)]))
    seq.add(rows)
    seq.add(TileStore("store_y", dhdl.dram(Array("y", (ROWS,), F32)), y,
                      (0,), (ROWS,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    np.testing.assert_array_equal(machine.result("y"), want)
    assert machine.stats.vector_issues == 1
