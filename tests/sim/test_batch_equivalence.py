"""The batch/sequential contract: ``run_batch`` must be
bit-identical to N sequential ``Machine.run`` calls.

Every assertion compares a batch member against a solo machine built
through the *same* :func:`repro.sim.batch.instantiate` helper —
identical configuration on both sides by construction, so any
divergence is the batching machinery itself.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.bitstream import Bitstream
from repro.compiler import compile_to_bitstream
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, ReduceStmt, Scheme,
                        StreamStore, TileLoad, TileStore, WriteStmt,
                        validate)
from repro.errors import DeadlockError, SimulationError
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import scheduler as core
from repro.sim.batch import _RecordingMachine, _ReplayMachine, instantiate, \
    run_batch
from repro.sim.leaves import _IssuePark

from tests.sim.test_machine_handbuilt import default_config

#: mixed timing overrides exercised across the whole registry: the
#: as-compiled design, a shallow/re-banked one, and a deep pipeline on
#: a throttled DRAM queue
MIXED_PARAMS = [{}, {"stages": 3, "banks": 8},
                {"pipeline_depth": 10, "dram_queue_depth": 4}]


def _compiled(name, scale="tiny"):
    return compile_to_bitstream(name, scale)


def _solo_outcome(source, overrides, scheduler="event"):
    machine = instantiate(source, overrides, scheduler=scheduler)
    try:
        machine.run()
        return machine, None
    except (SimulationError, DeadlockError) as err:
        return machine, f"{type(err).__name__}: {err}"


def _follower(source, overrides, **kwargs):
    """A follower built by hand behind an as-compiled leader, so a test
    can reach it before it runs: as ``run_batch`` builds one, on its
    leader's compute log and burst tables."""
    log, layouts = {}, {}
    instantiate(source, {}, machine_cls=_RecordingMachine, log=log,
                layouts=layouts).run()
    return instantiate(source, overrides, machine_cls=_ReplayMachine,
                       log=log, layouts=layouts, **kwargs)


def assert_batch_equivalent(source, params, scheduler="event"):
    batch = run_batch(source, params, scheduler=scheduler)
    for i, overrides in enumerate(params):
        solo, solo_error = _solo_outcome(source, overrides, scheduler)
        inst = batch[i]
        if solo_error is not None:
            assert inst.error == solo_error, (
                f"instance {i}: batch said {inst.error!r}, "
                f"solo said {solo_error!r}")
            continue
        assert inst.ok, f"instance {i}: batch errored: {inst.error}"
        diverged = [k for k, v in solo.stats.as_dict().items()
                    if inst.stats.as_dict()[k] != v]
        assert not diverged, f"instance {i}: stats diverge in {diverged}"
        for name, buf in solo.image.buffers.items():
            np.testing.assert_array_equal(
                buf, inst.machine.image.buffers[name],
                err_msg=f"instance {i}: DRAM image {name!r} diverges")
    return batch


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_registry_batch_matches_sequential(app_name):
    compiled = _compiled(app_name)
    batch = assert_batch_equivalent(
        compiled, MIXED_PARAMS)
    assert batch.cohorts == 1
    assert batch.replayed == 2


@pytest.mark.parametrize("scheduler", ["event", "dense"])
def test_both_schedulers_batch_equivalent(scheduler):
    compiled = _compiled("innerproduct")
    assert_batch_equivalent(compiled,
                            MIXED_PARAMS, scheduler=scheduler)


def test_coalescer_size_is_a_replayed_timing_override():
    """bfs led at the default 48 coalescer entries; the replays run at
    1 (every miss behind an open entry waits for the coalescer) and at
    2 (which bfs-tiny never fills: same cycles as the leader)."""
    compiled = _compiled("bfs")
    batch = assert_batch_equivalent(
        compiled,
        [{"coalesce_entries": 48}, {"coalesce_entries": 1},
         {"coalesce_entries": 2}])
    assert (batch.cohorts, batch.replayed) == (1, 2)
    assert [inst.stats.cycles for inst in batch] == [1705, 2470, 1705]
    assert [inst.stats.dram_stall_cycles for inst in batch] == [0, 716, 0]


def test_batch_of_one_matches_plain_run():
    compiled = _compiled("gemm")
    batch = run_batch(compiled, [None])
    assert batch[0].role == "solo"
    assert batch.replayed == 0
    plain = compiled.machine()
    stats = plain.run()
    assert batch[0].stats.same_as(stats)
    for name, buf in plain.image.buffers.items():
        np.testing.assert_array_equal(
            buf, batch[0].machine.image.buffers[name])


def test_mixed_retirement_batch():
    """Instances that abort early (max-cycles, watchdog) record their
    error in their own slot without disturbing the survivors (instances
    run back to back; a follower's abort is not its leader's)."""
    compiled = _compiled("gemm")
    source = compiled
    params = [{}, {"max_cycles": 40}, {"stages": 6},
              {"max_cycles": 25, "stages": 3}, {"banks": 4}]
    batch = assert_batch_equivalent(source, params)
    assert batch[0].ok and batch[2].ok and batch[4].ok
    assert not batch[1].ok and not batch[3].ok


def test_data_override_splits_cohorts():
    compiled = _compiled("tpchq6")
    source = compiled
    seeded = next(ref for ref in compiled.dhdl.drams
                  if ref.array.data is not None)
    alt = np.zeros(seeded.words(), dtype=np.float64)
    params = [{}, {"stages": 5},
              {"data": {seeded.name: alt}},
              {"data": {seeded.name: alt}, "banks": 4}]
    batch = assert_batch_equivalent(source, params)
    assert batch.cohorts == 2
    assert batch.replayed == 2
    roles = [inst.role for inst in batch]
    assert roles == ["leader", "replay", "leader", "replay"]


def test_leader_failure_falls_back_to_solo_runs():
    """Every member overrides a limit, so the first one leads — and
    trips its own: the rest of the cohort runs solo."""
    compiled = _compiled("gemm")
    source = compiled
    params = [{"max_cycles": 30}, {"max_cycles": 10_000},
              {"stages": 5, "watchdog": 10_000}]
    batch = assert_batch_equivalent(source, params)
    assert not batch[0].ok
    assert batch[1].ok and batch[2].ok
    assert batch.replayed == 0
    assert [inst.role for inst in batch] == ["leader", "solo", "solo"]


@pytest.mark.parametrize("params,roles", [
    ([{"max_cycles": 50}, {"banks": 4}, {"banks": 8}],
     ["replay", "leader", "replay"]),
    ([{"banks": 4}, {"max_cycles": 50}, {"banks": 8}],
     ["leader", "replay", "replay"]),
    ([{"watchdog": 3}, {"max_cycles": 50, "banks": 4}, {}],
     ["replay", "replay", "leader"]),
], ids=["limited_first", "limited_second", "unlimited_last"])
def test_leader_is_the_first_member_without_a_limit(params, roles):
    """One member's tripping ``max_cycles``/``watchdog`` must not cost
    the cohort its replay: a member that overrides neither leads, and
    results stay in input order."""
    compiled = _compiled("gemm")
    batch = assert_batch_equivalent(compiled,
                                    params)
    assert [inst.role for inst in batch] == roles
    assert [inst.index for inst in batch] == [0, 1, 2]
    assert [inst.params for inst in batch] == params
    assert batch.replayed == 2
    assert [inst.ok for inst in batch] == [
        not ({"max_cycles", "watchdog"} & set(p)) for p in params]


def test_tracer_attribution_matches_sequential():
    from repro.trace import RingTracer
    compiled = _compiled("gemm")
    source = compiled
    overrides = {"stages": 3, "banks": 4}
    batch = run_batch(source, [{}, overrides],
                      tracer_factory=lambda i, p: RingTracer())
    solo = instantiate(source, overrides, scheduler="event",
                       tracer=RingTracer())
    solo.run()
    assert batch[1].role == "replay"
    assert (batch[1].machine.trace_report().render()
            == solo.trace_report().render())


def test_batch_runs_from_a_bitstream_artifact():
    from repro.compiler.artifact import freeze_program
    app = get_app("innerproduct")
    artifact = freeze_program(app.build("tiny"), "innerproduct", "tiny")
    batch = assert_batch_equivalent(artifact, [{}, {"stages": 8}])
    assert batch.replayed == 1


# ---------------------------------------------------------------------------
# Error exits and watchdogs: a free-running follower is interrupted
# everywhere and must leave what its stepped solo twin leaves
# ---------------------------------------------------------------------------


def _left_behind(machine, error):
    """Everything a run — completed or interrupted — leaves on a
    machine: stats (with the busy-key order serve responses carry),
    per-scratchpad and per-FIFO counters, the DRAM image, the error."""
    return {
        "error": error,
        "stats": machine.stats.as_dict(),
        "busy_order": list(machine.stats.busy_cycles),
        "scratchpads": {
            name: (pad.reads, pad.writes, pad.conflict_cycles,
                   dict(pad.watermark))
            for name, pad in machine.mem.scratchpads.items()},
        "fifos": {name: (fifo.full_stalls, fifo.empty_stalls)
                  for name, fifo in machine.fifos.items()},
        "image": {name: buf.tobytes()
                  for name, buf in machine.image.buffers.items()},
    }


def assert_followers_leave_what_solo_leaves(source, params, scheduler):
    """``params`` replayed behind an as-compiled leader, each against
    ``instantiate(...).run()``; returns the followers' errors."""
    batch = run_batch(source, [{}] + params, scheduler=scheduler)
    errors = []
    for inst, overrides in zip(batch.instances[1:], params):
        assert inst.role == "replay"
        solo, solo_error = _solo_outcome(source, overrides, scheduler)
        assert (_left_behind(inst.machine, inst.error)
                == _left_behind(solo, solo_error)), (scheduler, overrides)
        errors.append(inst.error)
    return errors


#: (app, scale, cycles at banks 4 and at banks 16, the max_cycles
#: step): gemm and gda serialise every issue at banks=4 (conflict-stall
#: cycles inside the free run), kmeans restarts its leaves 69 times
LIMITED = [("gemm", "tiny", (159, 143), 7), ("gda", "tiny", (277, 217), 11),
           ("kmeans", "tiny", (1052, 1052), 97),
           ("gda", "small", (2100, 804), 193)]


@pytest.mark.parametrize("scheduler", ["event", "dense"])
@pytest.mark.parametrize("app,scale,cycles,step", LIMITED,
                         ids=[f"{c[0]}-{c[1]}" for c in LIMITED])
def test_cycle_limit_inside_a_free_run(app, scale, cycles, step,
                                       scheduler):
    compiled = _compiled(app, scale)
    params = [{"max_cycles": limit, "banks": banks}
              for banks, total in zip((4, 16), cycles)
              for limit in range(3, total, step)]
    errors = assert_followers_leave_what_solo_leaves(
        compiled, params, scheduler)
    assert all(error and "max_cycles" in error for error in errors)


#: watchdogs shorter than a DRAM round trip trip early; from 21 up the
#: runs complete, on parks the watchdog cuts short (gemm-small at
#: banks=16: 75 free-run parks at watchdog 21, 18 at the default)
WATCHDOGS = (1, 2, 3, 5, 8, 13, 21, 40)


@pytest.mark.parametrize("scheduler", ["event", "dense"])
@pytest.mark.parametrize("app", ["gemm", "gda"])
def test_watchdog_bounds_the_free_run(app, scheduler):
    compiled = _compiled(app, "small")
    params = [{"watchdog": watchdog, "banks": banks}
              for banks in (4, 16) for watchdog in WATCHDOGS]
    errors = assert_followers_leave_what_solo_leaves(
        compiled, params, scheduler)
    tripped = [error is not None for error in errors]
    assert tripped == [w < 21 for w in WATCHDOGS] * 2
    assert all("no progress since" in e for e in errors if e)


@pytest.mark.parametrize("every", [1, 2, 3, 7])
def test_spurious_wake_inside_a_free_run(every, monkeypatch):
    """Wakes are liberal by contract, so a free-running leaf woken
    mid-span — here on every ``every``-th cycle of a gda follower at
    banks=4, issue and conflict-stall cycles alike — must charge each
    cycle exactly once: the span up to the wake when its park ends, the
    wake's own cycle in its tick, the rest when it parks again."""
    source = _compiled("gda")
    overrides = {"banks": 4}
    follower = _follower(source, overrides)
    woken = []
    open_cycle = core._open_cycle

    def waking(machine, cycle):
        open_cycle(machine, cycle)
        if cycle % every == 0:
            for leaf in machine._leaves:
                if isinstance(leaf._park, _IssuePark):
                    woken.append(cycle)
                    leaf._sched.node_event(leaf)

    monkeypatch.setattr(core, "_open_cycle", waking)
    # nothing else runs while gda computes: without this the core jumps
    # over the free run and there is no cycle to wake the leaf in
    monkeypatch.setattr(core.EventScheduler, "_fast_forward",
                        lambda self, cycle, live, max_cycles: cycle)
    follower.run()
    monkeypatch.undo()
    solo, _ = _solo_outcome(source, overrides)
    assert _left_behind(follower, None) == _left_behind(solo, None)
    assert len(woken) >= 60 // every


def test_columnar_store_record_keeps_program_order():
    """One issue stores to each address of ``o_tile`` four times — two
    lanes of one statement, then two lanes of a later one — writes a
    register in between and emits into a FIFO.  The recorder keeps a
    statement's stores as address/value columns, not as per-lane events;
    a follower must still end with what the last store, the last
    register write and the FIFO order of a solo run leave."""
    n = 64
    data = np.random.default_rng(11).standard_normal(n).astype(np.float32)
    dhdl = DhdlProgram("twice")
    dram_in = dhdl.dram(Array("a", (n,), E.FLOAT32, data=data))
    dram_out = dhdl.dram(Array("o", (n // 2,), E.FLOAT32))
    dram_kept = dhdl.dram(Array("kept", (n,), E.FLOAT32))
    dhdl.dram(Array("count", (), E.INT32))
    a_tile = dhdl.sram("a_tile", (n,), E.FLOAT32)
    o_tile = dhdl.sram("o_tile", (n // 2,), E.FLOAT32)
    fifo = dhdl.fifo("kept_fifo", E.FLOAT32, depth=4)
    last = dhdl.reg("last", E.FLOAT32)
    count_reg = dhdl.reg("count_reg", E.INT32)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("load_a", dram_in, a_tile, (0,), (n,)))
    stream = OuterController("stream", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    stream.add(InnerCompute(
        "mix", CounterChain([Counter(0, n, par=16)], [i]),
        [WriteStmt(o_tile, (i / 2,), a_tile[i]),
         WriteStmt(last, (), a_tile[i] * 3.0),
         WriteStmt(o_tile, (i / 2,), a_tile[i] + 1.0),
         EmitStmt(fifo, a_tile[i] > 0.0, a_tile[i])]))
    stream.add(StreamStore("drain", dram_kept, fifo, count_reg))
    pipe.add(TileStore("store_o", dram_out, o_tile, (0,), (n // 2,)))
    dhdl.reg_outputs[count_reg.name] = "count"
    validate(dhdl)
    source = Bitstream("twice", "tiny", dhdl, default_config(dhdl))
    overrides = {"stages": 3, "banks": 4}
    solo, error = _solo_outcome(source, overrides)
    assert error is None
    follower = _follower(source, overrides)
    follower.run()
    assert follower.stats.as_dict() == solo.stats.as_dict()
    np.testing.assert_array_equal(solo.result("o"), data[1::2] + 1.0)
    for name, pad in solo.mem.scratchpads.items():
        other = follower.mem.scratchpads[name]
        assert sorted(pad.versions) == sorted(other.versions)
        for version, buf in pad.versions.items():
            np.testing.assert_array_equal(buf, other.versions[version])
        assert pad.watermark == other.watermark
        assert (pad.reads, pad.writes, pad.conflict_cycles) == \
            (other.reads, other.writes, other.conflict_cycles)
    for name, reg in solo.mem.registers.items():
        assert repr(reg.value) == repr(follower.mem.registers[name].value)
    assert solo.mem.registers["last"].read() == \
        float(np.float32(data[-1] * np.float32(3.0)))
    for name, queue in solo.fifos.items():
        other = follower.fifos[name]
        assert (queue.pushed, queue.popped) == (other.pushed, other.popped)
    for name, buf in solo.image.buffers.items():
        np.testing.assert_array_equal(buf, follower.image.buffers[name])
    kept = data[data > 0]
    np.testing.assert_array_equal(solo.result("kept")[:len(kept)], kept)


def test_finals_to_one_cell_land_as_their_last_write():
    """Per row, a sum and then a max both end in ``rs_tile[r]`` and a
    count in ``n_tile[r]``: the end-of-activation results name each
    ``rs_tile`` cell twice.  A follower applies each scratchpad's
    results as one write; every cell must hold what the last of the
    one-by-one writes left — the max — with the solo watermark."""
    rows, cols = 8, 48
    data = np.random.default_rng(5).standard_normal(
        (rows, cols)).astype(np.float32)
    dhdl = DhdlProgram("twice_per_row")
    dram_in = dhdl.dram(Array("m", (rows, cols), E.FLOAT32, data=data))
    dram_out = dhdl.dram(Array("rs", (rows,), E.FLOAT32))
    dram_count = dhdl.dram(Array("n", (rows,), E.INT32))
    tile_in = dhdl.sram("m_tile", (rows, cols), E.FLOAT32)
    tile_out = dhdl.sram("rs_tile", (rows,), E.FLOAT32)
    tile_count = dhdl.sram("n_tile", (rows,), E.INT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_m", dram_in, tile_in, (0, 0), (rows, cols)))
    r, c = E.Idx("r"), E.Idx("c")
    a, b = E.Var("a0", E.FLOAT32), E.Var("b0", E.FLOAT32)
    x, y = E.Var("x0", E.INT32), E.Var("y0", E.INT32)
    body.add(InnerCompute(
        "fold", CounterChain([Counter(0, rows, par=1),
                              Counter(0, cols, par=16)], [r, c]),
        [ReduceStmt((tile_out,), (tile_in[r, c],), (a + b,), (a,), (b,),
                    (0.0,), addr=(r,)),
         ReduceStmt((tile_count,), (1,), (x + y,), (x,), (y,), (0,),
                    addr=(r,)),
         ReduceStmt((tile_out,), (tile_in[r, c],), (E.maximum(a, b),),
                    (a,), (b,), (-1e30,), addr=(r,))]))
    body.add(TileStore("store", dram_out, tile_out, (0,), (rows,)))
    body.add(TileStore("store_n", dram_count, tile_count, (0,), (rows,)))
    validate(dhdl)
    source = Bitstream("twice_per_row", "tiny", dhdl,
                       default_config(dhdl))
    overrides = {"banks": 4}
    solo, error = _solo_outcome(source, overrides)
    assert error is None
    np.testing.assert_array_equal(solo.result("rs"), data.max(axis=1))
    np.testing.assert_array_equal(solo.result("n"), np.full(rows, cols))
    follower = _follower(source, overrides)
    leaf = next(leaf for leaf in follower._leaves if leaf.name == "fold")
    follower.run()
    act, = leaf._log["fold"]
    flats = [flat for name, flat, _ in act.finals if name == "rs_tile"]
    assert sorted(flats) == sorted(2 * list(range(rows)))
    assert follower.stats.as_dict() == solo.stats.as_dict()
    for name, pad in solo.mem.scratchpads.items():
        other = follower.mem.scratchpads[name]
        for version, buf in pad.versions.items():
            np.testing.assert_array_equal(buf, other.versions[version])
        assert pad.watermark == other.watermark
    for name, buf in solo.image.buffers.items():
        np.testing.assert_array_equal(buf, follower.image.buffers[name])
