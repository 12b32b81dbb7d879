"""The DDR3 command log: one schedule however the core steps, and legal.

Who decides *when* a burst is submitted — a unit's tick, the event
core's unit phase, or the memory system stepping alone
(``EventScheduler._run_alone``) — must not change what the channels issue.
Each case records every channel's command stream
(:mod:`tests.dram.ddr3_checker`) under the dense loop and the event
core and requires the two logs to be identical; the same holds between
a batch's leader, its follower and a solo run, a lone-tenant fabric and
a solo run, uniform QoS weights and none, and an empty fault plan and
none.  Every log is then held to the DDR3 timing rules.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.compiler.artifact import compile_to_bitstream
from repro.dhdl import (Counter, CounterChain, DhdlProgram,
                        OuterController, Scheme, TileLoad, TileStore,
                        validate)
from repro.errors import ReproError
from repro.eval.bench import SYNTHETIC
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import (AgAssignment, Fabric, FabricConfig, LeafTiming,
                       Machine)
from repro.sim.batch import run_batch
from repro.tenancy import pack_apps

from tests.dram.ddr3_checker import RULES, command_log, violations


def _memcpy(scheme, tiles, words):
    """``bench`` ``dram_stream``'s memcpy shape: DRAM -> scratchpad ->
    DRAM, one tile per iteration of a ``scheme`` loop."""
    n = tiles * words
    data = np.random.default_rng(7).standard_normal(n).astype(np.float32)
    dhdl = DhdlProgram(f"memcpy_{scheme.name.lower()}")
    src = dhdl.dram(Array("src", (n,), E.FLOAT32, data=data))
    dst = dhdl.dram(Array("dst", (n,), E.FLOAT32))
    sram = dhdl.sram("tile", (words,), E.FLOAT32, nbuf=2)
    t = E.Idx("t")
    loop = OuterController("loop", scheme, chain=CounterChain(
        [Counter(0, tiles, par=1)], [t]))
    dhdl.root.add(loop)
    loop.add(TileLoad("ld", src, sram, (t * words,), (words,)))
    loop.add(TileStore("st", dst, sram, (t * words,), (words,)))
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    config.pcus_used = config.pmus_used = config.ags_used = 1
    return dhdl, config


def _bench_row(name):
    """One row of ``repro bench``'s solo section."""
    if name in SYNTHETIC:
        return SYNTHETIC[name]("tiny")[:2]
    artifact = compile_to_bitstream(name, "tiny")
    return artifact.dhdl, artifact.config


def _solo(build, mode, **kwargs):
    """(per-channel command logs, error text, SimStats) of one run."""
    dhdl, config = build()
    machine = Machine(dhdl, config, scheduler=mode, **kwargs)
    error = None
    with command_log() as log:
        try:
            machine.run()
        except ReproError as err:
            error = f"{type(err).__name__}: {err}"
    return (log.commands(machine.dram), error,
            dataclasses.asdict(machine.stats))


#: rules the model is known to break, each held by a strict xfail below
KNOWN_BROKEN = ("tFAW", "tCCD_rank")


def _legal(commands, dram_channels):
    for channel, log in zip(dram_channels, commands):
        found = violations(log, channel.params)
        broken = {rule: found[rule][:3] for rule in RULES
                  if rule not in KNOWN_BROKEN and found[rule]}
        assert not broken


def _both(build, **kwargs):
    dense = _solo(build, "dense", **kwargs)
    event = _solo(build, "event", **kwargs)
    assert event == dense
    commands = event[0]
    assert sum(map(len, commands))
    _legal(commands, Machine(*build()).dram.channels)
    return event


MEMCPY_TINY = {"sequential": Scheme.SEQUENTIAL,
               "pipeline": Scheme.PIPELINE}


@pytest.mark.parametrize("scheme", MEMCPY_TINY)
def test_memcpy_log_dense_equals_event(scheme):
    _, error, _ = _both(lambda: _memcpy(MEMCPY_TINY[scheme], 8, 64))
    assert error is None


@pytest.mark.parametrize("name", [app.name for app in ALL_APPS]
                         + list(SYNTHETIC))
def test_bench_row_log_dense_equals_event(name):
    _, error, _ = _both(lambda: _bench_row(name))
    assert error is None


def _sparse(name, **config):
    """A sparse registry app at ``tiny`` (``config``: fabric settings)."""
    dhdl, fabric = _bench_row(name)
    return dhdl, dataclasses.replace(fabric, **config)


@pytest.mark.parametrize("entries", [48, 1], ids=["coalescer_48",
                                                  "coalescer_1"])
@pytest.mark.parametrize("name", ["bfs", "pagerank", "smdv"])
def test_sparse_app_log_dense_equals_event(name, entries):
    """Gathers and scatters are address streams: whether a unit's tick,
    the unit phase or the run-alone loop admits their addresses, the
    channels issue the same commands — also when each miss waits for a
    one-entry coalescer."""
    commands, error, stats = _both(
        lambda: _sparse(name, coalesce_entries=entries))
    assert error is None
    reads = sum(not command.write for log in commands for command in log)
    assert reads == stats["dram"]["reads"]


def test_fault_plan_log_dense_equals_event():
    """Channel 1 slows by 30 cycles at cycle 20; the load dies at cycle
    120, streaming its second tile (13 of its 32 bursts admitted), while
    the store's stream goes on; the run ends in the watchdog's typed
    fault."""
    plan = FaultPlan([
        FaultEvent(cycle=20, kind="dram_slow", channel=1, extra=30),
        FaultEvent(cycle=120, kind="unit_fail", unit="ld")])
    commands, error, _ = _both(
        lambda: _memcpy(Scheme.PIPELINE, 8, 512), fault_plan=plan,
        watchdog=300)
    assert error.startswith("FaultError") and "unit_fail ld" in error
    issued = [command for log in commands for command in log]
    assert sum(not command.write for command in issued) == 32 + 13
    assert sum(command.decide > 120 for command in issued) == 20


def _fabric_logs(apps, priorities, mode):
    packing = pack_apps(apps, "tiny")
    assert packing.feasible, packing.reason
    fabric = Fabric()
    for tenant, priority in zip(packing.tenants, priorities):
        fabric.add_tenant(tenant.artifact.dhdl, tenant.artifact.config,
                          name=tenant.footprint.app, priority=priority)
    with command_log() as log:
        fabric.run(scheduler=mode)
    return log.commands(fabric.dram), fabric.dram.channels, fabric


def test_weighted_two_tenant_log_dense_equals_event():
    dense, _, _ = _fabric_logs(("gemm", "tpchq6"), (8, 1), "dense")
    event, channels, fabric = _fabric_logs(("gemm", "tpchq6"), (8, 1),
                                           "event")
    assert event == dense
    assert fabric.qos_summary()["weighted"]
    _legal(event, channels)


def test_weighted_sparse_tenant_log_dense_equals_event():
    """A 2-tenant 8:1 fabric whose low-priority tenant gathers and
    scatters (bfs) beside gemm's tile streams."""
    apps = ("gemm", "bfs")
    dense, _, _ = _fabric_logs(apps, (8, 1), "dense")
    event, channels, fabric = _fabric_logs(apps, (8, 1), "event")
    assert event == dense
    assert fabric.qos_summary()["weighted"]
    _legal(event, channels)


def test_uniform_weights_log_equals_unweighted():
    plain, _, _ = _fabric_logs(("gemm", "tpchq6"), (1, 1), "event")
    uniform, _, fabric = _fabric_logs(("gemm", "tpchq6"), (4, 4),
                                      "event")
    assert uniform == plain
    assert not fabric.qos_summary()["weighted"]


def test_lone_tenant_fabric_log_equals_solo():
    build = lambda: _bench_row("gemm")     # noqa: E731
    solo, _, _ = _solo(build, "event")
    fabric = Fabric()
    fabric.add_tenant(*build())
    with command_log() as log:
        fabric.run()
    assert log.commands(fabric.dram) == solo


def test_empty_fault_plan_log_equals_no_plan():
    build = lambda: _memcpy(Scheme.PIPELINE, 8, 64)     # noqa: E731
    assert (_solo(build, "event", fault_plan=FaultPlan([]))
            == _solo(build, "event"))


def test_batch_leader_and_follower_logs_equal_solo():
    build = lambda: _bench_row("kmeans")    # noqa: E731
    solo, _, _ = _solo(build, "event")
    with command_log() as log:
        batch = run_batch(compile_to_bitstream("kmeans", "tiny"), [{}, {}])
    assert [inst.role for inst in batch] == ["leader", "replay"]
    for inst in batch:
        assert log.commands(inst.machine.dram) == solo


@pytest.mark.xfail(strict=True, reason=(
    "tFAW is enforced at the scheduler's decide cycle: Channel._schedule "
    "counts an activate when it picks a request, while the bank "
    "activates later, after the precharge.  In a pipelined memcpy of 64 "
    "tiles of 512 words, every channel activates at cycles 6048, 6052, "
    "6056, 6060 and 6074 — five in 26 cycles against t_faw = 30.  "
    "Fixing it moves sim_cycles."))
def test_pipelined_memcpy_holds_tfaw():
    dhdl, config = _memcpy(Scheme.PIPELINE, 64, 512)
    machine = Machine(dhdl, config)
    with command_log() as log:
        machine.run()
    for channel, commands in zip(machine.dram.channels,
                                 log.commands(machine.dram)):
        assert not violations(commands, channel.params)["tFAW"]


@pytest.mark.xfail(strict=True, reason=(
    "tCCD is spaced per bank only (Bank.issue): the channel issues column "
    "commands to different banks one cycle apart, and only the data-bus "
    "shift in Channel.tick spaces their data.  DDR3's tCCD is per rank.  "
    "Fixing it moves sim_cycles."))
def test_pipelined_memcpy_holds_tccd_per_rank():
    dhdl, config = _memcpy(Scheme.PIPELINE, 16, 512)
    machine = Machine(dhdl, config)
    with command_log() as log:
        machine.run()
    for channel, commands in zip(machine.dram.channels,
                                 log.commands(machine.dram)):
        assert not violations(commands, channel.params)["tCCD_rank"]
