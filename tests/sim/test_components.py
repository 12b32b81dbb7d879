"""Unit tests for simulator components: FIFOs, scratchpads, config,
and the one wait routine of the leaves."""

import numpy as np
import pytest

from repro.arch.params import DEFAULT
from repro.dhdl import (BankingMode, Counter, CounterChain, DhdlProgram,
                        EmitStmt, FifoDecl, InnerCompute, Reg, Sram,
                        StreamStore, TileLoad)
from repro.dram.model import DramModel
from repro.dram.request import DramRequest
from repro.errors import ConfigError, SimulationError
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import (AgAssignment, DramImage, FabricConfig, FifoSim,
                       InnerComputeSim, LeafTiming, MemoryState, RegSim,
                       ScratchpadSim, SimStats, StreamStoreSim, TileLoadSim,
                       assign_bases)
from repro.trace import RingTracer
from repro.trace.events import StallCause


# -- FIFO -----------------------------------------------------------------------

def test_fifo_push_pop_order():
    fifo = FifoSim(FifoDecl("f", depth=2), lanes=4)
    fifo.push([1, 2, 3])
    assert fifo.pop(2) == [1, 2]
    assert fifo.pop(5) == [3]


def test_fifo_capacity_vector_vs_scalar():
    vec = FifoSim(FifoDecl("v", depth=2, vector=True), lanes=16)
    assert vec.capacity == 32
    scalar = FifoSim(FifoDecl("s", depth=2, vector=False), lanes=16)
    assert scalar.capacity == 2


def test_fifo_overflow_rejected():
    fifo = FifoSim(FifoDecl("f", depth=1, vector=False))
    fifo.push([1])
    assert not fifo.can_push()
    with pytest.raises(SimulationError):
        fifo.push([2])


def test_fifo_eos_protocol():
    fifo = FifoSim(FifoDecl("f"))
    fifo.push([1])
    fifo.close()
    assert fifo.eos and not fifo.drained
    with pytest.raises(SimulationError):
        fifo.push([2])
    fifo.pop(1)
    assert fifo.drained
    fifo.reopen()
    assert not fifo.eos


def test_fifo_reopen_requires_empty():
    fifo = FifoSim(FifoDecl("f"))
    fifo.push([1])
    fifo.close()
    with pytest.raises(SimulationError):
        fifo.reopen()


# -- scratchpad ---------------------------------------------------------------------

def _scratch(banking=BankingMode.STRIDED, shape=(64,), nbuf=1,
             bank_stride=1):
    sram = Sram("t", shape, E.FLOAT32, banking, nbuf=nbuf,
                bank_stride=bank_stride)
    return ScratchpadSim(sram, banks=16)


def test_versions_copy_on_write():
    sp = _scratch()
    first = sp.buffer((0,))
    first[0] = 7.0
    second = sp.buffer((1,))
    assert second[0] == 7.0           # carried
    second[0] = 9.0
    assert sp.buffer((0,))[0] == 7.0  # older untouched


def test_read_buffer_falls_back_to_newest_older():
    sp = _scratch()
    sp.buffer((0, 1))[0] = 5.0
    view = sp.read_buffer((0, 3))
    assert view[0] == 5.0


def test_retire_old_bounds_live_versions():
    sp = _scratch(nbuf=2)
    for k in range(10):
        sp.buffer((k,))
    sp.retire_old()
    assert len(sp.versions) <= 3


def test_strided_conflicts_counted():
    sp = _scratch()
    assert sp.read_cost(list(range(16))) == 0       # one per bank
    assert sp.read_cost([0, 16, 32]) == 2           # all bank 0
    assert sp.conflict_cycles == 2


def test_bank_stride_decoder():
    # lanes hit addresses k*16 (a column): with stride 16 they spread
    sp = _scratch(bank_stride=16)
    addrs = [k * 16 for k in range(16)]
    assert sp.read_cost(addrs) == 0


def test_broadcast_reads_free():
    sp = _scratch()
    assert sp.read_cost([5] * 16) == 0  # same word: broadcast


def test_duplication_mode_reads_free_writes_serialise():
    sp = _scratch(banking=BankingMode.DUPLICATION)
    assert sp.read_cost([0, 0, 7, 7, 3]) == 0
    assert sp.write_cost([1, 2, 3, 4]) == 3


def test_fifo_and_linebuffer_modes_conflict_free():
    for mode in (BankingMode.FIFO, BankingMode.LINE_BUFFER):
        sp = _scratch(banking=mode)
        assert sp.read_cost([0, 16, 32, 48]) == 0
        assert sp.write_cost([0, 16, 32, 48]) == 0


def test_watermark_tracking():
    sp = _scratch()
    sp.note_write((1,), 5)
    sp.note_write((1,), 2)
    assert sp.watermark_for((1,)) == 6
    assert sp.watermark_for((2,)) == 6  # falls back
    assert sp.watermark_for((0,)) == 0


# -- registers -----------------------------------------------------------------------

def test_reg_sim_types():
    reg = RegSim(Reg("r", E.INT32, init=3))
    assert reg.read() == 3
    reg.write(7.9)
    assert reg.read() == 7  # int32 truncation


def test_memory_state_lookup_errors():
    state = MemoryState([], [])
    with pytest.raises(SimulationError):
        state.scratch(Sram("ghost", (4,), E.FLOAT32))
    with pytest.raises(SimulationError):
        state.reg(Reg("ghost"))


# -- config -----------------------------------------------------------------------

def test_leaf_timing_validation():
    LeafTiming().validate(DEFAULT)
    with pytest.raises(ConfigError):
        LeafTiming(lanes=99).validate(DEFAULT)
    with pytest.raises(ConfigError):
        LeafTiming(pipeline_depth=0).validate(DEFAULT)


def test_config_lookup_errors():
    config = FabricConfig()
    with pytest.raises(ConfigError):
        config.timing_for("nope")
    with pytest.raises(ConfigError):
        config.ags_for("nope")


def test_utilization_fractions():
    config = FabricConfig(pcus_used=32, pmus_used=16, ags_used=17,
                          fus_used=96 * 16, switches_used=60)
    util = config.utilization()
    assert util["pcu"] == pytest.approx(0.5)
    assert util["pmu"] == pytest.approx(0.25)
    assert util["ag"] == pytest.approx(0.5)
    assert util["fu"] == pytest.approx(0.25)


def test_ag_assignment_streams():
    assert AgAssignment((0, 1, 2)).streams == 3


# -- a waiting cycle is written down once ------------------------------------------
#
# Hand-built leaves, no scheduler attached: ticking a blocked leaf n
# times (what the dense loop does) must leave exactly what the park the
# tick named charges for n cycles (what the event core does with it).

def _leaf_parts(queue_depth=64):
    """Declarations for one hand-built leaf, and the models under it."""
    dhdl = DhdlProgram("parts")
    words = 1024
    array = dhdl.dram(Array("a", (words,), E.FLOAT32,
                            data=np.arange(words, dtype=np.float32)))
    tile = dhdl.sram("tile", (words,), E.FLOAT32)
    config = FabricConfig()
    dram = DramModel(queue_depth=queue_depth)
    image = DramImage(dhdl.drams, assign_bases(dhdl.drams))
    return dhdl, array, tile, config, dram, image


def _traced(leaf, kind):
    leaf.trace = RingTracer(sample=1)
    leaf.trace.register_unit(leaf.name, kind, ())
    return leaf


def _tick(leaf, cycle):
    """One cycle of ``leaf`` the way the core frames it; returns the
    marks the tick emitted and the park it left."""
    leaf.trace.begin_cycle(cycle)
    leaf._park = None
    leaf.tick(cycle)
    marks = leaf.trace.current_marks()
    leaf.trace.end_cycle()
    return marks, leaf._park


def _fill_channel_of(dram, byte_addr):
    """Somebody else's requests fill the channel queue ``byte_addr``
    maps to (the DRAM model is never ticked, so it stays full)."""
    while dram.can_accept(byte_addr):
        dram.submit(DramRequest(byte_addr=byte_addr))


def _blocked_ticks_equal_the_park(leaf, fifos, first_cycle, n=7):
    """``leaf`` is blocked from ``first_cycle`` on.  Returns the one
    park all n ticks named, after checking that they left what it
    charges for n cycles and marked what it marks, every cycle."""
    leaf.stats = SimStats()
    for fifo in fifos:
        fifo.full_stalls = fifo.empty_stalls = 0
    parks = []
    for cycle in range(first_cycle, first_cycle + n):
        marks, park = _tick(leaf, cycle)
        assert park is not None and park.until is None
        assert marks == dict(park.marks)
        parks.append(park)
    assert all(park is parks[0] for park in parks)     # prebuilt
    ticked = (leaf.stats.as_dict(),
              [(fifo.full_stalls, fifo.empty_stalls) for fifo in fifos])
    for fifo in fifos:
        fifo.full_stalls = fifo.empty_stalls = 0
    charged = SimStats()
    park.charge(charged, n)
    assert ticked == (
        charged.as_dict(),
        [(fifo.full_stalls, fifo.empty_stalls) for fifo in fifos])
    return park


def _emitter(depth, trips):
    """An inner compute emitting 16 words per issue into a FIFO of
    ``depth`` words, over ``trips`` indices."""
    dhdl, _, tile, config, _, _ = _leaf_parts()
    decl = dhdl.fifo("f", depth=depth, vector=False)
    i = E.Idx("i")
    leaf = InnerCompute("emit", CounterChain([Counter(0, trips, par=16)],
                                             [i]),
                        [EmitStmt(decl, True, tile[i])])
    config.leaf_timing["emit"] = LeafTiming(pipeline_depth=3,
                                            output_hops=1)
    fifo = FifoSim(decl)
    sim = InnerComputeSim(leaf, config,
                          MemoryState(dhdl.srams, dhdl.regs), SimStats(),
                          {decl.name: fifo})
    return _traced(sim, "pcu"), fifo


def test_wait_fifo_full_inner_compute():
    sim, fifo = _emitter(depth=1, trips=64)
    sim.start({}, (0,))
    park = _blocked_ticks_equal_the_park(sim, [fifo], first_cycle=1)
    assert park.counters == ("fifo_stall_cycles",)
    assert park.fifo_counters == ((fifo, "full_stalls"),)
    assert park.marks == (("emit", StallCause.FIFO_FULL),)
    assert park.wake_fifos == (fifo,) and park.busy_unit is None
    assert sim.stats.vector_issues == 0 and sim.busy


def test_timed_wait_rests_only_while_the_timer_is_worth_it():
    """A zero-trip chain ends on the first tick; the drain it starts
    lasts until cycle 1 + 3 + 1.  Every drain tick ``_wait``s on that
    one park, but leaves it for the core only while ``until > cycle +
    1`` — a park ending next cycle anyway is not worth a timer."""
    sim, fifo = _emitter(depth=64, trips=0)
    sim.start({}, (0,))
    marks, drain = _tick(sim, 1)
    assert marks == {"emit": StallCause.DRAIN}
    assert drain.until == 5 and drain.busy_unit is None
    assert sim.stats.busy_cycles == {"emit": 1}     # the chain-end tick
    left = {}
    for cycle in range(2, 6):
        marks, left[cycle] = _tick(sim, cycle)
        assert marks == dict(drain.marks)
    assert left == {2: drain, 3: drain, 4: None, 5: None}
    assert sim.stats.busy_cycles == {"emit": 1} and not sim.busy
    assert fifo.eos


@pytest.mark.parametrize("in_flight", [False, True],
                         ids=["nothing_in_flight", "bursts_in_flight"])
def test_wait_full_channel_queue_tile_load(in_flight):
    """A tile load behind a full channel queue: every cycle its burst
    stream's admit step charges one bandwidth stall and marks
    ``DRAM_BANDWIDTH``, busy only while its own bursts are in flight.
    The tick leaves the stream's wait, which charges nothing and waits
    for nothing: the admit steps account every cycle themselves."""
    dhdl, array, tile, config, dram, image = _leaf_parts(queue_depth=2)
    config.ag_assign["ld"] = AgAssignment(ag_ids=(0,))
    sim = _traced(TileLoadSim(TileLoad("ld", array, tile, (0,), (1024,)),
                              config, MemoryState(dhdl.srams, dhdl.regs),
                              SimStats(), dram, image), "ag")
    sim.start({}, (0,))
    assert dram.streams == [sim]
    cycle = 1
    if in_flight:
        # its own bursts fill the queues: productive until one is full
        while _tick(sim, cycle)[0] == {"ld": StallCause.BUSY}:
            cycle += 1
        assert sim._outstanding > 0
        cycle += 1
    else:
        _fill_channel_of(dram, image.byte_addr("a", 0))
    sim.stats = SimStats()
    for at in range(cycle, cycle + 7):
        marks, park = _tick(sim, at)
        assert marks == {"ld": StallCause.DRAM_BANDWIDTH}
        assert park is sim._park_stream
    assert (park.until, park.busy_unit, park.counters, park.fifo_counters,
            park.marks, park.wake_fifos, park.wake_dram_room) == (
                None, None, (), (), (), (), False)
    assert sim.stats.dram_stall_cycles == 7
    assert sim.stats.busy_cycles == ({"ld": 7} if in_flight else {})
    assert dram.streams == [sim]


@pytest.mark.parametrize("state", ["starved", "blocked"])
def test_wait_stream_store(state):
    dhdl, array, _, config, dram, image = _leaf_parts(queue_depth=2)
    decl = dhdl.fifo("f", depth=4)
    count = dhdl.reg("count", E.INT32)
    config.ag_assign["ss"] = AgAssignment()
    fifo = FifoSim(decl)
    sim = _traced(StreamStoreSim(StreamStore("ss", array, decl, count),
                                 config, MemoryState(dhdl.srams, dhdl.regs),
                                 SimStats(), dram, image,
                                 {decl.name: fifo}), "ag")
    sim.start({}, (0,))
    cycle = 1
    if state == "blocked":
        # a full burst staged and the stream closed, behind a full queue
        _fill_channel_of(dram, image.byte_addr("a", 0))
        fifo.push([1.0] * 16)
        fifo.close()
        marks, park = _tick(sim, cycle)
        assert marks == {"ss": StallCause.BUSY} and park is None
        cycle += 1
    park = _blocked_ticks_equal_the_park(sim, [fifo], first_cycle=cycle)
    assert park.wake_fifos == (fifo,) and park.busy_unit is None
    if state == "starved":
        assert park.counters == ("fifo_empty_stall_cycles",)
        assert park.fifo_counters == ((fifo, "empty_stalls"),)
        assert park.marks == (("ss", StallCause.FIFO_EMPTY),)
        assert not park.wake_dram_room
        assert sim.stats.fifo_empty_stall_cycles == 7
    else:
        assert park.counters == ("dram_stall_cycles",)
        assert park.fifo_counters == ()
        assert park.marks == (("ss", StallCause.DRAM_BANDWIDTH),)
        assert park.wake_dram_room
        assert sim.stats.dram_stall_cycles == 7
