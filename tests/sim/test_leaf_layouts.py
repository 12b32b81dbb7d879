"""Every per-leaf layout a compute leaf fixes once, against the references.

``repro.sim.block.Datapath`` computes once per leaf what is the same for
every block of it: the order of load sites and stores, which statements
write registers or emit into FIFOs, each stream's width and whether the
banking proves it conflict-free, and the columns of a ``Schedule``.  A
block then holds only the columns of the streams it has.  Each program
below isolates one shape of that layout; every vector issue it makes —
the addresses priced, the conflict cost, every store, register write
and FIFO word — must equal the per-issue reference interpreter's
(``tests/sim/reference_datapath.py``, whose chain walk is
``tests/sim/reference_chain.py``) under both schedulers.  A batch
follower, which re-prices the leader's blocks under its own banking,
must equal a solo reference run so banked.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bitstream import Bitstream
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        HashReduceStmt, InnerCompute, OuterController,
                        Scheme, StreamStore, TileLoad, TileStore,
                        WriteStmt, validate)
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim.batch import _RecordingMachine, run_batch
from repro.sim.block import Block

from tests.sim.reference_datapath import LoggingMachine, assert_same_memory
from tests.sim.test_machine_handbuilt import default_config

F32, I32 = E.FLOAT32, E.INT32
SCHEDULERS = ("event", "dense")


def program(name, arrays, body):
    """Load every input array whole into a scratchpad of its name + "_t",
    run ``body(tiles, pipe)`` (it adds the compute leaves), and store
    every output scratchpad back.  ``arrays``: ``(name, shape, dtype,
    data or None for an output)``."""
    dhdl = DhdlProgram(name)
    pipe = OuterController("pipe", Scheme.SEQUENTIAL)
    dhdl.root.add(pipe)
    tiles, stores = {}, []
    for array, shape, dtype, data in arrays:
        dram = dhdl.dram(Array(array, shape, dtype, data=data))
        tile = tiles[array] = dhdl.sram(f"{array}_t", shape, dtype)
        if data is None:
            stores.append(TileStore(f"store_{array}", dram, tile,
                                    (0,) * len(shape), shape))
        else:
            pipe.add(TileLoad(f"load_{array}", dram, tile,
                              (0,) * len(shape), shape))
    body(dhdl, tiles, pipe)
    for store in stores:
        pipe.add(store)
    validate(dhdl)
    return dhdl


def leaf(name, counters, stmts):
    indices = [E.Idx(f"{name}{k}") for k in range(len(counters))]
    return InnerCompute(name, CounterChain(counters, indices),
                        stmts(*indices))


def same_issues(dhdl, config=None):
    """Run ``dhdl`` under both schedulers through the block evaluator
    and through the reference: every issue record, the statistics and
    the memories must agree.  Returns the blocks of a recorded run."""
    config = config or default_config(dhdl)
    for mode in SCHEDULERS:
        blocks = LoggingMachine(dhdl, config, scheduler=mode)
        reference = LoggingMachine(dhdl, config, reference=True,
                                   scheduler=mode)
        assert blocks.run().as_dict() == reference.run().as_dict(), mode
        assert blocks.issue_log == reference.issue_log, mode
        assert_same_memory(blocks.mem, reference.mem)
    log = {}
    _RecordingMachine(dhdl, config, log).run()
    return {name: [block for act in acts for block in act.blocks]
            for name, acts in log.items()}


def test_a_block_of_one_issue():
    """Sixteen lanes at ``par`` 16, and five: one issue a block."""
    for n in (16, 5):
        data = np.arange(n, dtype=np.float32)
        dhdl = program(f"one{n}", [("a", (n,), F32, data),
                                   ("o", (n,), F32, None)],
                       lambda dhdl, t, pipe: pipe.add(leaf(
                           "scale", [Counter(0, n, par=16)],
                           lambda i: [WriteStmt(t["o"], (i,),
                                                t["a"][i] * 2.0 + 1.0)])))
        (block,) = same_issues(dhdl)["scale"]
        assert block.n == 1 and block.starts.tolist() == [0, n]


def test_a_site_read_in_pieces_and_by_the_bounds(monkeypatch):
    """The inner bound reads ``cnt[x0]`` and the body reads that same
    load node, so its stream holds bound reads ahead of body reads; the
    body's ``src[x1]`` is shared by both sides of a select, so each side
    reads it on its own lanes — two pieces of one site.  Ranges of 0,
    2, 5 and 3 lanes at ``par`` 4 come a window of positions at a
    time."""
    cnt = np.array([2, 0, 5, 3], np.int32)
    src = np.arange(8, dtype=np.float32) - 3.0
    pieces = []
    build = Block.__init__

    def counting(block, p):
        pieces.append(max(map(len, p.rec.values())))
        build(block, p)

    monkeypatch.setattr(Block, "__init__", counting)

    def body(dhdl, t, pipe):
        def stmts(x0, x1):
            v = t["src"][x1]
            return [WriteStmt(t["out"], (x0, x1), E.select(
                x1 < 3, v * 2.0, v + 1.0) + E.to_float(bound))]
        x0, x1 = E.Idx("sites0"), E.Idx("sites1")
        bound = t["cnt"][x0]
        pipe.add(InnerCompute("sites", CounterChain(
            [Counter(0, 4), Counter(0, bound, par=4)], [x0, x1]),
            stmts(x0, x1)))

    dhdl = program("pieces", [("cnt", (4,), I32, cnt),
                              ("src", (8,), F32, src),
                              ("out", (4, 8), F32, None)], body)
    blocks = same_issues(dhdl)["sites"]
    assert max(pieces) == 2
    assert any(block.bound for block in blocks)
    shared = [key for block in blocks for key in block.bound
              if key in block.dp.sites]
    assert shared, "the bound's site is not also a body site"


@pytest.mark.parametrize("hash_too", [False, True],
                         ids=["two_writes", "write_and_hash"])
def test_two_writers_to_one_scratchpad(hash_too):
    """Two statements store to one scratchpad: one write stream in
    issue-statement-lane order.  With a hash into it too, the hash's
    entries mark no address, the writes repeat addresses, and the hash
    reads bins the write just stored — so that body steps lane by lane,
    as one that loads what it stores does."""
    keys = np.array([3, 1, 3, 0, 2, 2, 1, 3] * 2, np.int32)

    def body(dhdl, t, pipe):
        a, b = E.Var("acc", I32), E.Var("val", I32)

        def stmts(i):
            if hash_too:
                return [WriteStmt(t["h"], (i % 4,), t["k"][i]),
                        HashReduceStmt(t["h"], t["k"][i], 1, a + b, a, b,
                                       0, carry=True)]
            return [WriteStmt(t["h"], (i,), t["k"][i]),
                    WriteStmt(t["h"], (i + 16,), t["k"][i] * 2)]
        pipe.add(leaf("two", [Counter(0, 16, par=4)], stmts))

    dhdl = program("writers", [("k", (16,), I32, keys),
                               ("h", (32,), I32, None)], body)
    blocks = same_issues(dhdl)["two"]
    dp = blocks[0].dp
    (name, writers, marked), = dp.stores
    assert name == "h_t" and len(writers) == 2
    assert marked == [True, not hash_too]
    assert dp.steps == hash_too


def test_a_leaf_emitting_into_a_fifo_steps_issue_by_issue():
    """An emitting leaf can be stalled by its FIFO between issues (here
    four words deep), so it never runs free."""
    data = np.random.default_rng(4).standard_normal(64).astype(np.float32)
    dhdl = DhdlProgram("filter")
    dram_in = dhdl.dram(Array("a", (64,), F32, data=data))
    dram_out = dhdl.dram(Array("kept", (64,), F32))
    dhdl.dram(Array("count", (), I32))
    tile = dhdl.sram("a_t", (64,), F32)
    fifo = dhdl.fifo("kept_fifo", F32, depth=4)
    count = dhdl.reg("count_reg", I32)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("load_a", dram_in, tile, (0,), (64,)))
    stream = OuterController("stream", Scheme.STREAMING)
    pipe.add(stream)
    stream.add(leaf("emit", [Counter(0, 64, par=16)],
                    lambda i: [EmitStmt(fifo, tile[i] > 0.0, tile[i])]))
    stream.add(StreamStore("drain", dram_out, fifo, count))
    dhdl.reg_outputs[count.name] = "count"
    validate(dhdl)
    blocks = same_issues(dhdl)["emit"]
    assert [name for _si, name in blocks[0].dp.emits] == ["kept_fifo"]
    machine = LoggingMachine(dhdl, default_config(dhdl))
    assert not any(sim.free for sim in machine._leaves
                   if sim.name == "emit")
    assert machine.run().vector_issues == 4


@pytest.mark.parametrize("dynamic", [False, True],
                         ids=["constant", "data_dependent"])
def test_a_depth_two_chain(dynamic):
    """Three rows of ten lanes at ``par`` 4, or rows as long as a
    scratchpad says: runs of several ranges, each ending in a partial
    issue."""
    lens = np.array([10, 3, 7], np.int32)
    data = np.arange(30, dtype=np.float32).reshape(3, 10)

    def body(dhdl, t, pipe):
        x0, x1 = E.Idx("rows0"), E.Idx("rows1")
        hi = t["n"][x0] if dynamic else 10
        pipe.add(InnerCompute("rows", CounterChain(
            [Counter(0, 3), Counter(0, hi, par=4)], [x0, x1]),
            [WriteStmt(t["o"], (x0, x1), t["a"][x0, x1] + 1.0)]))

    dhdl = program("rows", [("n", (3,), I32, lens), ("a", (3, 10), F32, data),
                            ("o", (3, 10), F32, None)], body)
    (block,) = same_issues(dhdl)["rows"]
    want = [3, 1, 2] if dynamic else [3, 3, 3]
    assert block.n == sum(want)
    assert len(block.lanes) == block.n


@pytest.mark.parametrize("mode", SCHEDULERS)
def test_a_batch_follower_reprices_the_leaders_blocks(mode):
    """Lanes read every fourth word: 4-way conflicts on 16 banks, 8-way
    on 8 and 16-way on 4.  The followers replay the 16-bank leader's blocks, each
    priced under its own banking, and must equal a solo reference run
    banked as it is."""
    data = np.arange(64, dtype=np.float32)
    dhdl = program("strided", [("a", (64,), F32, data),
                               ("o", (16,), F32, None)],
                   lambda dhdl, t, pipe: pipe.add(leaf(
                       "stride", [Counter(0, 16, par=16)],
                       lambda i: [WriteStmt(t["o"], (i,),
                                            t["a"][i * 4])])))
    config = default_config(dhdl)
    banks = (16, 8, 4)
    batch = run_batch(Bitstream("strided", "tiny", dhdl, config),
                      [{"banks": b} for b in banks], scheduler=mode)
    assert [inst.role for inst in batch] == ["leader", "replay", "replay"]
    cycles = []
    for b, inst in zip(banks, batch):
        solo = LoggingMachine(dhdl, replace(config, banks_override=b),
                              reference=True, scheduler=mode)
        assert inst.stats.as_dict() == solo.run().as_dict(), b
        assert_same_memory(inst.machine.mem, solo.mem)
        cycles.append(inst.stats.cycles)
    assert cycles[0] < cycles[1] < cycles[2]
