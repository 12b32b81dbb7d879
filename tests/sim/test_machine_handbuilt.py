"""End-to-end machine tests over hand-built DHDL programs.

These bypass the compiler: each test assembles a small controller tree by
hand, gives every leaf a default timing, runs the machine, and checks the
DRAM image against numpy.  They pin down the simulator's data movement
and control protocols independently of lowering.
"""

import numpy as np
import pytest

from repro.dhdl import (BankingMode, Counter, CounterChain, DhdlProgram,
                        EmitStmt, Gather, HashReduceStmt, InnerCompute,
                        OuterController, ReduceStmt, Scatter, Scheme,
                        StreamStore, TileLoad, TileStore, WriteStmt,
                        validate)
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import AgAssignment, FabricConfig, LeafTiming, Machine


def default_config(dhdl) -> FabricConfig:
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    config.pcus_used = 4
    config.pmus_used = 4
    config.ags_used = 2
    return config


def chain(*specs):
    counters, indices = [], []
    for spec in specs:
        if isinstance(spec, tuple):
            lo, hi, par = spec
        else:
            lo, hi, par = 0, spec, 1
        counters.append(Counter(lo, hi, par=par))
        indices.append(E.Idx(f"x{len(indices)}"))
    return CounterChain(counters, indices), indices


def test_load_compute_store_elementwise():
    n = 64
    data = np.arange(n, dtype=np.float32)
    array_in = Array("a", (n,), E.FLOAT32, data=data)
    array_out = Array("o", (n,), E.FLOAT32)
    dhdl = DhdlProgram("ew")
    dram_in = dhdl.dram(array_in)
    dram_out = dhdl.dram(array_out)
    tile_in = dhdl.sram("a_tile", (n,), E.FLOAT32)
    tile_out = dhdl.sram("o_tile", (n,), E.FLOAT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_a", dram_in, tile_in, (0,), (n,)))
    ch, (i,) = chain((0, n, 16))
    body.add(InnerCompute("scale", ch,
                          [WriteStmt(tile_out, (i,),
                                     tile_in[i] * 2.0 + 1.0)]))
    body.add(TileStore("store_o", dram_out, tile_out, (0,), (n,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    stats = machine.run()
    np.testing.assert_allclose(machine.result("o"), data * 2 + 1)
    assert stats.cycles > 0
    assert stats.dram["reads"] == n // 16
    assert stats.dram["writes"] == n // 16


def test_tiled_pipeline_multiple_iterations():
    n, tile = 128, 32
    data = np.random.default_rng(0).standard_normal(n).astype(np.float32)
    array_in = Array("a", (n,), E.FLOAT32, data=data)
    array_out = Array("o", (n,), E.FLOAT32)
    dhdl = DhdlProgram("tiled")
    dram_in = dhdl.dram(array_in)
    dram_out = dhdl.dram(array_out)
    tile_in = dhdl.sram("a_tile", (tile,), E.FLOAT32, nbuf=2)
    tile_out = dhdl.sram("o_tile", (tile,), E.FLOAT32, nbuf=2)
    tchain, (t,) = chain(n // tile)
    body = OuterController("tiles", Scheme.PIPELINE, chain=tchain)
    dhdl.root.add(body)
    body.add(TileLoad("load_a", dram_in, tile_in, (t * tile,), (tile,)))
    ch, (i,) = chain((0, tile, 16))
    body.add(InnerCompute("neg", ch,
                          [WriteStmt(tile_out, (i,), -tile_in[i])]))
    body.add(TileStore("store_o", dram_out, tile_out, (t * tile,),
                       (tile,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    np.testing.assert_allclose(machine.result("o"), -data)


def test_pipeline_overlaps_iterations():
    """With nbuf=2 the load of tile k+1 overlaps compute of tile k, so a
    pipelined run must beat a strictly sequential one."""
    n, tile = 256, 32

    def build(scheme, nbuf):
        data = np.ones(n, dtype=np.float32)
        array_in = Array("a", (n,), E.FLOAT32, data=data)
        array_out = Array("o", (n,), E.FLOAT32)
        dhdl = DhdlProgram("overlap")
        dram_in = dhdl.dram(array_in)
        dram_out = dhdl.dram(array_out)
        tile_in = dhdl.sram("a_tile", (tile,), E.FLOAT32, nbuf=nbuf)
        tile_out = dhdl.sram("o_tile", (tile,), E.FLOAT32, nbuf=nbuf)
        tchain, (t,) = chain(n // tile)
        body = OuterController("tiles", scheme, chain=tchain)
        dhdl.root.add(body)
        body.add(TileLoad("load_a", dram_in, tile_in, (t * tile,),
                          (tile,)))
        ch, (i,) = chain((0, tile, 16))
        body.add(InnerCompute("inc", ch,
                              [WriteStmt(tile_out, (i,),
                                         tile_in[i] + 1.0)]))
        body.add(TileStore("store_o", dram_out, tile_out, (t * tile,),
                           (tile,)))
        machine = Machine(dhdl, default_config(dhdl))
        stats = machine.run()
        np.testing.assert_allclose(machine.result("o"), data + 1)
        return stats.cycles

    pipelined = build(Scheme.PIPELINE, nbuf=2)
    sequential = build(Scheme.SEQUENTIAL, nbuf=1)
    assert pipelined < sequential


def test_fold_to_register_and_writeback():
    n = 48
    data = np.arange(n, dtype=np.float32)
    array_in = Array("a", (n,), E.FLOAT32, data=data)
    result = Array("s", (), E.FLOAT32)
    dhdl = DhdlProgram("fold")
    dram_in = dhdl.dram(array_in)
    dhdl.dram(result)
    tile_in = dhdl.sram("a_tile", (n,), E.FLOAT32)
    acc = dhdl.reg("acc", E.FLOAT32, init=0.0)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_a", dram_in, tile_in, (0,), (n,)))
    ch, (i,) = chain((0, n, 16))
    acc_a, acc_b = E.Var("a0", E.FLOAT32), E.Var("b0", E.FLOAT32)
    body.add(InnerCompute("sum", ch,
                          [ReduceStmt((acc,), (tile_in[i],),
                                      (acc_a + acc_b,), (acc_a,),
                                      (acc_b,), (0.0,))]))
    dhdl.reg_outputs[acc.name] = "s"
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    assert machine.scalar("s") == pytest.approx(data.sum())


def test_reduce_per_output_cell_matrix_row_sums():
    rows, cols = 8, 16
    data = np.random.default_rng(1).standard_normal(
        (rows, cols)).astype(np.float32)
    array_in = Array("m", (rows, cols), E.FLOAT32, data=data)
    array_out = Array("rs", (rows,), E.FLOAT32)
    dhdl = DhdlProgram("rowsum")
    dram_in = dhdl.dram(array_in)
    dram_out = dhdl.dram(array_out)
    tile_in = dhdl.sram("m_tile", (rows, cols), E.FLOAT32)
    tile_out = dhdl.sram("rs_tile", (rows,), E.FLOAT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_m", dram_in, tile_in, (0, 0), (rows, cols)))
    ch, (r, c) = chain(rows, (0, cols, 16))
    acc_a, acc_b = E.Var("a0", E.FLOAT32), E.Var("b0", E.FLOAT32)
    body.add(InnerCompute("sum", ch,
                          [ReduceStmt((tile_out,), (tile_in[r, c],),
                                      (acc_a + acc_b,), (acc_a,),
                                      (acc_b,), (0.0,), addr=(r,))]))
    body.add(TileStore("store", dram_out, tile_out, (0,), (rows,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    np.testing.assert_allclose(machine.result("rs"), data.sum(axis=1),
                               rtol=1e-5)


def test_gather_random_reads():
    n = 32
    table = np.arange(100, 100 + 64, dtype=np.float32)
    idx = np.random.default_rng(2).integers(0, 64, n).astype(np.int32)
    array_table = Array("tbl", (64,), E.FLOAT32, data=table)
    array_idx = Array("idx", (n,), E.INT32, data=idx)
    array_out = Array("o", (n,), E.FLOAT32)
    dhdl = DhdlProgram("gather")
    dram_table = dhdl.dram(array_table)
    dram_idx = dhdl.dram(array_idx)
    dram_out = dhdl.dram(array_out)
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
    dst_tile = dhdl.sram("dst_tile", (n,), E.FLOAT32,
                         banking=BankingMode.DUPLICATION)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_idx", dram_idx, idx_tile, (0,), (n,)))
    body.add(Gather("gather", dram_table, idx_tile, dst_tile))
    body.add(TileStore("store", dram_out, dst_tile, (0,), (n,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    np.testing.assert_allclose(machine.result("o"), table[idx])


def test_scatter_random_writes():
    n = 16
    idx = np.random.default_rng(3).permutation(n).astype(np.int32)
    vals = np.arange(n, dtype=np.float32)
    array_idx = Array("idx", (n,), E.INT32, data=idx)
    array_val = Array("val", (n,), E.FLOAT32, data=vals)
    array_out = Array("o", (n,), E.FLOAT32)
    dhdl = DhdlProgram("scatter")
    dram_idx = dhdl.dram(array_idx)
    dram_val = dhdl.dram(array_val)
    dram_out = dhdl.dram(array_out)
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
    val_tile = dhdl.sram("val_tile", (n,), E.FLOAT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_idx", dram_idx, idx_tile, (0,), (n,)))
    body.add(TileLoad("load_val", dram_val, val_tile, (0,), (n,)))
    body.add(Scatter("scatter", dram_out, idx_tile, val_tile))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    expect = np.zeros(n, dtype=np.float32)
    expect[idx] = vals
    np.testing.assert_allclose(machine.result("o"), expect)


def test_scatter_out_of_bounds_index_reported():
    """A bad scatter index is rejected with the unit, the index and the
    array, on the same cycle under both schedulers."""
    from repro.errors import SimulationError
    n = 16
    idx = np.arange(n, dtype=np.int32)
    idx[11] = n                      # one past the end
    cycles = []
    for mode in ("dense", "event"):
        dhdl = DhdlProgram("scatter")
        dram_idx = dhdl.dram(Array("idx", (n,), E.INT32, data=idx))
        dram_val = dhdl.dram(Array("val", (n,), E.FLOAT32,
                                   data=np.ones(n, dtype=np.float32)))
        dram_out = dhdl.dram(Array("o", (n,), E.FLOAT32))
        idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
        val_tile = dhdl.sram("val_tile", (n,), E.FLOAT32)
        body = OuterController("pipe", Scheme.PIPELINE)
        dhdl.root.add(body)
        body.add(TileLoad("load_idx", dram_idx, idx_tile, (0,), (n,)))
        body.add(TileLoad("load_val", dram_val, val_tile, (0,), (n,)))
        body.add(Scatter("scatter", dram_out, idx_tile, val_tile))
        validate(dhdl)
        machine = Machine(dhdl, default_config(dhdl), scheduler=mode)
        with pytest.raises(SimulationError,
                           match="scatter: scatter index 16 out of "
                                 "bounds for 'o'"):
            machine.run()
        cycles.append(machine.cycle)
    assert cycles[0] == cycles[1] > 0


def test_streaming_filter_with_dynamic_count():
    n = 64
    data = np.random.default_rng(4).standard_normal(n).astype(np.float32)
    array_in = Array("a", (n,), E.FLOAT32, data=data)
    array_out = Array("kept", (n,), E.FLOAT32)
    count_out = Array("count", (), E.INT32)
    dhdl = DhdlProgram("filter")
    dram_in = dhdl.dram(array_in)
    dram_out = dhdl.dram(array_out)
    dhdl.dram(count_out)
    tile_in = dhdl.sram("a_tile", (n,), E.FLOAT32)
    fifo = dhdl.fifo("kept_fifo", E.FLOAT32, depth=4)
    count_reg = dhdl.reg("count_reg", E.INT32)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("load_a", dram_in, tile_in, (0,), (n,)))
    stream = OuterController("stream", Scheme.STREAMING)
    pipe.add(stream)
    ch, (i,) = chain((0, n, 16))
    stream.add(InnerCompute("select", ch,
                            [EmitStmt(fifo, tile_in[i] > 0.0,
                                      tile_in[i])]))
    stream.add(StreamStore("drain", dram_out, fifo, count_reg))
    dhdl.reg_outputs[count_reg.name] = "count"
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    expect = data[data > 0]
    assert machine.scalar("count") == len(expect)
    np.testing.assert_allclose(machine.result("kept")[:len(expect)],
                               expect)


def test_hash_reduce_histogram():
    n, bins = 64, 8
    keys = np.random.default_rng(5).integers(0, bins, n).astype(np.int32)
    array_in = Array("k", (n,), E.INT32, data=keys)
    array_out = Array("h", (bins,), E.INT32)
    dhdl = DhdlProgram("hist")
    dram_in = dhdl.dram(array_in)
    dram_out = dhdl.dram(array_out)
    tile_in = dhdl.sram("k_tile", (n,), E.INT32)
    tile_h = dhdl.sram("h_tile", (bins,), E.INT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("load_k", dram_in, tile_in, (0,), (n,)))
    ch, (i,) = chain((0, n, 16))
    acc_a, acc_b = E.Var("a0", E.INT32), E.Var("b0", E.INT32)
    body.add(InnerCompute("hist", ch,
                          [HashReduceStmt(tile_h, tile_in[i], 1,
                                          acc_a + acc_b, acc_a, acc_b,
                                          0)]))
    body.add(TileStore("store", dram_out, tile_h, (0,), (bins,)))
    validate(dhdl)
    machine = Machine(dhdl, default_config(dhdl))
    machine.run()
    np.testing.assert_array_equal(machine.result("h"),
                                  np.bincount(keys, minlength=bins))


def test_sequential_loop_with_early_exit():
    array_cnt = Array("c", (), E.INT32, data=np.int32(5))
    dhdl = DhdlProgram("loop")
    dhdl.dram(array_cnt)
    counter = dhdl.reg("counter", E.INT32, init=5)
    loop_chain, _ = chain(100)
    loop = OuterController("loop", Scheme.SEQUENTIAL, chain=loop_chain,
                           stop_when_zero=counter)
    dhdl.root.add(loop)
    ch, (i,) = chain(1)
    loop.add(InnerCompute("dec", ch,
                          [WriteStmt(counter, (),
                                     counter.read() - 1)]))
    dhdl.reg_outputs[counter.name] = "c"
    machine = Machine(dhdl, default_config(dhdl))
    stats = machine.run()
    assert machine.scalar("c") == 0
    # 5 decrements, not 100
    assert stats.busy_cycles.get("dec", 0) < 100


def test_utilization_report():
    dhdl = DhdlProgram("empty")
    array_in = Array("a", (16,), E.FLOAT32, data=np.zeros(16,
                                                          dtype=np.float32))
    dram_in = dhdl.dram(array_in)
    tile = dhdl.sram("t", (16,), E.FLOAT32)
    body = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(body)
    body.add(TileLoad("ld", dram_in, tile, (0,), (16,)))
    config = default_config(dhdl)
    machine = Machine(dhdl, config)
    machine.run()
    util = config.utilization()
    assert 0 <= util["pcu"] <= 1
    assert util["ag"] == pytest.approx(2 / 34)
