"""Unit tests for N-buffer depth inference (Section 3.5)."""

import numpy as np

from repro.compiler.buffering import infer_buffer_depths
from repro.compiler.lowering import lower
from repro.patterns import Fold, Program
from repro.patterns import expr as E


def test_adjacent_producer_consumer_double_buffers():
    p = Program("t")
    n = 100_000
    a = p.input("a", (n,), data=np.zeros(n, dtype=np.float32))
    o = p.output("o", (n,))
    p.map("scale", o, n, lambda i: a[i] * 2.0)
    dhdl = lower(p)
    a_tiles = [s for s in dhdl.srams if s.name.startswith("a_")]
    assert a_tiles[0].nbuf == 2


def test_gather_chain_gets_deeper_buffers():
    p = Program("t")
    rows = 64
    ptr = p.input("ptr", (rows + 1,), E.INT32,
                  data=np.arange(rows + 1, dtype=np.int32) * 2)
    val = p.input("val", (rows * 2,),
                  data=np.zeros(rows * 2, dtype=np.float32))
    x = p.input("x", (rows,), data=np.zeros(rows, dtype=np.float32),
                offchip=True)
    col = p.input("col", (rows * 2,), E.INT32,
                  data=np.zeros(rows * 2, dtype=np.int32))
    y = p.output("y", (rows,))
    p.map("spmv", y, rows,
          lambda i: Fold((ptr[i], ptr[i + 1]), 0.0,
                         lambda j: val[j] * x[col[j]],
                         lambda a, b: a + b))
    dhdl = lower(p)
    depths = {s.name: s.nbuf for s in dhdl.srams}
    # the gather destination sits several pipeline stages after the
    # pointer tile load, so upstream tiles buffer deeper than 2
    assert max(depths.values()) >= 3


def test_sequential_loop_memories_stay_shallow():
    p = Program("t")
    x = p.temp("x", (), E.FLOAT32, data=np.float32(1.0))
    with p.loop("iters", 3):
        p.update("double", x, lambda: x.scalar() * 2.0)
    dhdl = lower(p)
    assert all(s.nbuf <= 2 for s in dhdl.srams)


def test_depth_is_bounded():
    p = Program("t")
    n = 64
    a = p.input("a", (n,), data=np.zeros(n, dtype=np.float32))
    # a chain of dependent steps all reading the first tile
    prev = a
    for k in range(6):
        nxt = p.temp(f"s{k}", (n,)) if k < 5 else p.output("o", (n,))
        p.map(f"step{k}", nxt, n,
              lambda i, src=prev: src[i] + 1.0)
        prev = nxt
    dhdl = lower(p)
    depths = infer_buffer_depths(dhdl, max_depth=4)
    assert max(depths.values()) <= 4


def test_inference_improves_pipelining():
    """Deeper buffers must never slow the pipeline down."""
    from repro.compiler import compile_to_bitstream
    compiled = compile_to_bitstream("smdv", "tiny")
    machine = compiled.machine()
    with_inference = machine.run().cycles

    shallow = compile_to_bitstream("smdv", "tiny")
    for sram in shallow.dhdl.srams:
        sram.nbuf = 1
    machine = shallow.machine()
    without = machine.run().cycles
    assert with_inference <= without
