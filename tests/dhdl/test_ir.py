"""Unit tests for the DHDL IR: counters, memories, controllers."""

import pytest

from repro.dhdl import (BankingMode, Counter, CounterChain, DhdlProgram,
                        FifoDecl, Gather, InnerCompute, OuterController,
                        Reg, Scatter, Scheme, Sram, WriteStmt, format_expr,
                        format_program, is_onchip)
from repro.errors import IRError
from repro.patterns import Array
from repro.patterns import expr as E


def test_counter_static_extent():
    assert Counter(0, 10).static_extent == 10
    assert Counter(2, 10, step=4).static_extent == 2
    assert Counter(0, E.Idx("i")).static_extent is None


def test_counter_rejects_bad_step():
    with pytest.raises(IRError):
        Counter(0, 10, step=0)
    with pytest.raises(IRError):
        Counter(0, 10, par=0)


def test_counter_chain_properties():
    i, j = E.Idx("i"), E.Idx("j")
    chain = CounterChain([Counter(0, 8), Counter(0, 32, par=16)], [i, j])
    assert chain.depth == 2
    assert chain.inner_par == 16
    assert chain.trip_hint() == 256


def test_counter_chain_index_mismatch():
    with pytest.raises(IRError):
        CounterChain([Counter(0, 4)], [])


def test_sram_properties():
    sram = Sram("t", (8, 16), E.FLOAT32, BankingMode.STRIDED, nbuf=2)
    assert sram.words() == 128
    assert sram.total_words() == 256
    assert isinstance(sram[E.Idx("i"), E.Idx("j")], E.Load)


def test_sram_rejects_bad_shape():
    with pytest.raises(IRError):
        Sram("t", (), E.FLOAT32)
    with pytest.raises(IRError):
        Sram("t", (0,), E.FLOAT32)


def test_reg_read_is_load():
    reg = Reg("acc")
    load = reg.read()
    assert isinstance(load, E.Load)
    assert load.array is reg


def test_fifo_depth_check():
    with pytest.raises(IRError):
        FifoDecl("f", depth=0)


def test_is_onchip():
    assert is_onchip(Sram("t", (4,), E.FLOAT32))
    assert is_onchip(Reg("r"))
    assert is_onchip(FifoDecl("f"))
    from repro.dhdl import DramRef
    assert not is_onchip(DramRef(Array("a", (4,))))


def test_write_stmt_validation():
    sram = Sram("t", (4, 4), E.FLOAT32)
    with pytest.raises(IRError):
        WriteStmt(sram, (E.Idx("i"),), 1.0)  # rank mismatch
    reg = Reg("r")
    with pytest.raises(IRError):
        WriteStmt(reg, (E.Idx("i"),), 1.0)  # regs take no address


def test_outer_controller_nesting():
    root = OuterController("root", Scheme.SEQUENTIAL)
    child = OuterController("c", Scheme.PIPELINE)
    root.add(child)
    i = E.Idx("i")
    leaf = InnerCompute("leaf", CounterChain([Counter(0, 4)], [i]),
                        [WriteStmt(Reg("r"), (), i)])
    child.add(leaf)
    assert leaf.parent is child
    assert list(child.ancestors()) == [root]
    assert list(leaf.ancestors()) == [child, root]
    assert list(root.leaves()) == [leaf]


def test_outer_controller_rejects_inner_scheme():
    with pytest.raises(IRError):
        OuterController("x", Scheme.INNER)


def test_inner_compute_requires_body():
    i = E.Idx("i")
    with pytest.raises(IRError):
        InnerCompute("x", CounterChain([Counter(0, 4)], [i]), [])


def test_program_fresh_names():
    prog = DhdlProgram("t")
    assert prog.fresh("a") == "a"
    assert prog.fresh("a") == "a_1"
    assert prog.fresh("a") == "a_2"


def test_program_dram_dedup():
    prog = DhdlProgram("t")
    arr = Array("x", (4,))
    ref1 = prog.dram(arr)
    ref2 = prog.dram(arr)
    assert ref1 is ref2
    assert len(prog.drams) == 1


def test_format_expr_round_trips_structure():
    i = E.Idx("i")
    text = format_expr((i + 1) * 2)
    assert "add" in text and "mul" in text


def test_format_program_smoke():
    prog = DhdlProgram("demo")
    sram = prog.sram("tile", (16,), E.FLOAT32)
    i = E.Idx("i")
    body = OuterController("pipe", Scheme.PIPELINE)
    prog.root.add(body)
    body.add(InnerCompute("k", CounterChain([Counter(0, 16, par=4)], [i]),
                          [WriteStmt(sram, (i,), i * 2)]))
    text = format_program(prog)
    assert "sram tile" in text
    assert "inner k" in text
    assert "par 4" in text


@pytest.mark.parametrize("dtype", [E.FLOAT32, E.BOOL])
@pytest.mark.parametrize("kind", [Gather, Scatter], ids=["gather", "scatter"])
def test_sparse_addresses_must_be_int32(kind, dtype):
    """An address is an element index: a FLOAT32 address scratchpad
    would truncate 2.5 to 2 and die on NaN, so it is rejected here."""
    prog = DhdlProgram("sparse")
    table = prog.dram(Array("tbl", (64,), E.FLOAT32))
    data = prog.sram("data", (8,), E.FLOAT32)
    with pytest.raises(IRError, match=f"{kind.__name__.lower()}: address "
                       f"scratchpad 'addr' is {dtype}, not int32"):
        kind(kind.__name__.lower(), table,
             prog.sram("addr", (8,), dtype), data)
    assert kind("ok", table, prog.sram("idx", (8,), E.INT32), data)
