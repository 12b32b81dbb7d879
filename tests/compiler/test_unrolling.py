"""Tests for outer-loop unrolling (Section 3.6 parallelization)."""

import numpy as np
import pytest

from repro.bitstream import CompileOptions
from repro.compiler import freeze_program
from repro.dhdl import InnerCompute
from repro.patterns import Fold, Program
from repro.patterns import expr as E


def _dot_program(n, outer, tile=None):
    p = Program("u")
    rng = np.random.default_rng(3)
    a_data = rng.standard_normal(n).astype(np.float32)
    b_data = rng.standard_normal(n).astype(np.float32)
    a = p.input("a", (n,), data=a_data)
    b = p.input("b", (n,), data=b_data)
    o = p.output("dot")
    step = p.fold("dp", o, n, 0.0, lambda i: a[i] * b[i],
                  lambda x, y: x + y)
    step.set_par(16, outer=outer)
    if tile:
        step.tile = (tile,)
    return p, float(a_data.astype(np.float64) @ b_data)


def _run(p):
    compiled = freeze_program(p, p.name, "tiny", options=CompileOptions(
        tile_words=256, whole_budget=64))
    machine = compiled.machine()
    stats = machine.run()
    return compiled, machine, stats


def test_unrolled_fold_is_correct():
    p, want = _dot_program(2048, outer=4)
    compiled, machine, stats = _run(p)
    assert machine.scalar("dot") == pytest.approx(want, rel=1e-3)


def test_unrolling_duplicates_inner_controllers():
    p1, _ = _dot_program(2048, outer=1)
    p4, _ = _dot_program(2048, outer=4)
    c1, _, _ = _run(p1)
    c4, _, _ = _run(p4)
    bodies1 = [l for l in c1.dhdl.leaves()
               if isinstance(l, InnerCompute) and not l.address_class]
    bodies4 = [l for l in c4.dhdl.leaves()
               if isinstance(l, InnerCompute) and not l.address_class]
    # 4 copies + 1 merge controller
    assert len(bodies4) == 4 * len(bodies1) + 1
    assert c4.config.pcus_used > c1.config.pcus_used


def test_unrolling_speeds_up_compute():
    p1, _ = _dot_program(4096, outer=1)
    p4, _ = _dot_program(4096, outer=4)
    _, _, s1 = _run(p1)
    _, _, s4 = _run(p4)
    assert s4.cycles < s1.cycles


def test_unroll_ignored_when_too_few_tiles():
    # 256 elements / 256-word tiles = 1 tile: nothing to unroll
    p, want = _dot_program(256, outer=4)
    compiled, machine, _ = _run(p)
    assert machine.scalar("dot") == pytest.approx(want, rel=1e-3)
    merges = [l for l in compiled.dhdl.leaves()
              if "merge" in l.name]
    assert not merges


def test_unrolled_map_partitions_output_correctly():
    n = 1024
    p = Program("um")
    data = np.arange(n, dtype=np.float32)
    a = p.input("a", (n,), data=data)
    o = p.output("o", (n,))
    p.map("x2", o, n, lambda i: a[i] * 2.0).set_par(16, outer=2)
    compiled = freeze_program(p, p.name, "tiny", options=CompileOptions(
        tile_words=128, whole_budget=64))
    machine = compiled.machine()
    machine.run()
    np.testing.assert_allclose(machine.result("o"), data * 2)


def test_unroll_with_non_dividing_extent():
    # 3 tiles of 256 across 2 copies: one copy sees the ragged tail
    n = 768
    p = Program("ur")
    data = np.ones(n, dtype=np.float32)
    a = p.input("a", (n,), data=data)
    o = p.output("s")
    p.fold("sum", o, n, 0.0, lambda i: a[i],
           lambda x, y: x + y).set_par(16, outer=2)
    compiled = freeze_program(p, p.name, "tiny", options=CompileOptions(
        tile_words=256, whole_budget=64))
    machine = compiled.machine()
    machine.run()
    assert machine.scalar("s") == pytest.approx(768.0)


def test_unroll_rejected_factor():
    p, _ = _dot_program(2048, outer=1)
    step = next(iter(p.walk_steps()))
    with pytest.raises(Exception):
        step.set_par(16, outer=0)


def test_multi_width_fold_merge():
    """Unrolled argmin-style fold: cross-referencing combine survives
    the partial merge."""
    n = 512
    p = Program("am")
    rng = np.random.default_rng(9)
    data = rng.standard_normal(n).astype(np.float32)
    a = p.input("a", (n,), data=data)
    best = p.output("best")
    arg = p.output("arg", (), E.INT32)
    step = p.fold("argmin", (best, arg), n, (1e30, 0),
                  lambda i: (a[i], E.to_int(i)),
                  lambda x, y: (E.select(y[0] < x[0], y[0], x[0]),
                                E.select(y[0] < x[0], y[1], x[1])))
    step.set_par(16, outer=2)
    compiled = freeze_program(p, p.name, "tiny", options=CompileOptions(
        tile_words=128, whole_budget=64))
    machine = compiled.machine()
    machine.run()
    assert machine.scalar("arg") == int(np.argmin(data))
    assert machine.scalar("best") == pytest.approx(float(data.min()),
                                                   rel=1e-4)
