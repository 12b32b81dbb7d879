"""The static conflict fact: a stream proven conflict-free is one the
pricing rule would have priced at zero.

A compute leaf's ``Datapath.widths`` bounds how far apart one issue's
addresses of a stream can lie (``|c| · step · (par − 1)``, ``c`` the
innermost index's coefficient in an affine flat address), and
``Schedule`` skips ``ScratchpadSim.conflict_extra`` wherever
``ScratchpadSim.conflict_free`` says that width cannot conflict.  The
property test below builds random leaves — affine and non-affine
addresses over random shapes, ``par``, ``step``, partial last issues,
banks (fewer than ``par`` too), bank strides and banking modes, one or
two writers per stored scratchpad — and holds every block to two
checks: each real group lies within its stream's width, and wherever
the fact proves a stream free, ``conflict_extra`` on its real groups is
0.  Each run is also diffed, issue by issue, against the per-issue
reference interpreter, which prices every group.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dhdl import Counter, CounterChain, InnerCompute, WriteStmt
from repro.dhdl.memory import BankingMode, Reg, Sram
from repro.patterns import expr as E
from repro.sim import FabricConfig, LeafTiming, MemoryState
from repro.sim.block import Datapath
from repro.sim.stats import SimStats

from tests.sim.reference_datapath import (LoggedBlockSim,
                                          LoggedReferenceSim,
                                          assert_same_memory)

OLD, NOW = (0,), (1,)


def check_block(block, scratchpads) -> int:
    """Hold one block's streams to their facts; returns how many streams
    the fact proved free."""
    proven = 0
    for name, write, key, addrs, off in block.streams:
        # a stream carrying bound reads has no width
        width = None if key in block.bound else block.dp.widths.get(key)
        groups = [addrs[off[k]:off[k + 1]] for k in range(block.n)]
        groups = [g for g in groups if len(g)]
        if width is not None:
            assert all(int(g.max() - g.min()) <= width for g in groups), \
                (name, width)
        pad = scratchpads[name]
        if pad.conflict_free(width, bool(write)):
            proven += 1
            assert all(pad.conflict_extra(g, bool(write)) == 0
                       for g in groups), (name, width, pad.banks)
    return proven


class CheckedBlockSim(LoggedBlockSim):
    """A block-following leaf that checks every block it prices."""

    proven = 0

    def _next_issue(self):
        fresh = self._block is None or self._next >= self._block.n
        k = super()._next_issue()
        if fresh and k is not None:
            self.proven += check_block(self._block, self.mem.scratchpads)
        return k


def run(cls, leaf, srams, banks, data):
    """Run ``leaf`` alone on ``banks``-bank scratchpads to its end."""
    mem = MemoryState(srams, (), banks)
    for name, values in data.items():
        buf = mem.scratchpads[name].buffer(OLD)
        buf[...] = np.asarray(values).reshape(buf.shape)
    config = FabricConfig()
    config.leaf_timing[leaf.name] = LeafTiming()
    sim = cls(leaf, config, mem, SimStats(), {})
    sim.log = {}
    sim.start({}, NOW)
    cycle = 0
    while sim.busy:
        sim.tick(cycle)
        cycle += 1
        assert cycle < 20_000
    return sim, mem, cycle


# -- random leaves ------------------------------------------------------------


@st.composite
def dim_expr(draw, indices):
    """One address dimension: ``(expr, fn)`` with ``fn(values)`` its
    value under index values; affine (built from int constants,
    indices, ``add``/``sub``/``neg`` and ``mul`` by a constant) unless
    a non-affine form is drawn."""
    expr = E.wrap(draw(st.integers(-3, 3)))
    fn = (lambda c: lambda v: c)(expr.value)
    for k, idx in enumerate(indices):
        c = draw(st.integers(-3, 3))
        form = draw(st.sampled_from(["mul", "rmul", "neg", "sub", "mod",
                                     "square"]))
        if form == "mul":
            term, g = idx * c, (lambda k, c: lambda v: v[k] * c)(k, c)
        elif form == "rmul":
            term = E.BinOp("mul", E.wrap(c), idx)
            g = (lambda k, c: lambda v: c * v[k])(k, c)
        elif form == "neg":
            term = E.UnOp("neg", idx * -c)
            g = (lambda k, c: lambda v: c * v[k])(k, c)
        elif form == "sub":
            expr = expr - idx * -c
            fn = (lambda f, k, c: lambda v: f(v) + c * v[k])(fn, k, c)
            continue
        elif form == "mod":
            term = E.BinOp("mod", idx, E.wrap(3))
            g = (lambda k: lambda v: v[k] % 3)(k)
        else:
            term = idx * idx
            g = (lambda k: lambda v: v[k] * v[k])(k)
        expr = expr + term
        fn = (lambda f, g: lambda v: f(v) + g(v))(fn, g)
    return expr, fn


@st.composite
def leaves(draw):
    """A random leaf: ``(leaf, srams, banks, data)``."""
    par = draw(st.integers(1, 16))
    step = draw(st.integers(1, 3))
    lo = draw(st.integers(0, 2))
    count = draw(st.integers(1, 40))         # a partial last issue, often
    counters = [Counter(lo, lo + step * (count - 1) + 1, step=step,
                        par=par)]
    if draw(st.booleans()):
        counters.insert(0, Counter(0, draw(st.integers(1, 3))))
    indices = [E.Idx(f"i{k}") for k in range(len(counters))]
    points = [[]]
    for counter in counters:
        values = range(counter.lo.value, counter.hi.value, counter.step)
        points = [p + [v] for p in points for v in values]
    ndim = draw(st.integers(1, 2))

    def addresses(n):
        """``n`` accesses' index expressions, each shifted into range,
        and the shape that holds them all."""
        got, shape = [], [1] * ndim
        for _ in range(n):
            exprs = []
            for d in range(ndim):
                expr, fn = draw(dim_expr(indices))
                seen = [fn(p) for p in points]
                exprs.append(expr - min(seen))
                shape[d] = max(shape[d], max(seen) - min(seen) + 1)
            got.append(exprs)
        return got, tuple(shape)

    def banking():
        mode = draw(st.sampled_from([BankingMode.STRIDED] * 4 + list(
            BankingMode)))
        return {"banking": mode,
                "bank_stride": draw(st.sampled_from([1, 1, 1, 2, 4]))}

    reads, src_shape = addresses(draw(st.integers(1, 2)))
    writes, dst_shape = addresses(draw(st.integers(1, 2)))
    src = Sram("src", src_shape, E.FLOAT32, **banking())
    dst = Sram("dst", dst_shape, E.FLOAT32, **banking())
    value = src[tuple(reads[0])]
    if len(reads) > 1:
        value = value + src[tuple(reads[1])]
    stmts = [WriteStmt(dst, addr, value + k) for k, addr in enumerate(writes)]
    leaf = InnerCompute("leaf", CounterChain(counters, indices), stmts)
    banks = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    data = {"src": np.arange(int(np.prod(src_shape)), dtype=np.float32)}
    return leaf, [src, dst], banks, data


@settings(max_examples=150, deadline=None)
@given(leaves())
def test_a_stream_proven_free_would_price_at_zero(case):
    leaf, srams, banks, data = case
    sim, mem, cycles = run(CheckedBlockSim, leaf, srams, banks, data)
    ref, ref_mem, ref_cycles = run(LoggedReferenceSim, leaf, srams, banks,
                                   data)
    assert sim.log == ref.log
    assert cycles == ref_cycles
    assert_same_memory(mem, ref_mem)


# -- the fact itself ----------------------------------------------------------


def test_the_width_is_the_innermost_coefficient_times_step_and_par():
    a = Sram("a", (8, 64), E.FLOAT32)
    o = Sram("o", (512,), E.FLOAT32)
    i, j = E.Idx("i"), E.Idx("j")
    load = a[j, i * 3 - 5]                      # c = 3
    stmts = [WriteStmt(o, [E.UnOp("neg", i) + j * 64 + 100], load)]
    leaf = InnerCompute("leaf", CounterChain(
        [Counter(0, 4), Counter(2, 18, step=2, par=8)], [j, i]), stmts)
    widths = Datapath(leaf).widths
    assert widths[("a", id(load))] == 3 * 2 * 7
    assert widths["o"] == 1 * 2 * 7


def test_non_affine_addresses_and_shared_stores_have_no_width():
    a = Sram("a", (64,), E.FLOAT32)
    ix = Sram("ix", (64,), E.INT32)
    o = Sram("o", (64,), E.FLOAT32)
    r = Reg("r", E.INT32)
    i, j = E.Idx("i"), E.Idx("j")
    loads = [a[i % 8], a[i * i], a[ix[i]], a[r.read() + i],
             a[E.Var("v", E.INT32) + i], a[i * j]]
    stmts = [WriteStmt(o, [i], sum(loads[1:], loads[0])),
             WriteStmt(o, [i + 1], E.wrap(1.0))]
    leaf = InnerCompute("leaf", CounterChain(
        [Counter(0, 4), Counter(0, 8, par=8)], [j, i]), stmts)
    widths = Datapath(leaf).widths
    assert widths == {("ix", id(loads[2].indices[0])): 7}


def test_a_sweep_to_fewer_banks_still_prices_a_proven_stream():
    """A unit-stride read spans 15 words an issue: free on 16 banks,
    priced (and conflicting) on 4."""
    a = Sram("a", (64,), E.FLOAT32)
    o = Sram("o", (64,), E.FLOAT32, banking=BankingMode.FIFO)
    i = E.Idx("i")
    leaf = InnerCompute("leaf", CounterChain(
        [Counter(0, 64, par=16)], [i]), [WriteStmt(o, [i], a[i])])
    data = {"a": np.arange(64, dtype=np.float32)}
    sim16, mem16, cycles16 = run(CheckedBlockSim, leaf, [a, o], 16, data)
    sim4, mem4, cycles4 = run(CheckedBlockSim, leaf, [a, o], 4, data)
    assert sim16.proven == 2 and sim4.proven == 1       # o is a FIFO
    assert mem16.scratchpads["a"].conflict_cycles == 0
    assert mem4.scratchpads["a"].conflict_cycles == 4 * 3
    assert cycles4 == cycles16 + 4 * 3
