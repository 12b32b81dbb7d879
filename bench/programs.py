"""Programs the benchmark declares itself, with independent references.

``App.build`` only knows the registry's ``tiny``/``small`` sizes, which
simulate in milliseconds, so the larger programs are declared here
through the public ``repro.patterns`` / ``repro.dhdl`` APIs.  Each
``make_*`` function draws its input data from a seeded generator and
returns a :class:`Case`: a ``build`` closure that re-traces the program
from those fixed inputs (so pattern tracing can be timed in every pass)
and the expected outputs, computed here in set-up.

References are independent of the simulator: a numpy closed form where
the benchmark wrote the program (gemm ``a @ b``, gda scatter matrix,
memcpy identity, smdv CSR product), ``patterns.executor.run_program``
for the data-dependent graph programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.bitstream.artifact import CompileOptions
from repro.dhdl import (Counter, CounterChain, DhdlProgram,
                        OuterController, Scheme, TileLoad, TileStore,
                        validate)
from repro.patterns import Array, Dyn, Fold, Program
from repro.patterns import expr as E
from repro.patterns.executor import run_program
from repro.sim import AgAssignment, FabricConfig, LeafTiming


@dataclass
class Case:
    """One program with fixed inputs and its expected outputs."""

    name: str
    #: () -> Program (pattern cases) or () -> (dhdl, config) (DHDL cases)
    build: Callable[[], object]
    expected: Dict[str, np.ndarray]
    options: Optional[CompileOptions] = None
    rtol: float = 1e-3
    atol: float = 1e-3
    #: seconds the reference executor took to produce ``expected``
    #: (0 for numpy closed forms)
    executor_s: float = 0.0


def outputs_match(case: Case, result_of: Callable[[str], np.ndarray]
                  ) -> bool:
    """True when every expected output matches ``result_of(name)``
    (floats within the case's tolerance, integers exactly)."""
    for name, want in case.expected.items():
        got = np.asarray(result_of(name))
        if got.size < want.size:
            return False
        got = got.reshape(-1)[:want.size].reshape(want.shape)
        if want.dtype.kind == "f":
            if not np.allclose(got, want, rtol=case.rtol, atol=case.atol):
                return False
        elif not np.array_equal(got, want):
            return False
    return True


def executor_outputs(program: Program
                     ) -> Tuple[Dict[str, np.ndarray], float]:
    """Program outputs according to the reference executor, and the
    seconds it took."""
    started = time.perf_counter()
    env = run_program(program)
    outputs = {out.name: env.buffers[out.name].copy()
               for out in program.outputs}
    return outputs, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Dense: the datapath interpreter does the work
# ---------------------------------------------------------------------------


def make_gemm(rng: np.random.Generator, m: int, k: int, n: int) -> Case:
    a_data = rng.standard_normal((m, k)).astype(np.float32)
    b_data = rng.standard_normal((k, n)).astype(np.float32)

    def build() -> Program:
        p = Program("gemm")
        a = p.input("a", (m, k), data=a_data)
        b = p.input("b", (k, n), data=b_data)
        c = p.output("c", (m, n))
        step = p.map("matmul", c, (m, n),
                     lambda i, j: Fold(k, 0.0,
                                       lambda kk: a[i, kk] * b[kk, j],
                                       lambda x, y: x + y))
        step.set_par(1, 1, inner=16, outer=2)
        step.tile = (8, 16)
        return p

    want = a_data.astype(np.float64) @ b_data.astype(np.float64)
    return Case("gemm", build, {"c": want})


def make_gda(rng: np.random.Generator, n: int, d: int) -> Case:
    x_data = rng.standard_normal((n, d)).astype(np.float32)

    def build() -> Program:
        p = Program("gda")
        x = p.input("x", (n, d), data=x_data)
        mu = p.temp("mu", (d,))
        sigma = p.output("sigma", (d, d))
        p.map("mean", mu, d,
              lambda j: Fold(n, 0.0, lambda i: x[i, j] * (1.0 / n),
                             lambda a, b: a + b)).set_par(1, inner=16)
        step = p.map("scatter_matrix", sigma, (d, d),
                     lambda j, k: Fold(n, 0.0,
                                       lambda i: (x[i, j] - mu[j])
                                       * (x[i, k] - mu[k]),
                                       lambda a, b: a + b))
        step.set_par(1, 1, inner=16, outer=2)
        return p

    centred = x_data.astype(np.float64)
    centred = centred - centred.mean(axis=0)
    return Case("gda", build, {"sigma": centred.T @ centred}, atol=1e-2)


# ---------------------------------------------------------------------------
# DRAM streaming: no PCU datapath at all
# ---------------------------------------------------------------------------


def make_memcpy(rng: np.random.Generator, scheme: Scheme, tiles: int,
                tile_words: int) -> Case:
    """DRAM -> scratchpad -> DRAM copy, one tile per loop iteration.

    ``Scheme.SEQUENTIAL`` alternates load and store, so every burst
    reopens a row; ``Scheme.PIPELINE`` overlaps the next load with the
    current store, which keeps about half the bursts on an open row.
    """
    n = tiles * tile_words
    data = rng.standard_normal(n).astype(np.float32)
    name = f"memcpy_{scheme.name.lower()}"

    def build():
        dhdl = DhdlProgram(name)
        src = dhdl.dram(Array("src", (n,), E.FLOAT32, data=data))
        dst = dhdl.dram(Array("dst", (n,), E.FLOAT32))
        sram = dhdl.sram("tile", (tile_words,), E.FLOAT32, nbuf=2)
        t = E.Idx("t")
        loop = OuterController(
            "loop", scheme,
            chain=CounterChain([Counter(0, tiles, par=1)], [t]))
        dhdl.root.add(loop)
        loop.add(TileLoad("ld", src, sram, (t * tile_words,),
                          (tile_words,)))
        loop.add(TileStore("st", dst, sram, (t * tile_words,),
                           (tile_words,)))
        validate(dhdl)
        config = FabricConfig()
        for leaf in dhdl.leaves():
            config.leaf_timing[leaf.name] = LeafTiming()
            config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
        config.pcus_used = config.pmus_used = config.ags_used = 1
        return dhdl, config

    return Case(name, build, {"dst": data})


# ---------------------------------------------------------------------------
# Sparse: gathers, coalescing, scatter writes, data-dependent bounds
# ---------------------------------------------------------------------------


def _fixed_degree_csr(rng: np.random.Generator, rows: int, cols: int,
                      degree: int):
    """CSR structure with exactly ``degree`` entries per row, so the
    amount of work does not depend on the seed — only the targets do."""
    ptr = (np.arange(rows + 1) * degree).astype(np.int32)
    col = rng.integers(0, cols, rows * degree).astype(np.int32)
    val = rng.standard_normal(rows * degree).astype(np.float32)
    return ptr, col, val


def make_smdv(rng: np.random.Generator, rows: int, degree: int) -> Case:
    ptr_d, col_d, val_d = _fixed_degree_csr(rng, rows, rows, degree)
    x_d = rng.standard_normal(rows).astype(np.float32)

    def build() -> Program:
        p = Program("smdv")
        ptr = p.input("ptr", (rows + 1,), E.INT32, data=ptr_d)
        col = p.input("col", (len(col_d),), E.INT32, data=col_d)
        val = p.input("val", (len(val_d),), data=val_d)
        x = p.input("x", (rows,), data=x_d, offchip=True)
        y = p.output("y", (rows,))
        p.map("spmv", y, rows,
              lambda i: Fold((ptr[i], ptr[i + 1]), 0.0,
                             lambda j: val[j] * x[col[j]],
                             lambda a, b: a + b))
        return p

    want = np.zeros(rows)
    np.add.at(want, np.repeat(np.arange(rows), degree),
              val_d.astype(np.float64) * x_d[col_d])
    return Case("smdv", build, {"y": want})


def make_pagerank(rng: np.random.Generator, iters: int, pages: int,
                  links: int) -> Case:
    ptr_d, src_d, _ = _fixed_degree_csr(rng, pages, pages, links)
    out_deg = np.maximum(
        np.bincount(src_d, minlength=pages).astype(np.float32), 1.0)
    damp = 0.85
    base = (1.0 - damp) / pages

    def build() -> Program:
        p = Program("pagerank")
        inptr = p.input("inptr", (pages + 1,), E.INT32, data=ptr_d)
        src = p.input("src", (len(src_d),), E.INT32, data=src_d)
        deg = p.input("deg", (pages,), data=out_deg, offchip=True)
        ranks = p.output("ranks", (pages,))
        ranks.set_data(np.full(pages, 1.0 / pages, dtype=np.float32))
        ranks.offchip = True
        fresh = p.temp("fresh", (pages,))
        with p.loop("power_iters", iters):
            p.map("contribs", fresh, pages,
                  lambda i: Fold((inptr[i], inptr[i + 1]), base,
                                 lambda e: damp * ranks[src[e]]
                                 / deg[src[e]],
                                 lambda a, b: a + b))
            p.map("publish", ranks, pages,
                  lambda i: fresh[i]).set_par(16)
        return p

    expected, executor_s = executor_outputs(build())
    return Case("pagerank", build, expected, atol=1e-4,
                executor_s=executor_s)


def make_bfs(rng: np.random.Generator, nodes: int, degree: int) -> Case:
    ptr_d, nbr_d, _ = _fixed_degree_csr(rng, nodes, nodes, degree)
    max_cand = int(ptr_d[-1]) + 1

    def build() -> Program:
        p = Program("bfs")
        ptr = p.input("ptr", (nodes + 1,), E.INT32, data=ptr_d)
        nbr = p.input("nbr", (len(nbr_d),), E.INT32, data=nbr_d)
        levels = p.output("levels", (nodes,), E.INT32)
        init = np.full(nodes, -1, dtype=np.int32)
        init[0] = 0
        levels.set_data(init)
        levels.offchip = True
        flen = p.temp("flen", (), E.INT32, data=np.int32(1))
        clen = p.temp("clen", (), E.INT32)
        nlen = p.temp("nlen", (), E.INT32)
        frontier = p.temp("frontier", (Dyn(flen),), E.INT32,
                          max_elems=nodes)
        cand = p.temp("cand", (Dyn(clen),), E.INT32, max_elems=max_cand)
        nxt = p.temp("nxt", (Dyn(nlen),), E.INT32, max_elems=max_cand)
        depth = p.temp("depth", (), E.INT32)
        with p.loop("levels_loop", nodes, stop_when_zero=flen,
                    index_cell=depth):
            p.filter("frontier_scan", frontier, flen, nodes,
                     cond=lambda v: levels[v].eq(depth.scalar()),
                     value=lambda v: E.to_int(v))
            p.flatmap("expand", cand, clen,
                      (Dyn(flen),
                       lambda f: (ptr[frontier[f]],
                                  ptr[frontier[f] + 1])),
                      lambda f, e: [(E.wrap(True), nbr[e])])
            p.filter("unvisited", nxt, nlen, Dyn(clen),
                     cond=lambda i: levels[cand[i]].eq(-1),
                     value=lambda i: cand[i])
            p.scatter("mark", levels, Dyn(nlen),
                      index=lambda i: nxt[i],
                      value=lambda i: depth.scalar() + 1)
        return p

    expected, executor_s = executor_outputs(build())
    return Case("bfs", build, expected, executor_s=executor_s)
