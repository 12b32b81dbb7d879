#!/usr/bin/env python
"""PageRank on Plasticine: data-dependent gathers through the
coalescing units.

Shows the sparse path of the architecture: CSR row ranges become
data-dependent counter bounds, rank fetches become DRAM gathers (the
collections are marked ``offchip``), and the coalescing cache merges
addresses that share a burst.

Run:  python examples/sparse_pagerank.py
"""

import sys

import numpy as np

from repro.apps.sparse import PageRank
from repro.compiler import freeze_program


def main():
    app = PageRank()
    prog = app.build("small")
    machine = freeze_program(prog, app.name, "small").machine()
    stats = machine.run()

    ranks = machine.result("ranks")
    expected = app.expected(prog)["ranks"]
    ok = np.allclose(ranks, expected, rtol=1e-3, atol=1e-5)
    print("ranks match the reference executor:", ok)
    print(f"total cycles: {stats.cycles}")

    gathers = [leaf for leaf in machine._leaves
               if type(leaf).__name__ == "GatherSim"]
    total_hits = sum(g.coalesced_hits for g in gathers)
    dram = stats.dram
    print(f"gather engines: {len(gathers)}, coalesced address hits: "
          f"{total_hits}")
    print(f"DRAM: {dram['reads']} read bursts, "
          f"{dram['row_hits']} row hits / {dram['row_misses']} misses")
    print(f"achieved DRAM bandwidth: "
          f"{dram['bytes'] / stats.cycles:.1f} B/cycle "
          f"(peak 51.2)")
    top = np.argsort(ranks)[::-1][:5]
    print("top pages:", list(top), "ranks:",
          np.round(ranks[top], 4).tolist())
    return ok


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
