#!/usr/bin/env python
"""A database-style filter: FlatMap, streaming control, dynamic sizes.

Selects high-value orders from a table, producing a dynamically sized
result.  The compiler lowers the filter to a streaming scope: the PCU
emits matching values into a FIFO (with cross-lane valid-word
coalescing) and a StreamStore drains it to DRAM, counting as it goes —
the paper's FlatMap support (Table 2).

Run:  python examples/streaming_filter.py
"""

import sys

import numpy as np

from repro.compiler import freeze_program
from repro.dhdl import format_program
from repro.patterns import Dyn, Program
from repro.patterns import expr as E


def main():
    n = 2048
    rng = np.random.default_rng(7)
    amounts = rng.exponential(120.0, n).astype(np.float32)
    regions = rng.integers(0, 4, n).astype(np.int32)

    prog = Program("high_value_orders")
    amount = prog.input("amount", (n,), data=amounts)
    region = prog.input("region", (n,), E.INT32, data=regions)
    count = prog.output("count", (), E.INT32)
    selected = prog.output("selected", (Dyn(count),), max_elems=n)
    prog.filter(
        "select", selected, count, n,
        cond=lambda i: (amount[i] > 250.0) & region[i].eq(2),
        value=lambda i: amount[i]).set_par(16)

    artifact = freeze_program(prog, prog.name, "example")
    print(format_program(artifact.dhdl))

    machine = artifact.machine()
    stats = machine.run()

    expect = amounts[(amounts > 250.0) & (regions == 2)]
    got_count = machine.scalar("count")
    got = machine.result("selected")[:got_count]
    print(f"\nselected {got_count} of {n} orders "
          f"(expected {len(expect)})")
    ok = got_count == len(expect) and np.allclose(got, expect, rtol=1e-5)
    print("values match:", ok)
    print(f"cycles: {stats.cycles}, FIFO backpressure stalls: "
          f"{stats.fifo_stall_cycles}")
    return ok


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
