"""Controller dataflow analysis: which memories a controller touches.

These queries define the producer->consumer relation over a DHDL
controller tree.  Both sides of the toolchain depend on them — the
compiler (N-buffer inference, dependency edges, routing) and the
simulator (token/credit edges between sibling controllers) — so they
live in the IR layer rather than in either consumer.

Names are returned as plain strings; DRAM collections are prefixed
``dram:`` to keep the off-chip namespace disjoint from on-chip memories.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.dhdl.ir import (Gather, InnerCompute, OuterController, Scatter,
                           StreamStore, TileLoad, TileStore)
from repro.dhdl.memory import DramRef
from repro.errors import SimulationError
from repro.patterns import expr as E


def loads_of(exprs) -> Set[str]:
    """Names of every collection read by ``Load`` nodes under ``exprs``."""
    names: Set[str] = set()
    for root in exprs:
        for load in E.collect_loads(root):
            names.add(load.array.name)
    return names


def mem_reads(ctrl) -> Set[str]:
    """Names of memories (on-chip and ``dram:``-prefixed) a controller
    reads."""
    if isinstance(ctrl, InnerCompute):
        names = {m.name for m in ctrl.memories_read()}
        for counter in ctrl.chain.counters:
            names |= loads_of((counter.lo, counter.hi))
        return names
    if isinstance(ctrl, TileLoad):
        return loads_of(ctrl.offsets) | {f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, TileStore):
        names = {ctrl.sram.name} | loads_of(ctrl.offsets)
        if ctrl.count is not None:
            names |= loads_of((ctrl.count,))
        return names
    if isinstance(ctrl, Gather):
        names = {ctrl.addr_sram.name, f"dram:{ctrl.dram.name}"}
        if ctrl.count is not None:
            names |= loads_of((ctrl.count,))
        return names
    if isinstance(ctrl, Scatter):
        names = {ctrl.addr_sram.name, ctrl.val_sram.name}
        if ctrl.count is not None:
            names |= loads_of((ctrl.count,))
        return names
    if isinstance(ctrl, StreamStore):
        return loads_of((ctrl.base_offset,)) | {ctrl.fifo.name}
    if isinstance(ctrl, OuterController):
        names = set()
        if ctrl.chain is not None:
            for counter in ctrl.chain.counters:
                names |= loads_of((counter.lo, counter.hi))
        for child in ctrl.children:
            names |= mem_reads(child)
        # memories produced inside the scope are not external reads
        names -= mem_writes(ctrl)
        return names
    raise SimulationError(f"unknown controller {ctrl!r}")


def mem_writes(ctrl) -> Set[str]:
    """Names of memories a controller writes."""
    if isinstance(ctrl, InnerCompute):
        names = set()
        for stmt in ctrl.stmts:
            targets = getattr(stmt, "targets", None)
            if targets is not None:
                names.update(t.name for t in targets)
            else:
                names.add(stmt.target.name)
        return names
    if isinstance(ctrl, TileLoad):
        return {ctrl.sram.name}
    if isinstance(ctrl, TileStore):
        return {f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, Gather):
        return {ctrl.dst_sram.name}
    if isinstance(ctrl, Scatter):
        return {f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, StreamStore):
        return {ctrl.count_reg.name, f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, OuterController):
        names: Set[str] = set()
        for child in ctrl.children:
            names |= mem_writes(child)
        return names
    raise SimulationError(f"unknown controller {ctrl!r}")


def scope_edges(program) -> Dict[OuterController,
                                  List[Tuple[int, int, str, int]]]:
    """Producer->consumer edges among the children of every outer scope:
    ``(producer, consumer, memory, credits)`` by child position, one per
    memory the earlier child writes and the later one touches.  Credits
    are the memory's N-buffer depth (DRAM arrays and FIFOs: 1 — FIFOs
    handle their own backpressure).

    A pure function of the program, so it is computed on the first call
    and kept on the program: every machine built from one compiled
    design shares it.  (A program is finished before anything simulates
    it; nothing edits one a machine was built from.)
    """
    edges = program._scope_edges
    if edges is None:
        credits = {reg.name: reg.nbuf for reg in program.regs}
        credits.update((sram.name, sram.nbuf) for sram in program.srams)
        edges = program._scope_edges = {}
        for ctrl in program.controllers():
            if not isinstance(ctrl, OuterController):
                continue
            reads = [mem_reads(c) for c in ctrl.children]
            writes = [mem_writes(c) for c in ctrl.children]
            edges[ctrl] = [
                (i, j, name, credits.get(name, 1))
                for j in range(len(ctrl.children)) for i in range(j)
                for name in sorted(writes[i] & (reads[j] | writes[j]))]
    return edges


def assign_bases(drams: Iterable[DramRef],
                 alignment: int = 4096) -> Dict[str, int]:
    """Lay out DRAM arrays consecutively at ``alignment``-byte boundaries.

    Declaration order determines addresses, so the layout is part of the
    compiled artifact; the compiler freezes it into the bitstream's
    ``dram_base`` map and the simulator merely obeys it.
    """
    base = {}
    cursor = alignment  # keep address 0 unused (easier debugging)
    for ref in drams:
        base[ref.name] = cursor
        size = 4 * ref.words()
        cursor += ((size + alignment - 1) // alignment) * alignment
    return base
