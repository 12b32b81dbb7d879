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
from repro.dhdl.memory import DramRef, is_onchip
from repro.errors import SimulationError
from repro.patterns import expr as E


def loads_of(exprs, keep=None) -> Set[str]:
    """Names of every collection read by ``Load`` nodes under ``exprs``
    (those ``keep`` accepts), in one walk of the DAG."""
    names: Set[str] = set()
    stack, seen = list(exprs), set()
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node, E.Load) and (keep is None
                                             or keep(node.array)):
                names.add(node.array.name)
            stack.extend(node.children())
    return names


def _leaf_reads(ctrl) -> Set[str]:
    """Names of the memories one leaf controller reads."""
    if isinstance(ctrl, InnerCompute):
        return loads_of([r for s in ctrl.stmts for r in s.exprs()],
                        is_onchip) | loads_of(
            [end for c in ctrl.chain.counters for end in (c.lo, c.hi)])
    count = () if getattr(ctrl, "count", None) is None else (ctrl.count,)
    if isinstance(ctrl, TileLoad):
        return loads_of(ctrl.offsets) | {f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, TileStore):
        return {ctrl.sram.name} | loads_of(ctrl.offsets) | loads_of(count)
    if isinstance(ctrl, Gather):
        return {ctrl.addr_sram.name, f"dram:{ctrl.dram.name}"} \
            | loads_of(count)
    if isinstance(ctrl, Scatter):
        return {ctrl.addr_sram.name, ctrl.val_sram.name} | loads_of(count)
    if isinstance(ctrl, StreamStore):
        return loads_of((ctrl.base_offset,)) | {ctrl.fifo.name}
    raise SimulationError(f"unknown controller {ctrl!r}")


def leaf_writes(ctrl) -> Set[str]:
    """Names of the memories one leaf controller writes."""
    if isinstance(ctrl, InnerCompute):
        return {t.name for s in ctrl.stmts
                for t in getattr(s, "targets", None) or (s.target,)}
    if isinstance(ctrl, TileLoad):
        return {ctrl.sram.name}
    if isinstance(ctrl, Gather):
        return {ctrl.dst_sram.name}
    if isinstance(ctrl, StreamStore):
        return {ctrl.count_reg.name, f"dram:{ctrl.dram.name}"}
    if isinstance(ctrl, (TileStore, Scatter)):
        return {f"dram:{ctrl.dram.name}"}
    raise SimulationError(f"unknown controller {ctrl!r}")


def accesses(program) -> Dict[object, Tuple[Set[str], Set[str]]]:
    """Every controller's ``(reads, writes)``: the names of the memories
    (on-chip and ``dram:``-prefixed) it reads and writes, computed
    bottom-up in one pass over the controller tree.  An outer
    controller writes what its children write and reads what its
    chain's bounds and its children read, less what it writes
    (memories produced inside the scope are not external reads)."""
    out: Dict[object, Tuple[Set[str], Set[str]]] = {}

    def visit(ctrl) -> Tuple[Set[str], Set[str]]:
        if not isinstance(ctrl, OuterController):
            out[ctrl] = (_leaf_reads(ctrl), leaf_writes(ctrl))
            return out[ctrl]
        reads: Set[str] = set()
        writes: Set[str] = set()
        if ctrl.chain is not None:
            for counter in ctrl.chain.counters:
                reads |= loads_of((counter.lo, counter.hi))
        for child in ctrl.children:
            child_reads, child_writes = visit(child)
            reads |= child_reads
            writes |= child_writes
        out[ctrl] = (reads - writes, writes)
        return out[ctrl]

    visit(program.root)
    return out


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
        access = accesses(program)
        for ctrl in program.controllers():
            if not isinstance(ctrl, OuterController):
                continue
            reads = [access[c][0] for c in ctrl.children]
            writes = [access[c][1] for c in ctrl.children]
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
