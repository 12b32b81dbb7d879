"""The recursive controller dataflow queries, kept as a reference.

``repro.dhdl.analysis.accesses`` computes every controller's read and
write sets bottom-up, in one pass over the controller tree.  These are
the queries that came before: ``mem_reads`` of an outer controller
recurses into every child again, under every ancestor scope.  Nothing
under ``src/`` may import this module.
"""

from __future__ import annotations

from typing import Set

from repro.dhdl.analysis import loads_of
from repro.dhdl.ir import (Gather, InnerCompute, OuterController, Scatter,
                           StreamStore, TileLoad, TileStore)
from repro.errors import SimulationError


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
