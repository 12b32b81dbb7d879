"""N-buffer depth inference (Section 3.5).

"To allow producers and consumers to work on the same data across
different iterations, each intermediate memory is M-buffered, where M is
the distance between the corresponding producer and consumer on their
data dependency path."

After lowering, every coarse-grained pipeline scope is analysed: for
each on-chip memory written by one child and read by another, the
pipeline distance between them (longest path through the scope's
dependency DAG) determines the buffer depth ``M + 1`` (adjacent stages
double-buffer).  Memories in sequential scopes keep a single buffer.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dhdl.analysis import accesses
from repro.dhdl.control import Scheme
from repro.dhdl.ir import DhdlProgram, OuterController
from repro.dhdl.memory import Sram


def _stage_positions(reads, writes) -> List[int]:
    """Pipeline stage index of each child of a scope, from the children's
    read and write sets: longest dependency path from any source
    (children with no in-scope producers are stage 0)."""
    n = len(reads)
    stage = [0] * n
    for j in range(n):
        for i in range(j):
            if writes[i] & (reads[j] | writes[j]):
                stage[j] = max(stage[j], stage[i] + 1)
    return stage


def infer_buffer_depths(program: DhdlProgram,
                        max_depth: int = 4) -> Dict[str, int]:
    """Set every SRAM's ``nbuf`` from its pipeline distances.

    Returns the chosen depth per SRAM name.  ``max_depth`` bounds the
    scratchpad cost (deep pipelines fall back to stalling rather than
    buffering unboundedly).
    """
    chosen: Dict[str, int] = {s.name: 1 for s in program.srams}
    by_name: Dict[str, Sram] = {s.name: s for s in program.srams}
    access = accesses(program)
    for ctrl in program.controllers():
        if not isinstance(ctrl, OuterController):
            continue
        if ctrl.scheme is not Scheme.PIPELINE:
            continue
        reads = [access[c][0] for c in ctrl.children]
        writes = [access[c][1] for c in ctrl.children]
        stage = _stage_positions(reads, writes)
        for j in range(len(ctrl.children)):
            for i in range(j):
                shared = writes[i] & reads[j]
                for name in shared:
                    if name not in by_name:
                        continue
                    distance = max(1, stage[j] - stage[i])
                    depth = min(max_depth, distance + 1)
                    chosen[name] = max(chosen[name], depth)
    for name, depth in chosen.items():
        by_name[name].nbuf = depth
    return chosen
