"""Partitioning: fit virtual units into physical PCU/PMU shapes.

Section 3.6: virtual PCUs with more stages, live values, or IO than a
physical PCU provides are split into chains of physical PCUs connected
over the vector network.  "A greedy algorithm with a few simple
heuristics can reasonably approximate a perfect physical unit
partitioning."

The cost metric mirrors the paper's: number of physical stages, live
variables per stage, and scalar/vector IO buses required by a proposed
split.  The same code drives the Figure 7 sizing sweeps: given candidate
PCU parameters, :func:`partition` reports how many physical units each
benchmark needs, from which the sweep computes total area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.arch.params import PcuParams, PmuParams
from repro.arch.requirements import VirtualPcuReq, VirtualPmuReq
from repro.compiler.scheduling import StageSchedule
from repro.errors import MappingError


@dataclass
class PcuPartition:
    """Result of splitting one virtual PCU across physical PCUs."""

    num_pcus: int
    #: physical pipeline depth across the whole chain (stages actually
    #: occupied, which is what the data traverses)
    pipeline_depth: int
    #: stages left idle in the last unit (utilization loss)
    wasted_stages: int


def partition_pcu(sched: StageSchedule, pcu: PcuParams) -> PcuPartition:
    """Split one schedule into a chain of physical PCUs.

    Greedy: fill each physical PCU with up to ``pcu.stages`` consecutive
    stages, subject to the live-value count at every cut fitting the
    vector IO (values crossing a cut ride the vector network) and the
    register file (live values within a unit need registers).
    """
    if sched.max_live > pcu.regs_per_stage * 2:
        # heavy register pressure forces shorter chunks: every extra live
        # value beyond the register budget must be re-materialised via
        # an extra pass-through stage
        effective_stages = max(1, pcu.stages - (
            sched.max_live - pcu.regs_per_stage * 2))
    else:
        effective_stages = pcu.stages
    cross_cut = min(sched.max_live, sched.vector_reads + 1)
    if cross_cut > pcu.vector_in:
        # not enough vector inputs to carry the live set between units:
        # shorten chunks further so fewer values are live at each cut
        effective_stages = max(1, effective_stages - (cross_cut
                                                      - pcu.vector_in))
    total = sched.num_stages
    num_pcus = -(-total // effective_stages)
    depth = total + (num_pcus - 1)  # one boundary register per hop
    wasted = num_pcus * pcu.stages - total
    return PcuPartition(num_pcus=num_pcus, pipeline_depth=depth,
                        wasted_stages=max(0, wasted))


def feasible(sched: StageSchedule, pcu: PcuParams) -> bool:
    """Can this schedule be mapped at all with the given PCU shape?

    Mirrors the X marks in Figure 7: a configuration is infeasible when
    even a single-stage chunk cannot carry the live values (vector IO +
    registers) or the scalar IO demand exceeds the unit's ports.
    """
    if sched.scalar_reads > pcu.scalar_in * 3:
        return False
    if sched.scalar_writes > pcu.scalar_out * 3:
        return False
    if sched.vector_reads > pcu.vector_in * 4:
        return False
    if sched.max_live > pcu.regs_per_stage * 2 + pcu.vector_in * 2:
        return False
    return True


def pcu_requirement(sched: StageSchedule, lanes_used: int,
                    pcu: PcuParams) -> VirtualPcuReq:
    """Summarize one schedule as a virtual-unit requirement."""
    return VirtualPcuReq(
        stages=sched.num_stages,
        live_regs=sched.max_live,
        scalar_in=min(16, max(1, sched.scalar_reads)),
        scalar_out=min(6, max(1, sched.scalar_writes)),
        vector_in=min(10, max(1, sched.vector_reads)),
        vector_out=min(6, max(1, sched.vector_writes)),
        lanes_used=lanes_used,
    )


@dataclass
class PmuPartition:
    """Result of placing one logical SRAM across physical PMUs."""

    num_pmus: int
    kb: float


def partition_pmu(words: int, nbuf: int, banks: int,
                  pmu: PmuParams) -> PmuPartition:
    """How many physical PMUs one logical scratchpad occupies."""
    total_words = max(1, words) * max(1, nbuf)
    capacity = pmu.scratch_words
    num = -(-total_words // capacity)
    if num > 64:
        raise MappingError(
            f"scratchpad of {total_words} words needs {num} PMUs; "
            f"tile sizes are too large for the architecture")
    return PmuPartition(num_pmus=num, kb=total_words * 4 / 1024.0)


def pmu_requirement(words: int, nbuf: int, banks: int) -> VirtualPmuReq:
    """Summarize one logical scratchpad as a virtual requirement."""
    return VirtualPmuReq(kb=max(1, words) * max(1, nbuf) * 4 / 1024.0,
                         banks=banks)


def chip_fits(num_pcus: int, num_pmus: int, pcu_budget: int,
              pmu_budget: int) -> None:
    """Raise MappingError when the design exceeds the fabric."""
    if num_pcus > pcu_budget:
        raise MappingError(
            f"design needs {num_pcus} PCUs but the fabric has "
            f"{pcu_budget}")
    if num_pmus > pmu_budget:
        raise MappingError(
            f"design needs {num_pmus} PMUs but the fabric has "
            f"{pmu_budget}")


def region_fits(num_pcus: int, num_pmus: int, region,
                capacity: "tuple[int, int]") -> None:
    """Raise MappingError when the design exceeds its *region*.

    A design whose footprint spills past the requested rectangle must
    be rejected outright — silently wrapping onto sites outside the
    region would let co-resident tenants overlap.  ``capacity`` is the
    ``(pcu_sites, pmu_sites)`` pair the region actually provides (see
    :func:`repro.compiler.place_route.region_capacity`).
    """
    pcu_cap, pmu_cap = capacity
    if num_pcus > pcu_cap:
        raise MappingError(
            f"design needs {num_pcus} PCUs but region {region} "
            f"provides {pcu_cap}; enlarge the region")
    if num_pmus > pmu_cap:
        raise MappingError(
            f"design needs {num_pmus} PMUs but region {region} "
            f"provides {pmu_cap}; enlarge the region")
