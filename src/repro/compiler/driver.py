"""The mapping half of the compiler: lowered DHDL -> placed configuration.

A compile (Section 3.6) runs in two halves, and
:mod:`repro.compiler.artifact` ties them into the one thing the
compiler returns, a checked :class:`~repro.bitstream.artifact.Bitstream`.
The first, :func:`~repro.compiler.lowering.lower`, reads only the
tiling budgets and never the grid:

1. lower patterns to DHDL (tiling, memory planning, control hierarchy).

The second, :func:`map_program`, maps that lowered program wherever it
is asked to (the whole grid, a tenant's region, around failed sites):

2. schedule each inner controller into virtual stages;
3. partition virtual units into physical PCU chains (cost metric);
4. place units on the checkerboard and route producer->consumer nets;
5. allocate address generators to transfers;
6. emit the :class:`~repro.bitstream.config.FabricConfig` ("bitstream"):
   every unit's timing and grid sites, plus the design's virtual
   requirements (for Table 6 / Figure 7).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.arch.params import DEFAULT, PlasticineParams
from repro.arch.requirements import DesignRequirements
from repro.bitstream.config import AgAssignment, FabricConfig, LeafTiming
from repro.compiler.partition import (PcuPartition, chip_fits, feasible,
                                      partition_pcu, partition_pmu,
                                      pcu_requirement, pmu_requirement,
                                      region_fits)
from repro.compiler.place_route import (Fabric, Region, region_capacity,
                                        site_kinds)
from repro.compiler.scheduling import StageSchedule, schedule
from repro.dhdl.analysis import leaf_writes
from repro.dhdl.ir import (DhdlProgram, Gather, InnerCompute,
                           OuterController, Scatter, StreamStore, TileLoad,
                           TileStore)
from repro.errors import MappingError


def _pcu_partitions(dhdl: DhdlProgram, params: PlasticineParams
                    ) -> Dict[str, Tuple[StageSchedule, PcuPartition]]:
    """Each PCU-mapped compute leaf's (every one not of the address
    class) stage schedule and PCU partition, by leaf name; a
    :class:`~repro.errors.MappingError` for a leaf no chain of
    ``params.pcu`` PCUs can hold."""
    parts = {}
    for leaf in dhdl.leaves():
        if not isinstance(leaf, InnerCompute) or leaf.address_class:
            continue
        sched = schedule(leaf)
        if not feasible(sched, params.pcu):
            raise MappingError(
                f"inner controller {leaf.name!r} cannot be mapped with "
                f"PCU shape {params.pcu}")
        parts[leaf.name] = sched, partition_pcu(sched, params.pcu)
    return parts


def _chip_fits(pcus: int, pmus: int, params: PlasticineParams,
               pmu_fraction: float) -> None:
    pcu_budget = params.num_units - int(params.num_units * pmu_fraction)
    chip_fits(pcus, pmus, pcu_budget, params.num_units - pcu_budget)


def unit_demand(dhdl: DhdlProgram, params: PlasticineParams = DEFAULT,
                pmu_fraction: float = 0.5) -> Tuple[int, int]:
    """The ``(pcus, pmus)`` :func:`map_program` places for ``dhdl``,
    whatever the grid region: the partition counts, read without
    placing anything.  A design that cannot be mapped or exceeds the
    whole fabric is a :class:`~repro.errors.MappingError`, as its
    full-grid mapping would be."""
    pcus = sum(part.num_pcus
               for _, part in _pcu_partitions(dhdl, params).values())
    pmus = sum(partition_pmu(sram.words(), sram.nbuf, params.pmu.banks,
                             params.pmu).num_pmus for sram in dhdl.srams)
    _chip_fits(pcus, pmus, params, pmu_fraction)
    return pcus, pmus


def map_program(dhdl: DhdlProgram, params: PlasticineParams = DEFAULT,
                ags_per_transfer: int = 2,
                pmu_fraction: float = 0.5,
                region: Optional[Region] = None,
                excluded_sites=None) -> FabricConfig:
    """Map a lowered program onto the fabric: schedule, partition,
    place and route it and assign its address generators.

    Nothing here changes ``dhdl``, so one lowered program maps into any
    number of regions, each mapping byte-identical to a full compile.

    ``pmu_fraction`` changes the fabric's PMU:PCU mix (Section 3.7's
    ratio study); 0.5 is the paper's 1:1 checkerboard.

    ``region`` constrains placement and routing to a rectangular
    sub-grid (multi-tenancy); a design whose footprint exceeds the
    region raises :class:`~repro.errors.MappingError` instead of
    spilling onto sites outside it.

    ``excluded_sites`` masks out failed unit sites: placement routes
    the design *around* broken hardware (graceful degradation after a
    detected unit fault) instead of reusing it.
    """
    config = FabricConfig(params=params)
    requirements = DesignRequirements(dhdl.name)
    fabric = Fabric(params, pmu_fraction=pmu_fraction, region=region,
                    excluded_sites=excluded_sites)

    inner_leaves = [l for l in dhdl.leaves()
                    if isinstance(l, InnerCompute)]
    transfer_leaves = [l for l in dhdl.leaves()
                       if not isinstance(l, InnerCompute)]

    # 1. schedule + partition + place every inner controller
    partitions = _pcu_partitions(dhdl, params)
    fus_used = 0
    regs_used = 0
    for leaf in inner_leaves:
        if leaf.address_class:
            # bookkeeping bodies run on PMU address datapaths / switch
            # control logic: no PCU cost, short fixed pipeline
            config.leaf_timing[leaf.name] = LeafTiming(
                pipeline_depth=2, lanes=min(leaf.chain.inner_par,
                                            params.pcu.lanes),
                num_pcus=0)
            continue
        sched, part = partitions[leaf.name]
        lanes = min(leaf.chain.inner_par, params.pcu.lanes)
        fabric.place_pcus(leaf.name, part.num_pcus)
        config.leaf_timing[leaf.name] = LeafTiming(
            pipeline_depth=part.pipeline_depth,
            lanes=lanes,
            input_hops=1,
            output_hops=1,
            num_pcus=part.num_pcus,
        )
        requirements.pcus.append(pcu_requirement(sched, lanes,
                                                 params.pcu))
        fus_used += min(part.num_pcus * params.pcu.stages,
                        sched.num_stages) * lanes
        regs_used += sched.max_live * lanes * part.num_pcus

    # memory names each inner controller reads: one walk of its
    # expression DAGs, shared by scratchpad placement and routing
    reads_of = {leaf.name: {m.name for m in leaf.memories_read()}
                for leaf in inner_leaves}

    # 2. place scratchpads near their consumers
    for sram in dhdl.srams:
        part = partition_pmu(sram.words(), sram.nbuf, params.pmu.banks,
                             params.pmu)
        near = None
        for leaf in inner_leaves:
            if sram.name in reads_of[leaf.name]:
                near = fabric.centroid(leaf.name)
                break
        fabric.place_pmus(sram.name, part.num_pmus, near=near)
        requirements.pmus.append(pmu_requirement(
            sram.words(), sram.nbuf, params.pmu.banks))

    if region is not None:
        capacity = region_capacity(params, region, pmu_fraction)
        if fabric.excluded:
            # failed sites inside the region contribute no capacity
            kinds = site_kinds(params, pmu_fraction)
            gone = [s for s in fabric.excluded if region.contains(s)]
            capacity = (
                capacity[0] - sum(1 for s in gone
                                  if kinds[s] == "pcu"),
                capacity[1] - sum(1 for s in gone
                                  if kinds[s] == "pmu"))
        region_fits(fabric.pcus_used(), fabric.pmus_used(), region,
                    capacity)
        config.region = region.as_tuple()
    else:
        _chip_fits(fabric.pcus_used(), fabric.pmus_used(), params,
                   pmu_fraction)

    # 3. route producer->consumer nets (vector network) and refine the
    # leaf timings with real hop distances
    _route_dataflow(dhdl, fabric, config, reads_of)

    # 4. allocate AGs round-robin with the requested width per transfer
    next_ag = 0
    for leaf in transfer_leaves:
        streams = _streams_for(leaf, ags_per_transfer)
        ids = []
        for _ in range(streams):
            if next_ag >= params.num_ags:
                next_ag = 0  # AGs are time-shared beyond the physical set
            ids.append(next_ag)
            next_ag += 1
        config.ag_assign[leaf.name] = AgAssignment(tuple(ids))

    config.sites = {name: tuple(sites)
                    for name, sites in fabric.placed.items()}
    config.pcus_used = fabric.pcus_used()
    config.pmus_used = fabric.pmus_used()
    config.ags_used = min(params.num_ags,
                          sum(len(a.ag_ids)
                              for a in config.ag_assign.values()))
    config.switches_used = max(fabric.switches_used(),
                               config.pcus_used)
    config.fus_used = fus_used
    config.registers_used = regs_used
    config.requirements = requirements

    return config


def _streams_for(leaf, default: int) -> int:
    if isinstance(leaf, (Gather, Scatter)):
        return max(default, leaf.par, 4)
    if isinstance(leaf, (TileLoad, TileStore)):
        return max(default, getattr(leaf, "par", 1))
    return default


def _route_dataflow(dhdl: DhdlProgram, fabric: Fabric,
                    config: FabricConfig,
                    reads_of: Dict[str, Set[str]]) -> None:
    """Route every on-chip producer->consumer pair that is placed.

    Scratchpad traffic rides the vector network; register (scalar)
    traffic rides the scalar network between the producing and consuming
    units.  Both share the switch topology (Section 3.3).
    ``reads_of`` maps each inner controller to the memory names it reads.
    """
    from repro.dhdl.memory import Reg as _Reg

    reg_names = {r.name for r in dhdl.regs}
    reg_producer: Dict[str, str] = {}
    for leaf in dhdl.leaves():
        if isinstance(leaf, InnerCompute) and leaf.address_class:
            continue
        for name in sorted(leaf_writes(leaf)):
            if name in reg_names and leaf.name in fabric.placed:
                reg_producer.setdefault(name, leaf.name)

    # routing allocates switch-link capacity greedily, so the iteration
    # order below is part of the compiled artifact: keep it sorted (set
    # order varies with hash randomization across processes)
    for leaf in dhdl.leaves():
        if not isinstance(leaf, InnerCompute) or leaf.address_class:
            continue
        hops_in = []
        for mem_name in sorted(reads_of[leaf.name]):
            if mem_name in fabric.placed:
                net = fabric.route(mem_name, leaf.name, "vector")
                hops_in.append(net.hops)
            elif mem_name in reg_producer and                     reg_producer[mem_name] != leaf.name:
                fabric.route(reg_producer[mem_name], leaf.name,
                             "scalar")
        hops_out = []
        for name in sorted(leaf_writes(leaf)):
            if name in fabric.placed:
                net = fabric.route(leaf.name, name, "vector")
                hops_out.append(net.hops)
        timing = config.leaf_timing[leaf.name]
        if hops_in:
            timing.input_hops = max(hops_in)
        if hops_out:
            timing.output_hops = max(hops_out)
        timing.pipeline_depth += timing.input_hops
