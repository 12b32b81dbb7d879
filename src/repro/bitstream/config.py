"""The compiler->simulator contract: a placed-and-routed configuration.

A :class:`FabricConfig` is the per-unit half of this reproduction's
"bitstream": for each DHDL leaf controller it records the physical
resources backing it (how many PCUs the partitioner chained together,
the pipeline depth, SIMD lanes, interconnect hop latencies) and for each
transfer the address generator serving it, and the grid sites every
placed unit occupies.  The cycle-level simulator consumes exactly this —
it never re-runs placement decisions.

The module lives in :mod:`repro.bitstream` (not :mod:`repro.sim`) so
that the compiler can emit configurations without importing the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.arch.params import DEFAULT, PlasticineParams
from repro.arch.requirements import DesignRequirements
from repro.errors import ConfigError


@dataclass
class LeafTiming:
    """Physical timing of one leaf controller after mapping.

    ``pipeline_depth`` — cycles from issuing a vector of indices to its
    results being architecturally visible (physical PCU stages across the
    partition chain, plus registered switch hops between them).
    ``lanes`` — SIMD width exercised per cycle.
    ``input_hops`` / ``output_hops`` — network distance to the unit's
    operand sources / result sinks (adds transport latency).
    ``num_pcus`` — physical PCUs implementing the (virtual) unit.
    """

    pipeline_depth: int = 6
    lanes: int = 16
    input_hops: int = 1
    output_hops: int = 1
    num_pcus: int = 1

    def validate(self, params: PlasticineParams) -> "LeafTiming":
        """Sanity-check against the architecture."""
        if self.lanes < 1 or self.lanes > params.pcu.lanes:
            raise ConfigError(f"lanes={self.lanes} outside 1.."
                              f"{params.pcu.lanes}")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline depth must be >= 1")
        if self.input_hops < 0 or self.output_hops < 0:
            raise ConfigError(f"hops ({self.input_hops} in, "
                              f"{self.output_hops} out) must be >= 0")
        if self.num_pcus < 0:
            raise ConfigError("num_pcus must be >= 0")
        return self


@dataclass
class AgAssignment:
    """Address generators allocated to one transfer leaf.

    ``ag_ids`` — the physical AGs issuing this transfer's streams (more
    AGs = more parallel address streams, as in the paper's outer-loop
    parallelisation of sparse apps).
    """

    ag_ids: Tuple[int, ...] = (0,)

    @property
    def streams(self) -> int:
        """Parallel address streams available to the transfer."""
        return len(self.ag_ids)


@dataclass
class FabricConfig:
    """Everything the simulator needs about one compiled application."""

    params: PlasticineParams = field(default_factory=lambda: DEFAULT)
    #: leaf controller name -> physical timing
    leaf_timing: Dict[str, LeafTiming] = field(default_factory=dict)
    #: transfer leaf name -> AG assignment
    ag_assign: Dict[str, AgAssignment] = field(default_factory=dict)
    #: placed unit name -> its grid sites ``(col, row)``: every compute
    #: leaf's PCUs and every scratchpad's PMUs (the compiler's
    #: ``Fabric.placed``)
    sites: Dict[str, Tuple[Tuple[int, int], ...]] = field(
        default_factory=dict)
    #: DRAM array name -> base byte address
    dram_base: Dict[str, int] = field(default_factory=dict)
    #: virtual-unit requirements (drives Table 6 / Figure 7 and power)
    requirements: Optional[DesignRequirements] = None
    #: resource usage summary for Table 7 utilization columns
    pcus_used: int = 0
    pmus_used: int = 0
    ags_used: int = 0
    switches_used: int = 0
    #: total FUs configured (for the FU-utilization column)
    fus_used: int = 0
    registers_used: int = 0
    #: coalescing-cache entries per gather/scatter engine (ablations set
    #: this to 1 to disable request merging)
    coalesce_entries: int = 48
    #: override scratchpad banks (ablations; None = params.pmu.banks)
    banks_override: Optional[int] = None
    #: rectangular sub-grid this design was placed into, as
    #: ``(col0, row0, cols, rows)``; None = the whole fabric.  Region
    #: compiles (multi-tenancy) record it so packers can keep tenants
    #: disjoint without re-deriving footprints.
    region: Optional[Tuple[int, int, int, int]] = None

    def timing_for(self, leaf_name: str) -> LeafTiming:
        """Timing for a leaf, with a safe default for un-mapped leaves."""
        timing = self.leaf_timing.get(leaf_name)
        if timing is None:
            raise ConfigError(f"no timing configured for leaf "
                              f"{leaf_name!r}")
        return timing

    def ags_for(self, leaf_name: str) -> AgAssignment:
        """AG assignment for a transfer leaf."""
        assign = self.ag_assign.get(leaf_name)
        if assign is None:
            raise ConfigError(f"no AG assigned to transfer {leaf_name!r}")
        return assign

    def utilization(self) -> Dict[str, float]:
        """Fractions of fabric resources configured (Table 7 columns)."""
        params = self.params
        total_fus = params.num_pcus * params.pcu.fus
        total_regs = params.num_pcus * params.pcu.pipeline_registers
        switches = (params.grid_cols + 1) * (params.grid_rows + 1)
        return {
            "pcu": self.pcus_used / params.num_pcus,
            "pmu": self.pmus_used / params.num_pmus,
            "ag": self.ags_used / params.num_ags,
            "fu": self.fus_used / total_fus,
            "register": self.registers_used / total_regs,
            "switch": self.switches_used / switches,
        }
