"""Architecture parameters and the Table 3 design space.

The Plasticine instance evaluated in the paper (and used as the default
throughout this library) is a 16x8 checkerboard of 64 PCUs and 64 PMUs at
1 GHz in 28 nm, with 4 DDR3-1600 channels (51.2 GB/s peak), 34 address
generators and 4 coalescing units.  Peak FP32 throughput is
64 PCUs x 16 lanes x 6 stages x 2 (FMA counted as paper does) ~ 12.3
TFLOPS, and total scratchpad capacity is 64 x 256 KB = 16 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ArchError

#: Table 3 sweep ranges, by parameter name.
DESIGN_SPACE: Dict[str, Tuple[int, ...]] = {
    "pcu_lanes": (4, 8, 16, 32),
    "pcu_stages": tuple(range(1, 17)),
    "pcu_regs_per_stage": tuple(range(2, 17)),
    "pcu_scalar_in": tuple(range(1, 17)),
    "pcu_scalar_out": tuple(range(1, 7)),
    "pcu_vector_in": tuple(range(1, 11)),
    "pcu_vector_out": tuple(range(1, 7)),
    "pmu_bank_kb": (4, 8, 16, 32, 64),
    "pmu_stages": tuple(range(1, 17)),
    "pmu_regs_per_stage": tuple(range(2, 17)),
    "pmu_scalar_in": tuple(range(1, 17)),
    "pmu_scalar_out": tuple(range(0, 7)),
    "pmu_vector_in": tuple(range(1, 11)),
    "pmu_vector_out": tuple(range(1, 7)),
}


@dataclass(frozen=True)
class PcuParams:
    """Pattern Compute Unit shape (final column of Table 3)."""

    lanes: int = 16
    stages: int = 6
    regs_per_stage: int = 6
    scalar_in: int = 6
    scalar_out: int = 5
    vector_in: int = 3
    vector_out: int = 3

    def validate(self) -> "PcuParams":
        """Check every field against the Table 3 range."""
        for name, allowed in (("lanes", DESIGN_SPACE["pcu_lanes"]),
                              ("stages", DESIGN_SPACE["pcu_stages"]),
                              ("regs_per_stage",
                               DESIGN_SPACE["pcu_regs_per_stage"]),
                              ("scalar_in", DESIGN_SPACE["pcu_scalar_in"]),
                              ("scalar_out", DESIGN_SPACE["pcu_scalar_out"]),
                              ("vector_in", DESIGN_SPACE["pcu_vector_in"]),
                              ("vector_out", DESIGN_SPACE["pcu_vector_out"])):
            if getattr(self, name) not in allowed:
                raise ArchError(f"PCU {name}={getattr(self, name)} outside "
                                f"design space {allowed}")
        return self

    @property
    def fus(self) -> int:
        """Functional units in the datapath."""
        return self.lanes * self.stages

    @property
    def pipeline_registers(self) -> int:
        """Total pipeline register words."""
        return self.lanes * self.stages * self.regs_per_stage


@dataclass(frozen=True)
class PmuParams:
    """Pattern Memory Unit shape (final column of Table 3)."""

    banks: int = 16              # matches PCU lanes
    bank_kb: int = 16
    stages: int = 4              # scalar address datapath
    regs_per_stage: int = 6
    scalar_in: int = 4
    scalar_out: int = 0
    vector_in: int = 3
    vector_out: int = 1

    def validate(self) -> "PmuParams":
        """Check every field against the Table 3 range."""
        if self.bank_kb not in DESIGN_SPACE["pmu_bank_kb"]:
            raise ArchError(f"PMU bank_kb={self.bank_kb} outside design "
                            f"space")
        if self.stages not in DESIGN_SPACE["pmu_stages"]:
            raise ArchError("PMU stages outside design space")
        return self

    @property
    def scratch_kb(self) -> int:
        """Total scratchpad capacity per PMU in KB."""
        return self.banks * self.bank_kb

    @property
    def scratch_words(self) -> int:
        """Scratchpad capacity in 32-bit words."""
        return self.scratch_kb * 1024 // 4


@dataclass(frozen=True)
class DramParams:
    """Off-chip memory system (4x DDR3-1600, matching DRAMSim2 config)."""

    channels: int = 4
    #: DDR3-1600: 800 MHz bus, 64-bit, double data rate.
    channel_gbps: float = 12.8
    burst_bytes: int = 64
    banks_per_channel: int = 8
    #: core (1 GHz) cycles for a row-buffer hit round trip
    hit_latency: int = 25
    #: additional cycles for a row miss (precharge + activate)
    miss_penalty: int = 25
    #: request queue entries per channel
    queue_depth: int = 64

    @property
    def peak_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s (51.2 for the default)."""
        return self.channels * self.channel_gbps


@dataclass(frozen=True)
class PlasticineParams:
    """The full chip: unit grid, IO, clock."""

    grid_cols: int = 16
    grid_rows: int = 8
    pcu: PcuParams = field(default_factory=PcuParams)
    pmu: PmuParams = field(default_factory=PmuParams)
    dram: DramParams = field(default_factory=DramParams)
    num_ags: int = 34
    num_coalescing_units: int = 4
    clock_ghz: float = 1.0
    #: switch-hop latency in cycles (registered links, Section 3.3)
    hop_latency: int = 1

    def validate(self) -> "PlasticineParams":
        """Check the composite configuration."""
        self.pcu.validate()
        self.pmu.validate()
        if self.grid_cols <= 0 or self.grid_rows <= 0:
            raise ArchError("grid dimensions must be positive")
        if self.pmu.banks != self.pcu.lanes:
            raise ArchError("PMU banks must match PCU lanes (Table 3)")
        return self

    @property
    def num_units(self) -> int:
        """Total PCU+PMU count."""
        return self.grid_cols * self.grid_rows

    @property
    def num_pcus(self) -> int:
        """PCUs in the checkerboard (1:1 ratio)."""
        return self.num_units // 2

    @property
    def num_pmus(self) -> int:
        """PMUs in the checkerboard (1:1 ratio)."""
        return self.num_units - self.num_pcus

    @property
    def peak_tflops(self) -> float:
        """Peak single-precision TFLOPS (FMA = 2 FLOPs per FU)."""
        return (self.num_pcus * self.pcu.fus * 2 * self.clock_ghz) / 1e3

    @property
    def onchip_mb(self) -> float:
        """Total scratchpad capacity in MB."""
        return self.num_pmus * self.pmu.scratch_kb / 1024.0


#: The architecture evaluated in Section 4 of the paper.
DEFAULT = PlasticineParams().validate()
