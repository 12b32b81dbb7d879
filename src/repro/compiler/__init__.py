"""The Plasticine compiler: patterns -> DHDL -> a checked Bitstream."""

from repro.compiler.artifact import compile_to_bitstream, freeze_program
from repro.compiler.lowering import Lowerer, lower
from repro.compiler.partition import (PcuPartition, PmuPartition, chip_fits,
                                      feasible, partition_pcu,
                                      partition_pmu, region_fits)
from repro.compiler.place_route import (Fabric, Net, Region,
                                        region_capacity, site_kinds)
from repro.compiler.rewrite import rewrite, substitute
from repro.compiler.scheduling import StageSchedule, schedule

__all__ = [
    "compile_to_bitstream", "freeze_program",
    "Lowerer", "lower",
    "PcuPartition", "PmuPartition", "chip_fits", "feasible",
    "partition_pcu", "partition_pmu", "region_fits",
    "Fabric", "Net", "Region", "region_capacity", "site_kinds",
    "rewrite", "substitute",
    "StageSchedule", "schedule",
]
