"""Cycle-level simulator of the Plasticine fabric."""

from repro.bitstream.config import AgAssignment, FabricConfig, LeafTiming
from repro.dhdl.analysis import assign_bases
from repro.sim.counters import ChainEnumerator, Run
from repro.sim.dram_image import DramImage
from repro.sim.fabric import Fabric, Tenant
from repro.sim.fifo import FifoSim
from repro.sim.leaves import (GatherSim, InnerComputeSim, NodeSim,
                              ScatterSim, StreamStoreSim, TileLoadSim,
                              TileStoreSim)
from repro.sim.machine import Machine
from repro.sim.outer import DepEdge, OuterControllerSim
from repro.sim.scratchpad import MemoryState, RegSim, ScratchpadSim
from repro.sim.stats import SimStats

__all__ = [
    "AgAssignment", "FabricConfig", "LeafTiming",
    "ChainEnumerator", "Run",
    "DramImage", "assign_bases",
    "Fabric", "Tenant",
    "FifoSim",
    "GatherSim", "InnerComputeSim", "NodeSim", "ScatterSim",
    "StreamStoreSim", "TileLoadSim", "TileStoreSim",
    "Machine",
    "DepEdge", "OuterControllerSim",
    "MemoryState", "RegSim", "ScratchpadSim",
    "SimStats",
]
