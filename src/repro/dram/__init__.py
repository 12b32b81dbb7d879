"""DDR3 memory-system model (DRAMSim2 substitute)."""

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.model import DramModel
from repro.dram.request import DramRequest

__all__ = ["Bank", "Channel", "DramModel", "DramRequest"]
