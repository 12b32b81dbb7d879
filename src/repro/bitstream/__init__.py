"""The frozen compiler->simulator artifact ("bitstream") and its cache.

``repro.bitstream`` sits between :mod:`repro.compiler` and
:mod:`repro.sim`: the compiler emits a :class:`~repro.bitstream.artifact.
Bitstream` (placed-and-routed configuration plus the DHDL program, with
input data), the simulator consumes one, and neither imports the other.
Artifacts serialize to canonical JSON — byte-identical across processes —
and are stored in a content-addressed on-disk cache keyed by
(app, scale, architecture parameters, compiler options).
"""

from repro.bitstream.artifact import (SCHEMA_VERSION, Bitstream,
                                      CompileOptions, compile_key)
from repro.bitstream.cache import CacheStats, CompileCache
from repro.bitstream.config import AgAssignment, FabricConfig, LeafTiming

__all__ = [
    "SCHEMA_VERSION", "Bitstream", "CompileOptions", "compile_key",
    "CacheStats", "CompileCache",
    "AgAssignment", "FabricConfig", "LeafTiming",
]
