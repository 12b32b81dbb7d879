"""Compile an application to the compiler's one product, a checked
:class:`Bitstream`.

A compile is two halves: :func:`lower_program` lowers the pattern
program under the options' tiling budgets, and :func:`freeze_lowered`
maps that lowered program (:func:`~repro.compiler.driver.map_program`),
freezes the DRAM layout into the configuration, checks the mapping as a
decoded artifact is checked, and discards every
compiler-internal object (``Fabric``, the pattern ``Program``) so what
remains is exactly the serializable compiler->simulator contract.
:func:`freeze_program` is the two in a row; a caller mapping one program
several times (tenancy packing, fault recovery) lowers it once and
calls :func:`freeze_lowered` per mapping.  The cached variant consults
a :class:`~repro.bitstream.cache.CompileCache` first and reports whether
the result was a hit, a miss, or uncached.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arch.params import DEFAULT, PlasticineParams
from repro.bitstream.artifact import (Bitstream, CompileOptions,
                                     check_config, compile_key)
from repro.bitstream.cache import CompileCache
from repro.compiler.driver import map_program
from repro.compiler.lowering import lower
from repro.dhdl.analysis import assign_bases
from repro.dhdl.ir import DhdlProgram
from repro.patterns.program import Program


def lower_program(program: Program,
                  options: Optional[CompileOptions] = None
                  ) -> DhdlProgram:
    """The grid-independent half of a compile: ``program`` lowered to
    DHDL under ``options``' tiling budgets."""
    options = options or CompileOptions()
    return lower(program, tile_words=options.tile_words,
                 whole_budget=options.whole_budget)


def freeze_lowered(dhdl: DhdlProgram, app: str, scale: str,
                   params: PlasticineParams = DEFAULT,
                   options: Optional[CompileOptions] = None,
                   region=None, excluded_sites=None) -> Bitstream:
    """Map a lowered program (:func:`lower_program` under the same
    ``options``) and freeze it into an artifact.

    The mapping leaves ``dhdl`` as it was, so artifacts frozen from one
    lowered program share it; each is byte-identical to the
    :func:`freeze_program` of the program it was lowered from.

    ``region`` (a :class:`~repro.compiler.place_route.Region`) produces
    a region-constrained artifact for multi-tenant packing.  Region is
    *not* part of :class:`CompileOptions`, so region artifacts must not
    go through the compile cache (the tenancy packer compiles them
    directly — they are packing-specific, not reusable).

    ``excluded_sites`` recompiles around failed unit sites (fault
    recovery); like ``region`` it bypasses the cache — the artifact is
    specific to the failure, not reusable.

    The mapping is held to the checks a decoded artifact passes
    (:func:`~repro.bitstream.artifact.check_config`): a compile that
    breaks one is a :class:`~repro.errors.ConfigError` here, not a
    wrong simulation later.
    """
    options = options or CompileOptions()
    config = map_program(dhdl, params,
                         ags_per_transfer=options.ags_per_transfer,
                         pmu_fraction=options.pmu_fraction,
                         region=region, excluded_sites=excluded_sites)
    config.dram_base = assign_bases(dhdl.drams)
    check_config(dhdl, config, options.pmu_fraction)
    return Bitstream(app, scale, dhdl, config, options)


def freeze_program(program: Program, app: str, scale: str,
                   params: PlasticineParams = DEFAULT,
                   options: Optional[CompileOptions] = None,
                   region=None, excluded_sites=None) -> Bitstream:
    """Compile an already-built pattern program into an artifact:
    :func:`lower_program`, then :func:`freeze_lowered`."""
    return freeze_lowered(lower_program(program, options), app, scale,
                          params=params, options=options, region=region,
                          excluded_sites=excluded_sites)


def compile_to_bitstream(app: str, scale: str = "small",
                         params: PlasticineParams = DEFAULT,
                         options: Optional[CompileOptions] = None,
                         region=None, excluded_sites=None) -> Bitstream:
    """Build a registry app at ``scale`` and compile it to an artifact."""
    from repro.apps.registry import get_app  # lazy: apps sit above us
    program = get_app(app).build(scale)
    return freeze_program(program, app, scale, params=params,
                          options=options, region=region,
                          excluded_sites=excluded_sites)


def compile_app_cached(app: str, scale: str = "small",
                       params: PlasticineParams = DEFAULT,
                       options: Optional[CompileOptions] = None,
                       cache: Optional[CompileCache] = None
                       ) -> Tuple[Bitstream, str]:
    """Compile through the cache; returns ``(artifact, outcome)``.

    ``outcome`` is ``"hit"`` (loaded from disk), ``"miss"`` (compiled
    and stored), or ``"off"`` (no cache supplied).
    """
    options = options or CompileOptions()
    if cache is None:
        return (compile_to_bitstream(app, scale, params, options), "off")
    key = compile_key(app, scale, params, options)
    cached = cache.get(key)
    if cached is not None:
        return cached, "hit"
    artifact = compile_to_bitstream(app, scale, params, options)
    cache.put(artifact)
    return artifact, "miss"
