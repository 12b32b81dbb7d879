"""The serializable compile artifact: a frozen, runnable bitstream.

A :class:`Bitstream` bundles everything the simulator needs to execute
one compiled application — the DHDL program (controller tree, memory
declarations, DRAM input data) and the placed-and-routed
:class:`~repro.bitstream.config.FabricConfig` — detached from every
compiler-internal object (no ``Fabric``, no pattern ``Program``).

Serialization is *canonical*: dict keys are sorted and separators fixed,
so the same compilation always produces the same bytes regardless of
process, platform, or hash randomization.  Two hashes follow from that:

* :func:`compile_key` — the cache address, computed from the *inputs* to
  compilation (schema version, app name, dataset scale, architecture
  parameters, compiler options).  Knowable without compiling.
* :attr:`Bitstream.content_hash` — sha256 of the canonical artifact
  bytes, computed from the *output*.  Golden tests pin these to catch
  accidental compiler nondeterminism.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.arch.params import (DEFAULT, DramParams, PcuParams,
                               PlasticineParams, PmuParams)
from repro.arch.requirements import (DesignRequirements, VirtualPcuReq,
                                     VirtualPmuReq)
from repro.bitstream.config import (AgAssignment, FabricConfig, LeafTiming,
                                   check_banks)
from repro.dhdl.ir import DhdlProgram, InnerCompute
from repro.dhdl.serialize import program_from_dict, program_to_dict
from repro.errors import ArchError, ConfigError

#: Bump whenever the serialized layout changes; the cache segregates
#: artifacts by schema so stale entries are never misread.
SCHEMA_VERSION = 3


def canonical_json(data: dict) -> bytes:
    """The one true byte encoding of an artifact dict."""
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def hash_bytes(blob: bytes) -> str:
    """The content hash of an artifact's canonical bytes."""
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Compile options (part of the cache key)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileOptions:
    """The compiler knobs that shape an artifact (the defaults are the
    paper's 512-word tiles and 1:1 PMU:PCU checkerboard)."""

    tile_words: int = 512
    whole_budget: int = 16384
    ags_per_transfer: int = 2
    pmu_fraction: float = 0.5

    def to_dict(self) -> dict:
        return _fields(self)

    @staticmethod
    def from_dict(data: dict) -> "CompileOptions":
        return CompileOptions(**data)


# ---------------------------------------------------------------------------
# Params / config (de)serialization
# ---------------------------------------------------------------------------


def _fields(obj) -> dict:
    """A flat dataclass as a dict of its fields (``asdict`` without the
    deep copy)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def params_to_dict(params: PlasticineParams) -> dict:
    """Architecture parameters as a plain nested dict."""
    data = _fields(params)
    for unit in ("pcu", "pmu", "dram"):
        data[unit] = _fields(data[unit])
    return data


def params_from_dict(data: dict) -> PlasticineParams:
    """Rebuild :class:`PlasticineParams` from :func:`params_to_dict`."""
    data = dict(data)
    return PlasticineParams(
        pcu=PcuParams(**data.pop("pcu")),
        pmu=PmuParams(**data.pop("pmu")),
        dram=DramParams(**data.pop("dram")),
        **data)


def _requirements_to_dict(req: Optional[DesignRequirements]
                          ) -> Optional[dict]:
    if req is None:
        return None
    return {"name": req.name,
            "pcus": [_fields(r) for r in req.pcus],
            "pmus": [_fields(r) for r in req.pmus]}


def _requirements_from_dict(data: Optional[dict]
                            ) -> Optional[DesignRequirements]:
    if data is None:
        return None
    return DesignRequirements(
        data["name"],
        pcus=[VirtualPcuReq(**r) for r in data["pcus"]],
        pmus=[VirtualPmuReq(**r) for r in data["pmus"]])


def config_to_dict(config: FabricConfig) -> dict:
    """Serialize a :class:`FabricConfig` to a JSON-compatible dict.

    The ``region`` key is emitted only for region-constrained compiles:
    whole-fabric artifacts keep the exact canonical bytes (and golden
    content hashes) they had before regions existed.
    """
    data = {
        "params": params_to_dict(config.params),
        "leaf_timing": {name: _fields(t)
                        for name, t in config.leaf_timing.items()},
        "ag_assign": {name: list(a.ag_ids)
                      for name, a in config.ag_assign.items()},
        "sites": {name: [list(site) for site in sites]
                  for name, sites in config.sites.items()},
        "dram_base": dict(config.dram_base),
        "requirements": _requirements_to_dict(config.requirements),
        "pcus_used": config.pcus_used,
        "pmus_used": config.pmus_used,
        "ags_used": config.ags_used,
        "switches_used": config.switches_used,
        "fus_used": config.fus_used,
        "registers_used": config.registers_used,
        "coalesce_entries": config.coalesce_entries,
        "banks_override": config.banks_override,
    }
    if config.region is not None:
        data["region"] = list(config.region)
    return data


def config_from_dict(data: dict) -> FabricConfig:
    """Rebuild a :class:`FabricConfig` from :func:`config_to_dict`,
    checking the architecture against Table 3
    (:meth:`PlasticineParams.validate`), every leaf's timing against the
    architecture (:meth:`LeafTiming.validate`) and the coalescing
    cache's size; a configuration no Plasticine could hold is a
    :class:`ConfigError`."""
    region = data.get("region")
    params = params_from_dict(data["params"])
    try:
        params.validate()
    except ArchError as err:
        raise ConfigError(f"params: {err}") from None
    if data["coalesce_entries"] < 1:
        raise ConfigError(f"coalesce_entries={data['coalesce_entries']} "
                          f"must be >= 1")
    return FabricConfig(
        region=tuple(region) if region is not None else None,
        params=params,
        leaf_timing={name: LeafTiming(**t).validate(params)
                     for name, t in data["leaf_timing"].items()},
        ag_assign={name: AgAssignment(tuple(ids))
                   for name, ids in data["ag_assign"].items()},
        sites={name: tuple(tuple(site) for site in sites)
               for name, sites in data["sites"].items()},
        dram_base=dict(data["dram_base"]),
        requirements=_requirements_from_dict(data["requirements"]),
        pcus_used=data["pcus_used"],
        pmus_used=data["pmus_used"],
        ags_used=data["ags_used"],
        switches_used=data["switches_used"],
        fus_used=data["fus_used"],
        registers_used=data["registers_used"],
        coalesce_entries=data["coalesce_entries"],
        banks_override=data["banks_override"],
    )


def check_config(dhdl: DhdlProgram, config: FabricConfig,
                 pmu_fraction: float) -> None:
    """Hold a configuration to its program and to the fabric: the DRAM
    layout, the recorded placement (on the checkerboard for
    ``pmu_fraction``) and the memories and transfers; else a
    :class:`ConfigError`.  Run on every compile
    (:func:`repro.compiler.artifact.freeze_lowered`) and every decode
    (:meth:`Bitstream.from_dict`)."""
    _check_dram_base(dhdl, config)
    _check_sites(dhdl, config, pmu_fraction)
    _check_units(dhdl, config)


def _check_dram_base(dhdl: DhdlProgram, config: FabricConfig) -> None:
    """Hold the frozen DRAM layout to the program: one base per DRAM
    array, each a non-negative multiple of the DRAM burst, and no two
    arrays' ``[base, base + 4·words)`` byte ranges overlapping; else a
    :class:`ConfigError`."""
    base = config.dram_base
    names = {ref.name for ref in dhdl.drams}
    missing, unknown = sorted(names - set(base)), sorted(set(base) - names)
    if missing or unknown:
        raise ConfigError(f"dram_base must name exactly the program's "
                          f"DRAM arrays: missing {missing}, unknown "
                          f"{unknown}")
    burst = config.params.dram.burst_bytes
    spans = []
    for ref in dhdl.drams:
        start = base[ref.name]
        if start < 0 or start % burst:
            raise ConfigError(
                f"dram_base[{ref.name!r}]={start} is not a non-negative "
                f"multiple of the {burst}-byte burst")
        spans.append((start, start + 4 * ref.words(), ref.name))
    spans.sort()
    # sorted by base, any overlap shows between neighbours
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            raise ConfigError(f"DRAM arrays {name!r} and {other!r} "
                              f"overlap at byte {start}")


def _check_sites(dhdl: DhdlProgram, config: FabricConfig,
                 pmu_fraction: float) -> None:
    """Hold the recorded placement to the program and the grid: each
    unit a compute leaf (on PCU sites, as many as its ``num_pcus``) or a
    scratchpad (on PMU sites), every site of its unit's kind under the
    compiler's checkerboard for ``pmu_fraction`` and inside ``region``
    when one is set, no site shared, and ``pcus_used``/``pmus_used``
    the sites' counts; else a :class:`ConfigError`."""
    # lazy: the compiler sits above this module
    from repro.compiler.place_route import Region, site_kinds
    params = config.params
    kinds = site_kinds(params, pmu_fraction)
    region = Region(*config.region) if config.region is not None else None
    computes = {leaf.name for leaf in dhdl.leaves()
                if isinstance(leaf, InnerCompute)}
    srams = {sram.name for sram in dhdl.srams}
    owner: Dict[tuple, str] = {}
    used = {"pcu": 0, "pmu": 0}
    for name, sites in config.sites.items():
        kind = ("pcu" if name in computes
                else "pmu" if name in srams else None)
        if kind is None:
            raise ConfigError(f"sites[{name!r}]: the program has no "
                              f"compute leaf or scratchpad of that name")
        for site in sites:
            if kinds.get(site) != kind:
                raise ConfigError(
                    f"sites[{name!r}]: {site} is not a {kind.upper()} "
                    f"site of the {params.grid_cols}x{params.grid_rows} "
                    f"grid")
            if region is not None and not region.contains(site):
                raise ConfigError(f"sites[{name!r}]: {site} lies outside "
                                  f"region {region}")
            if site in owner:
                raise ConfigError(f"{owner[site]!r} and {name!r} share "
                                  f"site {site}")
            owner[site] = name
        used[kind] += len(sites)
    for name, timing in config.leaf_timing.items():
        placed = len(config.sites.get(name, ()))
        if name in computes and placed != timing.num_pcus:
            raise ConfigError(f"leaf {name!r} has {placed} PCU sites for "
                              f"num_pcus={timing.num_pcus}")
    if (config.pcus_used, config.pmus_used) != (used["pcu"], used["pmu"]):
        raise ConfigError(
            f"pcus_used={config.pcus_used}, pmus_used={config.pmus_used} "
            f"but the sites hold {used['pcu']} PCUs, {used['pmu']} PMUs")


def _check_units(dhdl: DhdlProgram, config: FabricConfig) -> None:
    """Hold the memories and transfers to what the fabric can run:
    every scratchpad at least single-buffered with a positive bank
    stride, its words at its N-buffering within its PMU sites' capacity,
    any bank override within a PMU's banks, and every transfer issued by
    at least one of the chip's ``num_ags`` address generators; else a
    :class:`ConfigError`."""
    params = config.params
    check_banks(config.banks_override, params, "banks_override")
    for sram in dhdl.srams:
        if sram.nbuf < 1 or sram.bank_stride < 1:
            raise ConfigError(
                f"scratchpad {sram.name!r}: nbuf={sram.nbuf} and "
                f"bank_stride={sram.bank_stride} must both be >= 1")
        pmus = len(config.sites.get(sram.name, ()))
        room = pmus * params.pmu.scratch_words
        if sram.total_words() > room:
            raise ConfigError(f"scratchpad {sram.name!r}: {sram.words()} "
                              f"words x nbuf={sram.nbuf} exceed its {pmus} "
                              f"PMU sites' {room} words")
    for leaf in dhdl.leaves():
        if isinstance(leaf, InnerCompute):
            continue
        assign = config.ag_assign.get(leaf.name)
        ids = assign.ag_ids if assign is not None else ()
        if not ids or not all(0 <= i < params.num_ags for i in ids):
            raise ConfigError(
                f"transfer {leaf.name!r}: AG ids {list(ids)} must be "
                f"one or more ids in [0, num_ags={params.num_ags})")


# ---------------------------------------------------------------------------
# Cache key
# ---------------------------------------------------------------------------


def compile_key(app: str, scale: str,
                params: PlasticineParams = DEFAULT,
                options: Optional[CompileOptions] = None) -> str:
    """The content address of a compilation *request*.

    Everything that can change the emitted artifact participates:
    schema version, app name, dataset scale, the full architecture
    parameter set, and the compiler options.
    """
    options = options or CompileOptions()
    blob = canonical_json({
        "schema": SCHEMA_VERSION,
        "app": app,
        "scale": scale,
        "params": params_to_dict(params),
        "options": options.to_dict(),
    })
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------


class Bitstream:
    """One compiled application, frozen and runnable.

    Holds the live DHDL program and fabric configuration; converts to
    and from a canonical dict (and JSON file) without loss.  Construct
    via :func:`repro.compiler.artifact.compile_to_bitstream` or
    :meth:`load`.
    """

    def __init__(self, app: str, scale: str, dhdl: DhdlProgram,
                 config: FabricConfig,
                 options: Optional[CompileOptions] = None,
                 schema: int = SCHEMA_VERSION):
        self.app = app
        self.scale = scale
        self.dhdl = dhdl
        self.config = config
        self.options = options or CompileOptions()
        self.schema = schema

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "app": self.app,
            "scale": self.scale,
            "options": self.options.to_dict(),
            "program": program_to_dict(self.dhdl),
            "config": config_to_dict(self.config),
        }

    @staticmethod
    def from_dict(data: dict) -> "Bitstream":
        if not isinstance(data, dict):
            raise ConfigError(
                f"artifact must decode to a dict, got "
                f"{type(data).__name__}")
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"artifact schema {schema!r} != supported "
                f"{SCHEMA_VERSION} (recompile the app)")
        for key, kind in (("app", str), ("scale", str), ("options", dict),
                          ("program", dict), ("config", dict)):
            if not isinstance(data.get(key), kind):
                raise ConfigError(f"artifact key {key!r} must be a "
                                  f"{kind.__name__}")
        try:
            options = CompileOptions.from_dict(data["options"])
            dhdl = program_from_dict(data["program"])
            config = config_from_dict(data["config"])
            check_config(dhdl, config, options.pmu_fraction)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            # a field missing, of the wrong shape or out of range
            raise ConfigError(f"malformed artifact field: "
                              f"{type(err).__name__} {err}") from None
        return Bitstream(app=data["app"], scale=data["scale"], dhdl=dhdl,
                         config=config, options=options, schema=schema)

    def to_bytes(self) -> bytes:
        """Canonical serialized form (deterministic across processes)."""
        return canonical_json(self.to_dict())

    @property
    def content_hash(self) -> str:
        """sha256 of the canonical bytes — the artifact's identity."""
        return hash_bytes(self.to_bytes())

    @property
    def key(self) -> str:
        """The cache address of this artifact's compilation request."""
        return compile_key(self.app, self.scale, self.config.params,
                           self.options)

    # -- files --------------------------------------------------------------------
    def save(self, path: Union[str, Path],
             blob: Optional[bytes] = None) -> Path:
        """Write the artifact to ``path`` (canonical JSON, atomic).

        ``blob`` is this artifact's :meth:`to_bytes`, for a caller that
        already holds it and would otherwise pay for a second encode.

        The temp name is unique per process, so concurrent writers of
        the same path (e.g. pool workers all missing on one cache key)
        never clobber each other's half-written temp file; each rename
        is atomic and the bytes are identical, so whichever lands last
        wins silently.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        try:
            tmp.write_bytes(self.to_bytes() if blob is None else blob)
            tmp.replace(path)
        finally:
            # a failed rename (e.g. ENOSPC midway) must not litter the
            # cache directory with temp files
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return path

    @staticmethod
    def from_bytes(raw: bytes) -> "Bitstream":
        """Decode an artifact's bytes (:meth:`to_bytes`); bytes that are
        not UTF-8 JSON, or nest past the recursion limit, are a
        :class:`ConfigError`, like a malformed artifact dict."""
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"artifact does not decode as UTF-8 JSON "
                              f"({type(err).__name__})") from None
        return Bitstream.from_dict(data)

    @staticmethod
    def load(path: Union[str, Path]) -> "Bitstream":
        """Read an artifact previously written by :meth:`save`."""
        return Bitstream.from_bytes(Path(path).read_bytes())

    # -- execution ----------------------------------------------------------------
    def machine(self, **kwargs) -> Any:
        """A fresh simulator instance for this artifact.

        Keyword arguments pass through to
        :class:`~repro.sim.machine.Machine` (``tracer``, ``scheduler``,
        ``watchdog``...).  Imported lazily so the compiler/cache side
        never loads the simulator package.
        """
        from repro.sim.machine import Machine
        return Machine(self.dhdl, self.config, **kwargs)

    def summary(self) -> Dict[str, Any]:
        """Small human-facing description (CLI ``repro compile``)."""
        blob = self.to_bytes()
        return {
            "app": self.app,
            "scale": self.scale,
            "schema": self.schema,
            "key": self.key,
            "content_hash": hash_bytes(blob),
            "leaves": len(self.config.leaf_timing),
            "srams": len(self.dhdl.srams),
            "pcus_used": self.config.pcus_used,
            "pmus_used": self.config.pmus_used,
            "bytes": len(blob),
        }

    def __repr__(self):
        return (f"Bitstream({self.app!r}, scale={self.scale!r}, "
                f"hash={self.content_hash[:12]})")
