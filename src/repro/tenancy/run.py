"""High-level co-residency driver: pack, co-simulate, validate.

:func:`co_run` is the one call the CLI, serve tier and benchmarks use:
given a list of registry apps it packs them onto disjoint regions,
runs them as tenants of one shared :class:`~repro.sim.fabric.Fabric`,
checks every tenant's outputs against the reference executor, and
returns per-tenant statistics plus fabric-level channel utilization.

A single-app call takes the solo path (full-grid compile, one tenant),
which is bit-identical to ``Machine.run`` — so callers can use
``co_run`` uniformly and the N=1 case degrades to exactly the classic
flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.arch.params import DEFAULT, PlasticineParams
from repro.bitstream.artifact import CompileOptions
from repro.dram.model import DramModel
from repro.errors import MappingError
from repro.sim.fabric import Fabric
from repro.sim.stats import SimStats
from repro.tenancy.packer import PackReport, pack_apps


@dataclass
class TenantResult:
    """Outcome of one tenant's execution on the shared fabric."""

    app: str
    #: unique tenant name ("gemm", "gemm#1", ...)
    name: str
    stats: SimStats
    #: (col0, row0, cols, rows) or None for the solo full-grid path
    region: Optional[tuple]
    finish_cycle: int
    #: this tenant's share of each DRAM channel over the whole run
    channel_util: Dict[str, Dict[str, float]]
    validated: bool = False
    #: QoS weight in the shared DRAM arbitration (1 = best effort)
    priority: int = 1


@dataclass
class CoRunResult:
    """Everything one co-resident run produced."""

    tenants: List[TenantResult]
    #: cycle the last tenant finished (fabric makespan)
    fabric_cycles: int
    #: aggregate per-channel utilization over the makespan
    channel_util: Dict[str, Dict[str, float]]
    pack_report: Optional[dict] = None
    #: per-tenant QoS view (weights + arbitration outcomes); see
    #: :meth:`repro.sim.fabric.Fabric.qos_summary`
    qos: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "fabric_cycles": self.fabric_cycles,
            "channel_util": self.channel_util,
            "pack_report": self.pack_report,
            "qos": self.qos,
            "tenants": [
                {"app": t.app, "name": t.name,
                 "region": list(t.region) if t.region else None,
                 "finish_cycle": t.finish_cycle,
                 "validated": t.validated,
                 "priority": t.priority,
                 "stats": t.stats.as_dict()}
                for t in self.tenants],
        }


def co_run(apps: Sequence[str], scale: str = "tiny",
           params: PlasticineParams = DEFAULT,
           options: Optional[CompileOptions] = None,
           watchdog: int = 50_000,
           max_cycles: int = 20_000_000,
           validate: bool = True,
           tracer_factory=None,
           packing: Optional[PackReport] = None,
           priorities: Optional[Sequence[int]] = None,
           scheduler: str = "event") -> CoRunResult:
    """Pack ``apps`` onto one fabric, run to completion, validate.

    ``tracer_factory`` (tenant name -> Tracer) attaches one tracer per
    tenant; each sees only its own units and its own slice of the
    shared DRAM channels, so stall attribution is per-tenant.

    ``packing`` replays an already-committed :class:`PackReport`
    (e.g. one produced by :func:`repro.tenancy.packer.repack` after a
    fault) instead of planning a fresh one; the report's tenants must
    line up with ``apps``.

    ``priorities`` (one int >= 1 per app) weights each tenant in the
    shared DRAM channels' QoS arbitration; omitted or all-equal
    priorities run the bit-identical plain FR-FCFS scheduler.
    ``scheduler`` is the stepping core's mode, as for ``Machine.run``
    (cycle-exact either way).

    ``validate`` builds and executes each distinct app's reference
    program once and checks every tenant running it against that one
    result.
    """
    from repro.apps.registry import get_app
    from repro.compiler.artifact import compile_to_bitstream
    if not apps:
        raise ValueError("co_run needs at least one app")
    if priorities is not None and len(priorities) != len(apps):
        raise ValueError(
            f"priorities must line up with apps: {len(priorities)} "
            f"priorities for {len(apps)} apps")
    fabric = Fabric(DramModel(params.dram), watchdog=watchdog,
                    max_cycles=max_cycles)
    report = None
    if packing is None and len(apps) == 1:
        artifact = compile_to_bitstream(apps[0], scale, params=params,
                                        options=options)
        entries = [(apps[0], apps[0], artifact, None)]
    else:
        if packing is None:
            packing = pack_apps(apps, scale, params=params,
                                options=options)
        report = packing.as_dict()
        if not packing.feasible:
            raise MappingError(
                f"cannot co-locate {list(apps)} on one fabric: "
                f"{packing.reason}")
        if len(packing.tenants) != len(apps):
            raise MappingError(
                f"packing carries {len(packing.tenants)} tenants for "
                f"{len(apps)} apps")
        entries = [(tenant.footprint.app, app, tenant.artifact,
                    tenant.region.as_tuple())
                   for tenant, app in zip(packing.tenants, apps)]
    handles = []
    for k, (name, app, artifact, _region) in enumerate(entries):
        tracer = (tracer_factory(name) if tracer_factory is not None
                  else None)
        handle = fabric.add_tenant(
            artifact.dhdl, artifact.config, name=name, tracer=tracer,
            priority=priorities[k] if priorities is not None else 1)
        handles.append(handle)
    fabric.run(scheduler=scheduler)
    references = {}
    if validate:
        for app in dict.fromkeys(apps):
            application = get_app(app)
            program = application.build(scale)
            references[app] = (application, program,
                               application.expected(program))
    tenants = []
    for (name, app, _artifact, region), handle in zip(entries, handles):
        validated = False
        if validate:
            application, program, expected = references[app]
            results = {out: handle.machine.result(out)
                       for out in expected}
            application.check(program, results, expected)
            validated = True
        tenants.append(TenantResult(
            app=app, name=handle.name, stats=handle.machine.stats,
            region=region, finish_cycle=handle.finish_cycle,
            channel_util=fabric.tenant_channel_util(handle),
            validated=validated, priority=handle.priority))
    return CoRunResult(
        tenants=tenants, fabric_cycles=fabric.cycle,
        channel_util=fabric.channel_util(), pack_report=report,
        qos=fabric.qos_summary())
