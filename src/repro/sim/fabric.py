"""Multi-tenant fabric: N compiled artifacts co-resident on one chip.

One :class:`Fabric` hosts several tenant :class:`~repro.sim.machine.
Machine` instances — each configured into a *disjoint* rectangular
region of the grid by the tenancy packer — wired to a single shared
:class:`~repro.dram.model.DramModel`.  Compute never interferes
(disjoint PCUs/PMUs/switches by construction); the DRAM channels are
the shared resource, so every request is stamped with its tenant and
the model keeps per-tenant bandwidth, stall and row-buffer accounting.

The fabric is tenant *bookkeeping* only — regions, DRAM-slice
relocation, QoS weights, per-tenant views.  It has no cycle loop:
:meth:`Fabric.run` hands its tenant machines to the stepping core
(:mod:`repro.sim.scheduler`), which steps any set of machines sharing
one DRAM model, under either scheduler mode.

Equivalence invariant
---------------------
A tenant running *alone* on a Fabric is bit-identical to a solo
``Machine.run`` because it *is* the same loop over a one-machine list,
and tenant 0 keeps its artifact's natural DRAM layout, so the address
stream (and hence FR-FCFS timing) is unchanged.  The test suite asserts
this for every registry app: identical ``SimStats``, DRAM image and
stall attribution.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bitstream.config import FabricConfig
from repro.dhdl.analysis import assign_bases
from repro.dhdl.ir import DhdlProgram
from repro.dram.model import DramModel
from repro.errors import SimulationError
from repro.sim.machine import Machine
from repro.sim.scheduler import run_machines
from repro.sim.stats import SimStats
from repro.trace.tracer import Tracer


def _regions_overlap(a, b) -> bool:
    """Axis-aligned rectangle intersection on (col0, row0, cols, rows)."""
    ac, ar, aw, ah = a
    bc, br, bw, bh = b
    return (ac < bc + bw and bc < ac + aw
            and ar < br + bh and br < ar + ah)


class Tenant:
    """One co-resident application: its machine plus fabric-side state."""

    def __init__(self, tid: int, name: str, machine: Machine,
                 priority: int = 1):
        self.id = tid
        self.name = name
        self.machine = machine
        #: QoS arbitration weight on the shared DRAM channels
        self.priority = priority

    @property
    def stats(self) -> SimStats:
        return self.machine.stats

    @property
    def done(self) -> bool:
        return self.machine.finished

    @property
    def finish_cycle(self) -> Optional[int]:
        """Cycle at which the root controller completed (None while
        busy)."""
        return self.machine.stats.cycles if self.done else None

    def __repr__(self):
        state = f"done@{self.finish_cycle}" if self.done else "running"
        return f"Tenant({self.id}:{self.name}, {state})"


class Fabric:
    """A chip shared by several tenant machines.

    Build with :meth:`add_tenant` (in packing order: tenant 0 keeps its
    natural DRAM layout; later tenants are relocated past it), then
    :meth:`run` to completion.  Each tenant retires on its own root's
    completion and keeps its own :class:`SimStats`; the fabric keeps
    running until every tenant is done.
    """

    def __init__(self, dram: Optional[DramModel] = None,
                 watchdog: int = 50_000,
                 max_cycles: int = 20_000_000):
        self.dram = dram or DramModel()
        self.watchdog = watchdog
        self.max_cycles = max_cycles
        self.tenants: List[Tenant] = []
        #: the EventScheduler of the last :meth:`run` (executed vs
        #: fast-forwarded cycles); None under the dense reference
        self.scheduler_stats = None
        # tenant DRAM slices start on a full channel-interleave stride
        # so relocation never changes how a tenant's bursts stripe
        # across channels (channel = burst % channels is
        # offset-invariant)
        dram = self.dram.params
        self._slice_align = dram.row_bytes * dram.channels
        self._addr_cursor = 0

    # -- construction ------------------------------------------------------------
    def add_tenant(self, dhdl: DhdlProgram, config: FabricConfig,
                   name: Optional[str] = None,
                   tracer: Optional[Tracer] = None,
                   fault_plan=None,
                   priority: int = 1) -> Tenant:
        """Admit one compiled artifact as the next tenant.

        Tenants after the first must carry a placement ``region`` (the
        tenancy packer emits these) and regions must be pairwise
        disjoint — overlapping units would silently share datapaths.

        ``priority`` (>= 1) is the tenant's weight in the shared DRAM
        channels' QoS arbitration.  Weighted FR-FCFS only engages when
        tenants carry *different* priorities; a fabric of equal
        priorities — any value — runs the bit-identical plain FR-FCFS
        scheduler (asserted registry-wide, like the lone-tenant
        invariant).  The artifact's memory record must be the shared
        model's (``Machine`` raises a :class:`ConfigError` otherwise).
        """
        if priority < 1:
            raise SimulationError(
                f"tenant priority must be >= 1, got {priority}")
        tid = len(self.tenants)
        if tid > 0:
            regions = [t.machine.config.region for t in self.tenants]
            regions.append(config.region)
            for i, region in enumerate(regions):
                if region is None:
                    raise SimulationError(
                        "multi-tenant fabrics require region-constrained"
                        f" artifacts; tenant {i} was compiled for the"
                        " full grid (recompile with region=)")
            for t, other in zip(self.tenants, regions[:-1]):
                if _regions_overlap(other, config.region):
                    raise SimulationError(
                        f"tenant regions overlap: {t.name} at {other} vs"
                        f" new tenant at {config.region}")
        name = name or f"t{tid}"
        taken = {t.name for t in self.tenants}
        if name in taken:
            k = 1
            while f"{name}#{k}" in taken:
                k += 1
            name = f"{name}#{k}"
        natural = config.dram_base or assign_bases(dhdl.drams)
        span = self._layout_span(dhdl, natural)
        if tid == 0:
            base = dict(natural)  # offset 0: solo-identical addresses
        else:
            align = self._slice_align
            offset = -(-self._addr_cursor // align) * align
            base = {k: v + offset for k, v in natural.items()}
            span += offset
        machine = Machine(dhdl, config, dram=self.dram,
                          watchdog=self.watchdog, tracer=tracer,
                          max_cycles=self.max_cycles,
                          tenant=tid, dram_base=base,
                          fault_plan=fault_plan,
                          tenant_name=name)
        self._addr_cursor = max(self._addr_cursor, span)
        tenant = Tenant(tid, name, machine, priority=priority)
        self.dram.set_tenant_weight(tid, priority)
        self.tenants.append(tenant)
        return tenant

    @staticmethod
    def _layout_span(dhdl: DhdlProgram, base: Dict[str, int]) -> int:
        """One past the highest byte address the layout touches."""
        end = 0
        for ref in dhdl.drams:
            end = max(end, base[ref.name] + 4 * ref.words())
        return end

    # -- execution ---------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """The fabric clock: the latest cycle any tenant has reached."""
        return max((t.machine.cycle for t in self.tenants), default=0)

    def run(self, max_cycles: Optional[int] = None,
            scheduler: str = "event") -> Dict[str, SimStats]:
        """Step all tenants to completion; per-tenant stats by name.

        ``scheduler`` is the stepping core's mode, as for
        ``Machine.run``; both are cycle-exact.  Each tenant retires on
        its own root's completion; one tenant's deadlock or a
        ``max_cycles`` trip raises for the whole fabric.
        """
        if not self.tenants:
            raise SimulationError("fabric has no tenants")
        limit = max_cycles if max_cycles is not None else self.max_cycles
        live = [t.machine for t in self.tenants if not t.done]
        if live:
            self.scheduler_stats = run_machines(live, limit, scheduler)
        return {t.name: t.machine.stats for t in self.tenants}

    # -- aggregate views ----------------------------------------------------------
    def channel_util(self) -> Dict[str, Dict[str, float]]:
        """Whole-fabric per-channel utilization over the run so far."""
        return self.dram.channel_util(None, self.cycle)

    def tenant_channel_util(self, tenant: Tenant
                            ) -> Dict[str, Dict[str, float]]:
        """One tenant's share of each channel over the whole run."""
        return self.dram.channel_util(tenant.id, self.cycle)

    def qos_summary(self) -> Dict[str, dict]:
        """Per-tenant QoS view: weight + arbitration outcomes.

        ``arb_won`` / ``arb_deferred`` count contested weighted
        arbitration rounds summed over all channels; both stay 0 (and
        ``weighted`` False) when priorities are uniform and the
        channels run plain FR-FCFS.
        """
        out: Dict[str, dict] = {}
        for tenant in self.tenants:
            won = deferred = 0
            for channel in self.dram.channels:
                arb = channel.arb_stats.get(tenant.id)
                if arb is not None:
                    won += arb["arb_won"]
                    deferred += arb["arb_deferred"]
            out[tenant.name] = {
                "priority": tenant.priority,
                "arb_won": won,
                "arb_deferred": deferred,
                "finish_cycle": tenant.finish_cycle,
            }
        return {"weighted": self.dram.weighted, "tenants": out}
