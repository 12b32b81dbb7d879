"""The machine: assembles and runs one configured application.

Builds per-controller simulators from a DHDL program and a
:class:`~repro.bitstream.config.FabricConfig`, wires them to the scratchpad,
FIFO, DRAM-image and DDR3-timing models, and runs the cycle loop until
the root controller completes (with a deadlock watchdog).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bitstream.config import FabricConfig
from repro.dhdl.analysis import assign_bases, scope_edges
from repro.dhdl.control import Scheme
from repro.dhdl.ir import (DhdlProgram, Gather, InnerCompute,
                           OuterController, Scatter, StreamStore, TileLoad,
                           TileStore, EmitStmt)
from repro.dram.model import DramModel
from repro.errors import DeadlockError, SimulationError
from repro.sim.dram_image import DramImage
from repro.sim.fifo import FifoSim
from repro.sim.leaves import (GatherSim, InnerComputeSim, NodeSim,
                              ScatterSim, StreamStoreSim, TileLoadSim,
                              TileStoreSim)
from repro.sim.outer import DepEdge, OuterControllerSim
from repro.sim.scheduler import Progress, run_machines
from repro.sim.scratchpad import MemoryState
from repro.sim.stats import SimStats
from repro.trace.tracer import Tracer


class Machine:
    """One configured Plasticine executing one application."""

    def __init__(self, dhdl: DhdlProgram, config: FabricConfig,
                 dram: Optional[DramModel] = None,
                 watchdog: int = 50_000,
                 tracer: Optional[Tracer] = None,
                 scheduler: str = "event",
                 max_cycles: int = 20_000_000,
                 tenant: Optional[int] = None,
                 dram_base: Optional[Dict[str, int]] = None,
                 fault_plan=None,
                 tenant_name: Optional[str] = None):
        self.dhdl = dhdl
        self.config = config
        self.params = config.params
        self.stats = SimStats()
        self.watchdog = watchdog
        self.scheduler = scheduler
        self.max_cycles = max_cycles
        #: tenant id when co-resident on a shared Fabric (None solo).
        #: Scopes DRAM statistics, progress keys and trace events to
        #: this machine's own requests.
        self.tenant = tenant
        #: human-readable tenant name for fault/deadlock attribution
        self.tenant_name = tenant_name
        # dram_base overrides the artifact's frozen layout without
        # mutating it — the multi-tenant Fabric relocates each tenant's
        # arrays into a disjoint slice of the shared address space.
        base = dram_base or config.dram_base or assign_bases(dhdl.drams)
        self.image = DramImage(dhdl.drams, base)
        self.dram = dram or DramModel(queue_depth=self.params.dram.
                                      queue_depth)
        banks = (config.banks_override if config.banks_override
                 else self.params.pmu.banks)
        self.mem = MemoryState(dhdl.srams, dhdl.regs, banks=banks)
        self.fifos: Dict[str, FifoSim] = {
            f.name: FifoSim(f, lanes=self.params.pcu.lanes)
            for f in dhdl.fifos}
        self._leaves: List[NodeSim] = []
        self._outers: List[OuterControllerSim] = []
        self.root = self._build(dhdl.root)
        #: every controller in dense tick order (outers, then leaves)
        self._nodes = tuple(self._outers + self._leaves)
        #: FIFO-flow and completed-children counters of the watchdog
        #: key, shared with the objects whose events bump them
        self._progress = Progress()
        for fifo in self.fifos.values():
            fifo.progress = self._progress
        for outer in self._outers:
            outer.progress = self._progress
        self.cycle = 0
        #: the EventScheduler that ran this machine solo (executed vs
        #: fast-forwarded cycles); None under the dense reference
        self.scheduler_stats = None
        #: liveness state kept by the stepping core (sim/scheduler.py):
        #: last progress key, the cycle it last changed, the last cycle
        #: a unit of it ticked or a burst of it was delivered, root
        #: completed
        self._last_key = None
        self._last_progress = 0
        self._touched = -1
        self.finished = False
        self._nbuf_by_name = {s.name: s.nbuf for s in dhdl.srams}
        for reg in dhdl.regs:
            self._nbuf_by_name[reg.name] = reg.nbuf
        self.tracer = tracer if (tracer is not None
                                 and tracer.enabled) else None
        if self.tracer is not None:
            self._attach_tracer(self.tracer)
        #: fault injector (None on the — bit-identical — no-fault path)
        self.faults = None
        if fault_plan is not None:
            from repro.faults.inject import FaultInjector
            self.faults = FaultInjector(fault_plan, self)
        for leaf in self._leaves:
            if isinstance(leaf, InnerComputeSim):
                # a traced or fault-planned compute leaf steps per issue
                leaf.free = leaf.free and self.tracer is None \
                    and self.faults is None
                leaf.watchdog = watchdog

    # -- construction ------------------------------------------------------------
    def _build(self, ctrl) -> NodeSim:
        if isinstance(ctrl, OuterController):
            children = [self._build(c) for c in ctrl.children]
            edges = [DepEdge(*edge)
                     for edge in scope_edges(self.dhdl)[ctrl]]
            fifos_inside = self._fifos_inside(ctrl)
            sim = OuterControllerSim(ctrl, children, edges, self.mem,
                                     fifos_inside)
            self._outers.append(sim)
            return sim
        sim = self._build_leaf(ctrl)
        self._leaves.append(sim)
        timing = self.config.leaf_timing.get(ctrl.name)
        if timing is not None:
            self.stats.pcus_of[ctrl.name] = timing.num_pcus
        assign = self.config.ag_assign.get(ctrl.name)
        if assign is not None:
            self.stats.ags_of[ctrl.name] = assign.streams
        return sim

    def _build_leaf(self, ctrl) -> NodeSim:
        if isinstance(ctrl, InnerCompute):
            return InnerComputeSim(ctrl, self.config, self.mem, self.stats,
                                   self.fifos)
        if isinstance(ctrl, TileLoad):
            return TileLoadSim(ctrl, self.config, self.mem, self.stats,
                               self.dram, self.image)
        if isinstance(ctrl, TileStore):
            return TileStoreSim(ctrl, self.config, self.mem, self.stats,
                                self.dram, self.image)
        if isinstance(ctrl, Gather):
            return GatherSim(ctrl, self.config, self.mem, self.stats,
                             self.dram, self.image)
        if isinstance(ctrl, Scatter):
            return ScatterSim(ctrl, self.config, self.mem, self.stats,
                              self.dram, self.image)
        if isinstance(ctrl, StreamStore):
            return StreamStoreSim(ctrl, self.config, self.mem, self.stats,
                                  self.dram, self.image, self.fifos)
        raise SimulationError(f"unknown leaf {ctrl!r}")

    def _fifos_inside(self, ctrl: OuterController) -> List[FifoSim]:
        if ctrl.scheme is not Scheme.STREAMING:
            return []
        names: Set[str] = set()
        for child in ctrl.children:
            if isinstance(child, InnerCompute):
                for stmt in child.stmts:
                    if isinstance(stmt, EmitStmt):
                        names.add(stmt.fifo.name)
            elif isinstance(child, StreamStore):
                names.add(child.fifo.name)
        return [self.fifos[n] for n in sorted(names)]

    # -- tracing ------------------------------------------------------------------
    def _attach_tracer(self, tracer: Tracer) -> None:
        """Wire one enabled tracer into every instrumented component."""

        def walk(sim, path):
            sim.trace = tracer
            if isinstance(sim, OuterControllerSim):
                for child in sim.children:
                    walk(child, path + (sim.name,))
            else:
                kind = "pcu" if isinstance(sim, InnerComputeSim) else "ag"
                tracer.register_unit(sim.name, kind, path)

        walk(self.root, ())
        for fifo in self.fifos.values():
            fifo.trace = tracer
            tracer.register_track(fifo.decl.name, "fifo")
        for name in self.mem.scratchpads:
            tracer.register_track(name, "pmu")
        self.dram.attach_trace(tracer, tenant=self.tenant)

    def trace_report(self):
        """Stall-attribution report for a finished traced run."""
        from repro.trace.attribution import build_report
        if self.tracer is None:
            raise SimulationError(
                "machine was built without an enabled tracer")
        return build_report(self.tracer, self.stats)

    # -- execution ---------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        """Run to completion; returns the statistics object.

        This is the one-machine case of the stepping core
        (:mod:`repro.sim.scheduler`), in the mode the machine was built
        with: ``scheduler="event"`` (the default) parks provably blocked
        units and fast-forwards across all-parked spans; ``"dense"`` is
        the reference tick-everything loop.  Both are cycle-exact:
        identical SimStats and stall attribution.
        """
        limit = max_cycles if max_cycles is not None else self.max_cycles
        self.scheduler_stats = run_machines([self], limit, self.scheduler)
        return self.stats

    def tick_units(self, cycle: int) -> None:
        """Tick every controller for one cycle (outers, then leaves).

        The inner body of the dense reference loop: control decisions
        first so leaves observe up-to-date enables, then the datapaths.
        """
        for node in self._nodes:
            node.tick(cycle)

    def _progress_key(self) -> Tuple:
        """The watchdog's liveness key: any forward progress changes it.

        Read from counters kept where the events occur (vector issues
        in ``SimStats``, DRAM traffic in the model, FIFO flow and
        completed children in ``_progress``), so the check costs the
        same every cycle however large the machine is.
        """
        progress = self._progress
        reads, writes, pending = self.dram.progress_counts(self.tenant)
        return (self.stats.vector_issues, reads, writes, pending,
                progress.fifo_flow, progress.completed)

    def _whoami(self) -> str:
        """Tenant + region prefix for deadlock/fault attribution."""
        if self.tenant is None and self.tenant_name is None:
            return ""
        who = f"tenant {self.tenant}"
        if self.tenant_name:
            who += f" ({self.tenant_name})"
        region = self.config.region
        if region is not None:
            col0, row0, cols, rows = region
            who += f" in region {cols}x{rows}@({col0},{row0})"
        return who + ": "

    def _raise_deadlock(self, last_progress_cycle: int):
        busy = [leaf.name for leaf in self._leaves if leaf.busy]
        detail = ""
        waits: Dict[str, str] = {}
        if self.tracer is not None:
            from repro.trace.events import EventKind
            marks = self.tracer.current_marks()
            waits = {name: str(cause) for name, cause in
                     sorted(marks.items())[:12]}
            self.tracer.emit(EventKind.DEADLOCK, "machine",
                             (last_progress_cycle,))
            detail = f"; stall causes: {waits}"
        message = (
            f"{self._whoami()}no progress since cycle "
            f"{last_progress_cycle} (watchdog {self.watchdog} cycles, "
            f"now at cycle {self.cycle}); busy leaves: {busy}{detail}")
        if self.faults is not None and self.faults.fired:
            raise self.faults.fault_error(
                message, cycle=self.cycle,
                detail={"busy_leaves": busy, "stall_causes": waits,
                        "last_progress_cycle": last_progress_cycle})
        raise DeadlockError(message)

    def _epilogue(self) -> None:
        self.stats.cycles = self.cycle
        if self.tracer is not None:
            self.tracer.finalize(self.cycle)
        # write scalar results held in registers back to their DRAM cells
        for reg_name, array_name in self.dhdl.reg_outputs.items():
            value = self.mem.registers[reg_name].read()
            self.image.write_words(array_name, 0, [value])
        dram_stats = self.dram.stats_for(self.tenant)
        self.stats.dram = dram_stats
        peak_bytes_per_cycle = self.params.dram.peak_gbps  # GB/s == B/ns
        if self.cycle:
            self.stats.dram_busy_fraction = min(
                1.0, dram_stats["bytes"] / (self.cycle
                                            * peak_bytes_per_cycle))
            self.stats.dram_channels = self.dram.channel_util(
                self.tenant, self.cycle)

    # -- results ------------------------------------------------------------------
    def result(self, name: str) -> np.ndarray:
        """Final contents of one DRAM collection (logical shape)."""
        return self.image.as_array(name)

    def scalar(self, name: str):
        """Final value of one 0-d DRAM cell."""
        return self.image.scalar(name)
