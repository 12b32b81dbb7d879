"""The fault injector: applies a plan's events inside a running machine.

One :class:`FaultInjector` is attached per :class:`~repro.sim.machine.
Machine` (``Machine(..., fault_plan=...)``).  Both cycle loops (dense
and event) call :meth:`apply` once per cycle — gated on
``machine.faults is not None`` so the no-fault hot path is untouched —
and the event scheduler additionally caps its fast-forward jumps at
:attr:`next_cycle` so events fire at their exact cycle.

Injection semantics
-------------------
``unit_fail``     the leaf's ``tick`` becomes a no-op (``fail``): the
                  unit stops responding, and a transfer's stream (tile,
                  gather or scatter) stops with it.  The machine's
                  existing progress-key watchdog then trips
                  deterministically and
                  ``_raise_deadlock`` converts the trip into a typed
                  :class:`~repro.errors.FaultError`.
``link_degrade``  the compute leaf's timing gains ``extra`` cycles of
                  pipeline drain (a private copy — the shared artifact
                  config is never mutated).
``dram_slow``     the channel's ``extra_latency`` adds ``extra`` cycles
                  to every burst issued from the fault cycle on.
``dram_corrupt``  one word of one DRAM array is bit-flipped in place.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional

from repro.errors import FaultError
from repro.faults.plan import FaultEvent, FaultPlan

#: sentinel "no pending event" cycle (compares greater than any cycle)
NEVER = 1 << 62


class FaultInjector:
    """Applies one plan's events to one machine at their exact cycles."""

    def __init__(self, plan: FaultPlan, machine):
        self.plan = plan
        self.machine = machine
        self._pending: List[FaultEvent] = list(plan.events)
        self._leaf_by_name = {leaf.name: leaf
                              for leaf in machine._leaves}
        #: events applied so far, in firing order
        self.fired: List[FaultEvent] = []
        #: unit name -> the unit_fail event that killed it
        self.killed: Dict[str, FaultEvent] = {}

    @property
    def next_cycle(self) -> int:
        """Cycle of the earliest unfired event (NEVER when exhausted)."""
        return self._pending[0].cycle if self._pending else NEVER

    # -- firing -----------------------------------------------------------------
    def apply(self, cycle: int) -> None:
        """Fire every event due at or before ``cycle``."""
        while self._pending and self._pending[0].cycle <= cycle:
            event = self._pending.pop(0)
            self._fire(event)
            self.fired.append(event)

    def _fire(self, event: FaultEvent) -> None:
        machine = self.machine
        if event.kind == "unit_fail":
            leaf = self._leaf_by_name.get(event.unit)
            if leaf is not None:
                leaf.fail()
                self.killed[event.unit] = event
                if leaf._sched is not None:
                    # a parked unit would go on being charged its park,
                    # which the dead tick no longer names: end the park
                    # here, as the dense loop's dead ticks do
                    leaf._sched.node_event(leaf)
        elif event.kind == "link_degrade":
            leaf = self._leaf_by_name.get(event.unit)
            timing = getattr(leaf, "timing", None)
            if timing is not None:
                leaf.timing = _dc_replace(
                    timing,
                    pipeline_depth=timing.pipeline_depth + event.extra)
        elif event.kind == "dram_slow":
            channels = machine.dram.channels
            if 0 <= event.channel < len(channels):
                channels[event.channel].extra_latency += event.extra
        elif event.kind == "dram_corrupt":
            if event.array in machine.image.buffers:
                machine.image.corrupt_word(event.array, event.word,
                                           event.xor_mask)

    # -- attribution ------------------------------------------------------------
    def blamed_event(self) -> Optional[FaultEvent]:
        """The fired event a hang should be attributed to.

        A killed unit that is still busy is the prime suspect; failing
        that, the earliest fired event.
        """
        for name, event in self.killed.items():
            leaf = self._leaf_by_name.get(name)
            if leaf is not None and leaf.busy:
                return event
        return self.fired[0] if self.fired else None

    def fault_error(self, message: str, *, cycle: int,
                    detail=None) -> FaultError:
        """A typed, attributed error for a watchdog / limit trip."""
        machine = self.machine
        event = self.blamed_event()
        unit = kind = None
        sites: tuple = ()
        if event is not None:
            kind = event.kind
            unit = (event.unit or
                    (f"ch{event.channel}" if event.kind == "dram_slow"
                     else event.array or None))
            if event.unit:
                sites = machine.config.sites.get(event.unit, ())
            message = (f"{message}; injected fault: "
                       f"{event.describe()}"
                       + (f" at sites {list(sites)}" if sites else "")
                       + f"; detected at cycle {cycle}")
            cycle = event.cycle
        return FaultError(message, cycle=cycle, unit=unit, sites=sites,
                          kind=kind, tenant=machine.tenant_name,
                          region=machine.config.region, detail=detail)
