"""The stepping core: one event scheduler (plus its dense reference)
driving a *set of machines that share one DRAM model*.

Plasticine has no central sequencer: tokens, credits and FIFO
backpressure leave every unit idle until the event that enables it, and
all units of the chip — whoever configured them — meet only at the DDR3
channels.  So a solo ``Machine.run`` is the one-machine case of this
loop and a multi-tenant ``Fabric.run`` hands over its tenant machines;
there is no other per-cycle loop in ``repro``.

Two interchangeable, cycle-exact modes (:data:`SCHEDULER_MODES`):

* :func:`run_dense` — the reference: every controller of every live
  machine ticks on every cycle.  Simple, obviously correct, slow.
* :class:`EventScheduler` — the default: units that report a *park*
  (a provable no-op tick with constant per-cycle accounting) leave the
  tick set and are re-armed only by the event that can unblock them
  (FIFO push/pop/close, DRAM queue room, a DRAM completion that changes
  what the unit would do, a timer, or a child activation/completion).
  When *nothing* is runnable on any machine and all DRAM channel queues
  are empty, the scheduler fast-forwards the cycle counter to the next
  known event and bulk-applies the skipped cycles' accounting.

An executed cycle costs what happens in it: the DRAM model visits only
channels that might issue (``Channel.scan_at``), and the per-machine
liveness key is read from counters bumped where the events occur
(:class:`Progress`) instead of being re-summed over the machine.

Per-cycle order (both modes): machines in admission order; per machine
due faults and tracer open; park timers; ``dram.tick()``;
``dram.deliver()``; each machine's units (outers in postorder, then
leaves) with ``dram.tenant`` focused on that machine so its bursts are
stamped; then per machine the retirement sweep, the progress/watchdog
check and — at the end of the cycle its root goes idle — retirement.
Each machine keeps its own progress key, watchdog and fault injector;
one machine's deadlock raises for the whole set.

Cycle-exactness contract
------------------------
Both modes must produce identical :class:`~repro.sim.stats.SimStats`
and identical stall-attribution counters/timelines for any program and
any mix of co-resident programs.  The event scheduler guarantees this
by construction:

* a unit parks only from inside a tick branch that performed *only*
  constant per-cycle accounting (the :class:`Park` records exactly those
  effects, which are replayed for every skipped cycle into the unit's
  own machine);
* wakeups are liberal — a spurious wake just re-runs a tick the dense
  loop would have run anyway — while every event that could change a
  parked unit's behaviour is guaranteed to wake it (FIFO waiters are
  keyed by the ``FifoSim`` object: co-tenants of one app share every
  FIFO *name*).  The one filtered wake — a burst completion reaching a
  transfer on its latency park with bursts still outstanding — is
  skipped only because that tick provably equals the park's replay;
* per-cycle processing iterates units in the dense loop's order, so
  intra-cycle interactions (who grabs the last DRAM queue slot, when a
  parent observes a child's completion) resolve identically;
* fast-forward only happens when no unit of any live machine is
  runnable *and* every DRAM channel queue is empty, so the only future
  events are completions at known cycles, parked-unit timers and
  scheduled faults.  Skipped cycles are accounted in bulk per machine
  (including the every-256-cycle scratchpad retirement sweep and the
  deadlock watchdog, which trips at the same cycle it would under the
  dense loop).

Sampled *discrete* trace events (the diagnostic ring buffer) are not
replayed for skipped cycles; attribution counters and RLE timelines —
the numbers every report is built from — stay exact.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.trace.events import StallCause

#: recognised scheduler modes (CLI + Machine/Fabric/run_batch API)
SCHEDULER_MODES = ("event", "dense")


class Park:
    """One parked unit: its wakeup set plus the exact per-cycle effects
    the dense loop would have applied while it stays blocked.

    ``until``          — absolute cycle at which the unit must re-tick
                         (pipeline drain, bank-conflict serialisation);
    ``busy_unit``      — leaf name charged ``SimStats.busy`` per cycle;
    ``counters``       — ``SimStats`` attribute names incremented by 1
                         per cycle (e.g. ``dram_stall_cycles``);
    ``fifo_counters``  — ``(FifoSim, attr)`` pairs incremented per cycle
                         (e.g. ``full_stalls``);
    ``marks``          — ``(unit_name, StallCause)`` attribution marks
                         emitted per cycle (first mark wins, as in the
                         dense loop);
    ``wake_fifos``     — ``FifoSim``s whose push/pop/close/reopen re-arm
                         the unit;
    ``wake_dram_room`` — re-arm when any DRAM channel dequeues (queue
                         room may have freed).

    Parks never subscribe to DRAM completions: the issuing unit's
    completion callback notifies the scheduler itself — unless the unit
    sits on its pure-latency park with bursts still outstanding, where
    the re-tick would only repeat what that park replays
    (``_TransferCommon._issue``).
    """

    __slots__ = ("until", "busy_unit", "counters", "fifo_counters",
                 "marks", "wake_fifos", "wake_dram_room")

    def __init__(self, until: Optional[int] = None,
                 busy_unit: Optional[str] = None,
                 counters: Tuple[str, ...] = (),
                 fifo_counters: Tuple = (),
                 marks: Tuple[Tuple[str, StallCause], ...] = (),
                 wake_fifos: Tuple = (),
                 wake_dram_room: bool = False):
        self.until = until
        self.busy_unit = busy_unit
        self.counters = counters
        self.fifo_counters = fifo_counters
        self.marks = marks
        self.wake_fifos = wake_fifos
        self.wake_dram_room = wake_dram_room


#: shared no-effect park (a wait with no per-cycle accounting)
EMPTY_PARK = Park()


def check_mode(mode: str) -> None:
    """Reject anything but :data:`SCHEDULER_MODES`."""
    if mode not in SCHEDULER_MODES:
        raise SimulationError(
            f"unknown scheduler {mode!r}; one of: "
            f"{', '.join(SCHEDULER_MODES)}")


def run_machines(machines, max_cycles: int, mode: str = "event"):
    """Run ``machines`` — all wired to ONE :class:`~repro.dram.model.
    DramModel` — to completion under scheduler ``mode``.

    Returns the :class:`EventScheduler` (executed vs fast-forwarded
    cycle split), or None under the dense reference.
    """
    check_mode(mode)
    if mode == "dense":
        run_dense(machines, max_cycles)
        return None
    sched = EventScheduler(machines)
    sched.run(max_cycles)
    return sched


def _raise_limit(live, limit: int, cycle: int):
    """Max-cycles trip at ``cycle`` with ``live`` machines unfinished:
    a typed :class:`FaultError` when an injected fault has fired on any
    of them (never an unattributed hang)."""
    message = f"exceeded max_cycles={limit}"
    if live[0].tenant is not None:
        message += f" with {[m.tenant_name for m in live]} still running"
    for machine in live:
        machine.cycle = cycle
    for machine in live:
        faults = machine.faults
        if faults is not None and faults.fired:
            raise faults.fault_error(message, cycle=cycle)
    raise SimulationError(message)


def _open_cycle(machine, cycle: int) -> None:
    """One machine's start-of-cycle duties: due faults, tracer open."""
    machine.cycle = cycle
    faults = machine.faults
    if faults is not None and faults.next_cycle <= cycle:
        faults.apply(cycle)
    if machine.tracer is not None:
        machine.tracer.begin_cycle(cycle)


class Progress:
    """One machine's liveness counters that no single object owns,
    bumped where the events occur so the per-cycle watchdog key
    (``Machine._progress_key``) reads them instead of re-summing the
    machine:

    ``fifo_flow``  — words pushed plus words popped over every FIFO;
    ``completed``  — the sum of every outer controller's per-child
                     ``_completed`` list (an activation resets its
                     list, so this goes down as well as up).
    """

    __slots__ = ("fifo_flow", "completed")

    def __init__(self):
        self.fifo_flow = 0
        self.completed = 0


def _close_cycle(machine, cycle: int) -> bool:
    """One machine's end-of-cycle duties: the every-256-cycle scratchpad
    retirement sweep, the progress/watchdog check, tracer close.  True
    when the machine's root went idle this cycle: it is finished
    (``stats.cycles`` is this cycle) and leaves every later pass."""
    if cycle % 256 == 0:
        machine.mem.retire_old()
    trace = machine.tracer
    key = machine._progress_key()
    if key != machine._last_key:
        machine._last_key = key
        machine._last_progress = cycle
        if trace is not None:
            trace.progress(cycle)
    elif cycle - machine._last_progress > machine.watchdog:
        machine._raise_deadlock(machine._last_progress)
    if trace is not None:
        trace.end_cycle()
    if machine.root.busy:
        return False
    machine.finished = True
    machine._epilogue()
    return True


def run_dense(machines, max_cycles: int) -> None:
    """The reference dense loop: tick everything, every cycle."""
    dram = machines[0].dram
    live = list(machines)
    for machine in live:
        machine.root.start({}, ())
    cycle = dram.cycle
    while live:
        cycle += 1
        if cycle > max_cycles:
            _raise_limit(live, max_cycles, cycle)
        for machine in live:
            _open_cycle(machine, cycle)
        dram.tick()
        dram.deliver()
        for machine in live:
            dram.tenant = machine.tenant
            machine.tick_units(cycle)
        dram.tenant = None
        live = [m for m in live if not _close_cycle(m, cycle)]


#: unit states under the event scheduler
_IDLE, _RUNNING, _PARKED = 0, 1, 2


class EventScheduler:
    """Event-driven wakeup scheduler over machines sharing one DRAM
    model (cycle-exact vs the dense loop)."""

    def __init__(self, machines):
        self.machines = list(machines)
        self.dram = self.machines[0].dram
        #: child sim -> parent OuterControllerSim (completion wakeups)
        self._parent: Dict[int, object] = {}
        for machine in self.machines:
            for outer in machine._outers:
                for child in outer.children:
                    self._parent[id(child)] = outer
            for node in machine._nodes:
                node._sched = self
                node._sched_state = _IDLE
                node._park = None
            for fifo in machine.fifos.values():
                fifo.sched = self
        for channel in self.dram.channels:
            channel.on_dequeue = self._dram_room_event
        self.num_running = 0
        self._fifo_waiters: Dict[object, Set] = {}
        self._room_waiters: Set = set()
        self._timers: List[Tuple[int, int, object]] = []
        self._timer_seq = 0
        #: diagnostics: executed cycles vs fast-forwarded cycles
        self.executed_cycles = 0
        self.fast_forwarded_cycles = 0

    # -- wakeup plumbing (called from units, FIFOs, and DRAM) ------------------
    def node_started(self, node) -> None:
        """A parent activated ``node``: it joins the tick set."""
        state = node._sched_state
        if state == _RUNNING:
            return
        if state == _PARKED:
            self._unsubscribe(node)
        node._park = None
        node._sched_state = _RUNNING
        self.num_running += 1

    def node_event(self, node) -> None:
        """Something happened *to* a unit (a DRAM completion): re-arm."""
        self._wake(node)

    def fifo_event(self, fifo) -> None:
        """A FIFO changed (push/pop/close/reopen): wake its waiters."""
        waiters = self._fifo_waiters.get(fifo)
        if waiters:
            for node in list(waiters):
                self._wake(node)

    def _dram_room_event(self) -> None:
        """A channel dequeued a request: queue room may have freed
        (for any machine — the channels are shared)."""
        if self._room_waiters:
            for node in list(self._room_waiters):
                self._wake(node)

    def _wake(self, node) -> None:
        if node._sched_state != _PARKED:
            return
        self._unsubscribe(node)
        node._park = None
        node._sched_state = _RUNNING
        self.num_running += 1

    def _unsubscribe(self, node) -> None:
        park = node._park
        if park is None:
            return
        for fifo in park.wake_fifos:
            waiters = self._fifo_waiters.get(fifo)
            if waiters is not None:
                waiters.discard(node)
        if park.wake_dram_room:
            self._room_waiters.discard(node)
        # timers are invalidated lazily (checked when popped)

    def _park_node(self, node) -> None:
        park = node._park
        node._sched_state = _PARKED
        self.num_running -= 1
        for fifo in park.wake_fifos:
            self._fifo_waiters.setdefault(fifo, set()).add(node)
        if park.wake_dram_room:
            self._room_waiters.add(node)
        if park.until is not None:
            heapq.heappush(self._timers,
                           (park.until, self._timer_seq, node))
            self._timer_seq += 1

    def _finish_node(self, node) -> None:
        node._sched_state = _IDLE
        self.num_running -= 1
        parent = self._parent.get(id(node))
        if parent is not None:
            self._wake(parent)

    # -- fast-forward -----------------------------------------------------------
    def _next_timer(self) -> Optional[int]:
        """Earliest valid park timer (lazily discarding stale entries)."""
        timers = self._timers
        while timers:
            until, _, node = timers[0]
            park = node._park
            if (node._sched_state == _PARKED and park is not None
                    and park.until == until):
                return until
            heapq.heappop(timers)
        return None

    def _fast_forward(self, cycle: int, live, max_cycles: int) -> int:
        """No unit of any live machine is runnable: jump towards the
        next known event.

        Returns the (possibly advanced) current cycle; the main loop
        resumes normal processing at the cycle after it.  Only legal to
        skip cycles while every DRAM channel queue is empty — queued
        requests make the FR-FCFS schedule cycle-sensitive, so those
        regimes step cycle by cycle (with only the DRAM model active).
        """
        dram = self.dram
        for channel in dram.channels:
            if channel.queue:
                return cycle
        completion = dram.next_completion()
        if completion is not None and completion <= cycle + 1:
            return cycle        # due next cycle: nothing to jump over
        target = max_cycles + 1
        for machine in live:
            # nothing pending: emulate this machine's watchdog spin
            trip = machine._last_progress + machine.watchdog + 1
            if trip < target:
                target = trip
            # never jump over a scheduled fault event: resume normal
            # processing at its exact cycle so injection stays
            # deterministic
            faults = machine.faults
            if faults is not None and faults.next_cycle < target:
                target = faults.next_cycle
        timer = self._next_timer()
        if timer is not None and timer < target:
            target = timer
        if completion is not None and completion < target:
            target = completion
        skipped = target - 1 - cycle
        if skipped <= 0:
            return cycle
        # the dense loop's every-256-cycle retirement sweep falls inside
        # the skipped span: run it (once is equivalent — no unit writes
        # between the skipped boundaries)
        sweep = (cycle + skipped) // 256 > cycle // 256
        for machine in live:
            stats = machine.stats
            trace = machine.tracer
            #: per-unit attribution for the span, in dense tick order
            #: (outers before leaves, first mark wins)
            cause_map: Dict[str, StallCause] = {}
            for node in machine._nodes:
                if node._sched_state != _PARKED:
                    continue
                park = node._park
                if park.busy_unit is not None:
                    stats.busy(park.busy_unit, skipped)
                for attr in park.counters:
                    setattr(stats, attr, getattr(stats, attr) + skipped)
                for fifo, attr in park.fifo_counters:
                    setattr(fifo, attr, getattr(fifo, attr) + skipped)
                if trace is not None:
                    for unit, cause in park.marks:
                        cause_map.setdefault(unit, cause)
            if trace is not None:
                trace.account_span(cause_map, cycle + 1, skipped)
            if sweep:
                machine.mem.retire_old()
        dram.advance_to(cycle + skipped)
        self.fast_forwarded_cycles += skipped
        return cycle + skipped

    # -- main loop ----------------------------------------------------------------
    def run(self, max_cycles: int) -> None:
        """Step every machine to completion."""
        live = list(self.machines)
        for machine in live:
            machine.root.start({}, ())
            self.node_started(machine.root)
        dram = self.dram
        dram_tick = dram.tick
        dram_deliver = dram.deliver
        timers = self._timers
        cycle = dram.cycle
        while live:
            cycle += 1
            if cycle > max_cycles:
                _raise_limit(live, max_cycles, cycle)
            self.executed_cycles += 1
            for machine in live:
                _open_cycle(machine, cycle)
            while timers and timers[0][0] <= cycle:
                until, _, node = heapq.heappop(timers)
                park = node._park
                if (node._sched_state == _PARKED and park is not None
                        and park.until == until):
                    self._wake(node)
            dram_tick()      # may free queue room -> wakes waiters
            dram_deliver()   # completions -> wake issuing units
            for machine in live:
                dram.tenant = machine.tenant
                trace = machine.tracer
                stats = machine.stats
                for outer in machine._outers:
                    state = outer._sched_state
                    if state == _RUNNING:
                        outer._park = None
                        outer.tick(cycle)
                        if not outer.busy:
                            self._finish_node(outer)
                        elif outer._park is not None:
                            self._park_node(outer)
                    elif state == _PARKED and trace is not None:
                        for unit, cause in outer._park.marks:
                            trace.mark(unit, cause)
                for leaf in machine._leaves:
                    state = leaf._sched_state
                    if state == _RUNNING:
                        leaf._park = None
                        leaf.tick(cycle)
                        if not leaf.busy:
                            self._finish_node(leaf)
                        elif leaf._park is not None:
                            self._park_node(leaf)
                    elif state == _PARKED:
                        park = leaf._park
                        if park.busy_unit is not None:
                            stats.busy(park.busy_unit)
                        for attr in park.counters:
                            setattr(stats, attr, getattr(stats, attr) + 1)
                        for fifo, attr in park.fifo_counters:
                            setattr(fifo, attr, getattr(fifo, attr) + 1)
                        if trace is not None:
                            for unit, cause in park.marks:
                                trace.mark(unit, cause)
            dram.tenant = None
            live = [m for m in live if not _close_cycle(m, cycle)]
            if self.num_running == 0 and live:
                cycle = self._fast_forward(cycle, live, max_cycles)
