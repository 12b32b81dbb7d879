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
  run queue and are re-armed only by the event that can unblock them
  (FIFO push/pop/close, DRAM queue room, a DRAM completion that changes
  what the unit would do, a timer, or a child activation/completion).
  When *nothing* is runnable on any machine and all DRAM channel queues
  are empty, the scheduler fast-forwards the cycle counter to the next
  event a unit observes, delivering on the way the completions that
  wake nobody.

An executed cycle costs what happens in it, not what the machines hold:
the unit phase pops running nodes from a heap of dense positions and
visits no other; a parked node is charged once, ``span x effect``, when
its park ends (jumped-over cycles are inside the span, so a jump
charges nothing); the DRAM model visits only channels that might issue
(``Channel.scan_at``); and the per-machine liveness key is read from
counters bumped where the events occur (:class:`Progress`) instead of
being re-summed over the machine — and only for a machine the cycle
touched (a unit of it ticked, or a burst of it was delivered).

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

* a waiting cycle is written down once, as a :class:`Park`: a blocked
  leaf tick does no accounting of its own — ``_LeafCommon._wait``
  charges the park that describes the cycle through :meth:`Park.charge`,
  in both modes — and this core charges the rest of the span through
  the same routine (when the park ends, or when an error exit flushes
  it).  The modes agree iff the tick would have named the same park on
  every cycle of the span, the one property a park must have
  (docs/ARCHITECTURE.md §5 lists the ticks that may leave one);
* wakeups are liberal — a spurious wake just re-runs a tick the dense
  loop would have run anyway — while every event that could change a
  parked unit's behaviour is guaranteed to wake it (FIFO waiters are
  keyed by the ``FifoSim`` object: co-tenants of one app share every
  FIFO *name*).  The one filtered wake — a burst completion reaching a
  transfer on its latency park with bursts still outstanding — is
  skipped only because that tick provably equals what the park
  charges;
* running units tick in the dense loop's order — every node has its
  dense position, and one that wakes or starts mid-cycle joins this
  cycle's queue if the unit phase has not reached its position yet and
  the next cycle's otherwise — so intra-cycle interactions (who grabs
  the last DRAM queue slot, when a parent observes a child's
  completion) resolve identically;
* fast-forward only happens when no unit of any live machine is
  runnable *and* every DRAM channel queue is empty, so the only future
  events are completions at known cycles, parked-unit timers and
  scheduled faults.  A completion the wake filter would not pass on is
  delivered inside the jump at its own cycle; the jump stops at the
  first completion that wakes a unit, runs the every-256-cycle
  scratchpad retirement sweeps where the dense loop runs them, and
  stops short of the deadlock watchdog, which trips at the same cycle
  it would under the dense loop.

Tracing is the one per-unit cost kept: a parked unit's attribution
marks are emitted once per executed cycle and handed to
``Tracer.account_span`` for a jump, so counters and RLE timelines — the
numbers every report is built from — stay exact.  Sampled *discrete*
trace events (the diagnostic ring buffer) reflect executed ticks only.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.trace.events import StallCause

#: recognised scheduler modes (CLI + Machine/Fabric/run_batch API)
SCHEDULER_MODES = ("event", "dense")


class Park:
    """One waiting cycle of a unit, repeated until a wakeup: the wakeup
    set plus everything the cycle costs.  Only :meth:`charge` applies
    the numeric effects — once for the blocked tick that names the park
    (``_LeafCommon._wait``, both modes) and ``span x effect`` when the
    park ends (``EventScheduler._charge``); marks only matter to a tracer.

    ``until``          — absolute cycle at which the unit must re-tick
                         (pipeline drain, bank-conflict serialisation);
    ``busy_unit``      — leaf name charged ``SimStats.busy`` per cycle;
    ``counters``       — ``SimStats`` attribute names incremented by 1
                         per cycle (e.g. ``dram_stall_cycles``);
    ``fifo_counters``  — ``(FifoSim, attr)`` pairs incremented per cycle
                         (e.g. ``full_stalls``);
    ``marks``          — ``(unit_name, StallCause)`` attribution marks
                         a traced machine emits per cycle (first mark
                         wins, as in the dense loop);
    ``wake_fifos``     — ``FifoSim``s whose push/pop/close/reopen re-arm
                         the unit;
    ``wake_dram_room`` — re-arm when any DRAM channel dequeues (queue
                         room may have freed).

    Parks never subscribe to DRAM completions: the issuing unit's
    completion callback notifies the scheduler itself — unless the unit
    sits on its pure-latency park with bursts still outstanding, where
    the re-tick would only repeat what that park charges
    (``_TransferCommon._complete``; such a completion may be delivered
    inside a fast-forward, :meth:`EventScheduler._fast_forward`).

    The per-cycle effect need not be constant.  A subclass may override
    :meth:`charge` to apply a *scheduled* one — ``repro.sim.leaves.
    _IssuePark``, a compute leaf following a block whose every issue
    cycle is known — as long as ``charge`` stays the only way its cycles are
    accounted: this core and ``_wait`` hand it spans and look no
    further.
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

    def charge(self, stats, span: int) -> None:
        """Apply ``span`` cycles of this wait's numeric effects (to the
        ``SimStats`` of the unit's own machine)."""
        if self.busy_unit is not None:
            stats.busy(self.busy_unit, span)
        for attr in self.counters:
            setattr(stats, attr, getattr(stats, attr) + span)
        for fifo, attr in self.fifo_counters:
            setattr(fifo, attr, getattr(fifo, attr) + span)


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
    (``stats.cycles`` is this cycle) and leaves every later pass.

    The progress key is read only when this cycle touched the machine
    (``machine._touched``: a unit of it ticked or a burst of it was
    delivered).  Nothing else moves it — every term is bumped by a
    tick of the machine's own units or by a delivery to its tenant — so
    an untouched machine keeps its last key and only checks the
    watchdog."""
    if cycle % 256 == 0:
        machine.mem.retire_old()
    trace = machine.tracer
    key = machine._progress_key() if machine._touched == cycle \
        else machine._last_key
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
            machine._touched = cycle
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
        #: every node at its dense position: machines in admission
        #: order, per machine outers in postorder, then leaves
        self._nodes: List = []
        for machine in self.machines:
            for outer in machine._outers:
                for child in outer.children:
                    self._parent[id(child)] = outer
            for node in machine._nodes:
                node._sched = self
                node._sched_state = _IDLE
                node._park = None
                node._pos = len(self._nodes)
                node._machine = machine
                node._parked_at = 0
                self._nodes.append(node)
            for fifo in machine.fifos.values():
                fifo.sched = self
        for channel in self.dram.channels:
            channel.on_dequeue = self._dram_room_event
        #: machines whose parked units still owe a mark per cycle
        self._traced = [m for m in self.machines if m.tracer is not None]
        #: a delivered burst's machine, by the tenant stamped on it
        #: (co-resident machines have distinct tenant ids; a solo
        #: machine's bursts carry None)
        self._by_tenant = {m.tenant: m for m in self.machines}
        #: the run queue, as dense positions: running nodes the current
        #: cycle's unit phase has yet to reach (a min-heap), and those
        #: it has passed, which tick next cycle.  A node is in exactly
        #: one of {``_heap``, ``_next``, parked, idle} — or is the one
        #: being ticked
        self._heap: List[int] = []
        self._next: List[int] = []
        #: position being ticked; -1 before the unit phase (a node woken
        #: by a timer or by DRAM is ahead of everything: it ticks this
        #: cycle), ``len(_nodes)`` after it
        self._pos = -1
        #: the cycle being executed (after a jump: its last cycle)
        self._cycle = self.dram.cycle
        self._fifo_waiters: Dict[object, Set] = {}
        self._room_waiters: Set = set()
        self._timers: List[Tuple[int, int, object]] = []
        self._timer_seq = 0
        #: diagnostics: executed cycles vs fast-forwarded cycles
        self.executed_cycles = 0
        self.fast_forwarded_cycles = 0

    # -- wakeup plumbing (called from units, FIFOs, and DRAM) ------------------
    def node_started(self, node) -> None:
        """A parent activated ``node``: it joins the run queue."""
        state = node._sched_state
        if state == _RUNNING:
            return
        if state == _PARKED:
            self._end_park(node)
        self._enqueue(node)

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
        self._end_park(node)
        self._enqueue(node)

    def _enqueue(self, node) -> None:
        """``node`` becomes runnable where the dense scan would meet it:
        this cycle if the unit phase has not reached its position yet,
        next cycle otherwise."""
        node._sched_state = _RUNNING
        pos = node._pos
        if pos > self._pos:
            heapq.heappush(self._heap, pos)
        else:
            self._next.append(pos)

    def _park_node(self, node) -> None:
        """``node``'s tick, which did this cycle's accounting itself,
        left a park: the span it will be charged for starts here."""
        park = node._park
        node._sched_state = _PARKED
        node._parked_at = self._cycle
        for fifo in park.wake_fifos:
            self._fifo_waiters.setdefault(fifo, set()).add(node)
        if park.wake_dram_room:
            self._room_waiters.add(node)
        if park.until is not None:
            heapq.heappush(self._timers,
                           (park.until, self._timer_seq, node))
            self._timer_seq += 1

    def _end_park(self, node) -> None:
        """``node``'s park ends (a wake or a restart): drop its
        subscriptions and charge the span it covered."""
        park = node._park
        for fifo in park.wake_fifos:
            waiters = self._fifo_waiters.get(fifo)
            if waiters is not None:
                waiters.discard(node)
        if park.wake_dram_room:
            self._room_waiters.discard(node)
        # timers are invalidated lazily (checked when popped)
        self._charge(node)
        if node._pos <= self._pos and node._parked_at < self._cycle:
            # the unit phase has passed the node, so it does not tick
            # in this cycle and ``_mark_parked`` will not find it
            # parked: this cycle's marks are owed now
            trace = node._machine.tracer
            if trace is not None:
                for unit, cause in park.marks:
                    trace.mark(unit, cause)
        node._park = None

    def _charge(self, node) -> None:
        """Charge a park's numeric effects, ``span x effect``: what the
        dense loop accounted tick by tick since the park began.  The
        span runs through the current cycle, unless the unit phase has
        yet to reach the node — then the node's own tick (or, at an
        error exit, nothing) accounts for this cycle.  Fast-forwarded
        cycles lie inside the span like any other."""
        span = self._cycle - node._parked_at
        if node._pos > self._pos:
            span -= 1
        if span > 0:
            node._park.charge(node._machine.stats, span)

    def _mark_parked(self, cycle: int) -> None:
        """Traced machines only: every unit parked since before
        ``cycle`` emits the marks its blocked tick would have.  No
        other node marks the same unit in the same cycle — a parked
        leaf is busy, so no ancestor attributes a wait to it, and a
        parked outer names only leaves of subtrees that stay idle until
        it ticks again — so "first mark wins" does not depend on these
        marks coming after the ticks instead of at dense position."""
        for machine in self._traced:
            if machine.finished:
                continue
            mark = machine.tracer.mark
            for node in machine._nodes:
                if (node._sched_state == _PARKED
                        and node._parked_at != cycle):
                    for unit, cause in node._park.marks:
                        mark(unit, cause)

    def _finish_node(self, node) -> None:
        node._sched_state = _IDLE
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

    def _horizon(self, live, max_cycles: int) -> int:
        """The first cycle a jump must execute: the earliest valid park
        timer, scheduled fault event (injection stays at its exact
        cycle), watchdog trip (the minimum over live machines: a trip
        raises at the cycle the dense loop's would) or cycle limit."""
        target = max_cycles + 1
        for machine in live:
            trip = machine._last_progress + machine.watchdog + 1
            if trip < target:
                target = trip
            faults = machine.faults
            if faults is not None and faults.next_cycle < target:
                target = faults.next_cycle
        timer = self._next_timer()
        if timer is not None and timer < target:
            target = timer
        return target

    @staticmethod
    def _silent(requests) -> bool:
        """True when delivering ``requests`` — every completion due in
        one cycle — wakes no unit: each carries no callback or reaches
        a transfer engine parked on its own ``_park_latency`` that still
        has a burst outstanding after all of its completions in the
        group (the wake filter of ``_TransferCommon._complete``, rule 1
        of ARCHITECTURE §5)."""
        if len(requests) == 1:
            callback = requests[0].callback
            if callback is None:
                return True
            engine = getattr(callback, "__self__", None)
            latency = getattr(engine, "_park_latency", None)
            return (latency is not None and engine._park is latency
                    and engine._outstanding > 1)
        counts = {}
        for request in requests:
            callback = request.callback
            if callback is None:
                continue
            engine = getattr(callback, "__self__", None)
            latency = getattr(engine, "_park_latency", None)
            if latency is None or engine._park is not latency:
                return False
            counts[engine] = counts.get(engine, 0) + 1
        for engine, count in counts.items():
            if engine._outstanding <= count:
                return False
        return True

    def _pass(self, live, done: int, last: int) -> None:
        """Cycles ``done + 1 .. last`` pass inside a jump with no unit
        ticking: traced machines account the parked units' marks for
        them, and the every-256-cycle retirement sweep runs if they
        cross a boundary (once is equivalent: nothing writes a
        scratchpad between two boundaries of one pass).  Nothing
        numeric is charged: the cycles lie inside the span of every
        park open across them."""
        span = last - done
        if span <= 0:
            return
        for machine in live:
            trace = machine.tracer
            if trace is not None:
                #: per-unit attribution for the span, in dense tick
                #: order (outers before leaves, first mark wins)
                cause_map: Dict[str, StallCause] = {}
                for node in machine._nodes:
                    if node._sched_state == _PARKED:
                        for unit, cause in node._park.marks:
                            cause_map.setdefault(unit, cause)
                trace.account_span(cause_map, done + 1, span)
        if last // 256 > done // 256:
            for machine in live:
                machine.mem.retire_old()

    def _fast_forward(self, cycle: int, live, max_cycles: int) -> int:
        """No unit of any live machine is runnable: jump towards the
        next event a unit observes.

        Returns the (possibly advanced) current cycle; the main loop
        resumes normal processing at the cycle after it.  Only legal to
        skip cycles while every DRAM channel queue is empty — queued
        requests make the FR-FCFS schedule cycle-sensitive, so those
        regimes step cycle by cycle (with only the DRAM model active).

        A completion that wakes nobody (:meth:`_silent`) does not end
        the jump.  It is delivered inside it, at its own cycle and in
        arrival order, as that executed cycle would: the clocks stand
        at that cycle with the unit phase ahead (an ``_on_burst`` error
        names the cycle, and the error exit charges every park through
        the cycle before), ``deliver`` keeps the per-tenant tallies,
        and the machine it reaches has progress there.  The jump then
        goes on to the next completion, park timer, fault event,
        watchdog trip or cycle limit.  Silence is tested on the head
        cycle's completions before anything else, so a jump that cannot
        start costs one look at them.

        A delivery always moves its machine's progress key (its pending
        count falls), and nothing else in a jump moves any key, so each
        such machine reads its key once, after the last delivery.

        A jump charges nothing numeric: every skipped cycle lies inside
        the span of each park that is open across it (``_charge``).
        """
        dram = self.dram
        for channel in dram.channels:
            if channel.queue:
                return cycle
        due = dram.next_completion()
        silent = due is not None and self._silent(dram.maturing())
        if due is not None and due <= cycle + 1 and not silent:
            return cycle        # due next cycle: nothing to jump over
        bound = self._horizon(live, max_cycles)
        by_tenant = self._by_tenant
        done = cycle            # the cycles through ``done`` are closed
        while silent:
            if due >= bound:
                # a delivery moved its machine's watchdog trip on
                bound = self._horizon(live, max_cycles)
                if due >= bound:
                    break
            if self._traced or (due - 1) // 256 > done // 256:
                self._pass(live, done, due - 1)
            self._cycle = due
            self._pos = -1
            for machine in live:
                machine.cycle = due
            dram.advance_to(due)
            for request in dram.deliver():
                machine = by_tenant[request.tenant]
                machine._last_progress = due
                if machine.tracer is not None:
                    machine.tracer.progress(due)
            # ``due`` itself still owes its marks and its sweep
            done = due - 1
            due = dram.next_completion()
            silent = due is not None and self._silent(dram.maturing())
        last = (bound if due is None or bound < due else due) - 1
        if last <= cycle:
            return cycle
        for machine in live:
            if machine._last_progress > cycle:
                machine._last_key = machine._progress_key()
        self._pass(live, done, last)
        self._pos = len(self._nodes)
        dram.advance_to(last)
        self.fast_forwarded_cycles += last - cycle
        self._cycle = last
        return last

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
        nodes = self._nodes
        heap = self._heap
        passed = self._next
        heappop = heapq.heappop
        by_tenant = self._by_tenant
        cycle = dram.cycle
        try:
            while live:
                cycle += 1
                if cycle > max_cycles:
                    _raise_limit(live, max_cycles, cycle)
                self.executed_cycles += 1
                self._cycle = cycle
                self._pos = -1
                if passed:
                    heap += passed
                    del passed[:]
                    heapq.heapify(heap)
                for machine in live:
                    _open_cycle(machine, cycle)
                while timers and timers[0][0] <= cycle:
                    until, _, node = heappop(timers)
                    park = node._park
                    if (node._sched_state == _PARKED and park is not None
                            and park.until == until):
                        self._wake(node)
                dram_tick()      # may free queue room -> wakes waiters
                # completions -> wake issuing units
                for request in dram_deliver():
                    by_tenant[request.tenant]._touched = cycle
                # positions rise through the phase, so each machine's
                # nodes tick in one run
                machine = None
                while heap:
                    self._pos = pos = heappop(heap)
                    node = nodes[pos]
                    if node._machine is not machine:
                        machine = node._machine
                        machine._touched = cycle
                        dram.tenant = machine.tenant
                    node._park = None
                    node.tick(cycle)
                    if not node.busy:
                        self._finish_node(node)
                    elif node._park is not None:
                        self._park_node(node)
                    else:
                        passed.append(pos)
                self._pos = len(nodes)
                dram.tenant = None
                if self._traced:
                    self._mark_parked(cycle)
                still = [m for m in live if not _close_cycle(m, cycle)]
                if len(still) != len(live):
                    # a machine's root went idle, so every node under
                    # it has finished: no park is left to charge
                    assert not any(node._sched_state == _PARKED
                                   for machine in live if machine.finished
                                   for node in machine._nodes)
                    live = still
                if not passed and live:
                    cycle = self._fast_forward(cycle, live, max_cycles)
        finally:
            # an error exit (cycle limit, fault, watchdog, a unit's own
            # exception) leaves parks open: charge them up to where the
            # dense loop had got to.  A completed run has none left.
            for node in nodes:
                if node._sched_state == _PARKED:
                    self._charge(node)
