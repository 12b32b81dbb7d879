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
  A tile, gather or scatter engine is a stream the DRAM model pulls:
  its admit step runs at the engine's dense position while the engine
  waits.
  When *nothing* is runnable on any machine, the memory system runs
  alone up to the next event a unit observes
  (``EventScheduler._run_alone``): it steps the cycles in which streams
  admit or channels hold queued requests, and once only completions
  are left it delivers every one that wakes nobody in one pass, up to
  the first that wakes a unit.

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
leaves; a transfer's stream admits at its engine's place) with
``dram.tenant`` focused on that machine so its bursts are stamped; then
per machine the retirement sweep, the progress/watchdog check and — at
the end of the cycle its root goes idle — retirement.
Each machine keeps its own progress key, watchdog and fault injector;
one machine's deadlock raises for the whole set.

Cycle-exactness contract
------------------------
Both modes must produce identical :class:`~repro.sim.stats.SimStats`
and stall-attribution counters/timelines for any program and any mix of
co-resident programs (docs/ARCHITECTURE.md §5 gives the rules in full):

* a waiting cycle is written down once, as a :class:`Park`, charged
  through :meth:`Park.charge` by the blocked tick that names it (both
  modes) and, for the rest of its span, by this core;
* wakeups are liberal, and every event that could change a parked
  unit's behaviour wakes it — but for one filter: a burst completion
  reaching a transfer on its latency park with bursts still
  outstanding, whose tick provably equals what the park charges;
* running units tick in the dense loop's order (every node has its
  dense position), so intra-cycle interactions resolve identically;
* the memory system runs alone only when no unit is runnable (and,
  while anything is queued or streaming, none waits on queue room): up
  to the next timer, fault, watchdog trip or waking completion —
  known from what each transfer engine keeps
  (``DramModel.first_wake``) — only channel issues, stream admits and
  completions nobody observes happen, and the retirement sweep runs
  where the dense loop runs it.

Tracing is the one per-unit cost kept: a parked unit's attribution
marks are emitted once per executed or stepped cycle and handed to
``Tracer.account_span`` for a skipped span, so counters and RLE
timelines — the numbers every report is built from — stay exact.
Sampled *discrete* trace events (the diagnostic ring buffer) reflect
executed ticks only.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

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
    completion callback notifies the scheduler itself — unless its wake
    filter says the re-tick would only repeat what the park charges
    (``_StreamCommon._quiet``; such a completion may be delivered
    while the memory system runs alone,
    :meth:`EventScheduler._fast_forward`).

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
    cycle split), or None under the dense reference.  Numpy's float
    warnings are off throughout: the kernel's typed checks are the faults.
    """
    check_mode(mode)
    with np.errstate(all="ignore"):
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
        # the dequeue hook is armed while a unit waits on queue room
        self._arm_room(None)
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
        #: diagnostics: executed cycles vs fast-forwarded cycles, and
        #: the fast-forwarded cycles the memory system stepped
        #: (``tick``, ``deliver``, admit steps) while it ran alone
        self.executed_cycles = 0
        self.fast_forwarded_cycles = 0
        self.memory_steps = 0

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
        for node in list(self._room_waiters):
            self._wake(node)

    def _arm_room(self, hook) -> None:
        """Every channel calls ``hook`` (None: nothing) on a dequeue."""
        for channel in self.dram.channels:
            channel.on_dequeue = hook

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
            if not self._room_waiters:
                self._arm_room(self._dram_room_event)
            self._room_waiters.add(node)
        if park.until is not None:
            heapq.heappush(self._timers,
                           (park.until, self._timer_seq, node))
            self._timer_seq += 1

    def repark(self, node, park, cycle: int) -> None:
        """A parked streaming engine's stream drained at ``cycle``: it
        waits on ``park`` from the next cycle on.  The stream's wait
        charged nothing (its admit steps accounted every cycle) and,
        like ``park``, subscribes to nothing, so the swap is the whole
        hand-over."""
        node._park = park
        node._parked_at = cycle

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
            if not self._room_waiters:
                self._arm_room(None)
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

    def _fast_forward(self, cycle: int, live, max_cycles: int) -> int:
        """No unit of any live machine is runnable: let the memory
        system run the cycles no unit observes (:meth:`_run_alone`),
        with no unit phase and no ``_close_cycle``.  Returns the last
        cycle run; the main loop resumes at the one after it.

        The run stops short of a park timer, a fault event, a watchdog
        trip or the cycle limit (:meth:`_horizon`, re-read when reached:
        progress moves a trip on) and of a completion that wakes a unit.
        While a unit waits on queue room and anything is queued or
        streaming, a dequeue would wake it, so the main loop steps
        instead.  A run that cannot start costs one look at the heap.

        What ``_close_cycle`` does is charged per span: a machine's
        watchdog progress is the last cycle a burst of it was submitted
        or delivered in, and its key is read once, at the end; the run
        stops at every 256-cycle boundary for the retirement sweep; a
        traced machine is owed its marks every cycle.  Nothing numeric
        is charged: every cycle run lies inside the span of each park
        open across it (``_charge``).
        """
        dram = self.dram
        step = cycle + 1
        if dram.next_completion() == step and dram.first_wake() == step:
            return cycle        # a unit wakes next cycle
        if self._room_waiters and (dram.streams or dram.queued):
            return cycle
        by_tenant = self._by_tenant
        acted: Dict = {}
        bound = self._horizon(live, max_cycles)
        done = cycle
        try:
            while True:
                stop = min(bound, (done | 255) + 2)
                last = self._run_alone(stop, live, acted)
                if last == done:
                    break
                for tenant, at in acted.items():
                    by_tenant[tenant]._last_progress = at
                acted.clear()
                if last // 256 > done // 256:
                    for machine in live:
                        machine.mem.retire_old()
                done = last
                if last + 1 < stop:
                    break           # a completion wakes a unit
                if last + 1 >= bound:
                    bound = self._horizon(live, max_cycles)
                    if last + 1 >= bound:
                        break
        except BaseException:
            # an error exit: the clocks stand where the dense loop's
            # would — at the cycle run, after the admit steps of the
            # streams ahead of the one that raised (if one did)
            now = dram.cycle
            self._cycle = now
            self._pos = max((s._pos for s in dram.streams
                             if s._admitted == now), default=-1)
            for machine in live:
                machine.cycle = now
            raise
        if done > cycle:
            for machine in live:
                if machine._last_progress > cycle:
                    machine._last_key = machine._progress_key()
            self.fast_forwarded_cycles += done - cycle
            self._cycle = done
            self._pos = len(self._nodes)
        return done

    def _run_alone(self, horizon: int, live, acted: Dict) -> int:
        """Run the memory system on its own from the cycle after
        ``dram.cycle`` up to ``horizon``, before which the caller
        guarantees nothing else acts; returns the last cycle run.

        While a stream admits or a channel holds a queued request, each
        cycle is stepped as an executed cycle steps the model:
        ``tick``, ``deliver``, then every stream's admit step in
        position order.  Once neither holds, only completions are left:
        every one before the first that wakes a unit
        (``DramModel.first_wake``) or ``horizon`` lands in one pass
        (``DramModel.drain``).  The run stops before a cycle whose
        completions wake a unit; the main loop's next cycle delivers
        them.  ``acted`` maps each tenant to the last cycle run in which
        a burst of it was submitted or delivered.  A traced run opens
        and closes each cycle in which something happens
        (:meth:`_trace_close`) and accounts the spans between
        (:meth:`_trace_skip`).
        """
        dram = self.dram
        streams = dram.streams
        tick = dram.tick
        deliver = dram.deliver
        next_completion = dram.next_completion
        wakers = dram.wakers
        traced = self._traced
        now = dram.cycle
        steps = 0
        while now + 1 < horizon:
            step = now + 1
            if not streams and not dram.queued:
                # only completions land from here on
                wake = dram.first_wake()
                stop = horizon if wake is None or wake > horizon else wake
                if traced:
                    self._trace_drain(live, acted, now, stop)
                else:
                    dram.drain(stop, acted)
                dram.cycle = now = stop - 1
                break
            due = next_completion()
            if due == step and wakers and dram.first_wake() == step:
                break
            if traced:
                for machine in live:
                    _open_cycle(machine, step)
            tick()
            now = step
            steps += 1
            if due == now:
                for request in deliver():
                    acted[request.tenant] = now
            # an admit that drains its stream drops it from the list,
            # which ends a walk over a lone stream in place
            for stream in streams if len(streams) == 1 else tuple(streams):
                dram.tenant = tenant = stream.tenant
                if stream.admit(now):
                    acted[tenant] = now
            if traced:
                self._trace_close(live, acted, now)
        dram.tenant = None
        self.memory_steps += steps
        return now

    def _trace_drain(self, live, acted: Dict, now: int, stop: int) -> None:
        """``DramModel.drain`` up to ``stop`` for traced machines: each
        cycle a completion lands in is opened and closed as a stepped
        one, and the spans between are skipped."""
        dram = self.dram
        due = dram.next_completion()
        while due is not None and due < stop:
            if due > now + 1:
                self._trace_skip(live, now, due - 1)
            for machine in live:
                _open_cycle(machine, due)
            dram.drain(due + 1, acted)
            self._trace_close(live, acted, due)
            now = due
            due = dram.next_completion()
        if stop - 1 > now:
            self._trace_skip(live, now, stop - 1)

    def _trace_close(self, live, acted: Dict, cycle: int) -> None:
        """Close a cycle the memory system ran alone as an executed
        cycle is closed for traced machines: parked units' marks,
        progress, ``end_cycle``."""
        self._mark_parked(cycle)
        for machine in live:
            trace = machine.tracer
            if trace is not None:
                if acted.get(machine.tenant) == cycle:
                    trace.progress(cycle)
                trace.end_cycle()

    @staticmethod
    def _trace_skip(live, done: int, last: int) -> None:
        """Cycles ``done + 1 .. last`` pass with nothing acting: per
        unit of a traced machine, the first mark of a parked node in
        dense tick order (outers before leaves, first mark wins) for
        the whole span, through ``Tracer.account_span``, which keeps
        counters and RLE timelines exact."""
        for machine in live:
            trace = machine.tracer
            if trace is not None:
                cause_map: Dict[str, StallCause] = {}
                for node in machine._nodes:
                    if node._sched_state == _PARKED:
                        for unit, cause in node._park.marks:
                            cause_map.setdefault(unit, cause)
                trace.account_span(cause_map, done + 1, last - done)

    def _admit(self, si: int, upto: int, cycle: int) -> int:
        """The admit steps of the streams from ``dram.streams[si]`` on
        whose engines sit at dense positions up to ``upto``: where the
        dense loop's tick of each engine runs it.  Returns the index
        past them (a drained stream leaves the list)."""
        dram = self.dram
        streams = dram.streams
        while si < len(streams):
            stream = streams[si]
            if stream._pos > upto:
                break
            self._pos = stream._pos
            machine = stream._machine
            machine._touched = cycle
            dram.tenant = machine.tenant
            stream.admit(cycle)
            if si < len(streams) and streams[si] is stream:
                si += 1
        return si

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
        streams = dram.streams
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
                # nodes tick in one run; each stream admits at its
                # engine's position
                machine = None
                si = 0
                while heap:
                    pos = heappop(heap)
                    if si < len(streams) and streams[si]._pos <= pos:
                        si = self._admit(si, pos, cycle)
                        machine = None
                    self._pos = pos
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
                if si < len(streams):
                    self._admit(si, len(nodes), cycle)
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
