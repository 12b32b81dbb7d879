"""Outer-controller scheduling: tokens, credits, and streaming.

Implements Section 3.5 of the paper over :class:`NodeSim` children:

* **sequential** — one live iteration; children start in dependency order
  within it (tokens), the next iteration starts when everything finished;
  optional early exit when a register reads zero.
* **coarse-grained pipeline** — up to ``window`` live iterations; a child
  starts iteration *k* once its producers finished *k* (tokens) and no
  consumer of its outputs lags more than the intermediate memory's
  N-buffer depth (credits).
* **streaming** — all children of an iteration start together and
  communicate through FIFOs; backpressure is the FIFOs' fullness.

A physical unit executes one activation at a time, so a single child
never overlaps its own iterations — overlap happens *across* children,
exactly like the paper's hardware.

Memory versions are hierarchical tuples ``(k0, c0, k1, c1, ...)`` of
(iteration, child-index) pairs down the controller tree; lexicographic
order equals production order, so a reader's "newest version <= mine"
rule sees exactly the writes that architecturally precede it — including
nested tile-loop accumulation read by a scope-level store, while a
pipelined producer's *next* iteration stays invisible (N-buffering).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dhdl.control import Scheme
from repro.dhdl.ir import OuterController
from repro.errors import SimulationError
from repro.sim.counters import ChainEnumerator
from repro.sim.datapath import Evaluator, datapath_fault
from repro.sim.fifo import FifoSim
from repro.sim.leaves import NodeSim
from repro.sim.scheduler import EMPTY_PARK, Park, Progress
from repro.sim.scratchpad import MemoryState
from repro.trace.events import EventKind, StallCause


class DepEdge:
    """Producer -> consumer dependency through one memory."""

    def __init__(self, producer: int, consumer: int, mem_name: str,
                 credits: int):
        self.producer = producer
        self.consumer = consumer
        self.mem_name = mem_name
        self.credits = max(1, credits)

    def __repr__(self):
        return (f"DepEdge({self.producer}->{self.consumer} via "
                f"{self.mem_name}, M={self.credits})")


class _IterState:
    """One in-flight iteration of an outer controller."""

    __slots__ = ("k", "bindings", "version", "status")

    def __init__(self, k: int, bindings: dict, version: tuple,
                 num_children: int):
        self.k = k
        self.bindings = bindings
        self.version = version
        self.status = ["pending"] * num_children


class OuterControllerSim(NodeSim):
    """Scheduler for one outer controller's children."""

    def __init__(self, ctrl: OuterController, children: Sequence[NodeSim],
                 edges: Sequence[DepEdge], mem: MemoryState,
                 fifos_inside: Sequence[FifoSim] = ()):
        self.ctrl = ctrl
        self.name = ctrl.name
        self.children = list(children)
        self.edges = list(edges)
        self.mem = mem
        self.fifos_inside = list(fifos_inside)
        self.leaf_names = tuple(name for child in self.children
                                for name in child.leaf_names)
        #: attached by the machine when tracing is enabled
        self.trace = None
        #: attached by the event scheduler; None under the dense loop
        self._sched = None
        #: the park the last tick left (read by the event scheduler only)
        self._park = None
        self._active = False
        self._enum: Optional[ChainEnumerator] = None
        self._live: List[_IterState] = []
        self._next_k = 0
        self._completed = [0] * len(self.children)
        #: liveness counters of the owning machine (which replaces this
        #: private one): ``completed`` tracks ``sum(self._completed)``
        self.progress = Progress()
        self._stopped = False
        #: chain-less controller: its single iteration not yet handed out
        self._single_pending = False
        self._base_bindings: dict = {}
        self._evaluate = Evaluator(mem)
        # precompute per-child producer and consumer edges
        self._producers: Dict[int, List[DepEdge]] = {}
        self._consumers: Dict[int, List[DepEdge]] = {}
        for edge in self.edges:
            self._consumers.setdefault(edge.producer, []).append(edge)
            self._producers.setdefault(edge.consumer, []).append(edge)
        if ctrl.scheme is Scheme.SEQUENTIAL:
            self._window = 1
        elif ctrl.scheme is Scheme.STREAMING:
            self._window = 1
        else:
            depth = max((e.credits for e in self.edges), default=2)
            self._window = max(2, min(depth + 1, len(self.children) + 1))

    @property
    def busy(self) -> bool:
        return self._active

    # -- activation ---------------------------------------------------------------
    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        if self._active:
            raise SimulationError(f"{self.name}: started while busy")
        self._active = True
        self._base_bindings = dict(bindings)
        self._base_version = tuple(version)
        self._live = []
        self._next_k = 0
        self.progress.completed -= sum(self._completed)
        self._completed = [0] * len(self.children)
        self._stopped = False
        if self.ctrl.chain is not None:
            scalar = self._evaluate.bounds

            def bounds(counter, bnd):
                return scalar(counter, bnd, version)

            self._enum = ChainEnumerator(self.ctrl.chain, bounds,
                                         bindings)
        else:
            self._enum = None
            self._single_pending = True

    def _next_iteration(self) -> Optional[dict]:
        """Bindings for the next iteration, or None when exhausted."""
        if self._stopped:
            return None
        if self._enum is None:
            if self._single_pending:
                self._single_pending = False
                return dict(self._base_bindings)
            return None
        try:
            run = self._enum.next_run(1)
        except (ArithmeticError, ValueError) as err:
            raise datapath_fault(self.name, "counter bounds", err)
        if run is None:
            return None
        if run.lanes != 1:
            raise SimulationError(
                f"{self.name}: outer counter chains must iterate one "
                f"step at a time (par=1)")
        return run.first_lane()

    # -- per-cycle ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        self._materialize()
        if not self._live:
            self._active = False
            for fifo in self.fifos_inside:
                if fifo.items:
                    raise SimulationError(
                        f"{self.name}: FIFO {fifo.decl.name!r} not "
                        f"drained at controller completion")
            return
        if self.ctrl.scheme is Scheme.STREAMING:
            self._tick_streaming()
        else:
            self._tick_tokened()

    def _materialize(self) -> None:
        while len(self._live) < self._window:
            bindings = self._next_iteration()
            if bindings is None:
                break
            version = self._base_version + (self._next_k,)
            self._live.append(_IterState(self._next_k, bindings, version,
                                         len(self.children)))
            self._next_k += 1
            if self.ctrl.scheme is Scheme.STREAMING:
                for fifo in self.fifos_inside:
                    fifo.reopen()

    def _can_start(self, child_idx: int, it: _IterState) -> bool:
        # tokens: all producers done for this iteration
        for edge in self._producers.get(child_idx, ()):
            if it.status[edge.producer] != "done":
                return False
        # credits: consumers must not lag beyond the buffer depth
        for edge in self._consumers.get(child_idx, ()):
            if it.k - self._completed[edge.consumer] >= edge.credits:
                return False
        return True

    def _tick_tokened(self) -> None:
        trace = self.trace
        sched = self._sched
        #: the wait marks this tick emits, in scan order
        marks: List[Tuple[str, StallCause]] = []
        moved = False
        finished: List[_IterState] = []
        for it in self._live:
            for idx, child in enumerate(self.children):
                state = it.status[idx]
                if state == "running":
                    if not child.busy:
                        it.status[idx] = "done"
                        self._completed[idx] += 1
                        self.progress.completed += 1
                        moved = True
                        if trace is not None:
                            trace.emit(EventKind.CHILD_DONE, self.name,
                                       (child.name, it.k))
                elif state == "pending":
                    if child.busy:
                        continue  # unit occupied by an earlier iteration
                    if self._earlier_pending(idx, it.k):
                        # in-order per child: effectively a token wait on
                        # the child's own earlier iteration
                        if trace is not None:
                            self._mark_wait(child, StallCause.TOKEN_WAIT,
                                            marks)
                        continue
                    if self._can_start(idx, it):
                        child.start({**it.bindings}, it.version + (idx,))
                        it.status[idx] = "running"
                        moved = True
                        if sched is not None:
                            sched.node_started(child)
                        if trace is not None:
                            trace.emit(EventKind.CHILD_START, self.name,
                                       (child.name, it.k))
                    elif trace is not None:
                        self._mark_wait(child, self._wait_cause(idx, it),
                                        marks)
            if all(s == "done" for s in it.status):
                finished.append(it)
        for it in finished:
            moved = True
            self._live.remove(it)
            self._after_iteration(it)
        if not moved:
            # Every blocking condition above (unit occupied, in-order
            # token, producer token, consumer credit) clears only when
            # a child of this controller completes, which wakes us: the
            # tick repeats verbatim until then, marks included.
            self._park = Park(marks=tuple(marks)) if marks else EMPTY_PARK

    def _wait_cause(self, child_idx: int, it: _IterState) -> StallCause:
        """Why a startable-slot child could not start: token or credit."""
        for edge in self._producers.get(child_idx, ()):
            if it.status[edge.producer] != "done":
                return StallCause.TOKEN_WAIT
        return StallCause.CREDIT_WAIT

    def _mark_wait(self, child: NodeSim, cause: StallCause,
                   marks: List) -> None:
        """Attribute a control-protocol wait to a child's subtree."""
        for name in child.leaf_names:
            self.trace.mark(name, cause)
            marks.append((name, cause))

    def _earlier_pending(self, child_idx: int, k: int) -> bool:
        for other in self._live:
            if other.k < k and other.status[child_idx] != "done":
                return True
        return False

    def _tick_streaming(self) -> None:
        trace = self.trace
        sched = self._sched
        it = self._live[0]
        for idx, child in enumerate(self.children):
            if it.status[idx] == "pending":
                child.start({**it.bindings}, it.version + (idx,))
                it.status[idx] = "running"
                if sched is not None:
                    sched.node_started(child)
                if trace is not None:
                    trace.emit(EventKind.CHILD_START, self.name,
                               (child.name, it.k))
            elif it.status[idx] == "running" and not child.busy:
                it.status[idx] = "done"
                self._completed[idx] += 1
                self.progress.completed += 1
                if trace is not None:
                    trace.emit(EventKind.CHILD_DONE, self.name,
                               (child.name, it.k))
        if all(s == "done" for s in it.status):
            self._live.remove(it)
            self._after_iteration(it)
        elif all(s == "done" or (s == "running" and c.busy)
                 for s, c in zip(it.status, self.children)):
            # Nothing is left to start and everything still running is
            # busy — always so after a tick that moved nothing, and
            # often after one that did.  The only transition left to
            # observe is a child completing, which wakes us through the
            # parent map (streaming wait ticks emit no marks).
            self._park = EMPTY_PARK

    def _after_iteration(self, it: _IterState) -> None:
        reg = self.ctrl.stop_when_zero
        if reg is not None and self.mem.reg(reg).read() == 0:
            self._stopped = True
