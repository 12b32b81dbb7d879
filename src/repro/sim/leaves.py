"""Leaf controller simulators: PCU dataflow bodies and AG transfers.

Every leaf implements the :class:`NodeSim` protocol the outer scheduler
drives:

* ``start(bindings, version)`` — begin one activation (one iteration of
  the parent controller), with concrete values for enclosing indices;
* ``tick(cycle)`` — advance one cycle;
* ``busy`` — True until the activation fully completes (including
  pipeline drain and outstanding DRAM traffic).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bitstream.config import FabricConfig
from repro.dhdl.ir import (HashReduceStmt, InnerCompute, ReduceStmt,
                           StreamStore)
from repro.dhdl.memory import Reg
from repro.dram.model import DramModel
from repro.dram.request import DramRequest
from repro.errors import SimulationError
from repro.patterns.collections import _np_dtype
from repro.sim.counters import ChainEnumerator, Run
from repro.sim.block import (BLOCK_LANES, Block, BoundWindow, Datapath,
                             Schedule, _Redo)
from repro.sim.datapath import Evaluator, datapath_fault
from repro.sim.dram_image import DramImage, out_of_bounds
from repro.sim.fifo import FifoSim
from repro.sim.scheduler import Park
from repro.sim.scratchpad import MemoryState
from repro.sim.stats import SimStats
from repro.trace.events import EventKind, StallCause

WORDS_PER_BURST = 16


class NodeSim:
    """Protocol for anything the outer scheduler can run."""

    name: str = "?"
    #: names of the physical leaf units in this subtree (tracing)
    leaf_names: Tuple[str, ...] = ()

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        """Begin one activation."""
        raise NotImplementedError

    def tick(self, cycle: int) -> None:
        """Advance one cycle."""
        raise NotImplementedError

    @property
    def busy(self) -> bool:
        """True until the current activation completes."""
        raise NotImplementedError


def _dead_tick(cycle: int) -> None:
    """The tick of a failed unit: silence."""


class _LeafCommon(NodeSim):
    """Shared leaf state (memory handles, stats, tracer) and the one
    routine a blocked tick goes through, :meth:`_wait`."""

    def __init__(self, name: str, mem: MemoryState, stats: SimStats):
        self.name = name
        self.mem = mem
        self.stats = stats
        self._active = False
        self.leaf_names = (name,)
        #: attached by the machine when tracing is enabled
        self.trace = None
        #: attached by the event scheduler; None under the dense loop
        self._sched = None
        #: dense position (numbered by the event scheduler)
        self._pos = 0
        #: the park the last tick left (read by the event scheduler only)
        self._park = None
        #: once-per-activation scalars (bounds, offsets, counts)
        self._evaluate = Evaluator(mem)
        #: memory version of the current activation (where a leaf
        #: touches versioned scratchpads after ``start``)
        self._version: tuple = ()

    @property
    def busy(self) -> bool:
        return self._active

    def fail(self) -> None:
        """An injected ``unit_fail``: the unit stops responding — its
        tick becomes a no-op (what it has in flight still lands)."""
        self.tick = _dead_tick

    def _wait(self, park: Park, cycle: int) -> None:
        """This tick is blocked: ``park`` is the whole description of
        the cycle.  Charge it through the routine the event core uses
        for the rest of the span, emit its marks, and leave it for the
        core to park on."""
        self._charge(park)
        self._rest(park, cycle)

    def _charge(self, park: Park) -> None:
        """Charge one cycle of ``park`` and emit its marks."""
        park.charge(self.stats, 1)
        if self.trace is not None:
            for unit, cause in park.marks:
                self.trace.mark(unit, cause)

    def _rest(self, park: Park, cycle: int) -> None:
        """Leave ``park`` for the event core (the dense loop never
        reads it) — unless it is timed and would end next cycle anyway,
        when staying in the run queue is cheaper than a timer."""
        if park.until is None or park.until > cycle + 1:
            self._park = park


class _IssuePark(Park):
    """A free-running compute leaf between two of its own ticks.

    Every cycle of the span is an issue or a conflict-stall cycle of the
    block's :class:`~repro.sim.block.Schedule` — both charge ``busy``
    once — so the per-cycle effect is scheduled rather than constant:
    ``charge`` applies the issues that fall inside the cycles it is
    handed.
    """

    __slots__ = ("leaf", "at")

    def __init__(self, leaf, at: int, until: int):
        super().__init__(until=until, busy_unit=leaf.name)
        self.leaf = leaf
        #: cycles since the block's issue 0 accounted for (so far: by
        #: the leaf's own tick, which issued at this offset)
        self.at = at

    def charge(self, stats, span: int) -> None:
        leaf = self.leaf
        offsets = leaf._schedule.offsets
        self.at += span
        stats.busy(self.busy_unit, span)
        lo = leaf._next
        hi = bisect_right(offsets, self.at, lo, len(offsets) - 1)
        if hi > lo:
            stats.vector_issues += hi - lo
            leaf._apply(lo, hi)
            leaf._next = hi


class Activation:
    """What one activation of a compute leaf did: its blocks, in issue
    order, and its end-of-activation reduce results ``(memory name,
    flat address or None for a register, value)`` — kept by a batch
    leader's leaves for the followers to replay."""

    __slots__ = ("blocks", "finals", "grouped")

    def __init__(self):
        self.blocks: List[Block] = []
        self.finals: List[Tuple] = []
        #: ``finals`` as the followers apply them, one write per
        #: scratchpad (``repro.sim.batch.group_finals``; built by the
        #: first follower to finish the activation)
        self.grouped: Optional[List[Tuple]] = None


class InnerComputeSim(_LeafCommon):
    """One inner dataflow pipeline (a chain of physical PCUs).

    Per cycle it issues one vector of up to ``lanes`` innermost indices
    and charges bank-conflict and FIFO-backpressure stalls; completion
    waits for the pipeline to drain (``pipeline_depth`` extra cycles).

    The pipeline is statically scheduled, so what an issue computes
    does not depend on when it issues: the leaf evaluates its body a
    block of issues at a time (:class:`~repro.sim.block.Datapath`),
    prices the block's log once (:class:`~repro.sim.block.Schedule`)
    and then follows it — :meth:`_apply` makes issues ``[lo, hi)``
    happen: their stores, register writes and FIFO words land and every
    counter moves.  A leaf that emits into no FIFO, on a machine with no
    tracer and no fault plan (``free``), can be delayed by nothing
    outside itself, so after an issue it parks (:class:`_IssuePark`)
    until the latest issue cycle its watchdog allows; any other leaf
    steps issue by issue (backpressure can stall it between issues, a
    tracer is owed marks per cycle, a fault may stop it).
    """

    def __init__(self, leaf: InnerCompute, config: FabricConfig,
                 mem: MemoryState, stats: SimStats,
                 fifos: Dict[str, FifoSim]):
        super().__init__(leaf.name, mem, stats)
        self.leaf = leaf
        self.timing = config.timing_for(leaf.name)
        self.fifos = fifos
        self._enum: Optional[ChainEnumerator] = None
        #: the body's evaluator (its row tables, built once per leaf)
        self._datapath = Datapath.of(leaf)
        #: a run whose block pass faulted: its last ``_single`` issues
        #: are still to be evaluated, one by one
        self._queue: Optional[Run] = None
        self._single = 0
        #: bound reads of the chain's walk since the enumerator last
        #: took them
        self._reads: Dict[Tuple, List[int]] = {}
        #: the innermost counter's bounds a window at a time
        self._window: Optional[BoundWindow] = None
        self._block: Optional[Block] = None
        self._schedule: Optional[Schedule] = None
        #: the block's next issue (a free-running park moves it too)
        self._next = 0
        self._draining = False
        self._stall_until = 0
        #: the timed park of the current conflict stall or drain: built
        #: once, by the tick that starts it, for every tick inside it
        self._timed: Optional[Park] = None
        self._pending: Optional[int] = None
        #: reduce accumulators: stmt index -> {key: (last lane's values
        #: of the dims outside the innermost, its innermost value,
        #: *accumulated values)}
        self._accs: Dict[int, Dict[Tuple, Tuple]] = {}
        #: the banking configuration schedules are shared under
        self._banking = tuple(s.banks for s in mem.scratchpads.values())
        #: the free-running park, while one is open
        self._ahead: Optional[_IssuePark] = None
        #: the issue the current tick made (None: it made none)
        self._issued: Optional[int] = None
        #: a batch leader's leaves keep every activation here
        self.record: Optional[List[Activation]] = None
        self._act: Optional[Activation] = None
        # the statement list is frozen at construction, so the op count
        # per lane and the per-lane FIFO word demand are constants
        self._ops_per_lane = self._datapath.ops
        self._emit_demand: Tuple[Tuple[str, int], ...] = tuple(
            Counter(name for _si, name in self._datapath.emits).items())
        #: may run free (the machine clears it when traced or
        #: fault-planned), and the watchdog bounding a free run
        self.free = not self._emit_demand
        self.watchdog = 50_000
        #: the FIFO-full wait, per FIFO this body emits into
        self._park_full = {
            name: Park(counters=("fifo_stall_cycles",),
                       fifo_counters=((fifos[name], "full_stalls"),),
                       marks=((leaf.name, StallCause.FIFO_FULL),),
                       wake_fifos=(fifos[name],))
            for name, _words in self._emit_demand}
        #: the one of them the last failed room check ran into
        self._blocked_on: Optional[Park] = None
        #: per activation, reduce accumulators start empty and dense
        #: HashReduce targets at their init value (the rest carry theirs)
        self._reduces = [si for si, stmt in enumerate(leaf.stmts)
                         if isinstance(stmt, ReduceStmt)]
        self._fills = [stmt for stmt in leaf.stmts
                       if isinstance(stmt, HashReduceStmt) and not stmt.carry]

    # -- activation ---------------------------------------------------------------
    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        if self._active:
            raise SimulationError(f"{self.name}: started while busy")
        self._active = True
        self._version = version
        self._pending = None
        self._stall_until = 0
        self._draining = False
        self._block = None
        self._next = 0
        self._begin_body(bindings, version)
        for stmt in self._fills:
            self.mem.scratch(stmt.mem).buffer(version).fill(
                _np_dtype(stmt.mem.dtype)(stmt.init))

    def _begin_body(self, bindings: dict, version) -> None:
        """Set up evaluation state for one activation (a batch follower
        replays instead)."""
        if self._enum is None:
            if self.leaf.chain.depth > 1:
                self._window = BoundWindow(self.mem, self.leaf.chain,
                                           self._datapath.ranges)
            self._enum = ChainEnumerator(
                self.leaf.chain, lambda counter, bnd: self._evaluate.bounds(
                    counter, bnd, self._version, self._reads), bindings,
                window=None if self._datapath.steps else self._windows,
                reads=self._taken_reads)
        else:
            self._enum.restart(bindings)
        self._queue = None
        self._single = 0
        self._accs = {si: {} for si in self._reduces}
        if self.record is not None:
            self._act = Activation()
            self.record.append(self._act)

    # -- per-cycle ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        ahead = self._ahead
        if ahead is not None:
            if cycle < ahead.until:
                # inside the free run: the dense loop's per-cycle tick
                # (or a spurious wake) is one more scheduled cycle
                self._wait(ahead, cycle)
                return
            self._ahead = None
        self._issued = None
        self._step(cycle)
        if self._issued is not None and self.free:
            self._run_free(self._issued, cycle)

    def _step(self, cycle: int) -> None:
        if not self._active:
            return
        if self._draining:
            self._wait(self._timed, cycle)
            if cycle >= self._timed.until:
                self._finish()
            return
        if cycle < self._stall_until:
            # serialising a conflicted vector access: the unit is
            # occupied (counts towards activity) but issues nothing
            self._wait(self._timed, cycle)
            return
        k = self._pending
        if k is None:
            k = self._next_issue()
        self._pending = None
        trace = self.trace
        if k is None:
            # the chain ended: the coming drain cycles are known now
            self._draining = True
            self._timed = Park(
                until=cycle + self.timing.pipeline_depth
                + self.timing.output_hops,
                marks=((self.name, StallCause.DRAIN),))
            self.stats.busy(self.name)
            if trace is not None:
                trace.mark(self.name, StallCause.DRAIN)
            self._rest(self._timed, cycle)
            return
        extra = self._execute(k)
        if extra is None:           # FIFO full: retry this issue
            self._pending = k
            self._wait(self._blocked_on, cycle)
            return
        self.stats.busy(self.name)
        self.stats.vector_issues += 1
        if trace is not None:
            trace.mark(self.name, StallCause.BUSY)
            trace.emit(EventKind.ISSUE, self.name,
                       (int(self._block.lanes[k]), extra))
        if extra:
            # a conflicted issue: its serialisation cycles are known now
            self._stall_until = cycle + 1 + extra
            self._timed = Park(
                until=self._stall_until, busy_unit=self.name,
                marks=((self.name, StallCause.BANK_CONFLICT),))
            self._rest(self._timed, cycle)

    def _run_free(self, i: int, cycle: int) -> None:
        """Issue ``i`` left at ``cycle``: park until the latest issue
        cycle of the block the watchdog cannot trip before.  The unit
        re-ticks *on* an issue cycle, so whenever it registers progress
        the stepped run does too, and from the last issue on they
        agree."""
        offsets = self._schedule.offsets
        k = bisect_right(offsets, offsets[i] + self.watchdog, i,
                         len(offsets) - 1) - 1
        if k > i + 1:
            self._ahead = self._park = _IssuePark(
                self, offsets[i], cycle + offsets[k] - offsets[i])

    # -- the log --------------------------------------------------------------------
    def _next_issue(self) -> Optional[int]:
        """The next issue's index in the current block, evaluating the
        next block when this one is used up (None: the chain ended)."""
        block = self._block
        if block is None or self._next >= block.n:
            block = self._next_block()
            if block is None:
                return None
            if self._act is not None:
                self._act.blocks.append(block)
            self._schedule = block.schedule(self._banking,
                                            self.mem.scratchpads)
            self._block = block
            self._next = 0
        k = self._next
        self._next += 1
        return k

    def _pull(self, lanes: int) -> Optional[Run]:
        """The chain's next run of whole issues while fewer than
        ``lanes`` lanes are taken (None at its end); a fault of its
        bounds, typed, at the issue it stops."""
        try:
            return self._enum.next_run(lanes)
        except (ArithmeticError, ValueError) as err:
            raise datapath_fault(self.name, "counter bounds", err) from None

    def _taken_reads(self) -> Dict[Tuple, List[int]]:
        """The walk's bound reads since the enumerator last took them."""
        reads, self._reads = self._reads, {}
        return reads

    def _windows(self, outer, values):
        """The innermost bounds at ``values`` of the enclosing counter,
        :data:`BLOCK_LANES` positions a pass.  Stops where a pass cannot
        stand in for the walk (:meth:`BoundWindow.evaluate`), which goes
        on from there."""
        for at in range(0, len(values), BLOCK_LANES):
            got = self._window.evaluate(
                outer, values[at:at + BLOCK_LANES], self._version)
            if got is None:
                return
            yield got

    def _next_block(self) -> Optional[Block]:
        """Evaluate the next block: a run of issues up to
        :data:`BLOCK_LANES` lanes — one issue at a time where a pass
        faulted or the body reads what it writes."""
        dp = self._datapath
        if self._single:
            run = self._queue.issue(self._queue.issues - self._single)
            self._single -= 1
            if not self._single:
                self._queue = None
        else:
            run = self._pull(1 if dp.steps else BLOCK_LANES)
            if run is None:
                return None
        try:
            try:
                block, self._accs = dp.evaluate(self.mem, run, self._version,
                                                self._accs)
            except _Redo:
                if run.issues > 1:
                    self._queue, self._single = run, run.issues
                    return self._next_block()
                block, self._accs = dp.evaluate(
                    self.mem, run, self._version, self._accs, steps=True)
        except (ArithmeticError, ValueError) as err:
            first, last = run.head()
            raise datapath_fault(self.name, f"lanes {first}..{last}", err)
        return block

    def _execute(self, k: int) -> Optional[int]:
        """Issue ``k`` of the block happens; returns its extra stall
        cycles, or None if an EmitStmt found its FIFO full (the issue
        must be retried)."""
        # pre-check FIFO room for the worst case (all lanes emit);
        # demand is summed per FIFO — several EmitStmts feeding the same
        # FIFO each need batch.lanes words, and checking them one at a
        # time would pass with room for only one statement's worth
        if self._emit_demand and not self._check_fifo_room(
                int(self._block.lanes[k])):
            return None
        self._issued = k
        self._apply(k, k + 1)
        offsets = self._schedule.offsets
        return offsets[k + 1] - offsets[k] - 1

    def _apply(self, lo: int, hi: int) -> None:
        """Issues ``[lo, hi)`` of the block happen: their effects land
        (per address the last write of the range) and every counter an
        issue charges moves."""
        block, schedule = self._block, self._schedule
        version = self._version
        scratchpads = self.mem.scratchpads
        for name, flats, cells, nxt, off, top in block.stores:
            a, b = off[lo], off[hi]
            if a == b:
                continue
            scratch = scratchpads[name]
            buf = scratch.buffer(version).reshape(-1)
            if nxt is None:
                buf[flats[a:b]] = cells[a:b]
            else:
                keep = nxt[a:b] >= b
                buf[flats[a:b][keep]] = cells[a:b][keep]
            # issues ``[0, lo)`` of the block noted theirs already, so
            # the highest address up to ``hi`` marks what ``[lo, hi)`` did
            if top is not None and top[b - 1] >= 0:
                scratch.note_write(version, int(top[b - 1]))
        for name, values, off in block.regs:
            if off[hi] > off[lo]:
                self.mem.registers[name].write(values[off[hi] - 1])
        if block.emits:
            for k in range(lo, hi):
                for name, words, off in block.emits:
                    if off[k + 1] > off[k]:
                        self.fifos[name].push(words[off[k]:off[k + 1]])
        charged = (schedule.rows[hi] - schedule.rows[lo]).tolist()
        self.stats.conflict_cycles += charged[0]
        self.stats.ops_executed += self._ops_per_lane * charged[1]
        for name, col in schedule.pads.items():
            scratch = scratchpads[name]
            scratch.reads += charged[col]
            scratch.writes += charged[col + 1]
            scratch.conflict_cycles += charged[col + 2]
        if self.trace is not None:
            # a traced unit steps: this is issue ``lo`` alone
            for name, extra, lanes in schedule.conflicts(block, lo):
                self.trace.emit(EventKind.BANK_CONFLICT, name,
                                (extra, lanes))

    def _check_fifo_room(self, lanes: int) -> bool:
        """All-lanes-emit FIFO room precheck (the first failing FIFO is
        the one the tick waits on and charges the stall to)."""
        for name, per_lane in self._emit_demand:
            needed = per_lane * lanes
            if not self.fifos[name].can_push(needed):
                self._blocked_on = self._park_full[name]
                if self.trace is not None:
                    self.trace.emit(EventKind.FIFO_FULL, name, (needed,))
                return False
        return True

    # -- completion ---------------------------------------------------------------
    def _finish(self) -> None:
        self._apply_finals()
        self._block = self._schedule = None
        # close any FIFO this body emits into
        for _si, name in self._datapath.emits:
            self.fifos[name].close()
        self._active = False

    def _apply_finals(self) -> None:
        """Apply the end-of-activation reduce results (kept, as
        ``(memory, flat address or None, value)``, in ``_finals``)."""
        version = self._version
        *outside, index = self.leaf.chain.indices
        finals = self._finals = []
        try:
            for si, accs in self._accs.items():
                stmt = self.leaf.stmts[si]
                for key, (outer, lane, *values) in accs.items():
                    if stmt.carry:
                        current = [
                            self.mem.reg(mem).read() if isinstance(mem, Reg)
                            else self.mem.scratch(mem).read_buffer(
                                version)[key].item()
                            for mem in stmt.mems]
                        # the combine's own loads are not priced
                        env = {**self._enum.base, **dict(zip(outside, outer)),
                               index: lane}
                        values = self._evaluate.combine(
                            stmt, env, version, current, values)
                    for mem, value in zip(stmt.mems, values):
                        if isinstance(mem, Reg):
                            self.mem.reg(mem).write(value)
                            finals.append((mem.name, None, value))
                        else:
                            flat = self.mem.scratch(mem).store(
                                version, key, value)
                            finals.append((mem.name, flat, value))
        except (ArithmeticError, ValueError) as err:
            raise datapath_fault(self.name, "the end-of-activation reduce",
                                 err)
        if self._act is not None:
            self._act.finals = finals


class _TransferCommon(_LeafCommon):
    """Shared transfer machinery: DRAM issue bookkeeping and AG limits."""

    def __init__(self, leaf, config: FabricConfig, mem: MemoryState,
                 stats: SimStats, dram: DramModel, image: DramImage):
        name = leaf.name
        super().__init__(name, mem, stats)
        self.leaf = leaf
        self.config = config
        self.dram = dram
        self.image = image
        self.streams = config.ags_for(name).streams
        self._outstanding = 0
        #: bursts not yet issued by their channel; the latest
        #: completion cycle of any burst issued so far
        self._queued = self._due = 0
        #: the pure-latency park: nothing left to issue, bursts still in
        #: flight
        self._park_latency = Park(
            busy_unit=name, marks=((name, StallCause.DRAM_LATENCY),))
        #: the bandwidth stall a blocked admit step charges — a full DRAM
        #: channel queue (or a full coalescer) stops the issue — with
        #: nothing in flight, and with bursts in flight (the engine then
        #: counts as busy)
        bandwidth = dict(counters=("dram_stall_cycles",),
                         marks=((name, StallCause.DRAM_BANDWIDTH),))
        self._park_bw_idle = Park(**bandwidth)
        self._park_bw_busy = Park(busy_unit=name, **bandwidth)
        #: the one callback every request of this engine carries
        self._completion = self._complete

    def _issue(self, request: DramRequest, channel) -> None:
        """Submit ``request`` — already decoded: ``channel`` owns its
        address and its ``bank``/``row`` are set — with this engine's
        completion handler."""
        self._outstanding += 1
        self._queued += 1
        request.issuer = self
        if self.trace is not None:
            self.trace.emit(EventKind.AG_BURST, self.name,
                            (request.byte_addr, int(request.is_write)))
        self.dram.submit(request, self._completion, channel)

    def note_issue(self, done: int) -> None:
        """A burst of this engine issued; it completes at cycle ``done``."""
        self._queued -= 1
        if done > self._due:
            self._due = done

    def wakes_at(self) -> Optional[int]:
        """Drained with bursts in flight: the cycle its last completes,
        once all have issued (earlier activations' completed before)."""
        return None if self._queued else self._due

    def _decode(self, addr: int):
        """``(channel, bank, row)`` of a byte address."""
        channel, bank, row, _ = self.dram.params.map_address(addr)
        return self.dram.channels[channel], bank, row

    def _complete(self, request: DramRequest) -> None:
        """A burst's data has transferred (every request's callback)."""
        self._outstanding -= 1
        self._on_burst(request)
        if not self._quiet(0):
            if not self._outstanding:
                self.dram.wakers.remove(self)
            if self._sched is not None:
                self._sched.node_event(self)

    def _quiet(self, count: int) -> bool:
        """The wake filter: True when ``count`` more completions of this
        engine's bursts would leave its next tick what its park
        replays, so they need not wake it.  Never, here: a stream
        store's waits depend on whether bursts are in flight."""
        return False

    def _on_burst(self, request: DramRequest) -> None:
        """What a completed burst does besides ending (nothing: the
        stores move their data at issue)."""

    def _charge_cycle(self, issued: int, blocked: bool) -> None:
        """Charge one engine cycle: productive, or the wait it amounts
        to.

        ``issued`` — address-stream slots that made progress this cycle;
        ``blocked`` — True when progress was stopped by a full DRAM
        channel queue (or a full coalescer), i.e. a bandwidth stall.
        """
        if issued:
            self.stats.busy(self.name)
            if self.trace is not None:
                self.trace.mark(self.name, StallCause.BUSY)
            return
        if blocked:
            # repeats verbatim until DRAM queue room frees or a burst
            # completes
            park = (self._park_bw_busy if self._outstanding
                    else self._park_bw_idle)
        elif self._outstanding:
            park = self._park_latency
        else:
            # nothing to issue (or, a stream, no AG stream to issue on)
            # and nothing in flight: the engine completes in this same
            # tick, so this is no wait
            if self.trace is not None:
                self.trace.mark(self.name, StallCause.DRAIN)
            return
        self._charge(park)


def tile_bursts(leaf, offsets, base: int, dram,
                limit: Optional[int] = None) -> List[tuple]:
    """The bursts of one tile transfer, in issue order: one
    ``(byte_addr, channel, bank, row, word_off, words, sram_flat)``
    entry per burst of up to ``WORDS_PER_BURST`` words at DRAM word
    ``word_off`` <-> scratchpad word ``sram_flat``, its address decoded
    as the memory record ``dram.map_address`` does, from the array's
    ``base`` byte address.

    A tile of shape T over a row-major DRAM array of shape S starting
    at ``offsets`` decomposes into one contiguous span per tile row
    (innermost dimension), clipped to the array extents (partial edge
    tiles move what exists; the rest of the scratchpad keeps its
    previous/zero contents), then — given a dynamic word ``limit`` —
    to the first ``limit`` words.  Each span is cut into bursts from
    its first word.
    """
    dram_shape = [int(d) if isinstance(d, int) else None
                  for d in leaf.dram.shape]
    if not dram_shape:          # 0-d cell: a single word
        dram_shape = [1]
        offsets = [0]
    tile = leaf.tile_shape or (1,)
    inner = tile[-1]
    total_words = leaf.dram.words()
    inner_room = (dram_shape[-1] if dram_shape[-1] is not None
                  else total_words) - offsets[-1]
    # the rows: (row-major flat position of the row's outer indices,
    # scratchpad word of its first element), row-major over the tile's
    # outer dimensions, skipping indices past the array's extent
    rows = [(0, 0)]
    for axis, dim in enumerate(tile[:-1]):
        size = dram_shape[axis]
        low = offsets[axis]
        high = min(low + dim, size if size is not None else 1 << 30)
        scale = dram_shape[axis] if axis else 0     # axis 0 starts it
        stride = math.prod(tile[axis + 1:])
        rows = [(flat * scale + pos, sram + (pos - low) * stride)
                for flat, sram in rows for pos in range(low, high)]
    row_words = dram_shape[-1] if len(dram_shape) > 1 else 1
    burst_bytes = dram.burst_bytes
    channels = dram.channels
    banks = dram.banks_per_channel
    per_row = channels * banks * (dram.row_bytes // burst_bytes)
    bursts = []
    for flat, sram in rows:
        start = flat * row_words + offsets[-1]
        count = min(inner, inner_room, total_words - start)
        if limit is not None:
            count = min(count, limit)
            limit -= max(count, 0)
        for step in range(0, count, WORDS_PER_BURST):
            addr = base + 4 * (start + step)
            burst = addr // burst_bytes
            bursts.append((addr, burst % channels,
                           burst // channels % banks, burst // per_row,
                           start + step,
                           min(count - step, WORDS_PER_BURST),
                           sram + step))
    return bursts


class _StreamCommon(_TransferCommon):
    """A transfer the DRAM model pulls as a *stream*.

    At ``start`` a subclass lays the activation out as ``_end``
    positions — a tile's burst table, a gather's or scatter's decoded
    addresses — and, if there are any, the engine joins the DRAM model
    (``DramModel.add_stream``).  Until every position is dispatched, its
    :meth:`admit` step runs once per cycle at the engine's dense
    position — called by the engine's own tick under the dense loop, by
    the event core's unit phase, or by the event core's ``_run_alone``
    when nothing else acts — and dispatches up to one position per AG
    stream through the subclass's :meth:`_pump`.  The admit step
    accounts its cycle itself, so meanwhile the engine parks on a wait
    that charges nothing (``_park_stream``); once drained it waits on
    its latency park until its last burst completes.
    """

    def __init__(self, leaf, config, mem, stats, dram, image):
        super().__init__(leaf, config, mem, stats, dram, image)
        #: next position to dispatch, and the activation's count
        self._at = 0
        self._end = 0
        #: the cycle of the last admit step (a tick admits only if the
        #: core has not already, earlier in the cycle)
        self._admitted = -1
        #: the tenant the activation's bursts are stamped with
        self.tenant = None
        #: streaming: every cycle is accounted by its admit step
        self._park_stream = Park()
        #: the activation's DRAM array; its scratchpad, that
        #: scratchpad's flat buffer, and the scratchpad's ``epoch`` when
        #: the buffer was looked up: the same lookup gives the same
        #: buffer until the version set changes
        self._array = None
        self._scratch = None
        self._view = None
        self._epoch = -1

    def _stream(self, end: int) -> None:
        """The activation dispatches ``end`` positions from this cycle
        on."""
        self._at = 0
        self._end = end
        if end:
            self.tenant = self.dram.tenant
            self.dram.add_stream(self)

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        if self._at < self._end and self._admitted != cycle:
            self.admit(cycle)
        if self._at < self._end:
            self._park = self._park_stream
        elif self._outstanding:
            if self._admitted == cycle:
                # drained by this cycle's admit step, which accounted it
                self._park = self._park_latency
            else:
                self._wait(self._park_latency, cycle)
        else:
            # nothing left to issue, nothing in flight: the engine
            # completes in this same tick, so this is no wait
            if self.trace is not None:
                self.trace.mark(self.name, StallCause.DRAIN)
            self._active = False
            # a batch keeps its engines: let the buffers go
            self._view = self._array = None

    def admit(self, cycle: int) -> bool:
        """The stream's step in ``cycle``: dispatch the next positions,
        one per AG stream, until one is blocked, and account the cycle
        — productive, or a bandwidth stall (busy while bursts are in
        flight).  A drained stream leaves the model; a parked engine
        then waits on its latency park.  True when a burst was
        submitted."""
        self._admitted = cycle
        first = self._at
        end = first + self.streams
        if end > self._end:
            end = self._end
        outstanding = self._outstanding
        self._at = at = self._pump(first, end)
        # charged as any transfer cycle is, but the engine stays on its
        # stream park: the next admit step accounts the next cycle
        if at > first:
            busy = self.stats.busy_cycles
            busy[self.name] = busy.get(self.name, 0) + 1
            if self.trace is not None:
                self.trace.mark(self.name, StallCause.BUSY)
        else:
            self._charge_cycle(0, at < end)
        submitted = self._outstanding > outstanding
        if at == self._end:
            self._drained()
            if self._sched is not None and self._park is self._park_stream:
                self._sched.repark(self, self._park_latency, cycle)
        return submitted

    def _bind(self, scratch, version) -> None:
        """Bind ``scratch``'s buffer of ``version`` — a destination's,
        made if missing — as of its version set now."""
        self._scratch = scratch
        self._view = scratch.buffer(version).reshape(-1)
        self._epoch = scratch.epoch

    def _quiet(self, count: int) -> bool:
        """While the engine streams, a completion changes nothing its
        admit steps do not read when they run (``_outstanding``, the
        coalescer).  Once it has drained it waits on its latency park,
        and completions that leave bursts outstanding would leave the
        tick what the park replays: the same busy cycle, the same
        DRAM_LATENCY mark, the same park, traced or not.  (A unit that
        is not parked ignores the wake either way.)"""
        return self._at < self._end or self._outstanding > count

    def _drained(self) -> None:
        """The stream stops admitting: its last completion wakes it."""
        self._at = self._end = 0
        self.dram.drop_stream(self)
        if self._outstanding:
            self.dram.wakers.append(self)

    def fail(self) -> None:
        super().fail()
        if self._at < self._end:
            # its stream stops with it
            self._drained()

    def _pump(self, at: int, end: int) -> int:
        """Dispatch positions ``at`` up to ``end`` until one is blocked
        by a full channel queue (or a full coalescer); returns the
        position reached (short of ``end``: blocked)."""
        raise NotImplementedError


class _TileCommon(_StreamCommon):
    """Dense burst transfer: the stream's positions are the
    activation's burst table (:func:`tile_bursts`), built at ``start``.
    A subclass supplies what one burst does.

    The table is a function of what ``start`` evaluated, the tile's
    offsets and word limit (the *key*), so a batch cohort builds it
    once: a follower still evaluates its key, and takes the leader's
    table for it through :attr:`layouts`."""

    def __init__(self, leaf, config, mem, stats, dram, image):
        super().__init__(leaf, config, mem, stats, dram, image)
        self._bursts: List[tuple] = []
        #: the batch hook (None solo): its ``take(engine, key)`` gives
        #: the activation's burst table — a leader's builds and keeps
        #: it, a follower's hands back its leader's
        #: (``repro.sim.batch``)
        self.layouts = None

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        self._active = True
        self._version = version
        self._scratch = None
        key = (tuple([int(self._evaluate(o, bindings, version))
                      for o in self.leaf.offsets]),
               self._limit(bindings, version))
        self._bursts = (self._build(key) if self.layouts is None
                        else self.layouts.take(self, key))
        self._array = self.image.buffers[self.leaf.dram.name]
        self._stream(len(self._bursts))

    def _build(self, key) -> List[tuple]:
        """The burst table of the tile at offsets ``key[0]``, clipped to
        ``key[1]`` words."""
        offsets, limit = key
        return tile_bursts(self.leaf, offsets,
                           self.image.base[self.leaf.dram.name],
                           self.dram.params, limit)

    def _limit(self, bindings: dict, version) -> Optional[int]:
        """The activation's dynamic word count (None: the whole tile)."""
        return None

    def _pump(self, at: int, end: int) -> int:
        bursts = self._bursts
        channels = self.dram.channels
        while at < end:
            entry = bursts[at]
            channel = channels[entry[1]]
            if len(channel.queue) >= channel.queue_depth:
                return at
            self._burst(entry, channel)
            at += 1
        if at == len(bursts):
            # all issued: the in-flight requests carry what they need,
            # and a batch keeps many engines alive
            self._bursts = []
        return at

    def _burst(self, entry: tuple, channel) -> None:
        """Issue the burst ``entry`` of the table to ``channel`` (which
        has room)."""
        raise NotImplementedError


class TileLoadSim(_TileCommon):
    """Dense DRAM -> scratchpad burst load."""

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        super().start(bindings, version)
        # ensure destination buffer exists even for fully-clipped tiles
        self._bind(self.mem.scratch(self.leaf.sram), version)

    def _burst(self, entry, channel) -> None:
        self._issue(DramRequest(entry[0], False, entry, entry[2], entry[3]),
                    channel)

    def _on_burst(self, request: DramRequest) -> None:
        _, _, _, _, word_off, count, sram_flat = request.tag
        array = self._array
        if word_off < 0 or word_off + count > array.size:
            raise out_of_bounds("read", self.leaf.dram.name, word_off,
                                word_off + count, array.size)
        if self._scratch.epoch != self._epoch:
            self._bind(self._scratch, self._version)
        view = self._view
        if sram_flat + count > view.size:
            raise SimulationError(
                f"{self.name}: tile overruns scratchpad "
                f"{self.leaf.sram.name!r}")
        view[sram_flat:sram_flat + count] = array[word_off:word_off + count]


class TileStoreSim(_TileCommon):
    """Dense scratchpad -> DRAM burst store."""

    def _limit(self, bindings: dict, version) -> Optional[int]:
        if self.leaf.count is None:
            return None
        return int(self._evaluate(self.leaf.count, bindings, version))

    def _burst(self, entry, channel) -> None:
        # move the data now; the request models timing
        byte_addr, _, bank, row, word_off, words, sram_flat = entry
        scratch = self._scratch
        if scratch is None or scratch.epoch != self._epoch:
            # the activation's first burst, or the version set changed:
            # look the reader's buffer up (which may create it) again
            scratch = self._scratch = self.mem.scratch(self.leaf.sram)
            self._view = scratch.read_buffer(self._version).reshape(-1)
            self._epoch = scratch.epoch
        scratch.reads += words
        values = self._view[sram_flat:sram_flat + words]
        array = self._array
        if word_off < 0 or word_off + values.size > array.size:
            raise out_of_bounds("write", self.leaf.dram.name, word_off,
                                word_off + values.size, array.size)
        array[word_off:word_off + values.size] = values
        self._issue(DramRequest(byte_addr, True, None, bank, row), channel)


class _CoalescedCommon(_StreamCommon):
    """Sparse transfer through the coalescing unit: the stream's
    positions are the activation's addresses, each AG stream feeds one
    per cycle into the unit, and an address falling in a 64-byte burst
    already in flight coalesces into that request (the paper's
    coalescing cache).  An open entry holds the positions it serves.

    At ``start`` the addresses are decoded once, as columns
    (:meth:`_lay_out`); an out-of-bounds one fails when the stream
    reaches it.  A subclass supplies what a dispatched run of positions
    does besides its bursts (:meth:`_dispatched`)."""

    #: "gather" / "scatter" (error texts)
    KIND = "?"
    #: the bursts are writes
    WRITES = False

    def __init__(self, leaf, config, mem, stats, dram, image):
        super().__init__(leaf, config, mem, stats, dram, image)
        self.COALESCE_ENTRIES = config.coalesce_entries
        #: element index per position (an int64 column)
        self._elems = np.zeros(0, np.int64)
        #: per position: byte address, coalescer burst, channel, bank, row
        self._table: Tuple[List[int], ...] = ([],) * 5
        #: the first out-of-bounds position (``_end`` if none)
        self._bad = 0
        #: burst -> open coalescer entry (one request in flight each)
        self._open: Dict[int, List[int]] = {}
        self.coalesced_hits = 0

    def _lay_out(self, elems: np.ndarray) -> None:
        """Decode the activation's element indices ``elems`` at once —
        byte address, 64-byte coalescer burst, and the channel, bank and
        row ``DramParams.map_address`` gives — and start streaming them."""
        self._elems = elems = elems.astype(np.int64)
        self._array = self.image.buffers[self.leaf.dram.name]
        out = np.flatnonzero((elems < 0) | (elems >= self.leaf.dram.words()))
        self._bad = int(out[0]) if out.size else elems.size
        dram = self.dram.params
        channels, banks = dram.channels, dram.banks_per_channel
        addrs = self.image.base[self.leaf.dram.name] + 4 * elems
        burst = addrs // dram.burst_bytes
        per_row = channels * banks * (dram.row_bytes // dram.burst_bytes)
        self._table = tuple(column.tolist() for column in (
            addrs, addrs // 64, burst % channels, burst // channels % banks,
            burst // per_row))
        self._open = {}
        self._stream(elems.size)

    def _count(self, addr_scratch, size: int, bindings: dict,
               version) -> int:
        """How many addresses the activation dispatches: the leaf's
        count, or without one as many as were written to the address
        scratchpad (all ``size`` if none were), clamped to ``[0,
        size]``."""
        if self.leaf.count is not None:
            count = int(self._evaluate(self.leaf.count, bindings, version))
        else:
            count = addr_scratch.watermark_for(version) or size
        return min(max(count, 0), size)

    def _pump(self, at: int, end: int) -> int:
        addrs, bursts, chans, banks, rows = self._table
        opened = self._open
        channels = self.dram.channels
        first = at
        while at < end:
            if at == self._bad:
                self._dispatched(first, at)
                raise SimulationError(
                    f"{self.name}: {self.KIND} index {self._elems[at]} out "
                    f"of bounds for {self.leaf.dram.name!r}")
            burst = bursts[at]
            entry = opened.get(burst)
            if entry is not None:
                entry.append(at)
                self.coalesced_hits += 1
                if self.trace is not None:
                    self.trace.emit(EventKind.COALESCE_HIT, self.name,
                                    (burst,))
            elif len(opened) >= self.COALESCE_ENTRIES:
                break
            else:
                channel = channels[chans[at]]
                if len(channel.queue) >= channel.queue_depth:
                    break
                opened[burst] = [at]
                self._issue(DramRequest(addrs[at], self.WRITES, burst,
                                        banks[at], rows[at]), channel)
            at += 1
        self._dispatched(first, at)
        return at

    def _dispatched(self, first: int, at: int) -> None:
        """Positions ``first`` up to ``at`` were dispatched this cycle."""


class GatherSim(_CoalescedCommon):
    """Sparse load.

    Addresses (element indices into the flattened DRAM collection) come
    from a scratchpad; one word lands in the destination scratchpad per
    address, at its position.
    """

    KIND = "gather"

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        self._active = True
        self._version = version
        scratch = self.mem.scratch(self.leaf.addr_sram)
        addr_buf = scratch.read_buffer(version).reshape(-1)
        count = self._count(scratch, addr_buf.size, bindings, version)
        self._bind(self.mem.scratch(self.leaf.dst_sram), version)
        self._lay_out(addr_buf[:count])

    def _on_burst(self, request: DramRequest) -> None:
        """The burst's elements land, in one fancy assignment.  Their
        positions ascend and none repeats; those before the first one
        past the destination land, then that one fails."""
        at = self._open.pop(request.tag, ())
        if self._scratch.epoch != self._epoch:
            self._bind(self._scratch, self._version)
        buf = self._view
        over = at and at[-1] >= buf.size
        if over:
            at = at[:bisect_left(at, buf.size)]
        if at:
            at = np.array(at)
            buf[at] = self._array[self._elems[at]]
        if over:
            raise SimulationError(f"{self.name}: gather destination overflow")


class ScatterSim(_CoalescedCommon):
    """Sparse store: the value at each position is written as its
    address is dispatched; the requests model timing."""

    KIND = "scatter"
    WRITES = True
    #: the value per position
    _values = np.zeros(0)

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        self._active = True
        addr_scratch = self.mem.scratch(self.leaf.addr_sram)
        addr_buf = addr_scratch.read_buffer(version).reshape(-1)
        val_buf = self.mem.scratch(
            self.leaf.val_sram).read_buffer(version).reshape(-1)
        count = self._count(addr_scratch, min(addr_buf.size, val_buf.size),
                            bindings, version)
        self._values = val_buf[:count].copy()
        self._lay_out(addr_buf[:count])

    def _dispatched(self, first: int, at: int) -> None:
        if at > first:
            self._array[self._elems[first:at]] = self._values[first:at]

    def _on_burst(self, request: DramRequest) -> None:
        self._open.pop(request.tag, None)


class StreamStoreSim(_TransferCommon):
    """Drain a FIFO into consecutive DRAM words (FlatMap output)."""

    def __init__(self, leaf: StreamStore, config, mem, stats, dram, image,
                 fifos: Dict[str, FifoSim]):
        super().__init__(leaf, config, mem, stats, dram, image)
        self.fifo = fifos[leaf.fifo.name]
        self._written = 0
        self._staging: List = []
        self._base_word = 0
        #: completion cycles of the bursts in flight (a heap)
        self._flight: List[int] = []
        #: every wait this engine can be in, prebuilt
        self._parks = {
            key: self._make_park(*key)
            for key in itertools.product((False, True), repeat=3)}

    def start(self, bindings: dict, version: Tuple[int, ...]) -> None:
        self._active = True
        self._base_word = int(self._evaluate(self.leaf.base_offset,
                                             bindings, version))
        self._written = 0
        self._staging = []

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        blocked = False
        got = self.fifo.pop(WORDS_PER_BURST - len(self._staging))
        if got:
            self._staging.extend(got)
        flush = (len(self._staging) == WORDS_PER_BURST
                 or (self.fifo.drained and self._staging))
        flushed = False
        if flush:
            word_off = self._base_word + self._written
            addr = self.image.byte_addr(self.leaf.dram.name, word_off)
            channel, bank, row = self._decode(addr)
            if len(channel.queue) < channel.queue_depth:
                self.image.write_words(self.leaf.dram.name, word_off,
                                       self._staging)
                self._issue(DramRequest(addr, True, None, bank, row),
                            channel)
                self._written += len(self._staging)
                self._staging = []
                flushed = True
            else:
                blocked = True
        if got or flushed:
            self._charge_cycle(len(got) + flushed, blocked)
        else:
            # upstream has not produced yet: a FIFO-empty stall
            starved = not self.fifo.drained and not self.fifo.items
            if starved and self.trace is not None:
                self.trace.emit(EventKind.FIFO_EMPTY,
                                self.fifo.decl.name, ())
            self._wait(self._parks[starved, blocked,
                                   self._outstanding > 0], cycle)
        if (self.fifo.drained and not self._staging
                and self._outstanding == 0):
            reg = self.mem.reg(self.leaf.count_reg)
            if self.leaf.accumulate:
                reg.write(reg.read() + self._written)
            else:
                reg.write(self._written)
            self._active = False

    def _issue(self, request: DramRequest, channel) -> None:
        if not self._outstanding:
            self.dram.wakers.append(self)
        super()._issue(request, channel)

    def note_issue(self, done: int) -> None:
        super().note_issue(done)
        heappush(self._flight, done)

    def wakes_at(self) -> Optional[int]:
        """Each completion wakes a stream store: the first in flight."""
        return self._flight[0] if self._flight else None

    def _on_burst(self, request: DramRequest) -> None:
        heappop(self._flight)       # completions land in cycle order

    def _make_park(self, starved: bool, blocked: bool,
                   in_flight: bool) -> Park:
        """The unproductive cycle in which the FIFO is (not) ``starved``,
        the flush is (not) ``blocked`` by a full channel queue and bursts
        are (not) ``in_flight``.  Such a wait depends on the FIFO as
        well as on DRAM, so every one of them re-arms on FIFO activity
        too."""
        counters = []
        fifo_counters = []
        busy_unit = None
        if starved:
            counters.append("fifo_empty_stall_cycles")
            fifo_counters.append((self.fifo, "empty_stalls"))
        if starved and not in_flight:
            mark = StallCause.FIFO_EMPTY
        elif blocked:
            counters.append("dram_stall_cycles")
            busy_unit = self.name if in_flight else None
            mark = StallCause.DRAM_BANDWIDTH
        elif in_flight:
            busy_unit = self.name
            mark = StallCause.DRAM_LATENCY
        else:
            mark = StallCause.DRAIN
        return Park(busy_unit=busy_unit, counters=tuple(counters),
                    fifo_counters=tuple(fifo_counters),
                    marks=((self.name, mark),),
                    wake_fifos=(self.fifo,),
                    wake_dram_room=blocked)
