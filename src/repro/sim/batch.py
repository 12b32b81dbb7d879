"""Batched simulation: N instances of one compiled design, one pass.

Figure-7 sweeps, DSE, fuzz campaigns, and service traffic all simulate
the *same compiled structure* under different parameters.  Running those
instances independently re-evaluates every datapath expression N times
(~85% of a solo run when this was written and the datapath was a
per-lane interpreter; far less with the compiled kernels of
``repro.sim.datapath`` — docs/ARCHITECTURE.md has the measured ratios).
``run_batch`` removes that redundancy without giving up cycle-exactness:

* Instances are grouped into **cohorts** by their *functional* inputs
  (the DRAM data they run on).  Timing-only overrides — pipeline depth,
  network hops, banking, coalescer entries, DRAM queue depth — cannot
  change any architecturally visible value the datapath produces: the
  counter-chain enumeration order is fixed by the compiled chain, FIFO
  order is preserved under backpressure, and parent/child hand-off is
  in-order per leaf.  All members of a cohort therefore compute the
  same value stream.
* One member of each cohort (the **leader**: the first that overrides
  neither ``max_cycles`` nor ``watchdog``, so no limit of its own can
  cut the recording short) runs normally while recording a columnar
  functional log per inner-compute activation: for every vector issue,
  the SRAM/register/hash writes it performed (struct-of-arrays: flat
  addresses and values as numpy arrays), the FIFO words it emitted, and
  the read/write address groups that price bank conflicts.
* Every other member (a **follower**) runs the same scheduler, outer
  controllers, transfers, DRAM model and FIFOs, but its inner-compute
  leaves evaluate nothing.  Each recorded activation is priced **once
  per banking configuration** into a :class:`_Schedule` — issue ``k``'s
  cycle offset plus cumulative charges — from the recorded address
  groups, so a ``banks`` override still reshapes every stall; one
  routine (``_ReplayInnerComputeSim._apply``) makes issues ``[lo, hi)``
  happen: effects from the log, counters from the schedule.
* An inner pipeline is *statically scheduled*: a follower leaf that
  emits into no FIFO, on an untraced machine, can be delayed by nothing
  outside itself, so it does not step per vector issue.  After an issue
  it parks (:class:`_IssuePark`) until the latest issue cycle its
  watchdog allows — normally the activation's last — and the park's
  ``charge`` applies the issues inside whatever span it is handed: the
  event core's end-of-park charge, its error-exit flush and the dense
  loop's per-cycle wait all land there, so dense ≡ event and a
  ``max_cycles``/watchdog exit leaves the stepped run's partial state.
  When one charge covers the whole middle of an activation, its writes
  come from one merged last-write-wins set built once for the cohort.
  A leaf that emits (backpressure can stall it between issues) or is
  traced (it owes BUSY / BANK_CONFLICT marks per cycle) steps issue by
  issue through the same ``_apply``.
* Instances run **back to back**, each to completion through the
  ordinary ``Machine.run`` (leaders first, then followers): they own
  separate DRAM models and share nothing, so nothing observes their
  interleaving.  Stepping them jointly through one driver was measured
  to *cost* ~8 % of a Figure-7 sweep; record/replay is what pays.

Per-instance ``SimStats``, memory images, and stall attribution are
bit-identical to N sequential ``Machine.run`` calls; the equivalence
suite enforces that across the whole app registry and the fuzz corpus.
A leader that fails (deadlock, max-cycles, runaway bound) degrades
gracefully: its cohort's remaining members fall back to full solo runs.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dhdl.ir import InnerCompute
from repro.dram.model import DramModel
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.patterns.collections import _np_dtype
from repro.sim.leaves import InnerComputeSim
from repro.sim.machine import Machine
from repro.sim.scheduler import Park, check_mode
from repro.sim.stats import SimStats
from repro.trace.events import EventKind

#: overrides that only change *when* things happen, never *what* values
#: the datapath computes — cohort members may differ in these freely
TIMING_KEYS = frozenset({
    "stages", "pipeline_depth", "input_hops", "output_hops", "banks",
    "coalesce_entries", "dram_queue_depth", "watchdog", "max_cycles",
})

#: the timing overrides that can end a run early
LIMIT_KEYS = frozenset({"watchdog", "max_cycles"})

#: overrides that change the computed values; they split cohorts
FUNCTIONAL_KEYS = frozenset({"data"})


# ---------------------------------------------------------------------------
# Parameter handling
# ---------------------------------------------------------------------------


def normalize_params(entry: Optional[dict]) -> dict:
    """Validate one instance's override dict (None means defaults)."""
    if entry is None:
        entry = {}
    if not isinstance(entry, dict):
        raise ConfigError(
            f"batch params must be dicts, got {type(entry).__name__}")
    unknown = set(entry) - TIMING_KEYS - FUNCTIONAL_KEYS
    if unknown:
        raise ConfigError(
            f"unsupported batch override(s) {sorted(unknown)}; "
            f"timing: {sorted(TIMING_KEYS)}, "
            f"functional: {sorted(FUNCTIONAL_KEYS)}")
    if "stages" in entry and "pipeline_depth" in entry:
        raise ConfigError(
            "give either 'stages' or 'pipeline_depth', not both "
            "(they are aliases)")
    data = entry.get("data")
    if data is not None and not isinstance(data, dict):
        raise ConfigError("'data' override must map DRAM array names "
                          "to arrays")
    return entry


def cohort_key(entry: dict) -> Tuple:
    """Hashable digest of an entry's functional inputs.

    Instances with equal keys compute identical value streams and can
    share one leader's functional log.
    """
    data = entry.get("data")
    if not data:
        return ()
    parts = []
    for name in sorted(data):
        arr = np.asarray(data[name])
        parts.append((name, str(arr.dtype), tuple(arr.shape),
                      hashlib.sha256(arr.tobytes()).hexdigest()))
    return tuple(parts)


def _unpack(source) -> Tuple:
    """Accept a Bitstream, a (dhdl, config) pair, or a Machine-like."""
    if hasattr(source, "dhdl") and hasattr(source, "config"):
        return source.dhdl, source.config
    if isinstance(source, tuple) and len(source) == 2:
        return source
    raise ConfigError(
        f"cannot batch-run {type(source).__name__}; pass a Bitstream "
        "or a (dhdl, config) pair")


def _configured(config, ov: dict):
    """A FabricConfig with this instance's timing overrides applied."""
    depth = ov.get("pipeline_depth", ov.get("stages"))
    in_hops = ov.get("input_hops")
    out_hops = ov.get("output_hops")
    changes = {}
    if depth is not None or in_hops is not None or out_hops is not None:
        patch = {}
        if depth is not None:
            patch["pipeline_depth"] = max(1, int(depth))
        if in_hops is not None:
            patch["input_hops"] = max(0, int(in_hops))
        if out_hops is not None:
            patch["output_hops"] = max(0, int(out_hops))
        changes["leaf_timing"] = {
            name: replace(t, **patch)
            for name, t in config.leaf_timing.items()}
    if "banks" in ov:
        changes["banks_override"] = int(ov["banks"])
    if "coalesce_entries" in ov:
        changes["coalesce_entries"] = max(1, int(ov["coalesce_entries"]))
    return replace(config, **changes) if changes else config


def _override_dram(image, name: str, arr) -> None:
    buf = image.buffers.get(name)
    if buf is None:
        raise ConfigError(
            f"no DRAM array {name!r} to override; "
            f"have {sorted(image.buffers)}")
    flat = np.asarray(arr).ravel().astype(buf.dtype)
    if flat.size > buf.size:
        raise ConfigError(
            f"data override for {name!r} has {flat.size} words; "
            f"the array holds {buf.size}")
    buf[:] = 0
    buf[:flat.size] = flat


def instantiate(source, overrides: Optional[dict] = None,
                machine_cls=Machine, **machine_kwargs) -> Machine:
    """One Machine for ``source`` with an override dict applied.

    Shared by ``run_batch`` and the sequential reference side of the
    equivalence tests/fuzz oracle, so both sides are guaranteed to
    build identically configured instances.
    """
    dhdl, config = _unpack(source)
    ov = normalize_params(overrides)
    kwargs = dict(machine_kwargs)
    if "dram_queue_depth" in ov:
        kwargs["dram"] = DramModel(
            queue_depth=max(1, int(ov["dram_queue_depth"])))
    if "watchdog" in ov:
        kwargs["watchdog"] = int(ov["watchdog"])
    if "max_cycles" in ov:
        kwargs["max_cycles"] = int(ov["max_cycles"])
    machine = machine_cls(dhdl, _configured(config, ov), **kwargs)
    for name, arr in (ov.get("data") or {}).items():
        _override_dram(machine.image, name, arr)
    return machine


# ---------------------------------------------------------------------------
# The functional log (leader writes, followers replay)
# ---------------------------------------------------------------------------


class _ActivationLog:
    """Everything one inner-compute activation did, batch by batch."""

    __slots__ = ("batches", "finish", "_schedules", "_middle", "_finals")

    def __init__(self):
        self.batches: List[_RawBatch] = []
        #: effect events of the end-of-activation reduce results
        self.finish: list = []
        #: banking configuration -> the activation priced under it
        self._schedules: Dict[Tuple, _Schedule] = {}
        self._middle: Optional[_FrozenBatch] = None
        self._finals: Optional[_FrozenBatch] = None

    def schedule(self, banking: Tuple, scratchpads) -> "_Schedule":
        """The activation's timeline under one banking configuration,
        priced once (against any follower's ``scratchpads`` so banked)
        and shared by every follower banked alike."""
        schedule = self._schedules.get(banking)
        if schedule is None:
            schedule = self._schedules[banking] = _Schedule(
                self.batches, scratchpads)
        return schedule

    def middle(self, mem_state) -> "_FrozenBatch":
        """Every issue but the first and the last as one merged
        last-write-wins effect set, built once for the cohort: what a
        free-running follower applies between its two ticks."""
        if self._middle is None:
            events = [ev for batch in self.batches[1:-1]
                      for ev in batch.events]
            self._middle = _freeze(events, mem_state)
        return self._middle

    def finals(self, mem_state) -> "_FrozenBatch":
        """The end-of-activation effects, frozen once for the cohort."""
        if self._finals is None:
            self._finals = _freeze(self.finish, mem_state)
        return self._finals


class _Schedule:
    """One activation priced under one banking configuration.

    Nothing outside the unit can delay an issue once the activation
    runs (FIFO backpressure aside, which stalls between issues and
    shifts the rest), so issue ``k`` leaves ``offsets[k]`` cycles after
    issue 0 — the sum of ``1 + extra`` over the issues before it — and
    ``rows[k]`` holds what those issues charged, cumulatively: conflict
    cycles, lanes, then reads / writes / conflict cycles of each
    scratchpad in ``pads`` (name -> first of its three columns).
    ``rows[hi] - rows[lo]`` is what issues ``[lo, hi)`` charge.
    ``conflicts[k]`` lists issue ``k``'s conflicted groups as
    ``(scratchpad, extra, lanes)`` — the events a tracer is owed.
    """

    __slots__ = ("offsets", "rows", "pads", "conflicts")

    def __init__(self, batches, scratchpads):
        self.offsets = offsets = array("l", (0,))
        touched = dict.fromkeys(
            name for batch in batches
            for name, _ in batch.reads + batch.writes)
        self.pads = pads = {name: 2 + 3 * j
                            for j, name in enumerate(touched)}
        self.conflicts: Dict[int, tuple] = {}
        width = 2 + 3 * len(pads)
        deltas = [[0] * width]
        for k, batch in enumerate(batches):
            delta = [0] * width
            delta[1] = batch.lanes
            conflicted = []
            for write, groups in enumerate((batch.reads, batch.writes)):
                for name, addrs in groups:
                    scratch = scratchpads[name]
                    col = pads[name]
                    delta[col + write] += len(addrs)
                    extra = scratch.conflict_extra(addrs, write)
                    if extra:
                        delta[col + 2] += extra
                        conflicted.append((name, extra, len(addrs)))
            if conflicted:
                self.conflicts[k] = tuple(conflicted)
                delta[0] = max(extra for _, extra, _ in conflicted)
            offsets.append(offsets[-1] + 1 + delta[0])
            deltas.append(delta)
        self.rows = np.cumsum(np.array(deltas, dtype=np.int32), axis=0,
                              dtype=np.int32)


class _FrozenBatch:
    """Recorded effects in columnar (struct-of-arrays) form: those of
    one vector issue, of the merged middle of an activation, or of its
    end."""

    __slots__ = ("sram", "regs", "emits")

    def __init__(self, sram, regs, emits):
        #: per scratchpad: (name, flat addrs int64[], values dtype[], wm)
        self.sram = sram
        self.regs = regs
        self.emits = emits


class _RawBatch:
    """The record of one vector issue (frozen lazily): its effect events
    in program order — ``("s", sram, flat addresses, values)`` per
    storing statement as the kernel listed it, ``("r", reg, value)``,
    ``("h", sram, key, cell)`` and ``("e", fifo, words)`` from the
    recorder's primitives — and the ``(sram, addresses)`` read and write
    groups the kernel priced."""

    __slots__ = ("index", "lanes", "events", "reads", "writes", "_frozen")

    def __init__(self, index, lanes, events, reads, writes):
        #: position in the activation's issue order
        self.index = index
        self.lanes = lanes
        self.events = events
        self.reads = reads
        self.writes = writes
        self._frozen: Optional[_FrozenBatch] = None

    def frozen(self, mem_state) -> _FrozenBatch:
        """Columnar form, built once and shared by all followers."""
        if self._frozen is None:
            self._frozen = _freeze(self.events, mem_state)
        return self._frozen


def _freeze(events, mem_state) -> _FrozenBatch:
    """Recorded effect events in columnar form: per memory the last
    write to each address (or register) wins, FIFO words keep their
    order."""
    per_mem: Dict[str, dict] = {}
    wm: Dict[str, int] = {}
    regs = {}
    emits = []
    for ev in events:
        kind = ev[0]
        if kind == "s":            # a statement's SRAM writes, in store
            _, name, flats, values = ev     # order (track the watermark)
            per_mem.setdefault(name, {}).update(zip(flats, values))
            wm[name] = max(wm.get(name, -1), *flats)
        elif kind == "h":          # hash-table write (no watermark)
            _, name, key, value = ev
            bucket = per_mem.get(name)
            if bucket is None:
                bucket = per_mem[name] = {}
            bucket[key] = value
        elif kind == "r":
            regs[ev[1]] = ev[2]
        else:                      # "e"
            emits.append((ev[1], ev[2]))
    sram = []
    for name, bucket in per_mem.items():
        # duplicate addresses already collapsed last-write-wins by
        # the dict, so the vectorized fancy assignment is exact
        dtype = _np_dtype(mem_state.scratchpads[name].sram.dtype)
        flats = np.fromiter(bucket.keys(), dtype=np.int64,
                            count=len(bucket))
        values = np.array([dtype(v) for v in bucket.values()],
                          dtype=dtype)
        sram.append((name, flats, values, wm.get(name, -1)))
    return _FrozenBatch(tuple(sram), tuple(regs.items()), tuple(emits))


class _ReplayEnumerator:
    """Stand-in for ChainEnumerator: yields the recorded batches."""

    __slots__ = ("batches", "i")

    def __init__(self, batches):
        self.batches = batches
        #: the next issue (a free-running leaf's park moves it too)
        self.i = 0

    def next_batch(self) -> Optional[_RawBatch]:
        if self.i >= len(self.batches):
            return None
        batch = self.batches[self.i]
        self.i += 1
        return batch


class _RecordingInnerComputeSim(InnerComputeSim):
    """The leader's inner compute: normal execution — the same kernel a
    solo leaf runs — plus keeping the record each issue leaves."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._act: Optional[_ActivationLog] = None

    def _begin_body(self, bindings, version):
        self._act = _ActivationLog()
        self._log.setdefault(self.name, []).append(self._act)
        super()._begin_body(bindings, version)

    def _execute(self, batch):
        extra = super()._execute(batch)
        if extra is not None:
            # the issue's record: the groups the kernel priced, and its
            # effects — the scratchpad stores the kernel listed, the
            # rest appended by the primitives below, in program order
            batches = self._act.batches
            batches.append(_RawBatch(
                len(batches), batch.lanes, self._fx,
                [(name, addrs) for (name, _site), addrs
                 in self._reads.items()],
                list(self._writes.items())))
        return extra

    def _apply_finals(self):
        super()._apply_finals()
        self._act.finish = self._fx

    def _write_reg(self, mem, value):
        super()._write_reg(mem, value)
        self._fx.append(("r", mem.name, value))

    def _hash_store(self, mem, buf, key, value):
        super()._hash_store(mem, buf, key, value)
        # record the post-assignment cell: it carries the exact dtype
        # cast the replayed assignment must reproduce
        self._fx.append(("h", mem.name, int(key), buf.flat[key]))

    def _emit_values(self, fifo, values):
        super()._emit_values(fifo, values)
        self._fx.append(("e", fifo.decl.name, tuple(values)))


class _IssuePark(Park):
    """A free-running follower leaf between two of its own ticks.

    Every cycle of the span is an issue or a conflict-stall cycle of the
    activation's :class:`_Schedule` — both charge ``busy`` once — so the
    per-cycle effect is scheduled rather than constant: ``charge``
    applies the issues that fall inside the cycles it is handed.
    """

    __slots__ = ("leaf", "at")

    def __init__(self, leaf, at: int, until: int):
        super().__init__(until=until, busy_unit=leaf.name)
        self.leaf = leaf
        #: cycles since issue 0 accounted for (so far: by the leaf's
        #: own tick, which issued at this offset)
        self.at = at

    def charge(self, stats, span: int) -> None:
        leaf = self.leaf
        enum = leaf._enum
        offsets = leaf._schedule.offsets
        self.at += span
        stats.busy(self.busy_unit, span)
        hi = bisect_right(offsets, self.at, enum.i, len(offsets) - 1)
        if hi > enum.i:
            stats.vector_issues += hi - enum.i
            leaf._apply(enum.i, hi)
            enum.i = hi


class _ReplayInnerComputeSim(InnerComputeSim):
    """A follower's inner compute: zero expression evaluation — effects
    come from the leader's log, timing from the activation's
    :class:`_Schedule` under this instance's banking.

    A leaf whose body emits into a FIFO, or whose machine is traced,
    steps issue by issue like any ``InnerComputeSim`` (backpressure can
    stall it between issues; a tracer is owed BUSY / BANK_CONFLICT marks
    per cycle).  Any other leaf *runs free* once it has issued: nothing
    outside the unit can delay it and replay reads nothing, so it parks
    on an :class:`_IssuePark` until the latest issue cycle its machine's
    watchdog lets it stay silent until (normally the activation's last
    issue) and re-ticks there.
    """

    def __init__(self, leaf, config, mem, stats, fifos, log, watchdog):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._watchdog = watchdog
        self._cursor = 0
        self._act: Optional[_ActivationLog] = None
        self._schedule: Optional[_Schedule] = None
        #: the banking configuration schedules are shared under
        self._banking = tuple(s.banks for s in mem.scratchpads.values())
        #: the free-running park, while one is open
        self._ahead: Optional[_IssuePark] = None
        #: the issue the current tick made (None: it made none)
        self._issued: Optional[int] = None

    def _begin_body(self, bindings, version):
        acts = self._log.get(self.name, ())
        if self._cursor >= len(acts):
            raise SimulationError(
                f"{self.name}: batch replay log exhausted at activation "
                f"{self._cursor} — followers may only vary timing "
                "parameters")
        self._act = acts[self._cursor]
        self._cursor += 1
        self._accs = {}
        self._enum = _ReplayEnumerator(self._act.batches)
        self._schedule = self._act.schedule(self._banking,
                                            self.mem.scratchpads)

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
        super().tick(cycle)
        if (self._issued is not None and not self._emit_demand
                and self.trace is None):
            self._run_free(self._issued, cycle)

    def _run_free(self, i: int, cycle: int) -> None:
        """Issue ``i`` left at ``cycle``: park until the latest issue
        cycle the watchdog cannot trip before.  The unit re-ticks *on*
        an issue cycle, so whenever it registers progress the stepped
        run does too, and from the last issue on they agree."""
        offsets = self._schedule.offsets
        k = bisect_right(offsets, offsets[i] + self._watchdog, i,
                         len(offsets) - 1) - 1
        if k > i + 1:
            self._ahead = self._park = _IssuePark(
                self, offsets[i], cycle + offsets[k] - offsets[i])

    def _execute(self, batch):
        if not self._check_fifo_room(batch.lanes):
            return None
        k = self._issued = batch.index
        self._apply(k, k + 1)
        offsets = self._schedule.offsets
        return offsets[k + 1] - offsets[k] - 1

    def _apply(self, lo: int, hi: int) -> None:
        """Issues ``[lo, hi)`` of the activation happen: their effects
        land and every counter ``_execute`` charges for them moves.
        (Conflict pricing is not replayed: the schedule re-derived it
        from the recorded address groups against this instance's
        banking, so a banks override reshapes every stall exactly as a
        solo run.)"""
        batches = self._act.batches
        if lo == 1 and hi == len(batches) - 1:
            effects = (self._act.middle(self.mem),)
        else:
            effects = [batch.frozen(self.mem) for batch in batches[lo:hi]]
        for rec in effects:
            self._land(rec)
        scratchpads = self.mem.scratchpads
        schedule = self._schedule
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
            for name, extra, lanes in schedule.conflicts.get(lo, ()):
                self.trace.emit(EventKind.BANK_CONFLICT, name,
                                (extra, lanes))

    def _land(self, rec: _FrozenBatch) -> None:
        """One frozen effect set reaches this instance's scratchpads,
        registers and FIFOs."""
        version = self._version
        for name, flats, values, wm in rec.sram:
            scratch = self.mem.scratchpads[name]
            scratch.buffer(version).reshape(-1)[flats] = values
            if wm >= 0:
                scratch.note_write(version, wm)
        for name, value in rec.regs:
            self.mem.registers[name].write(value)
        for name, values in rec.emits:
            self.fifos[name].push(list(values))

    def _apply_finals(self):
        self._land(self._act.finals(self.mem))


class _RecordingMachine(Machine):
    """A Machine whose inner computes log their functional effects."""

    def __init__(self, dhdl, config, log, **kwargs):
        self._batch_log = log
        super().__init__(dhdl, config, **kwargs)

    def _build_leaf(self, ctrl):
        if isinstance(ctrl, InnerCompute):
            return _RecordingInnerComputeSim(
                ctrl, self.config, self.mem, self.stats, self.fifos,
                self._batch_log)
        return super()._build_leaf(ctrl)


class _ReplayMachine(Machine):
    """A Machine whose inner computes replay a leader's log."""

    def __init__(self, dhdl, config, log, **kwargs):
        self._batch_log = log
        super().__init__(dhdl, config, **kwargs)

    def _build_leaf(self, ctrl):
        if isinstance(ctrl, InnerCompute):
            return _ReplayInnerComputeSim(
                ctrl, self.config, self.mem, self.stats, self.fifos,
                self._batch_log, self.watchdog)
        return super()._build_leaf(ctrl)


# ---------------------------------------------------------------------------
# Results and the driver
# ---------------------------------------------------------------------------


@dataclass
class InstanceResult:
    """Outcome of one batch member, in input order."""

    index: int
    params: dict
    role: str = "solo"                # solo | leader | replay
    machine: Optional[Machine] = None
    stats: Optional[SimStats] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    """Per-instance results plus batching diagnostics."""

    instances: List[InstanceResult] = field(default_factory=list)
    cohorts: int = 0
    replayed: int = 0

    def __iter__(self):
        return iter(self.instances)

    def __len__(self):
        return len(self.instances)

    def __getitem__(self, i):
        return self.instances[i]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.instances)


def _run(slot: InstanceResult, machine: Machine) -> None:
    """Run one instance to completion, capturing its error in its slot."""
    slot.machine = machine
    try:
        slot.stats = machine.run()
    except (SimulationError, DeadlockError) as err:
        slot.error = f"{type(err).__name__}: {err}"


def run_batch(source, param_list, scheduler: str = "event",
              tracer_factory=None) -> BatchResult:
    """Simulate N instances of one compiled design in one pass.

    ``source`` — a :class:`~repro.bitstream.artifact.Bitstream` (or a
    ``(dhdl, config)`` pair); ``param_list`` — one override dict per
    instance (``None``/``{}`` for the as-compiled configuration), with
    keys from :data:`TIMING_KEYS` and :data:`FUNCTIONAL_KEYS`.
    ``tracer_factory(index, params)`` may supply a per-instance tracer.

    Returns a :class:`BatchResult` whose per-instance stats, memory
    images, and stall attribution are bit-identical to sequential
    ``Machine.run`` calls with the same overrides.
    """
    check_mode(scheduler)
    dhdl_config = _unpack(source)
    entries = [normalize_params(p) for p in param_list]
    results = [InstanceResult(i, param_list[i] if param_list[i] else {})
               for i in range(len(entries))]
    if not entries:
        return BatchResult()

    def kwargs_for(i):
        kw = {"scheduler": scheduler}
        if tracer_factory is not None:
            kw["tracer"] = tracer_factory(i, entries[i])
        return kw

    # group into cohorts (input order preserved within each), led by
    # the first member that overrides neither limit: a leader whose own
    # max_cycles/watchdog trips costs the whole cohort its replay
    cohorts: Dict[Tuple, List[int]] = {}
    for i, entry in enumerate(entries):
        cohorts.setdefault(cohort_key(entry), []).append(i)
    for members in cohorts.values():
        members.sort(key=lambda i: not LIMIT_KEYS.isdisjoint(entries[i]))

    # phase A: leaders (recording) and singletons (plain)
    logs: Dict[Tuple, dict] = {}
    for key, members in cohorts.items():
        lead = members[0]
        if len(members) == 1:
            machine = instantiate(dhdl_config, entries[lead],
                                  **kwargs_for(lead))
        else:
            logs[key] = {}
            machine = instantiate(
                dhdl_config, entries[lead], machine_cls=_RecordingMachine,
                log=logs[key], **kwargs_for(lead))
            results[lead].role = "leader"
        _run(results[lead], machine)

    # phase B: followers replay their leader's log; cohorts whose
    # leader failed fall back to full solo runs
    replayed = 0
    for key, members in cohorts.items():
        leader_ok = results[members[0]].ok
        for i in members[1:]:
            if leader_ok:
                machine = instantiate(
                    dhdl_config, entries[i], machine_cls=_ReplayMachine,
                    log=logs[key], **kwargs_for(i))
                results[i].role = "replay"
                replayed += 1
            else:
                machine = instantiate(dhdl_config, entries[i],
                                      **kwargs_for(i))
            _run(results[i], machine)

    return BatchResult(instances=results, cohorts=len(cohorts),
                       replayed=replayed)
