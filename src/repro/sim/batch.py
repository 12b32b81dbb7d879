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
* The first member of each cohort (the **leader**) runs normally while
  recording a columnar functional log per inner-compute activation:
  for every vector issue, the SRAM/register/hash writes it performed
  (struct-of-arrays: flat addresses and values as numpy arrays), the
  FIFO words it emitted, and the read/write address groups that price
  bank conflicts.
* Every other member (a **follower**) runs the *identical* cycle-level
  timing loop — scheduler, outer controllers, transfers, DRAM model,
  FIFO backpressure, stall attribution — but its inner-compute leaves
  replay the recorded effects instead of evaluating expressions.
  Conflict pricing is re-derived per instance from the recorded address
  groups, so ``banks`` overrides still reshape every stall.
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
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dhdl.ir import InnerCompute
from repro.dram.model import DramModel
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.patterns.collections import _np_dtype
from repro.sim.leaves import InnerComputeSim
from repro.sim.machine import Machine
from repro.sim.scheduler import check_mode
from repro.sim.stats import SimStats

#: overrides that only change *when* things happen, never *what* values
#: the datapath computes — cohort members may differ in these freely
TIMING_KEYS = frozenset({
    "stages", "pipeline_depth", "input_hops", "output_hops", "banks",
    "coalesce_entries", "dram_queue_depth", "watchdog", "max_cycles",
})

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

    __slots__ = ("batches", "finish")

    def __init__(self):
        self.batches: List[_RawBatch] = []
        self.finish: Optional[list] = None


class _FrozenBatch:
    """One vector issue's effects in columnar (struct-of-arrays) form."""

    __slots__ = ("lanes", "sram", "regs", "emits", "reads", "writes",
                 "price_memo")

    def __init__(self, lanes, sram, regs, emits, reads, writes):
        self.lanes = lanes
        #: per scratchpad: (name, flat addrs int64[], values dtype[], wm)
        self.sram = sram
        self.regs = regs
        self.emits = emits
        self.reads = reads
        self.writes = writes
        #: (kind, group index, banks) -> conflict cost, shared by every
        #: follower pricing this issue (pure in addrs + banking config)
        self.price_memo: dict = {}


class _RawBatch:
    """Recorded effect events for one vector issue (frozen lazily)."""

    __slots__ = ("lanes", "events", "reads", "writes", "_frozen")

    def __init__(self, lanes, events, reads, writes):
        self.lanes = lanes
        self.events = events
        self.reads = reads
        self.writes = writes
        self._frozen: Optional[_FrozenBatch] = None

    def frozen(self, mem_state) -> _FrozenBatch:
        """Columnar form, built once and shared by all followers."""
        if self._frozen is None:
            self._frozen = self._freeze(mem_state)
        return self._frozen

    def _freeze(self, mem_state) -> _FrozenBatch:
        per_mem: Dict[str, dict] = {}
        wm: Dict[str, int] = {}
        regs = []
        emits = []
        for ev in self.events:
            kind = ev[0]
            if kind == "s":            # SRAM write (tracks watermark)
                _, name, flat, value = ev
                bucket = per_mem.get(name)
                if bucket is None:
                    bucket = per_mem[name] = {}
                bucket[flat] = value
                if flat > wm.get(name, -1):
                    wm[name] = flat
            elif kind == "h":          # hash-table write (no watermark)
                _, name, key, value = ev
                bucket = per_mem.get(name)
                if bucket is None:
                    bucket = per_mem[name] = {}
                bucket[key] = value
            elif kind == "r":
                regs.append((ev[1], ev[2]))
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
        return _FrozenBatch(self.lanes, tuple(sram), tuple(regs),
                            tuple(emits), self.reads, self.writes)


class _ReplayEnumerator:
    """Stand-in for ChainEnumerator: yields the recorded batches."""

    __slots__ = ("_batches", "_i")

    def __init__(self, batches):
        self._batches = batches
        self._i = 0

    def next_batch(self) -> Optional[_RawBatch]:
        if self._i >= len(self._batches):
            return None
        batch = self._batches[self._i]
        self._i += 1
        return batch


class _RecordingInnerComputeSim(InnerComputeSim):
    """The leader's inner compute: normal execution + effect logging."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._act: Optional[_ActivationLog] = None
        self._sink: Optional[list] = None
        self._last_reads: tuple = ()
        self._last_writes: tuple = ()

    def _begin_body(self, bindings, version):
        self._act = _ActivationLog()
        self._log.setdefault(self.name, []).append(self._act)
        super()._begin_body(bindings, version)

    def _execute(self, batch):
        self._sink = []
        extra = super()._execute(batch)
        if extra is not None:
            # FIFO-full retries never reach the effect primitives, so a
            # None result always leaves an empty (discardable) sink
            self._act.batches.append(_RawBatch(
                batch.lanes, self._sink, self._last_reads,
                self._last_writes))
        return extra

    def _price(self, read_accesses, write_addrs):
        self._last_reads = tuple(
            (name, tuple(addrs))
            for (name, _site), addrs in read_accesses.items())
        self._last_writes = tuple(
            (name, tuple(addrs)) for name, addrs in write_addrs.items())
        return super()._price(read_accesses, write_addrs)

    def _apply_finals(self):
        self._sink = []
        super()._apply_finals()
        self._act.finish = self._sink

    def _write_sram(self, mem, idxs, value):
        flat = super()._write_sram(mem, idxs, value)
        self._sink.append(("s", mem.name, flat, value))
        return flat

    def _write_reg(self, mem, value):
        super()._write_reg(mem, value)
        self._sink.append(("r", mem.name, value))

    def _hash_store(self, mem, buf, key, value):
        super()._hash_store(mem, buf, key, value)
        # record the post-assignment cell: it carries the exact dtype
        # cast the replayed assignment must reproduce
        self._sink.append(("h", mem.name, int(key), buf.flat[key]))

    def _emit_values(self, fifo, values):
        super()._emit_values(fifo, values)
        self._sink.append(("e", fifo.decl.name, tuple(values)))


class _ReplayInnerComputeSim(InnerComputeSim):
    """A follower's inner compute: identical timing loop, zero
    expression evaluation — effects come from the leader's log."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._cursor = 0
        self._act: Optional[_ActivationLog] = None

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

    def _execute(self, batch):
        rec = batch.frozen(self.mem)
        if not self._check_fifo_room(rec.lanes):
            return None
        version = self._version
        scratchpads = self.mem.scratchpads
        for name, flats, values, wm in rec.sram:
            scratch = scratchpads[name]
            buf = scratch.buffer(version)
            buf.reshape(-1)[flats] = values
            if wm >= 0:
                scratch.note_write(version, wm)
        registers = self.mem.registers
        for name, value in rec.regs:
            registers[name].write(value)
        fifos = self.fifos
        for name, values in rec.emits:
            fifos[name].push(list(values))
        # conflict pricing is *not* replayed: it is recomputed from the
        # recorded address groups against this instance's banking, so a
        # banks override reshapes every stall exactly as a solo run
        # (memoized per banks value — the cost is pure in the addresses
        # and banking config, only the counter charges are per instance)
        extra = 0
        memo = rec.price_memo
        for gi, (name, addrs) in enumerate(rec.reads):
            scratch = scratchpads[name]
            key = (0, gi, scratch.banks)
            cost = memo.get(key)
            if cost is None:
                cost = memo[key] = scratch.read_extra(addrs)
            scratch.account_read(len(addrs), cost)
            if cost > extra:
                extra = cost
        for gi, (name, addrs) in enumerate(rec.writes):
            scratch = scratchpads[name]
            key = (1, gi, scratch.banks)
            cost = memo.get(key)
            if cost is None:
                cost = memo[key] = scratch.write_extra(addrs)
            scratch.account_write(len(addrs), cost)
            if cost > extra:
                extra = cost
        self.stats.conflict_cycles += extra
        self.stats.ops_executed += self._ops_per_lane * rec.lanes
        return extra

    def _apply_finals(self):
        version = self._version
        for ev in self._act.finish or ():
            kind = ev[0]
            if kind == "s":
                _, name, flat, value = ev
                scratch = self.mem.scratchpads[name]
                buf = scratch.buffer(version)
                buf.reshape(-1)[flat] = _np_dtype(
                    scratch.sram.dtype)(value)
                scratch.note_write(version, flat)
            elif kind == "r":
                self.mem.registers[ev[1]].write(ev[2])
            elif kind == "h":
                _, name, key, value = ev
                buf = self.mem.scratchpads[name].buffer(version)
                buf.flat[key] = value
            else:
                self.fifos[ev[1]].push(list(ev[2]))


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
                self._batch_log)
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

    def stats_list(self) -> List[Optional[SimStats]]:
        return [r.stats for r in self.instances]


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

    # group into cohorts (input order preserved within each)
    cohorts: Dict[Tuple, List[int]] = {}
    for i, entry in enumerate(entries):
        cohorts.setdefault(cohort_key(entry), []).append(i)

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
