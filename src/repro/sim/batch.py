"""Batched simulation: N instances of one compiled design, one pass.

Figure-7 sweeps, DSE, fuzz campaigns, and service traffic all simulate
the *same compiled structure* under different parameters.  Every solo
compute leaf already evaluates its body a block of issues at a time and
follows the block's log (``repro.sim.leaves``); ``run_batch`` shares
those logs across instances without giving up cycle-exactness:

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
  cut its log short) runs normally; its compute leaves keep the blocks
  they evaluate, and their end-of-activation reduce results, per
  activation (:class:`~repro.sim.leaves.Activation`).  A leader's log
  is just its leaves' own logs.
* Every other member (a **follower**) runs the same scheduler, outer
  controllers, DRAM model and FIFOs, but its compute leaves evaluate
  nothing: they follow the leader's blocks exactly as the leader's
  leaves followed them.  A block is priced **once per banking
  configuration** (:class:`~repro.sim.block.Schedule`) and shared by
  the cohort, so a ``banks`` override still reshapes every stall.
  Followers park across blocks under the rules a solo leaf does, so
  dense ≡ event and a ``max_cycles``/watchdog exit leaves the stepped
  run's partial state.
* A follower's transfers move their own data, issue their own bursts
  and take all their DRAM timing, but its tiles build no burst table.
  A leader's tile engines keep each activation's table after the key it
  was built from (the tile offsets and word limit); a follower's engine
  evaluates its own key and takes the leader's table for it, read-only.
  A key that differs is a :class:`ReplayError` naming the leaf and the
  activation, never the leader's table.  A cohort's compute log and
  tables are freed once its last follower has run.  A ``dse_sweep``
  pass builds 51 burst tables where it built 1 794, and its median
  ``wall_s`` fell from 0.362 to 0.327 s (2-vCPU container, ten
  alternating pairs).  Gathers and scatters still decode their own
  addresses: sharing those columns
  as well saved 1-4 % of a batched bfs, pagerank or smdv sweep in
  timers around the decode, and nothing end-to-end runs could resolve.
* Instances run **back to back**, each to completion through the
  ordinary ``Machine.run`` (leaders first, then followers): they own
  separate DRAM models and share nothing, so nothing observes their
  interleaving.  Stepping them jointly through one driver was measured
  to *cost* ~8 % of a Figure-7 sweep.

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

from repro.arch.params import PlasticineParams
from repro.bitstream.artifact import Bitstream
from repro.bitstream.config import check_banks
from repro.dhdl.ir import InnerCompute
from repro.errors import (ConfigError, DeadlockError, ReplayError,
                          SimulationError)
from repro.patterns.collections import _np_dtype
from repro.sim.leaves import Activation, InnerComputeSim, _TileCommon
from repro.sim.machine import Machine
from repro.sim.scheduler import check_mode
from repro.sim.stats import SimStats

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


def normalize_params(entry: Optional[dict],
                     params: PlasticineParams) -> dict:
    """Validate one instance's override dict (None means defaults) for
    a design on the architecture ``params``."""
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
    if "banks" in entry:
        check_banks(entry["banks"], params, "batch override banks")
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


def _check_source(source) -> None:
    if not isinstance(source, Bitstream):
        raise ConfigError(f"cannot batch-run {type(source).__name__}; "
                          "pass a Bitstream")


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
        banks = ov["banks"]
        changes["banks_override"] = None if banks is None else int(banks)
    if "coalesce_entries" in ov:
        changes["coalesce_entries"] = max(1, int(ov["coalesce_entries"]))
    if "dram_queue_depth" in ov:
        params = config.params
        changes["params"] = replace(params, dram=replace(
            params.dram, queue_depth=max(1, int(ov["dram_queue_depth"]))))
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


def instantiate(source: Bitstream, overrides: Optional[dict] = None,
                machine_cls=Machine, **machine_kwargs) -> Machine:
    """One Machine for the artifact ``source`` with an override dict
    applied.

    Shared by ``run_batch`` and the sequential reference side of the
    equivalence tests/fuzz oracle, so both sides are guaranteed to
    build identically configured instances.
    """
    _check_source(source)
    dhdl, config = source.dhdl, source.config
    ov = normalize_params(overrides, config.params)
    kwargs = dict(machine_kwargs)
    if "watchdog" in ov:
        kwargs["watchdog"] = int(ov["watchdog"])
    if "max_cycles" in ov:
        kwargs["max_cycles"] = int(ov["max_cycles"])
    machine = machine_cls(dhdl, _configured(config, ov), **kwargs)
    for name, arr in (ov.get("data") or {}).items():
        _override_dram(machine.image, name, arr)
    return machine


# ---------------------------------------------------------------------------
# The functional log (a leader's leaves keep it, followers replay it)
# ---------------------------------------------------------------------------


class _ReplayInnerComputeSim(InnerComputeSim):
    """A follower's inner compute: zero expression evaluation — it
    follows the leader's :class:`~repro.sim.leaves.Activation` blocks,
    each priced under this instance's banking (once per banking, for
    the cohort), exactly as a solo leaf follows its own."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._cursor = 0
        self._replay: Optional[Activation] = None
        self._blocks = iter(())

    def _begin_body(self, bindings, version):
        acts = self._log.get(self.name, ())
        if self._cursor >= len(acts):
            raise _exhausted(self.name, self._cursor)
        self._replay = acts[self._cursor]
        self._cursor += 1
        self._blocks = iter(self._replay.blocks)

    def _next_block(self):
        return next(self._blocks, None)

    def _apply_finals(self):
        act = self._replay
        if act.grouped is None:
            act.grouped = group_finals(act.finals, self.mem.scratchpads)
        version = self._version
        for name, flats, values in act.grouped:
            if flats is None:
                self.mem.registers[name].write(values)
            else:
                scratch = self.mem.scratchpads[name]
                scratch.buffer(version).reshape(-1)[flats] = values
                scratch.note_write(version, int(flats[-1]))


def group_finals(finals, scratchpads) -> List[Tuple]:
    """A leader's end-of-activation results (``Activation.finals``:
    ``(memory, flat address or None, value)`` in write order) as a
    follower applies them: each register write as it was, then one
    ``(scratchpad, flats, values)`` write per scratchpad — its distinct
    addresses ascending, each with the value its last write left.
    Every value is converted as a single store converts it
    (``_np_dtype(dtype)(value)``: float32 rounding, an out-of-range
    int32 raises), so one assignment per scratchpad lands what the
    writes one by one did.  Built once per activation, for the cohort.
    """
    grouped = []
    writes: Dict[str, List[Tuple[int, object]]] = {}
    for name, flat, value in finals:
        if flat is None:
            grouped.append((name, None, value))
        else:
            writes.setdefault(name, []).append((flat, value))
    for name, pairs in writes.items():
        convert = _np_dtype(scratchpads[name].sram.dtype)
        cells = {flat: convert(value) for flat, value in pairs}
        flats = sorted(cells)
        grouped.append((name, np.array(flats, np.int64),
                        np.array([cells[flat] for flat in flats], convert)))
    return grouped


def _exhausted(name: str, cursor: int) -> ReplayError:
    return ReplayError(
        f"{name}: batch replay log exhausted at activation {cursor} — "
        "followers may only vary timing parameters")


class _LayoutRecorder:
    """A leader's tile engine hook: builds each activation's burst
    table and keeps it, after the key it was built from, in
    ``entries``."""

    def __init__(self, entries: list):
        self.entries = entries

    def take(self, engine: _TileCommon, key):
        layout = engine._build(key)
        self.entries.append((key, layout))
        return layout


class _LayoutReplay:
    """A follower's tile engine hook: hands back the leader's burst
    tables in activation order, each only for the key the leader built
    it from — a follower that evaluated anything else is a
    :class:`ReplayError`, never a wrong table."""

    def __init__(self, entries: list):
        self.entries = entries
        self.cursor = 0

    def take(self, engine: _TileCommon, key):
        at = self.cursor
        if at >= len(self.entries):
            raise _exhausted(engine.name, at)
        logged, layout = self.entries[at]
        self.cursor = at + 1
        if logged != key:
            raise ReplayError(
                f"{engine.name}: batch replay of activation {at} laid out "
                "other inputs than the leader's — followers may only vary "
                "timing parameters")
        return layout


class _RecordingMachine(Machine):
    """A Machine whose inner computes keep their activations' logs in
    ``log`` (leaf name -> activations) and whose tile engines keep
    their activations' burst tables in ``layouts`` (leaf name ->
    ``(key, table)`` entries; a fresh map when not given)."""

    def __init__(self, dhdl, config, log, layouts=None, **kwargs):
        super().__init__(dhdl, config, **kwargs)
        layouts = {} if layouts is None else layouts
        for leaf in self._leaves:
            if isinstance(leaf, InnerComputeSim):
                leaf.record = log.setdefault(leaf.name, [])
            elif isinstance(leaf, _TileCommon):
                leaf.layouts = _LayoutRecorder(
                    layouts.setdefault(leaf.name, []))


class _ReplayMachine(Machine):
    """A Machine whose inner computes replay a leader's log and whose
    tile engines take the leader's burst tables."""

    def __init__(self, dhdl, config, log, layouts, **kwargs):
        self._batch_log = log
        super().__init__(dhdl, config, **kwargs)
        for leaf in self._leaves:
            if isinstance(leaf, _TileCommon):
                leaf.layouts = _LayoutReplay(layouts.get(leaf.name, []))

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


def _run(slot: InstanceResult, machine: Machine) -> None:
    """Run one instance to completion, capturing its error in its slot."""
    slot.machine = machine
    try:
        slot.stats = machine.run()
    except (SimulationError, DeadlockError) as err:
        slot.error = f"{type(err).__name__}: {err}"


def run_batch(source: Bitstream, param_list, scheduler: str = "event",
              tracer_factory=None) -> BatchResult:
    """Simulate N instances of one compiled design in one pass.

    ``source`` — a :class:`~repro.bitstream.artifact.Bitstream` (any
    other object is a :class:`ConfigError`); ``param_list`` — one
    override dict per instance (``None``/``{}`` for the as-compiled
    configuration), with keys from :data:`TIMING_KEYS` and
    :data:`FUNCTIONAL_KEYS`.
    ``tracer_factory(index, params)`` may supply a per-instance tracer.

    Returns a :class:`BatchResult` whose per-instance stats, memory
    images, and stall attribution are bit-identical to sequential
    ``Machine.run`` calls with the same overrides.
    """
    check_mode(scheduler)
    _check_source(source)
    entries = [normalize_params(p, source.config.params)
               for p in param_list]
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

    # phase A: leaders (recording) and singletons (plain); a cohort's
    # log is its compute log and its tile engines' burst tables
    logs: Dict[Tuple, Tuple[dict, dict]] = {}
    for key, members in cohorts.items():
        lead = members[0]
        if len(members) == 1:
            machine = instantiate(source, entries[lead],
                                  **kwargs_for(lead))
        else:
            log, layouts = logs[key] = {}, {}
            machine = instantiate(
                source, entries[lead], machine_cls=_RecordingMachine,
                log=log, layouts=layouts, **kwargs_for(lead))
            results[lead].role = "leader"
        _run(results[lead], machine)

    # phase B: followers replay their leader's log; cohorts whose
    # leader failed fall back to full solo runs
    replayed = 0
    for key, members in cohorts.items():
        leader_ok = results[members[0]].ok
        for i in members[1:]:
            if leader_ok:
                log, layouts = logs[key]
                machine = instantiate(
                    source, entries[i], machine_cls=_ReplayMachine,
                    log=log, layouts=layouts, **kwargs_for(i))
                results[i].role = "replay"
                replayed += 1
            else:
                machine = instantiate(source, entries[i],
                                      **kwargs_for(i))
            _run(results[i], machine)
        if key in logs:
            # the cohort is done: free its compute log and burst
            # tables, which its machines' leaves still reach from the
            # results
            log, layouts = logs.pop(key)
            for kept in (*log.values(), *layouts.values()):
                kept.clear()

    return BatchResult(instances=results, cohorts=len(cohorts),
                       replayed=replayed)
