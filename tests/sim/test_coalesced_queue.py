"""Gathers and scatters are address streams decoded once, as columns.

:class:`PerElementMachine` runs the walk they replaced on the same
stream hooks: each dispatched address is ``list.pop(0)``-ed off a queue
of ``(element, position)`` pairs, bounds-checked, turned into a byte
address (``DramImage.byte_addr``) and, on a miss, decoded
(``_TransferCommon._decode``) when it is reached; a scatter writes each
value with its own ``write_words``; each element of a completed gather
burst is read from the DRAM image and stored one at a time.  Every run
must end as that one does under both schedulers — the same error at the
same cycle, the same statistics, scratchpads and DRAM, and, traced, the
same ``COALESCE_HIT`` and ``AG_BURST`` events in the same order — on the
sparse registry apps, behind a full coalescer or a one-deep channel
queue, with a gather, a scatter and a tile stream sharing one channel,
under fault plans, when the watchdog trips and with a count past either
end of the addresses.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_to_bitstream
from repro.dhdl import (BankingMode, DhdlProgram, Gather, OuterController,
                        Scatter, Scheme, TileLoad, TileStore, validate)
from repro.dram.model import DramModel
from repro.dram.request import DramRequest
from repro.dram.timing import DramGeometry
from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import AgAssignment, Machine
from repro.sim.leaves import GatherSim, ScatterSim
from repro.trace import RingTracer
from repro.trace.events import EventKind

from tests.sim.test_block_modes import _outcome
from tests.sim.test_machine_handbuilt import default_config


class _PerElement:
    """The per-address walk, on the stream's ``_lay_out``/``_pump``
    hooks."""

    def _lay_out(self, elems):
        self._queue = list(zip(map(int, elems), range(len(elems))))
        self._open = {}
        self._words = self.leaf.dram.words()
        self._stream(len(self._queue))

    def _pump(self, at, end):
        while at < end:
            elem, pos = self._queue[0]
            if elem < 0 or elem >= self._words:
                raise SimulationError(
                    f"{self.name}: {self.KIND} index {elem} out of bounds "
                    f"for {self.leaf.dram.name!r}")
            addr = self.image.byte_addr(self.leaf.dram.name, elem)
            burst = addr // 64
            if burst in self._open:
                self._hit(burst, elem, pos)
                self.coalesced_hits += 1
                if self.trace is not None:
                    self.trace.emit(EventKind.COALESCE_HIT, self.name,
                                    (burst,))
            elif len(self._open) >= self.COALESCE_ENTRIES:
                break
            else:
                channel, bank, row = self._decode(addr)
                if len(channel.queue) >= channel.queue_depth:
                    break
                self._miss(DramRequest(addr, self.WRITES, burst, bank, row),
                           channel, elem, pos)
            self._queue.pop(0)
            at += 1
        return at


class PerElementGather(_PerElement, GatherSim):
    def _hit(self, burst, elem, pos):
        self._open[burst].append((pos, elem))

    def _miss(self, request, channel, elem, pos):
        self._open[request.tag] = [(pos, elem)]
        self._issue(request, channel)

    def _on_burst(self, request):
        pendings = self._open.pop(request.tag, [])
        buf = self.mem.scratch(self.leaf.dst_sram).buffer(
            self._version).reshape(-1)
        for pos, elem in pendings:
            if pos >= buf.size:
                raise SimulationError(
                    f"{self.name}: gather destination overflow")
            buf[pos] = self.image.read_words(
                self.leaf.dram.name, elem, 1)[0]


class PerElementScatter(_PerElement, ScatterSim):
    def _hit(self, burst, elem, pos):
        self.image.write_words(self.leaf.dram.name, elem,
                               [self._values[pos]])
        self._open[burst] += 1

    def _miss(self, request, channel, elem, pos):
        self.image.write_words(self.leaf.dram.name, elem,
                               [self._values[pos]])
        self._open[request.tag] = 1
        self._issue(request, channel)


class PerElementMachine(Machine):
    def _build_leaf(self, ctrl):
        kinds = {Gather: PerElementGather, Scatter: PerElementScatter}
        if type(ctrl) in kinds:
            return kinds[type(ctrl)](ctrl, self.config, self.mem,
                                     self.stats, self.dram, self.image)
        return super()._build_leaf(ctrl)


#: the discrete events the comparison reads
_SPARSE_EVENTS = (EventKind.COALESCE_HIT, EventKind.AG_BURST)


def _events(build, cls, kw):
    """A traced run: its outcome and its coalescer and burst events."""
    tracer = RingTracer(sample=1)
    machine = build(cls, dict(kw, tracer=tracer))
    outcome = _outcome(machine)
    assert tracer.events_dropped == 0
    return outcome, [(e.cycle, e.kind, e.unit, e.data)
                     for e in tracer.events if e.kind in _SPARSE_EVENTS]


def _alike(build, traced=True):
    """Both schedulers, against the per-element walk under both, and —
    unless ``traced`` is off — the traced runs' sparse events; the
    outcome (and the events, or None)."""
    outcome = _outcome(build(Machine, {}))
    for cls in (Machine, PerElementMachine):
        for mode in ("event", "dense"):
            assert _outcome(build(cls, {"scheduler": mode})) == outcome
    if not traced:
        return outcome, None
    events = None
    for cls in (Machine, PerElementMachine):
        for mode in ("event", "dense"):
            seen = _events(build, cls, {"scheduler": mode})
            # a traced deadlock also names what every unit waited on
            assert seen[0][1:] == outcome[1:]
            if events is None:
                traced_outcome, events = seen
            assert seen == (traced_outcome, events)
    return outcome, events


def _app(app, scale="tiny", **config):
    compiled = compile_to_bitstream(app, scale)
    if config:
        compiled.config = dataclasses.replace(compiled.config, **config)
    return lambda cls, kw: cls(compiled.dhdl, compiled.config, **kw)


@pytest.mark.parametrize("app", ["bfs", "pagerank", "smdv"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_sparse_apps_end_as_the_per_element_walk(app, scale):
    (error, *_), events = _alike(_app(app, scale), traced=scale == "tiny")
    assert error is None
    if events is not None:
        kinds = {kind for _, kind, _, _ in events}
        assert kinds == set(_SPARSE_EVENTS)


def test_a_full_coalescer_waits_as_the_walk_does():
    """One coalescer entry: every miss behind an open burst is a
    bandwidth wait on the coalescer."""
    (error, cycle, stats, *_), _ = _alike(_app("bfs",
                                               coalesce_entries=1))
    assert error is None
    assert (cycle, stats["dram_stall_cycles"]) == (2470, 716)


def test_a_one_deep_channel_queue_waits_as_the_walk_does():
    build = _app("pagerank")
    (error, _, stats, *_), _ = _alike(
        lambda cls, kw: build(cls, dict(kw, dram=DramModel(queue_depth=1))))
    assert error is None and stats["dram_stall_cycles"] > 0


def _gather(n, idx, dst_words, count=None, **config):
    """Gather ``n`` addresses ``idx`` of a 64-word table into a
    ``dst_words``-word scratchpad (``count``: the leaf's address count),
    then store it (``config``: fabric settings)."""
    table = np.arange(100, 164, dtype=np.float32)
    dhdl = DhdlProgram("gather")
    dram_table = dhdl.dram(Array("tbl", (64,), E.FLOAT32, data=table))
    dram_idx = dhdl.dram(Array("idx", (n,), E.INT32,
                               data=np.asarray(idx, np.int32)))
    dram_out = dhdl.dram(Array("o", (dst_words,), E.FLOAT32))
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
    dst_tile = dhdl.sram("dst_tile", (dst_words,), E.FLOAT32,
                         banking=BankingMode.DUPLICATION)
    body = OuterController("pipe", Scheme.SEQUENTIAL)
    dhdl.root.add(body)
    body.add(TileLoad("load_idx", dram_idx, idx_tile, (0,), (n,)))
    body.add(Gather("gather", dram_table, idx_tile, dst_tile,
                    count=None if count is None else E.wrap(count)))
    body.add(TileStore("store", dram_out, dst_tile, (0,), (dst_words,)))
    validate(dhdl)
    config = dataclasses.replace(default_config(dhdl), **config)
    return lambda cls, kw: cls(dhdl, config, **kw)


def test_an_out_of_bounds_index_fails_at_its_element():
    idx = np.random.default_rng(5).integers(0, 64, 48)
    idx[29] = 64
    (error, cycle, stats, *_), _ = _alike(_gather(48, idx, 48))
    assert error == ("SimulationError: gather: gather index 64 out of "
                     "bounds for 'tbl'")
    # the addresses before it were dispatched
    assert stats["busy_cycles"]["gather"] > 0


def _scatter(n, idx, count=None, ags=(0,)):
    """Scatter ``n`` values 1, 2, ... to addresses ``idx`` of a 64-word
    array (``count``: the leaf's address count) on AG streams ``ags``."""
    dhdl = DhdlProgram("scatter")
    dram_idx = dhdl.dram(Array("idx", (n,), E.INT32,
                               data=np.asarray(idx, np.int32)))
    dram_vals = dhdl.dram(Array("vals", (n,), E.FLOAT32,
                                data=np.arange(1, n + 1, dtype=np.float32)))
    dram_out = dhdl.dram(Array("out", (64,), E.FLOAT32))
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32)
    val_tile = dhdl.sram("val_tile", (n,), E.FLOAT32)
    body = OuterController("seq", Scheme.SEQUENTIAL)
    dhdl.root.add(body)
    body.add(TileLoad("load_idx", dram_idx, idx_tile, (0,), (n,)))
    body.add(TileLoad("load_vals", dram_vals, val_tile, (0,), (n,)))
    body.add(Scatter("scatter", dram_out, idx_tile, val_tile,
                     count=None if count is None else E.wrap(count)))
    validate(dhdl)
    config = default_config(dhdl)
    config.ag_assign["scatter"] = AgAssignment(ag_ids=ags)
    return lambda cls, kw: cls(dhdl, config, **kw)


def test_an_out_of_bounds_scatter_writes_what_came_before_it():
    """Four AG streams: the two addresses dispatched beside the
    out-of-bounds one, in its cycle, are written before it fails."""
    idx = np.random.default_rng(9).permutation(64)[:48]
    idx[30] = 64
    (error, *_, dram), _ = _alike(_scatter(48, idx, ags=(0, 1, 2, 3)))
    assert error == ("SimulationError: scatter: scatter index 64 out of "
                     "bounds for 'out'")
    out = np.frombuffer(dram["out"], np.float32)
    assert np.count_nonzero(out) == 30
    assert out[idx[28]] == 29 and out[idx[29]] == 30


@pytest.mark.parametrize("count", [-2, 0, 5, 48, 60])
@pytest.mark.parametrize("kind", ["gather", "scatter"])
def test_a_count_is_clamped_to_the_addresses(kind, count):
    """Both engines dispatch their count clamped to ``[0, addresses]``:
    a negative count moves nothing (it once sliced a scatter's
    addresses from the end), one past them moves them all."""
    idx = np.random.default_rng(11).permutation(64)[:48]
    moved = min(max(count, 0), 48)
    if kind == "gather":
        (error, *_, dram), _ = _alike(_gather(48, idx, 48, count=count))
        out = np.frombuffer(dram["o"], np.float32)
        want = np.zeros(48, np.float32)
        want[:moved] = 100 + idx[:moved]
    else:
        (error, *_, dram), _ = _alike(_scatter(48, idx, count))
        out = np.frombuffer(dram["out"], np.float32)
        want = np.zeros(64, np.float32)
        want[idx[:moved]] = np.arange(1, moved + 1)
    assert error is None
    assert (out == want).all()


@pytest.mark.parametrize("order", ["ascending", "random"])
def test_a_destination_overflow_lands_what_fits_first(order):
    """The destination holds 40 of 48 words: the burst that completes
    with element 40 lands the ones before it, then fails."""
    idx = np.arange(48) if order == "ascending" else \
        np.random.default_rng(6).integers(0, 64, 48)
    (error, _cycle, _stats, pads, *_), _ = _alike(_gather(48, idx, 40))
    assert error == "SimulationError: gather: gather destination overflow"
    (_version, landed), = [v for v in pads["dst_tile"][0] if v[0] != ()]
    assert np.frombuffer(landed, np.float32).any()


def _three_streams():
    """A gather, a scatter and a tile load started by one PIPELINE
    controller in the same cycle, on a one-channel memory with four-deep
    queues: the scatter writes the values at the addresses the gather
    reads (repeats included), while the load streams its table."""
    n = 96
    rng = np.random.default_rng(8)
    dhdl = DhdlProgram("three")
    table = dhdl.dram(Array("tbl", (512,), E.FLOAT32,
                            data=np.arange(512, dtype=np.float32)))
    idx = dhdl.dram(Array("idx", (n,), E.INT32,
                          data=rng.integers(0, 512, n).astype(np.int32)))
    vals = dhdl.dram(Array("vals", (n,), E.FLOAT32,
                           data=rng.standard_normal(n).astype(np.float32)))
    out = dhdl.dram(Array("out", (512,), E.FLOAT32))
    src = dhdl.dram(Array("src", (1024,), E.FLOAT32,
                          data=rng.standard_normal(1024).astype(np.float32)))
    idx_tile = dhdl.sram("idx_tile", (n,), E.INT32,
                         banking=BankingMode.DUPLICATION)
    val_tile = dhdl.sram("val_tile", (n,), E.FLOAT32)
    dst_tile = dhdl.sram("dst_tile", (n,), E.FLOAT32,
                         banking=BankingMode.DUPLICATION)
    tile = dhdl.sram("tile", (1024,), E.FLOAT32)
    prep = OuterController("prep", Scheme.SEQUENTIAL)
    dhdl.root.add(prep)
    prep.add(TileLoad("load_idx", idx, idx_tile, (0,), (n,)))
    prep.add(TileLoad("load_vals", vals, val_tile, (0,), (n,)))
    both = OuterController("all", Scheme.PIPELINE)
    dhdl.root.add(both)
    both.add(Gather("gather", table, idx_tile, dst_tile))
    both.add(Scatter("scatter", out, idx_tile, val_tile))
    both.add(TileLoad("load", src, tile, (0,), (1024,)))
    validate(dhdl)
    config = default_config(dhdl)
    return lambda cls, kw: cls(dhdl, config, **dict(
        {"dram": DramModel(geometry=DramGeometry(channels=1),
                           queue_depth=4)}, **kw))


def test_a_gather_a_scatter_and_a_tile_stream_share_one_channel():
    (error, _, stats, *_, dram), events = _alike(_three_streams())
    assert error is None and stats["dram_stall_cycles"] > 0
    units = {}
    for cycle, kind, unit, _ in events:
        if kind is EventKind.AG_BURST:
            units.setdefault(cycle, []).append(unit)
    # all three submit in one cycle, in dense order
    assert ["gather", "scatter", "load"] in units.values()
    # a repeated address keeps the last value written to it
    idx = np.frombuffer(dram["idx"], np.int32)
    vals = np.frombuffer(dram["vals"], np.float32)
    last = {int(i): v for i, v in zip(idx, vals)}
    assert len(last) < len(idx)
    out = np.frombuffer(dram["out"], np.float32)
    assert all(out[i] == v for i, v in last.items())


def _streaming_gather(build):
    """``(name, cycle)``: a gather that admits on the cycles before and
    after ``cycle`` too, so it is streaming then."""
    machine = build(Machine, {})
    admits = []

    def probe(gather, admit):
        def wrapped(now):
            admits.append((gather.name, now))
            return admit(now)
        return wrapped

    for leaf in machine._leaves:
        if isinstance(leaf, GatherSim):
            leaf.admit = probe(leaf, leaf.admit)
    machine.run()
    seen = set(admits)
    return next((name, now) for name, now in admits
                if {(name, now - 1), (name, now + 1)} <= seen)


def test_a_unit_fail_stops_a_streaming_gather():
    """A gather dies while it streams: what it has in flight still
    lands, and the watchdog's typed fault names it."""
    build = _app("bfs", coalesce_entries=2)
    unit, cycle = _streaming_gather(build)
    plan = FaultPlan([FaultEvent(cycle=cycle, kind="unit_fail",
                                 unit=unit)])
    (error, *_), _ = _alike(
        lambda cls, kw: build(cls, dict(kw, fault_plan=plan, watchdog=300)))
    assert error.startswith("FaultError") and f"unit_fail {unit}" in error


def test_a_dram_slow_plan_delays_gathers_as_the_walk_does():
    plan = FaultPlan([FaultEvent(cycle=100, kind="dram_slow", channel=k,
                                 extra=25) for k in (0, 2)])
    build = _app("pagerank")
    (error, cycle, *_), _ = _alike(
        lambda cls, kw: build(cls, dict(kw, fault_plan=plan)))
    assert error is None and cycle > 405


def test_the_watchdog_trips_while_a_gather_waits_on_a_full_coalescer():
    """One coalescer entry behind a slow channel: between a miss and its
    completion nothing moves, so a watchdog shorter than that round
    trip trips while the gather waits."""
    build = _gather(480, np.random.default_rng(3).integers(0, 64, 480),
                    480, coalesce_entries=1)

    def slow(cls, kw):
        machine = build(cls, dict(kw, watchdog=80))
        for channel in machine.dram.channels:
            channel.extra_latency = 70
        return machine

    (error, cycle, stats, *_), _ = _alike(slow)
    assert error.startswith("DeadlockError") and "['gather']" in error
    assert stats["dram_stall_cycles"] > 0
