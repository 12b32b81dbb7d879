"""Transfers bind their buffers once per activation, exactly.

A tile load, a tile store and a gather look their scratchpad buffer up
once and keep it until the scratchpad's version set changes
(``ScratchpadSim.epoch``).  :class:`LookupMachine` runs the engines
they replaced, which look everything up again for every burst:
``mem.scratch`` → ``buffer``/``read_buffer`` → ``reshape``, and the
DRAM image through ``read_words``/``buffers[name]``.  Every run must
end as that one does under both schedulers — the same error at the same
cycle, the same statistics, scratchpads and DRAM image — when a
retirement sweep drops the version a long transfer streams from or to
(a store's fallback, once a concurrent loop has made two newer ones; a
load's or a gather's own, forced), when sweeps run under long loads at
``nbuf`` 1, when pipelined stores read fallback versions, when a
streaming unit fails, and when a tile overruns its scratchpad or starts
before its array.  After every burst the bound view must be the buffer
a lookup gives.
"""

import dataclasses

import numpy as np
import pytest

from repro.dhdl import (BankingMode, Counter, CounterChain, DhdlProgram,
                        Gather, OuterController, Scheme, TileLoad, TileStore,
                        validate)
from repro.dram.request import DramRequest
from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultPlan
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import Machine
from repro.sim.leaves import GatherSim, TileLoadSim, TileStoreSim
from repro.sim.scratchpad import ScratchpadSim

from tests.sim.test_block_modes import _outcome
from tests.sim.test_machine_handbuilt import default_config


class LookupTileLoad(TileLoadSim):
    def _on_burst(self, request: DramRequest) -> None:
        _, _, _, _, word_off, count, sram_flat = request.tag
        words = self.image.read_words(self.leaf.dram.name, word_off, count)
        buf = self.mem.scratch(self.leaf.sram).buffer(self._version)
        flat_view = buf.reshape(-1)
        if sram_flat + count > flat_view.size:
            raise SimulationError(
                f"{self.name}: tile overruns scratchpad "
                f"{self.leaf.sram.name!r}")
        flat_view[sram_flat:sram_flat + count] = words.astype(buf.dtype)


class LookupTileStore(TileStoreSim):
    def _burst(self, entry, channel) -> None:
        byte_addr, _, bank, row, word_off, words, sram_flat = entry
        scratch = self.mem.scratch(self.leaf.sram)
        buf = scratch.read_buffer(self._version).reshape(-1)
        scratch.reads += words
        self.image.write_words(self.leaf.dram.name, word_off,
                               buf[sram_flat:sram_flat + words])
        self._issue(DramRequest(byte_addr, True, None, bank, row), channel)


class LookupGather(GatherSim):
    def _on_burst(self, request: DramRequest) -> None:
        at = self._open.pop(request.tag, [])
        buf = self.mem.scratch(self.leaf.dst_sram).buffer(
            self._version).reshape(-1)
        for pos in at:
            if pos >= buf.size:
                raise SimulationError(
                    f"{self.name}: gather destination overflow")
            buf[pos] = self.image.buffers[self.leaf.dram.name][
                self._elems[pos]]


class LookupMachine(Machine):
    def _build_leaf(self, ctrl):
        kinds = {TileLoad: LookupTileLoad, TileStore: LookupTileStore,
                 Gather: LookupGather}
        if type(ctrl) in kinds:
            return kinds[type(ctrl)](ctrl, self.config, self.mem,
                                     self.stats, self.dram, self.image)
        return super()._build_leaf(ctrl)


def _alike(build):
    """Both schedulers, bound views against per-burst lookups; the
    outcome."""
    outcome = _outcome(build(Machine, {}))
    for cls in (Machine, LookupMachine):
        for mode in ("event", "dense"):
            assert _outcome(build(cls, {"scheduler": mode})) == outcome
    return outcome


def _lookup(engine):
    """The flat buffer a per-burst lookup would give ``engine`` now
    (reading no version into being)."""
    scratch = engine._scratch
    if isinstance(engine, TileStoreSim):
        return scratch.read_buffer(engine._version)
    return scratch.versions[engine._version]


def _epoch_moves(build):
    """A run under the event scheduler that holds every burst's bound
    view to what a lookup gives right after it; returns how many bursts
    met a scratchpad whose version set had changed since their engine
    bound its view."""
    moved = [0]
    hooks = [(TileLoadSim, "_on_burst"), (GatherSim, "_on_burst"),
             (TileStoreSim, "_burst")]
    saved = [(cls, name, getattr(cls, name)) for cls, name in hooks]

    def checking(method):
        def checked(engine, *args):
            scratch = engine._scratch
            if scratch is not None and scratch.epoch != engine._epoch:
                moved[0] += 1
            method(engine, *args)
            assert np.shares_memory(engine._view, _lookup(engine))
        return checked

    for cls, name, method in saved:
        setattr(cls, name, checking(method))
    try:
        build(Machine, {}).run()
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)
    return moved[0]


def _store_beside_a_version_loop(words=4096, rounds=3):
    """A long store of ``buf`` (``nbuf`` 1) beside a loop that loads a
    slice of ``buf`` round after round.  The store falls back to the
    version a load wrote before; each round is a newer one, so once two
    exist the retirement sweep drops the store's while it streams, and
    its next burst reads a new, blank version."""
    rng = np.random.default_rng(4)
    dhdl = DhdlProgram("sweep")
    src = dhdl.dram(Array("src", (words,), E.FLOAT32,
                          data=rng.standard_normal(words).astype(np.float32)))
    again = dhdl.dram(Array("again", (words,), E.FLOAT32,
                            data=rng.standard_normal(words)
                            .astype(np.float32)))
    dst = dhdl.dram(Array("dst", (words,), E.FLOAT32))
    buf = dhdl.sram("buf", (words,), E.FLOAT32, nbuf=1)
    dhdl.root.add(TileLoad("ld0", src, buf, (0,), (words,)))
    both = OuterController("both", Scheme.SEQUENTIAL)
    dhdl.root.add(both)
    both.add(TileStore("st", dst, buf, (0,), (words,)))
    r = E.Idx("r")
    loop = OuterController("loop", Scheme.SEQUENTIAL, chain=CounterChain(
        [Counter(0, rounds)], [r]))
    both.add(loop)
    loop.add(TileLoad("ld", again, buf, (0,), (words // 8,)))
    validate(dhdl)
    config = default_config(dhdl)
    return lambda cls, kw: cls(dhdl, config, **kw)


def test_a_sweep_that_drops_a_streaming_stores_version():
    build = _store_beside_a_version_loop()
    error, cycle, _stats, _pads, _regs, dram = _alike(build)
    assert error is None and cycle > 512
    assert _epoch_moves(build) > 0
    out = np.frombuffer(dram["dst"], np.float32)
    src = np.frombuffer(dram["src"], np.float32)
    # it began on the first load's data; what it stored after the sweep
    # is blank
    assert (out[:16] == src[:16]).all() and (out[-16:] == 0).all()


def _long_writer(kind, words=4096):
    """A long load or gather into ``buf``, then a store of it.  Edges
    keep every other writer of ``buf`` off it while it streams, so the
    first retirement sweep is handed two versions newer than anything
    to make it drop the writer's own: the next burst makes it again."""
    rng = np.random.default_rng(5)
    dhdl = DhdlProgram("writer")
    src = dhdl.dram(Array("src", (words,), E.FLOAT32,
                          data=rng.standard_normal(words).astype(np.float32)))
    idx = dhdl.dram(Array("idx", (words,), E.INT32,
                          data=rng.integers(0, words, words)
                          .astype(np.int32)))
    dst = dhdl.dram(Array("dst", (words,), E.FLOAT32))
    buf = dhdl.sram("buf", (words,), E.FLOAT32, nbuf=1,
                    banking=BankingMode.DUPLICATION)
    if kind == "gather":
        idx_tile = dhdl.sram("idx_tile", (words,), E.INT32)
        dhdl.root.add(TileLoad("ld_idx", idx, idx_tile, (0,), (words,)))
        dhdl.root.add(Gather("long", src, idx_tile, buf))
    else:
        dhdl.root.add(TileLoad("long", src, buf, (0,), (words,)))
    dhdl.root.add(TileStore("st", dst, buf, (0,), (words,)))
    validate(dhdl)
    # two coalescer entries: the gather's misses take turns
    config = dataclasses.replace(default_config(dhdl), coalesce_entries=2)

    def build(cls, kw):
        machine = cls(dhdl, config, **kw)
        sweep = machine.mem.retire_old

        def first_drops_the_writers():
            pad = machine.mem.scratchpads["buf"]
            if machine.mem.retire_old is not sweep:
                machine.mem.retire_old = sweep
                pad.buffer((1 << 20,))
                pad.buffer((1 << 20, 1))
            sweep()

        machine.mem.retire_old = first_drops_the_writers
        return machine

    return build


@pytest.mark.parametrize("kind", ["load", "gather"])
def test_a_sweep_that_drops_a_streaming_writers_version(kind):
    build = _long_writer(kind)
    error, cycle, _stats, pads, _regs, _dram = _alike(build)
    assert error is None and cycle > 256
    assert _epoch_moves(build) > 0


def _loop_of_long_loads(words=2048, tiles=4, nbuf=1, scheme=Scheme.PIPELINE,
                        tile=None, store_tile=None):
    """A memcpy loop of long tiles through an ``nbuf``-deep scratchpad of
    ``words`` words (loads ``tile`` words, stores ``store_tile``; both
    default to ``words``)."""
    tile = tile or words
    store_tile = store_tile or tile
    n = tiles * max(tile, store_tile)
    data = np.random.default_rng(2).standard_normal(n).astype(np.float32)
    dhdl = DhdlProgram("loads")
    src = dhdl.dram(Array("src", (n,), E.FLOAT32, data=data))
    dst = dhdl.dram(Array("dst", (n,), E.FLOAT32))
    buf = dhdl.sram("buf", (words,), E.FLOAT32, nbuf=nbuf)
    t = E.Idx("t")
    loop = OuterController("loop", scheme, chain=CounterChain(
        [Counter(0, tiles)], [t]))
    dhdl.root.add(loop)
    loop.add(TileLoad("ld", src, buf, (t * tile,), (tile,)))
    loop.add(TileStore("st", dst, buf, (t * store_tile,), (store_tile,)))
    validate(dhdl)
    config = default_config(dhdl)
    return lambda cls, kw: cls(dhdl, config, **kw)


@pytest.mark.parametrize("scheme", [Scheme.SEQUENTIAL, Scheme.PIPELINE])
def test_sweeps_during_long_loads_at_nbuf_1_end_as_lookups_do(scheme):
    build = _loop_of_long_loads(scheme=scheme)
    error, cycle, _stats, _pads, _regs, dram = _alike(build)
    assert error is None
    assert dram["dst"] == dram["src"]
    # sweeps dropped versions while transfers streamed
    assert _epoch_moves(build) > 0


def test_a_store_of_a_fallback_version_ends_as_lookups_do():
    """Every store of a memcpy reads the version its load wrote, one
    child earlier: a fallback.  In a pipeline, loads of the next tiles
    add versions (and sweeps drop them) while it streams."""
    build = _loop_of_long_loads(words=1024, tiles=6, nbuf=2)
    error, _cycle, _stats, pads, _regs, dram = _alike(build)
    assert error is None and dram["dst"] == dram["src"]
    assert _epoch_moves(build) > 0
    versions = [v for v, _ in pads["buf"][0]]
    # only loads wrote versions: the stores' own are all fallbacks
    assert all(v[-1] == 0 for v in versions)


def _streaming_unit(build, kind):
    """A ``kind`` engine's name and a cycle at which it streams."""
    machine = build(Machine, {})
    admits = []
    for leaf in machine._leaves:
        if isinstance(leaf, kind):
            def wrapped(now, leaf=leaf, admit=leaf.admit):
                admits.append((leaf.name, now))
                return admit(now)
            leaf.admit = wrapped
    machine.run()
    seen = set(admits)
    return next((name, now) for name, now in admits[len(admits) // 2:]
                if {(name, now - 1), (name, now + 1)} <= seen)


@pytest.mark.parametrize("kind", [TileLoadSim, TileStoreSim, GatherSim])
def test_a_unit_fail_while_a_transfer_streams_ends_as_lookups_do(kind):
    """What the failed engine has in flight still lands through the
    view it bound; the watchdog then names it."""
    base = _long_writer("gather") if kind is GatherSim \
        else _loop_of_long_loads()
    unit, cycle = _streaming_unit(base, kind)
    plan = FaultPlan([FaultEvent(cycle=cycle, kind="unit_fail", unit=unit)])
    error, *_ = _alike(
        lambda cls, kw: base(cls, dict(kw, fault_plan=plan, watchdog=300)))
    assert error.startswith("FaultError") and f"unit_fail {unit}" in error


@pytest.mark.parametrize("store", [False, True])
def test_a_tile_that_overruns_its_scratchpad_ends_as_lookups_do(store):
    """600-word tiles through a 500-word scratchpad: a load fails at the
    first burst that reaches past it; a store (of a 500-word load)
    writes the words that are there."""
    build = _loop_of_long_loads(words=500, tiles=2,
                                scheme=Scheme.SEQUENTIAL,
                                **({"store_tile": 600} if store
                                   else {"tile": 600}))
    error, _cycle, _stats, _pads, _regs, dram = _alike(build)
    if store:
        assert error is None
        out = np.frombuffer(dram["dst"], np.float32)
        assert out[:500].any() and not out[500:600].any()
    else:
        assert error == ("SimulationError: ld: tile overruns scratchpad "
                         "'buf'")


@pytest.mark.parametrize("store", [False, True])
def test_a_tile_outside_its_array_fails_as_lookups_do(store):
    """A tile that starts 16 words before its array: the load fails as
    its first burst lands, the store as it dispatches it, with the
    ``DramImage`` message."""
    dhdl = DhdlProgram("outside")
    data = np.arange(64, dtype=np.float32)
    src = dhdl.dram(Array("src", (64,), E.FLOAT32, data=data))
    dst = dhdl.dram(Array("dst", (64,), E.FLOAT32))
    buf = dhdl.sram("buf", (64,), E.FLOAT32)
    dhdl.root.add(TileLoad("ld", src, buf, (0 if store else -16,), (64,)))
    dhdl.root.add(TileStore("st", dst, buf, (-16 if store else 0,), (64,)))
    validate(dhdl)
    config = default_config(dhdl)
    error, *_ = _alike(lambda cls, kw: cls(dhdl, config, **kw))
    kind, name = ("write", "dst") if store else ("read", "src")
    assert error == (f"SimulationError: DRAM OOB {kind} {name}[-16:0] "
                     f"(size 64)")


def test_the_epoch_moves_only_with_the_version_set():
    from repro.dhdl.memory import Sram
    pad = ScratchpadSim(Sram("s", (4,), E.FLOAT32, BankingMode.STRIDED, 1))
    assert pad.epoch == 0
    first = pad.buffer((0,))
    assert pad.epoch == 1
    assert pad.buffer((0,)) is first and pad.read_buffer((1,)) is first
    assert pad.epoch == 1
    pad.buffer((1,))
    pad.retire_old()            # two versions: none dropped
    assert pad.epoch == 2
    pad.buffer((2,))
    pad.retire_old()            # three: the oldest goes
    assert pad.epoch == 4 and sorted(pad.versions) == [(1,), (2,)]
