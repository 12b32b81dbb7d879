"""Gathers and scatters walk their address queue with a cursor, and a
gather's completed burst lands all its elements in one assignment.

:class:`PerElementMachine` runs what came before: each dispatched address
``list.pop(0)``-ed off the queue's head and each element of a completed
gather burst read from the DRAM image and stored one at a time.  Every
run must end as that one does — the same error at the same cycle, the
same statistics, scratchpads and DRAM — on the sparse registry apps and
when a gather index is out of bounds or the destination overflows.
"""

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.compiler import compile_program
from repro.dhdl import (BankingMode, DhdlProgram, Gather, OuterController,
                        Scatter, Scheme, TileLoad, TileStore, validate)
from repro.dram.request import DramRequest
from repro.errors import SimulationError
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import Machine
from repro.sim.leaves import GatherSim, ScatterSim
from repro.trace.events import EventKind

from tests.sim.test_block_modes import _outcome
from tests.sim.test_machine_handbuilt import default_config


class _PopFront:
    """The queue walk before the cursor: the head address is popped off
    the list once dispatched."""

    def tick(self, cycle):
        if not self._active:
            return
        issued = 0
        blocked = False
        while self._queue and issued < self.streams:
            elem, item = self._queue[0]
            if elem < 0 or elem >= self._words:
                raise SimulationError(
                    f"{self.name}: {self.KIND} index {elem} out of bounds "
                    f"for {self.leaf.dram.name!r}")
            addr = self.image.byte_addr(self.leaf.dram.name, elem)
            burst = addr // 64
            if burst in self._open:
                self._hit(burst, elem, item)
                self.coalesced_hits += 1
                if self.trace is not None:
                    self.trace.emit(EventKind.COALESCE_HIT, self.name,
                                    (burst,))
            elif len(self._open) >= self.COALESCE_ENTRIES:
                blocked = True
                break
            else:
                channel, bank, row = self._decode(addr)
                if len(channel.queue) >= channel.queue_depth:
                    blocked = True
                    break
                self._miss(DramRequest(addr, self.WRITES, burst, bank, row),
                           channel, elem, item)
            self._queue.pop(0)
            issued += 1
        self._account(issued, blocked, cycle)
        if not self._queue:
            self._settle(issued)


class PerElementGather(_PopFront, GatherSim):
    def _hit(self, burst, elem, dst_flat):
        self._open[burst].append((dst_flat, elem))

    def _miss(self, request, channel, elem, dst_flat):
        self._open[request.tag] = [(dst_flat, elem)]
        self._issue(request, channel)

    def _on_burst(self, request):
        pendings = self._open.pop(request.tag, [])
        buf = self.mem.scratch(self.leaf.dst_sram).buffer(
            self._version).reshape(-1)
        for dst_flat, elem in pendings:
            if dst_flat >= buf.size:
                raise SimulationError(
                    f"{self.name}: gather destination overflow")
            buf[dst_flat] = self.image.read_words(
                self.leaf.dram.name, elem, 1)[0]


class PerElementScatter(_PopFront, ScatterSim):
    pass


class PerElementMachine(Machine):
    def _build_leaf(self, ctrl):
        kinds = {Gather: PerElementGather, Scatter: PerElementScatter}
        if type(ctrl) in kinds:
            return kinds[type(ctrl)](ctrl, self.config, self.mem,
                                     self.stats, self.dram, self.image)
        return super()._build_leaf(ctrl)


def _alike(build):
    """Both schedulers, against the per-element walk; the outcome."""
    outcome = _outcome(build(Machine, {}))
    assert _outcome(build(Machine, {"scheduler": "dense"})) == outcome
    assert _outcome(build(PerElementMachine, {})) == outcome
    return outcome


@pytest.mark.parametrize("app", ["bfs", "pagerank", "smdv"])
@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_sparse_apps_end_as_the_per_element_walk(app, scale):
    compiled = compile_program(get_app(app).build(scale))
    error, *_ = _alike(lambda cls, kw: cls(compiled.dhdl, compiled.config,
                                           **kw))
    assert error is None


def _gather(n, idx, dst_words):
    """Gather ``n`` addresses ``idx`` of a 64-word table into a
    ``dst_words``-word scratchpad, then store it."""
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
    body.add(Gather("gather", dram_table, idx_tile, dst_tile))
    body.add(TileStore("store", dram_out, dst_tile, (0,), (dst_words,)))
    validate(dhdl)
    config = default_config(dhdl)
    return lambda cls, kw: cls(dhdl, config, **kw)


def test_an_out_of_bounds_index_fails_at_its_element():
    idx = np.random.default_rng(5).integers(0, 64, 48)
    idx[29] = 64
    error, cycle, stats, *_ = _alike(_gather(48, idx, 48))
    assert error == ("SimulationError: gather: gather index 64 out of "
                     "bounds for 'tbl'")
    # the addresses before it were dispatched
    assert stats["busy_cycles"]["gather"] > 0


@pytest.mark.parametrize("order", ["ascending", "random"])
def test_a_destination_overflow_lands_what_fits_first(order):
    """The destination holds 40 of 48 words: the burst that completes
    with element 40 lands the ones before it, then fails."""
    idx = np.arange(48) if order == "ascending" else \
        np.random.default_rng(6).integers(0, 64, 48)
    error, _cycle, _stats, pads, *_ = _alike(_gather(48, idx, 40))
    assert error == "SimulationError: gather: gather destination overflow"
    (_version, landed), = [v for v in pads["dst_tile"][0] if v[0] != ()]
    assert np.frombuffer(landed, np.float32).any()
