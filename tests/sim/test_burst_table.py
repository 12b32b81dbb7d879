"""A tile transfer's burst table equals the span walk it replaced.

``TileLoadSim``/``TileStoreSim.start`` build the activation's bursts
once (``repro.sim.leaves.tile_bursts``); ``reference_transfers`` keeps
the recursive span walk and the per-tick burst cutting.  Over seeded
random 1-3-D tiles, DRAM shapes, offsets (partial edge tiles and tiles
wholly outside the array), 0-d cells, dynamic store counts, address
bases and DRAM geometries, every burst's ``(word_off, words,
sram_flat)`` must equal the walk's, and its ``(channel, bank, row)``
must be what ``DramParams.map_address`` decodes from its byte
address.
"""

import random

import numpy as np
import pytest

from repro.dhdl import DhdlProgram, TileLoad, TileStore
from repro.arch.params import DramParams
from repro.dram import DramModel
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import (AgAssignment, DramImage, FabricConfig, MemoryState,
                       SimStats, TileLoadSim, TileStoreSim)
from tests.sim.reference_transfers import reference_bursts

GEOMETRIES = [DramParams(),
              DramParams(channels=1, banks_per_channel=1, row_bytes=1024),
              DramParams(channels=2, banks_per_channel=4, row_bytes=2048),
              DramParams(channels=8, banks_per_channel=2, row_bytes=4096,
                         burst_bytes=128)]


def _transfer(rng, store):
    """One random transfer: (engine, leaf, offsets, count)."""
    rank = rng.choice((0, 1, 1, 2, 2, 3))
    if rank == 0:
        shape, tile, offsets = (), (), ()
    else:
        shape = tuple(rng.randint(1, 9) for _ in range(rank - 1)) \
            + (rng.randint(1, 90),)
        tile = tuple(rng.randint(1, 6) for _ in range(rank - 1)) \
            + (rng.randint(1, 50),)
        # now and then past the edge by up to a whole tile: partial and
        # wholly clipped tiles
        reach = 1 if rng.random() < 0.3 else 0
        offsets = tuple(rng.randint(0, d - 1 + reach * t)
                        for d, t in zip(shape, tile))
    if store and rank and rng.random() < 0.3:
        # a store tile may be of another rank than its array
        tile = tile[1:] if rank > 1 and rng.random() < 0.5 \
            else (rng.randint(1, 3),) + tile
    dhdl = DhdlProgram("bursts")
    array = dhdl.dram(Array("a", shape, E.FLOAT32))
    sram = dhdl.sram("tile", tile or (1,), E.FLOAT32)
    words = int(np.prod(tile or (1,)))
    count = rng.randint(-2, words + 3) \
        if store and rng.random() < 0.5 else None
    if store:
        leaf = TileStore("st", array, sram, offsets, tile,
                         count=None if count is None else E.wrap(count))
    else:
        leaf = TileLoad("ld", array, sram, offsets, tile)
    config = FabricConfig()
    config.ag_assign[leaf.name] = AgAssignment(ag_ids=(0,))
    geometry = rng.choice(GEOMETRIES)
    base = 4 * rng.randrange(1 << 20)
    image = DramImage(dhdl.drams, {"a": base})
    engine = (TileStoreSim if store else TileLoadSim)(
        leaf, config, MemoryState(dhdl.srams, dhdl.regs), SimStats(),
        DramModel(geometry), image)
    return engine, leaf, list(offsets), count


@pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
def test_burst_table_equals_the_span_walk(store):
    rng = random.Random(11 + store)
    seen = {"multi_burst_rows": 0, "empty": 0, "partial": 0, "0-d": 0,
            "clipped_by_count": 0}
    for _ in range(600):
        engine, leaf, offsets, count = _transfer(rng, store)
        engine.start({}, (0,))
        table = engine._bursts
        want = reference_bursts(leaf, offsets, count)
        assert [entry[4:] for entry in table] == want
        geometry = engine.dram.params
        for addr, channel, bank, row, word_off, _, _ in table:
            assert addr == engine.image.byte_addr("a", word_off)
            assert (channel, bank, row) == geometry.map_address(addr)[:3]
        seen["multi_burst_rows"] += any(
            word_off + words == next_off and words == 16
            for (word_off, words, _), (next_off, _, _) in zip(want, want[1:]))
        seen["empty"] += not table
        seen["0-d"] += not leaf.dram.shape
        seen["partial"] += 0 < sum(w for _, w, _ in want) < leaf.words()
        if count is not None:
            seen["clipped_by_count"] += sum(w for _, w, _ in want) < min(
                leaf.words(),
                sum(w for _, w, _ in reference_bursts(leaf, offsets)))
    if not store:
        del seen["clipped_by_count"]
    assert all(seen.values()), seen


def test_a_fully_clipped_load_issues_nothing_and_completes():
    """A tile wholly past the array's edge has an empty table: the
    engine completes on its first tick."""
    rng = random.Random(0)
    while True:
        engine, leaf, offsets, _ = _transfer(rng, store=False)
        if leaf.dram.shape and offsets[-1] >= leaf.dram.shape[-1]:
            break
    engine.start({}, (0,))
    assert engine._bursts == [] and engine.busy
    engine.tick(1)
    assert not engine.busy and engine.dram.reads == 0
