"""The recursive tile span walk, kept as a reference.

``repro.sim.leaves.tile_bursts`` builds a tile transfer's whole burst
table when the activation starts, and the engine indexes it per tick.
This module is what came before: ``tile_spans`` yields one
``(dram_word_off, word_count, sram_flat_off)`` span per tile row from a
recursive generator, ``TileStoreSim.start`` clipped those spans to a
dynamic word count, and each tick cut ``WORDS_PER_BURST`` words off the
head span.  :func:`reference_bursts` replays that walk to the list of
``(word_off, words, sram_flat)`` bursts it issued, in order.  Nothing
under ``src/`` may import it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.leaves import WORDS_PER_BURST


def tile_spans(leaf, offsets):
    """Yield (dram_word_off, word_count, sram_flat_off) per tile row.

    A tile of shape T over a row-major DRAM array of shape S starting
    at ``offsets`` decomposes into contiguous runs of the innermost
    dimension; runs are clipped to the array extents (partial edge
    tiles load what exists, the rest of the scratchpad keeps its
    previous/zero contents).
    """
    dram_shape = [int(d) if isinstance(d, int) else None
                  for d in leaf.dram.shape]
    if not dram_shape:          # 0-d cell: a single word
        dram_shape = [1]
        offsets = [0]
    tile = leaf.tile_shape or (1,)
    inner = tile[-1]
    outer_dims = tile[:-1]
    total_words = leaf.dram.words()
    inner_limit = (dram_shape[-1] if dram_shape[-1] is not None
                   else total_words)

    def flatten(prefix_positions):
        """Row-major flat word offset of (prefix..., offsets[-1])."""
        flat = 0
        for k, pos in enumerate(prefix_positions):
            flat = flat * dram_shape[k] + pos if k else pos
        if len(dram_shape) > 1:
            flat = flat * dram_shape[-1]
        return flat + offsets[-1]

    def rec(axis, prefix, sram_off):
        if axis == len(outer_dims):
            start = flatten(prefix)
            count = min(inner, inner_limit - offsets[-1],
                        total_words - start)
            if count > 0:
                yield (start, count, sram_off)
            return
        size = dram_shape[axis] if dram_shape[axis] is not None \
            else 1 << 30
        inner_words = 1
        for d in tile[axis + 1:]:
            inner_words *= d
        for t in range(outer_dims[axis]):
            pos = offsets[axis] + t
            if pos >= size:
                continue
            yield from rec(axis + 1, prefix + [pos],
                           sram_off + t * inner_words)

    yield from rec(0, [], 0)


def reference_bursts(leaf, offsets, count: Optional[int] = None
                     ) -> List[Tuple[int, int, int]]:
    """``(word_off, words, sram_flat)`` of every burst the span walk
    issued, in issue order; ``count`` is a store's dynamic word
    count."""
    spans = list(tile_spans(leaf, offsets))
    if count is not None:
        remaining = count
        clipped = []
        for word_off, words, sram_flat in spans:
            if remaining <= 0:
                break
            take = min(words, remaining)
            clipped.append((word_off, take, sram_flat))
            remaining -= take
        spans = clipped
    bursts = []
    while spans:
        word_off, words, sram_flat = spans[0]
        burst_words = min(words, WORDS_PER_BURST)
        bursts.append((word_off, burst_words, sram_flat))
        if burst_words == words:
            spans.pop(0)
        else:
            spans[0] = (word_off + burst_words, words - burst_words,
                        sram_flat + burst_words)
    return bursts
