"""Attribution-only measurements: calls made just to give a layer a number.

Nothing here runs in an end-to-end (untraced) run.  Each function calls
one layer's public functions directly, from outside, and returns
per-layer metric values keyed by metric name.  Keys starting with ``_``
are inputs to derived metrics and are not reported themselves.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import time
from typing import Dict, List

import numpy as np

from paths import scratch_dir

from repro.bitstream.artifact import CompileOptions
from repro.bitstream.cache import CompileCache
from repro.compiler.artifact import freeze_program
from repro.compiler.lowering import Lowerer
from repro.dram.model import DramModel
from repro.dram.request import DramRequest
from repro.eval import table7
from repro.eval.paper_data import TABLE7
from repro.serve import (ReproService, ServeConfig, dispatch,
                         parse_request)
from repro.sim import Machine
from repro.sim.batch import instantiate
from repro.trace import RingTracer


def compile_layers(cases) -> Dict[str, float]:
    """``Lowerer.lower`` on its own, and a ``CompileCache`` round trip on
    a temp directory, for every pattern case."""
    root = scratch_dir("cache-")
    cache = CompileCache(root)
    lower_s = put_s = get_s = 0.0
    try:
        for k, case in enumerate(cases):
            options = case.options or CompileOptions()
            program = case.build()
            started = time.perf_counter()
            Lowerer(program, tile_words=options.tile_words,
                    whole_budget=options.whole_budget).lower()
            lower_s += time.perf_counter() - started
            # distinct app names: the cache key is (app, scale, options)
            artifact = freeze_program(case.build(), f"{case.name}#{k}",
                                      "bench", options=case.options)
            cache.get(artifact.key)             # miss
            started = time.perf_counter()
            cache.put(artifact)
            put_s += time.perf_counter() - started
            started = time.perf_counter()
            hit = cache.get(artifact.key)       # hit
            get_s += time.perf_counter() - started
            if hit is None or hit.content_hash != artifact.content_hash:
                raise RuntimeError(f"{case.name}: cache round trip "
                                   f"changed the artifact")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"compiler.lower_s": lower_s,
            "bitstream.cache_put_s": put_s,
            "bitstream.cache_get_s": get_s,
            "bitstream.cache_hits": cache.stats.hits,
            "bitstream.cache_misses": cache.stats.misses}


# ---------------------------------------------------------------------------
# dram: the DDR3 model driven directly
# ---------------------------------------------------------------------------

#: two addresses this far apart share channel and bank but not row
_ROW_GROUP = 262144


def _stream(kind: str, n: int):
    """(byte addresses, is_write flags, tenant ids) for one stream."""
    rng = np.random.default_rng(11)
    k = np.arange(n)
    writes = np.zeros(n, dtype=bool)
    tenants = None
    if kind == "seq":
        addrs = k * 64
    elif kind == "rowconf":
        # each channel's bank 0 ping-pongs between two rows
        rounds = k // 4
        addrs = ((k % 4) * 64 + (rounds % 2) * _ROW_GROUP
                 + (rounds // 2 % 128) * 2048)
    elif kind in ("random_rw", "weighted"):
        addrs = rng.integers(0, 1 << 18, n) * 64
        writes = rng.random(n) < 0.3
        if kind == "weighted":
            tenants = k % 2
    else:
        raise ValueError(f"unknown stream {kind!r}")
    return addrs.tolist(), writes.tolist(), tenants


#: bursts kept in flight by the direct drive: what one 512-word TileLoad
#: issues, so the channel queues are as deep as a streaming leaf makes them
_IN_FLIGHT = 32


def dram_drive(kind: str, n: int) -> float:
    """Host microseconds per request for ``n`` bursts pushed through
    ``DramModel.submit/tick/deliver``, ``_IN_FLIGHT`` at a time."""
    addrs, writes, tenants = _stream(kind, n)
    model = DramModel()
    if tenants is not None:
        model.set_tenant_weight(0, 8)
        model.set_tenant_weight(1, 1)
    sent = done = 0
    started = time.perf_counter()
    while done < n:
        while (sent < n and sent - done < _IN_FLIGHT
               and model.can_accept(addrs[sent])):
            if tenants is not None:
                model.tenant = int(tenants[sent])
            model.submit(DramRequest(addrs[sent], is_write=writes[sent]))
            sent += 1
        model.tick()
        done += len(model.deliver())
        if model.cycle > 1000 * n + 10_000:
            raise RuntimeError(f"dram drive {kind!r} made no progress")
    return (time.perf_counter() - started) / n * 1e6


# ---------------------------------------------------------------------------
# trace, eval, batch, serve
# ---------------------------------------------------------------------------


def ring_tracer_ratio(cases) -> Dict[str, float]:
    """``Machine.run`` with a ``RingTracer`` over the same runs without."""
    plain_s = traced_s = 0.0
    events = 0
    for case in cases:
        artifact = freeze_program(case.build(), case.name, "bench",
                                  options=case.options)
        machine = Machine(artifact.dhdl, artifact.config)
        started = time.perf_counter()
        machine.run()
        plain_s += time.perf_counter() - started
        tracer = RingTracer()
        machine = Machine(artifact.dhdl, artifact.config, tracer=tracer)
        started = time.perf_counter()
        machine.run()
        traced_s += time.perf_counter() - started
        events += tracer.events_emitted
    return {"trace.ring_run_ratio": traced_s / plain_s,
            "trace.events": events}


def table7_log_error(scale: str) -> float:
    """Mean over the 13 apps of |ln(modelled / paper)| for Table 7's
    Plasticine-vs-FPGA performance ratio: the model's stated error
    against the one reference the repo holds."""
    rows = table7.generate(scale, validate=False)
    errors = [abs(math.log(row.perf_ratio / TABLE7[row.name][2]))
              for row in rows]
    return sum(errors) / len(errors)


def batch_solo_base(designs) -> Dict[str, float]:
    """One solo run per design: the base of the batch speed-up."""
    solo_ms = sequential_s = 0.0
    for _, artifact, grid in designs:
        machine = instantiate(artifact, grid[0])
        started = time.perf_counter()
        machine.run()
        solo_s = time.perf_counter() - started
        solo_ms += solo_s * 1e3
        sequential_s += solo_s * len(grid)
    return {"sim.batch_solo_ms": solo_ms,
            "_batch_sequential_s": sequential_s}


def _stub_runner(payload: dict) -> dict:
    return {"ok": True, "status": 200, "simulate": {"cycles": 0}}


def serve_in_process(bodies: List[dict]) -> Dict[str, float]:
    """Serve-layer costs with no socket and no pool: ``parse_request``
    per body, and ``dispatch`` of requests the result LRU can answer
    (router + protocol + job table)."""
    started = time.perf_counter()
    for body in bodies:
        parse_request(body, "simulate")
    parse_us = (time.perf_counter() - started) / len(bodies) * 1e6

    raw = [json.dumps(body).encode("utf-8") for body in bodies]
    root = scratch_dir("serve-stub-")

    async def replay() -> float:
        service = ReproService(ServeConfig(no_cache=True, data_dir=root),
                               runner=_stub_runner)
        try:
            for blob in raw:                    # fills the result LRU
                await dispatch(service, "POST", "/simulate", blob)
            started = time.perf_counter()
            for blob in raw:
                response = await dispatch(service, "POST", "/simulate",
                                          blob)
                if response.status != 200:
                    raise RuntimeError(f"stub dispatch: {response.status}")
            return time.perf_counter() - started
        finally:
            await service.drain()

    try:
        cached_s = asyncio.run(replay())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"serve.parse_us": parse_us,
            "serve.dispatch_cached_us": cached_s / len(raw) * 1e6}
