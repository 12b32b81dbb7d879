"""Stateless job execution, run on the service's process pool.

:func:`execute_job` is a module-level function of one picklable payload
dict — no service object, no shared interpreter state — so it runs
identically inline (unit tests), on a thread (injected runners), or in
a pool worker process.  All state it touches is derived from the
payload: a worker-local :class:`~repro.bitstream.cache.CompileCache`
handle on the shared cache directory (safe under concurrent writers:
unique temp names + atomic renames of canonical bytes) and the service
data directory for content-addressed artifacts and trace files.

It never raises for job-shaped failures: every outcome is a result
dict with ``ok``, an HTTP-ish ``status``, and either the result fields
or a structured ``error`` — the async service maps those straight onto
responses without unpickling exceptions across process boundaries.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.bitstream.artifact import (Bitstream, CompileOptions,
                                      compile_key, hash_bytes)
from repro.bitstream.cache import CompileCache
from repro.errors import DeadlockError, ReproError, SimulationError


def artifact_path(data_dir: str, content_hash: str) -> Path:
    """Where the content-addressed artifact store keeps one bitstream."""
    return Path(data_dir) / "artifacts" / f"{content_hash}.json"


def trace_path(data_dir: str, job_id: str) -> Path:
    """Where one job's Chrome/Perfetto trace JSON lives."""
    return Path(data_dir) / "traces" / f"{job_id}.trace.json"


def _error(status: int, stage: str, err: BaseException) -> dict:
    return {"ok": False, "status": status,
            "error": {"stage": stage, "type": type(err).__name__,
                      "message": str(err)}}


def _options(params: dict) -> CompileOptions:
    return CompileOptions(tile_words=int(params["tile_words"]),
                          whole_budget=int(params["whole_budget"]))


def _resolve_artifact(payload: dict,
                      cache: Optional[CompileCache]
                      ) -> Tuple[Bitstream, Optional[bytes], dict]:
    """Obtain the bitstream for a job: load, cache hit, or compile.

    Also returns the artifact's canonical bytes when getting it meant
    encoding it (a fresh spec compile written to the cache), so the job
    never encodes the same artifact twice; None otherwise.
    """
    params = payload["params"]
    kind = payload["kind"]
    blob = None
    started = time.perf_counter()
    if kind == "artifact":
        path = artifact_path(payload["data_dir"],
                             payload["artifact_hash"])
        if not path.is_file():
            raise FileNotFoundError(
                f"no stored artifact {payload['artifact_hash']}; "
                f"compile it first via POST /compile")
        artifact = Bitstream.load(path)
        meta = {"outcome": "stored", "corrupt": 0, "compiled": False}
    elif kind == "app":
        from repro.compiler.artifact import compile_app_cached
        artifact, outcome = compile_app_cached(
            payload["app"], payload["scale"], cache=cache)
        meta = {"outcome": outcome,
                "corrupt": cache.stats.corrupt if cache else 0,
                "compiled": outcome in ("miss", "off")}
    else:  # spec
        from repro.compiler.artifact import freeze_program
        from repro.fuzz.generator import build_program
        from repro.serve.protocol import spec_digest
        spec = payload["spec"]
        options = _options(params)
        app_name = f"spec-{spec_digest(spec)[:16]}"
        key = compile_key(app_name, "serve", options=options)
        artifact = cache.get(key) if cache is not None else None
        if artifact is not None:
            meta = {"outcome": "hit", "corrupt": 0, "compiled": False}
        else:
            program, _ = build_program(spec)
            artifact = freeze_program(program, app_name, "serve",
                                      options=options)
            if cache is not None:
                blob = artifact.to_bytes()
                cache.put(artifact, blob)
                meta = {"outcome": "miss",
                        "corrupt": cache.stats.corrupt,
                        "compiled": True}
            else:
                meta = {"outcome": "off", "corrupt": 0,
                        "compiled": True}
    meta["compile_ms"] = round(
        (time.perf_counter() - started) * 1e3, 3)
    return artifact, blob, meta


def _store_artifact(artifact: Bitstream, blob: Optional[bytes],
                    data_dir: str) -> str:
    """Content-address the artifact under the data dir; returns hash.

    ``blob`` is the artifact's canonical bytes if the job already has
    them; they are encoded here — once, for the hash and the file —
    otherwise.
    """
    if blob is None:
        blob = artifact.to_bytes()
    digest = hash_bytes(blob)
    path = artifact_path(data_dir, digest)
    if not path.is_file():
        artifact.save(path, blob)
    return digest


def execute_multi(payload: dict) -> dict:
    """Pack and co-simulate several registry apps on one fabric.

    The tenancy packer compiles region-constrained artifacts, which are
    packing-specific — so multi jobs bypass the compile cache and the
    artifact store; the deterministic result is still safe to coalesce
    and result-cache by job key.
    """
    from repro.errors import MappingError
    from repro.tenancy import co_run

    params = payload["params"]
    priorities = payload.get("priorities")
    started = time.perf_counter()
    try:
        res = co_run(payload["apps"], scale=payload["scale"],
                     watchdog=int(params["watchdog"]),
                     max_cycles=int(params["max_cycles"]),
                     validate=True, priorities=priorities)
    except MappingError as err:
        return _error(422, "pack", err)
    except (DeadlockError, SimulationError) as err:
        return _error(422, "simulate", err)
    sim_ms = round((time.perf_counter() - started) * 1e3, 3)
    out = res.as_dict()
    return {
        "ok": True, "status": 200, "mode": "multi",
        "apps": payload["apps"], "scale": payload["scale"],
        "priorities": priorities,
        "simulate": {"sim_ms": sim_ms,
                     "fabric_cycles": out["fabric_cycles"]},
        "fabric_cycles": out["fabric_cycles"],
        "channel_util": out["channel_util"],
        "pack_report": out["pack_report"],
        "qos": out["qos"],
        "tenants": out["tenants"],
    }


def execute_job(payload: dict) -> dict:
    """Run one job payload to a result dict (never raises for
    job-shaped failures; programming bugs do propagate and are mapped
    to a 500 by the service)."""
    if payload["kind"] == "multi":
        return execute_multi(payload)
    params = payload["params"]
    cache = (CompileCache(payload["cache_dir"])
             if payload["cache_dir"] is not None else None)
    try:
        artifact, blob, compile_meta = _resolve_artifact(payload, cache)
    except FileNotFoundError as err:
        return _error(404, "resolve", err)
    except ReproError as err:
        # structurally valid spec the compiler still rejects
        return _error(422, "compile", err)
    content_hash = _store_artifact(artifact, blob, payload["data_dir"])
    result = {
        "ok": True, "status": 200,
        "app": artifact.app, "scale": artifact.scale,
        "key": artifact.key, "content_hash": content_hash,
        "artifact_url": f"/artifacts/{content_hash}",
        "compile": compile_meta,
    }
    if payload["mode"] == "compile":
        summary = artifact.summary()
        result["artifact"] = {k: summary[k] for k in
                              ("bytes", "leaves", "srams", "pcus_used",
                               "pmus_used")}
        return result
    tracer = None
    if params["trace"]:
        from repro.trace import RingTracer
        tracer = RingTracer(sample=int(params["trace_sample"]))
    started = time.perf_counter()
    try:
        machine = artifact.machine(
            tracer=tracer, max_cycles=int(params["max_cycles"]),
            watchdog=int(params["watchdog"]))
        stats = machine.run()
    except DeadlockError as err:
        return {**_error(422, "simulate", err), **{
            "content_hash": content_hash, "compile": compile_meta}}
    except SimulationError as err:
        return {**_error(422, "simulate", err), **{
            "content_hash": content_hash, "compile": compile_meta}}
    sim_ms = round((time.perf_counter() - started) * 1e3, 3)
    result["simulate"] = {"sim_ms": sim_ms, "cycles": stats.cycles}
    result["stats"] = dataclasses.asdict(stats)
    if tracer is not None:
        from repro.trace import write_chrome_trace
        report = machine.trace_report()
        result["attribution"] = report.breakdown()
        path = trace_path(payload["data_dir"], payload["job_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(str(path), tracer, report)
        result["trace_url"] = f"/traces/{path.name}"
    return result
