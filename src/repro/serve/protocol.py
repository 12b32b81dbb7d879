"""Wire protocol of the serving tier: requests, params, job keys.

A client submits one of three job *kinds*:

* ``spec`` — a fuzz-schema program spec (validated by
  :mod:`repro.fuzz.validate`; schema errors come back as a structured
  400 with field paths);
* ``app`` — a benchmark-registry name plus a scale;
* ``artifact`` — the content hash of a bitstream the service compiled
  earlier (``POST /compile`` stores every artifact it produces under
  ``/artifacts/<content_hash>``).

and one of two *modes*: ``compile`` (produce and store the artifact,
no simulation) or ``simulate`` (compile if needed — through the shared
:class:`~repro.bitstream.cache.CompileCache` — then run the simulator
on the job alone and return ``SimStats``, optionally with stall
attribution and a downloadable trace).  A third mode, ``multi``, is
the only request for a shared fabric: registry apps co-simulated as
tenants, optionally weighted by per-tenant ``priorities``.

Everything that can change the answer participates in the **job key**:
the identifying payload (canonical spec / app+scale / artifact hash),
the mode, and the normalized :class:`JobParams`.  Concurrent requests
with equal keys coalesce onto one in-flight job, and completed keys may
be served from the result cache — both are sound because compilation
and simulation are fully deterministic functions of the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fuzz.validate import validate_spec

SCALES = ("tiny", "small")
MODES = ("compile", "simulate", "multi")

#: tenants one multi request may carry
MAX_TENANTS = 6

#: highest QoS weight a ``/multi`` tenant may claim in the shared DRAM
#: arbitration (weights are small integers; 1 = best effort)
MAX_PRIORITY = 8

#: server-side ceilings a request may not exceed (the service clamps
#: its own defaults to these too)
MAX_CYCLES_CAP = 20_000_000
WATCHDOG_CAP = 200_000


class RequestError(Exception):
    """A request the service refuses, with an HTTP status and a list
    of field-level problems (same shape as spec-validator errors)."""

    def __init__(self, status: int, message: str,
                 errors: Optional[List[Dict[str, str]]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.errors = errors or []

    def body(self) -> dict:
        out: Dict[str, Any] = {"error": self.message}
        if self.errors:
            out["detail"] = self.errors
        return out


@dataclass(frozen=True)
class JobParams:
    """Normalized per-job execution knobs (part of the job key)."""

    max_cycles: int = 2_000_000
    watchdog: int = 50_000
    #: record stall attribution + a downloadable Chrome trace
    trace: bool = False
    trace_sample: int = 1
    #: compile options for spec jobs (small tiles by default, matching
    #: the fuzz harness: spec programs are fuzz-sized)
    tile_words: int = 128
    whole_budget: int = 4096

    def to_dict(self) -> dict:
        return asdict(self)


_PARAM_FIELDS = {
    "max_cycles": int, "watchdog": int, "trace": bool, "trace_sample": int,
    "tile_words": int, "whole_budget": int,
}


def _parse_params(data: Any) -> JobParams:
    """Validate and clamp the optional ``params`` object."""
    if data is None:
        return JobParams()
    if not isinstance(data, dict):
        raise RequestError(400, "params must be an object",
                           [{"path": "params",
                             "message": f"got {type(data).__name__}"}])
    errors = []
    for name, value in sorted(data.items()):
        if name not in _PARAM_FIELDS:
            errors.append({"path": f"params.{name}",
                           "message": "unknown parameter"})
            continue
        want = _PARAM_FIELDS[name]
        if want is int and isinstance(value, bool):
            errors.append({"path": f"params.{name}",
                           "message": "expected an integer"})
        elif not isinstance(value, want):
            errors.append({"path": f"params.{name}",
                           "message": f"expected {want.__name__}, got "
                                      f"{type(value).__name__}"})
    for name in ("max_cycles", "watchdog", "trace_sample", "tile_words",
                 "whole_budget"):
        value = data.get(name)
        if isinstance(value, int) and not isinstance(value, bool) \
                and value < 1:
            errors.append({"path": f"params.{name}",
                           "message": "must be a positive integer"})
    if errors:
        raise RequestError(400, "invalid params", errors)
    merged = {**JobParams().to_dict(), **data}
    merged["max_cycles"] = min(merged["max_cycles"], MAX_CYCLES_CAP)
    merged["watchdog"] = min(merged["watchdog"], WATCHDOG_CAP)
    return JobParams(**merged)


def spec_digest(spec: dict) -> str:
    """Content address of one spec (canonical JSON, sha256)."""
    blob = json.dumps(spec, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class JobRequest:
    """One parsed, validated submission."""

    mode: str                       # "compile" | "simulate" | "multi"
    kind: str                       # "spec" | "app" | "artifact" | "multi"
    params: JobParams
    spec: Optional[dict] = None
    app: Optional[str] = None
    scale: str = "small"
    artifact_hash: Optional[str] = None
    #: co-resident registry apps for mode="multi"
    apps: Optional[Tuple[str, ...]] = None
    #: per-tenant QoS weights for mode="multi" (lines up with ``apps``;
    #: None = all best-effort).  Weights change the answer, so they are
    #: part of the job key
    priorities: Optional[Tuple[int, ...]] = None
    #: identity of the work (spec digest / app+scale / artifact hash)
    ident: str = field(default="", compare=False)

    @property
    def key(self) -> str:
        """Coalescing / result-cache key: identity + mode + params."""
        blob = json.dumps({"ident": self.ident, "mode": self.mode,
                           "params": self.params.to_dict(),
                           "priorities": (list(self.priorities)
                                          if self.priorities else None)},
                          sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> str:
        if self.kind == "spec":
            return f"spec:{self.ident[:12]}"
        if self.kind == "app":
            return f"app:{self.app}:{self.scale}"
        if self.kind == "multi":
            return f"multi:{'+'.join(self.apps or ())}:{self.scale}"
        return f"artifact:{self.ident[:12]}"

    def payload(self, cache_dir: Optional[str],
                data_dir: str) -> dict:
        """The picklable worker payload (crosses the process pool)."""
        return {
            "mode": self.mode,
            "kind": self.kind,
            "spec": self.spec,
            "app": self.app,
            "scale": self.scale,
            "artifact_hash": self.artifact_hash,
            "apps": list(self.apps) if self.apps else None,
            "priorities": (list(self.priorities)
                           if self.priorities else None),
            "params": self.params.to_dict(),
            "cache_dir": cache_dir,
            "data_dir": data_dir,
            "job_id": self.key[:16],
        }


def _registry_names() -> Tuple[str, ...]:
    from repro.apps import ALL_APPS
    return tuple(app.name for app in ALL_APPS)


def parse_request(body: Any, mode: str) -> JobRequest:
    """Parse one POST body into a :class:`JobRequest`.

    Raises :class:`RequestError` (HTTP 400) with field-level detail for
    anything malformed — including spec-schema violations, which carry
    the validator's ``steps[k].field`` paths.
    """
    if mode not in MODES:
        raise RequestError(404, f"unknown mode {mode!r}")
    if not isinstance(body, dict):
        raise RequestError(
            400, "request body must be a JSON object",
            [{"path": "", "message": f"got {type(body).__name__}"}])
    if mode == "multi":
        return _parse_multi(body)
    unknown = sorted(set(body) - {"spec", "app", "scale",
                                  "artifact_hash", "params"})
    if unknown:
        raise RequestError(
            400, "unknown request fields",
            [{"path": name, "message": "unknown field"}
             for name in unknown])
    sources = [name for name in ("spec", "app", "artifact_hash")
               if body.get(name) is not None]
    if len(sources) != 1:
        raise RequestError(
            400, "give exactly one of: spec, app, artifact_hash",
            [{"path": "", "message": f"got {sources or 'none'}"}])
    params = _parse_params(body.get("params"))
    source = sources[0]
    if source == "spec":
        spec = body["spec"]
        errors = validate_spec(spec)
        if errors:
            raise RequestError(
                400, "invalid program spec",
                [{"path": f"spec.{e.path}" if e.path else "spec",
                  "message": e.message} for e in errors])
        return JobRequest(mode=mode, kind="spec", params=params,
                          spec=spec, ident=spec_digest(spec))
    if source == "app":
        app = body["app"]
        scale = body.get("scale", "small")
        if not isinstance(app, str) or app not in _registry_names():
            raise RequestError(
                400, "unknown app",
                [{"path": "app",
                  "message": f"expected one of {list(_registry_names())}, "
                             f"got {app!r}"}])
        if scale not in SCALES:
            raise RequestError(
                400, "unknown scale",
                [{"path": "scale",
                  "message": f"expected one of {list(SCALES)}, "
                             f"got {scale!r}"}])
        return JobRequest(mode=mode, kind="app", params=params, app=app,
                          scale=scale, ident=f"{app}:{scale}")
    digest = body["artifact_hash"]
    if (not isinstance(digest, str) or len(digest) != 64
            or any(c not in "0123456789abcdef" for c in digest)):
        raise RequestError(
            400, "artifact_hash must be a 64-char lowercase sha256 hex "
                 "digest", [{"path": "artifact_hash",
                             "message": f"got {digest!r}"}])
    if mode == "compile":
        raise RequestError(
            400, "artifact_hash cannot be compiled (it already is)",
            [{"path": "artifact_hash",
              "message": "use POST /simulate for precompiled artifacts"}])
    return JobRequest(mode=mode, kind="artifact", params=params,
                      artifact_hash=digest, ident=digest)


def _parse_multi(body: dict) -> JobRequest:
    """Parse one ``POST /multi`` body: co-resident registry apps.

    Deterministic like every other mode (packing and co-simulation are
    pure functions of apps+scale+params), so multi jobs coalesce and
    result-cache exactly like solo ones.
    """
    unknown = sorted(set(body) - {"apps", "scale", "params",
                                  "priorities"})
    if unknown:
        raise RequestError(
            400, "unknown request fields",
            [{"path": name, "message": "unknown field"}
             for name in unknown])
    params = _parse_params(body.get("params"))
    apps = body.get("apps")
    if not isinstance(apps, list) or not apps:
        raise RequestError(
            400, "apps must be a non-empty list of registry names",
            [{"path": "apps",
              "message": f"got {type(apps).__name__}"}])
    if len(apps) > MAX_TENANTS:
        raise RequestError(
            400, f"at most {MAX_TENANTS} co-resident apps",
            [{"path": "apps", "message": f"got {len(apps)}"}])
    names = _registry_names()
    errors = [{"path": f"apps[{k}]",
               "message": f"expected one of {list(names)}, got {a!r}"}
              for k, a in enumerate(apps)
              if not isinstance(a, str) or a not in names]
    if errors:
        raise RequestError(400, "unknown app", errors)
    scale = body.get("scale", "tiny")
    if scale not in SCALES:
        raise RequestError(
            400, "unknown scale",
            [{"path": "scale",
              "message": f"expected one of {list(SCALES)}, "
                         f"got {scale!r}"}])
    priorities = body.get("priorities")
    if priorities is not None:
        if not isinstance(priorities, list) \
                or len(priorities) != len(apps):
            raise RequestError(
                400, "priorities must line up with apps",
                [{"path": "priorities",
                  "message": f"expected a list of {len(apps)} "
                             f"integers"}])
        errors = [{"path": f"priorities[{k}]",
                   "message": f"expected an integer in "
                              f"1..{MAX_PRIORITY}, got {p!r}"}
                  for k, p in enumerate(priorities)
                  if not isinstance(p, int) or isinstance(p, bool)
                  or not 1 <= p <= MAX_PRIORITY]
        if errors:
            raise RequestError(400, "invalid priorities", errors)
        priorities = tuple(priorities)
    return JobRequest(mode="multi", kind="multi", params=params,
                      apps=tuple(apps), scale=scale,
                      priorities=priorities,
                      ident=f"multi:{'+'.join(apps)}:{scale}")
