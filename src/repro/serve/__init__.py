"""``repro.serve`` — the async compile-and-simulate service tier.

The PR 3 compile/run split made serving natural: a compiled
:class:`~repro.bitstream.artifact.Bitstream` is a frozen, deterministic
function of its request, the shared content-addressed
:class:`~repro.bitstream.cache.CompileCache` makes a warm compile key
free, and a simulation is a deterministic function of
{artifact, params}.  This package stands a real service on top of
those guarantees:

* :mod:`~repro.serve.protocol` — request parsing/normalization and the
  job key that makes coalescing and result caching sound;
* :mod:`~repro.serve.jobs` — the in-flight coalescing table and the
  bounded completed-result LRU;
* :mod:`~repro.serve.workers` — stateless, picklable job execution for
  the process pool (compile through the cache, simulate, store
  artifacts and traces content-addressed);
* :mod:`~repro.serve.service` — the asyncio core: bounded queue with
  429 backpressure, request coalescing, per-job wall timeouts clamped
  to the simulator's own watchdog, graceful drain;
* :mod:`~repro.serve.metrics` — counters plus a log-scale latency
  histogram behind ``/statsz``;
* :mod:`~repro.serve.http` — the stdlib HTTP/1.1 front end and the
  transport-free router (unit tests dispatch in-process);
* :mod:`~repro.serve.client` — async + blocking clients (the repo
  benchmark's ``serve_mix`` workload replays its requests through
  them).

``repro serve`` runs the server; ``python3 bench/run.py --workload
serve_mix`` times a seeded replay against a fresh one and checks every
answer.
"""

from repro.serve.client import ServeClient, sync_request, wait_healthy
from repro.serve.http import ReproServer, Response, dispatch, run_server
from repro.serve.metrics import LatencyHistogram, ServiceStats
from repro.serve.protocol import (JobParams, JobRequest, RequestError,
                                  parse_request, spec_digest)
from repro.serve.service import ReproService, ServeConfig
from repro.serve.workers import execute_job

__all__ = [
    "JobParams",
    "JobRequest",
    "LatencyHistogram",
    "ReproServer",
    "ReproService",
    "RequestError",
    "Response",
    "ServeClient",
    "ServeConfig",
    "ServiceStats",
    "dispatch",
    "execute_job",
    "parse_request",
    "run_server",
    "spec_digest",
    "sync_request",
    "wait_healthy",
]
