"""``repro loadtest`` — concurrent replay against a running server.

The harness builds a deterministic request mix from the fuzz generator
(``--unique`` distinct specs, padded to ``--requests`` with duplicates,
order shuffled by ``--seed``), fans it out over ``--concurrency``
persistent connections, and reports what a serving deployment cares
about: p50/p99/mean latency (exact, from raw client-side samples — the
server's ``/statsz`` histogram is bucketed), throughput, error counts,
and — from the ``/statsz`` delta across the run — how much work
coalescing and the compile/result caches actually saved.

Backpressure is part of the protocol, not an error: a 429 is retried
after the server's ``Retry-After`` hint and counted separately.  With
``--spawn`` the harness forks its own ``repro serve`` subprocess on a
free port, waits for ``/healthz``, replays, and tears it down — the
mode every CI job uses.  ``--baseline`` holds the report against one of
the committed ``benchmarks/serve_*baseline.json`` files through
:mod:`repro.eval.gate`; failed requests fail the command either way.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eval import gate
from repro.eval.report import format_table
from repro.fuzz.generator import gen_spec
from repro.serve.client import ServeClient, sync_request, wait_healthy

#: a 429'd request is retried at most this many times before counting
#: as an error
MAX_RETRIES = 50


# ---------------------------------------------------------------------------
# Request mix
# ---------------------------------------------------------------------------


#: light registry apps rotated through the mixed-tenant slots
MULTI_APPS = ("gemm", "tpchq6", "innerproduct", "outerproduct")


def make_requests(total: int, unique: int, seed: int = 0,
                  trace_every: int = 0,
                  multi_every: int = 0,
                  priority_every: int = 0) -> List[dict]:
    """A deterministic request mix: ``unique`` distinct specs, padded
    to ``total`` with duplicates, deterministically shuffled.

    ``multi_every`` mixes in multi-tenant work: every N-th slot becomes
    a ``POST /multi`` pair.  ``priority_every`` boosts the first tenant
    of every N-th of those pairs to an elevated QoS weight, so a mixed
    replay drives the weighted DRAM arbitration too.  Bodies carry a
    ``_path`` hint the replay worker pops before sending.
    """
    unique = max(1, min(unique, total))
    specs = [gen_spec(seed * 100_000 + k) for k in range(unique)]
    rng = np.random.default_rng(seed)
    bodies = []
    for k in range(total):
        if multi_every and k % multi_every == 0:
            pair = [MULTI_APPS[(k // multi_every) % len(MULTI_APPS)],
                    MULTI_APPS[(k // multi_every + 1) % len(MULTI_APPS)]]
            body = {"_path": "/multi", "apps": pair, "scale": "tiny"}
            if priority_every \
                    and (k // multi_every + 1) % priority_every == 0:
                body["priorities"] = [4, 1]
            bodies.append(body)
            continue
        spec = specs[k] if k < unique else \
            specs[int(rng.integers(unique))]
        body: Dict = {"spec": spec}
        if trace_every and k % trace_every == 0:
            body["params"] = {"trace": True}
        bodies.append(body)
    order = rng.permutation(total)
    return [bodies[int(k)] for k in order]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


async def _worker(client: ServeClient, queue: "asyncio.Queue",
                  records: List[dict], chaos: dict) -> None:
    while True:
        item = await queue.get()
        if item is None:
            queue.task_done()
            break
        body = dict(item)
        path = body.pop("_path", "/simulate")
        started = time.perf_counter()
        status, result, retries, shed_retries = None, None, 0, 0
        try:
            while True:
                status, headers, result = await client.request(
                    "POST", path, body)
                # 429 = backpressure, 503+retry_after_s = open circuit
                # breaker: both are protocol, both are retried
                shed = (status == 503 and isinstance(result, dict)
                        and "retry_after_s" in result)
                if (status != 429 and not shed) \
                        or retries + shed_retries >= MAX_RETRIES:
                    break
                hint = (float(result.get("retry_after_s", 1))
                        if isinstance(result, dict) else 1.0)
                if shed:
                    shed_retries += 1
                    delay = min(5.0, hint + 0.05)
                else:
                    retries += 1
                    delay = min(5.0, hint * 0.1)
                await asyncio.sleep(delay)
        except (OSError, asyncio.IncompleteReadError) as err:
            status, result = -1, {"error": str(err)}
        records.append({
            "ms": (time.perf_counter() - started) * 1e3,
            "status": status,
            "retries": retries,
            "shed_retries": shed_retries,
            "path": path,
            "served": (result.get("served", "fresh")
                       if isinstance(result, dict) else "error"),
        })
        queue.task_done()
        if chaos.get("every"):
            chaos["sent"] += 1
            if chaos["sent"] % chaos["every"] == 0:
                try:
                    await client.request("POST", "/chaos/kill", {})
                    chaos["kills"] += 1
                except (OSError, asyncio.IncompleteReadError):
                    pass


async def _replay(host: str, port: int, bodies: List[dict],
                  concurrency: int, kill_every: int = 0
                  ) -> Tuple[List[dict], dict]:
    queue: "asyncio.Queue" = asyncio.Queue()
    for body in bodies:
        queue.put_nowait(body)
    clients = [ServeClient(host, port) for _ in range(concurrency)]
    for _ in clients:
        queue.put_nowait(None)
    records: List[dict] = []
    chaos = {"every": int(kill_every), "sent": 0, "kills": 0}
    tasks = [asyncio.ensure_future(_worker(c, queue, records, chaos))
             for c in clients]
    await asyncio.gather(*tasks)
    for client in clients:
        await client.close()
    return records, chaos


def _percentile(samples: List[float], p: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def run_loadtest(host: str, port: int, requests: int = 200,
                 concurrency: int = 16, unique: int = 0, seed: int = 0,
                 trace_every: int = 0, multi_every: int = 0,
                 priority_every: int = 0,
                 kill_every: int = 0) -> dict:
    """Replay a request mix and assemble the report dict."""
    unique = unique or max(1, requests // 5)
    bodies = make_requests(requests, unique, seed,
                           trace_every=trace_every,
                           multi_every=multi_every,
                           priority_every=priority_every)
    _, before = sync_request(host, port, "GET", "/statsz")
    started = time.perf_counter()
    records, chaos = asyncio.run(
        _replay(host, port, bodies, concurrency,
                kill_every=kill_every))
    wall_s = time.perf_counter() - started
    _, after = sync_request(host, port, "GET", "/statsz")
    oks = [r for r in records if r["status"] == 200]
    latencies = [r["ms"] for r in oks]

    def delta(*path) -> int:
        b, a = before, after
        for name in path:
            b = b.get(name, 0) if isinstance(b, dict) else 0
            a = a.get(name, 0) if isinstance(a, dict) else 0
        return (a or 0) - (b or 0)

    multi_ok = [r for r in oks if r["path"] == "/multi"]
    return {
        "requests": requests,
        "unique_specs": unique,
        "concurrency": concurrency,
        "seed": seed,
        "multi_every": multi_every,
        "priority_every": priority_every,
        "multi_ok": len(multi_ok),
        "ok": len(oks),
        "errors": len(records) - len(oks),
        "dedup_saved": delta("requests", "coalesced")
        + delta("requests", "result_cache_hits"),
        "backpressure_retries": sum(r["retries"] for r in records),
        "kill_every": kill_every,
        "kills": chaos["kills"],
        "breaker_retries": sum(r["shed_retries"] for r in records),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(records) / wall_s, 2),
        "p50_ms": round(_percentile(latencies, 50), 3),
        "p90_ms": round(_percentile(latencies, 90), 3),
        "p99_ms": round(_percentile(latencies, 99), 3),
        "mean_ms": round(sum(latencies) / len(latencies), 3)
        if latencies else 0.0,
        "server": {
            "coalesced": delta("requests", "coalesced"),
            "result_cache_hits": delta("requests",
                                       "result_cache_hits"),
            "compiles": delta("work", "compiles"),
            "sims": delta("work", "sims"),
            "cache_hits": delta("compile_cache", "hits"),
            "cache_misses": delta("compile_cache", "misses"),
            "rejected": delta("requests", "rejected"),
            "timeouts": delta("requests", "timeouts"),
            "multis": delta("work", "multis"),
            "priority_jobs": delta("qos", "priority_jobs"),
            "worker_crashes": delta("faults", "worker_crashes"),
            "worker_retries": delta("faults", "retries"),
            "respawns": delta("faults", "respawns"),
            "breaker_shed": delta("faults", "breaker_shed"),
        },
    }


def render(report: dict) -> str:
    """Human-facing summary table."""
    server = report["server"]
    rows = [
        ["requests", report["requests"],
         f"{report['unique_specs']} unique specs, "
         f"concurrency {report['concurrency']}"],
        ["ok / errors", f"{report['ok']} / {report['errors']}",
         f"{report['backpressure_retries']} backpressure retries"],
        ["throughput", f"{report['throughput_rps']} req/s",
         f"{report['wall_s']} s wall"],
        ["latency p50", f"{report['p50_ms']} ms",
         f"mean {report['mean_ms']} ms"],
        ["latency p99", f"{report['p99_ms']} ms",
         f"p90 {report['p90_ms']} ms"],
        ["coalesced", server["coalesced"],
         f"result-cache hits {server['result_cache_hits']}"],
        ["compiles", server["compiles"],
         f"cache {server['cache_hits']} hits / "
         f"{server['cache_misses']} misses"],
        ["sims", server["sims"],
         f"rejected {server['rejected']}, "
         f"timeouts {server['timeouts']}"],
    ]
    if report.get("multi_every"):
        rows.append(
            ["multi-tenant", f"{report['multi_ok']} multi ok",
             f"{server['multis']} fabric runs"])
    if report.get("priority_every"):
        rows.append(
            ["qos", f"{server['priority_jobs']} priority jobs",
             f"1 in {report['priority_every']} /multi pairs "
             f"elevated"])
    if report.get("kill_every"):
        rows.append(
            ["chaos", f"{report['kills']} workers killed",
             f"{server['worker_crashes']} crashes seen, "
             f"{server['worker_retries']} retried, "
             f"{server['respawns']} respawns, "
             f"{server['breaker_shed']} breaker-shed "
             f"({report['breaker_retries']} client retries)"])
    return format_table(["metric", "value", "detail"], rows,
                        title="repro loadtest")


# ---------------------------------------------------------------------------
# Server spawning (CI / baseline mode)
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextmanager
def spawned_server(jobs: int, queue_depth: int,
                   cache_dir: Optional[str] = None,
                   data_dir: Optional[str] = None,
                   chaos: bool = False):
    """Run ``repro serve`` as a subprocess; yields ``(host, port)``."""
    host, port = "127.0.0.1", _free_port()
    hold = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
    cache_dir = cache_dir or os.path.join(hold.name, "cache")
    data_dir = data_dir or os.path.join(hold.name, "data")
    argv = [sys.executable, "-m", "repro", "serve", "--host", host,
            "--port", str(port), "--jobs", str(jobs),
            "--queue-depth", str(queue_depth),
            "--cache-dir", cache_dir, "--data-dir", data_dir]
    if chaos:
        argv.append("--chaos")
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(argv, env=env)
    try:
        if not wait_healthy(host, port, timeout_s=60.0):
            raise RuntimeError(
                f"spawned server on port {port} never became healthy")
        yield host, port
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        hold.cleanup()


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def cmd_loadtest(args) -> int:
    """``repro loadtest`` behind the CLI."""
    baseline = gate.load(args.baseline)
    if args.spawn:
        with spawned_server(args.jobs, args.queue_depth,
                            cache_dir=args.cache_dir,
                            data_dir=args.data_dir,
                            chaos=bool(args.kill_every)) \
                as (host, port):
            report = run_loadtest(
                host, port, requests=args.requests,
                concurrency=args.concurrency, unique=args.unique,
                seed=args.seed, trace_every=args.trace_every,
                multi_every=args.multi_every,
                priority_every=args.priority_every,
                kill_every=args.kill_every)
    else:
        if not wait_healthy(args.host, args.port, timeout_s=5.0):
            print(f"no healthy server at "
                  f"http://{args.host}:{args.port} "
                  f"(start one with `repro serve`, or use --spawn)",
                  file=sys.stderr)
            return 2
        report = run_loadtest(
            args.host, args.port, requests=args.requests,
            concurrency=args.concurrency, unique=args.unique,
            seed=args.seed, trace_every=args.trace_every,
            multi_every=args.multi_every,
            priority_every=args.priority_every,
            kill_every=args.kill_every)
    print(render(report))
    return gate.finish(report, args.out, baseline, {"errors": 0})
