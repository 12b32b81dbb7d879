"""The async compile-and-simulate service core.

:class:`ReproService` is the transport-independent heart of the tier:
:mod:`repro.serve.http` feeds it parsed bodies, unit tests call
:meth:`ReproService.submit` directly.  One submission flows through:

1. **parse + validate** — :func:`repro.serve.protocol.parse_request`;
   schema problems return structured 400s without consuming a queue
   slot;
2. **result cache** — completed keys are replayed from a bounded LRU
   (simulations are deterministic, so this is exact);
3. **coalescing** — a key equal to an in-flight job's attaches to that
   job's future instead of queuing duplicate work;
4. **admission** — at most ``queue_depth`` jobs may be waiting for a
   worker slot; beyond that the request is rejected with 429 and a
   ``Retry-After`` estimate;
5. **execution** — ``jobs`` concurrent slots drain onto a
   :class:`~concurrent.futures.ProcessPoolExecutor` running the
   stateless :func:`repro.serve.workers.execute_job` (tests may inject
   any callable runner instead).  Each job runs once, on its own: only
   a ``multi`` request puts several apps on one fabric, and one
   execution answers exactly one job;
6. **timeout** — each job gets ``timeout_s`` of wall clock, enforced
   with ``asyncio.wait_for``.  The simulator itself is bounded too:
   request ``max_cycles``/``watchdog`` are clamped to server caps, so a
   runaway or deadlocked simulation trips the sim-side watchdog and the
   worker slot always comes back.

The tier is crash-tolerant: a worker process that dies mid-job (OOM
kill, segfault, a SIGKILL from outside) surfaces as ``BrokenExecutor``
on the pending future *immediately* — never by waiting out the wall
timeout.  The service respawns the pool and retries the job up to
``max_retries`` times with exponential backoff + jitter; a job that
keeps killing workers comes back as a typed 503.  Each endpoint sits
behind a :class:`~repro.serve.metrics.CircuitBreaker` that sheds load
with 503 + ``Retry-After`` after a run of infrastructure failures.

Shutdown is graceful: :meth:`drain` stops admissions (503), waits for
every in-flight job, then tears down the pool.
"""

from __future__ import annotations

import asyncio
import importlib
import random
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.bitstream.cache import default_cache_root
from repro.serve.jobs import Job, JobOutcome, JobTable
from repro.serve.metrics import CircuitBreaker, ServiceStats
from repro.serve.protocol import JobRequest, RequestError, parse_request
from repro.serve.workers import execute_job


def default_data_dir() -> Path:
    """Artifact/trace store: ``<cache root>/serve`` by default."""
    return default_cache_root() / "serve"


#: what a job runs: imported before the pool forks
_JOB_MODULES = ("repro.compiler.artifact", "repro.fuzz.generator",
                "repro.sim.machine")


def _worker_init() -> None:
    """Detach a pool worker from the parent's signal machinery.

    Fork-started workers inherit asyncio's signal wakeup fd; without
    this, a SIGTERM aimed at a worker (e.g. the pool tearing down
    siblings of a crashed process) echoes through the shared pipe and
    the *parent's* event loop dispatches its own shutdown handler —
    one killed worker would gracefully stop the whole server.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass
class ServeConfig:
    """Tuning knobs for one service instance."""

    jobs: int = 2
    queue_depth: int = 64
    cache_dir: Optional[str] = None     # None -> default cache root
    no_cache: bool = False
    data_dir: Optional[str] = None      # None -> default_data_dir()
    timeout_s: float = 300.0
    result_cache: int = 256
    #: worker-crash recovery: re-dispatches per job after a
    #: ``BrokenExecutor``, and the base backoff before the first retry
    #: (doubled per retry, with jitter)
    max_retries: int = 2
    retry_base_s: float = 0.05
    #: circuit breaker: consecutive infra failures (5xx) per endpoint
    #: before it opens, and how long it sheds before a half-open probe
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0

    def resolved_cache_dir(self) -> Optional[str]:
        if self.no_cache:
            return None
        if self.cache_dir is not None:
            return str(self.cache_dir)
        return str(default_cache_root())

    def resolved_data_dir(self) -> str:
        if self.data_dir is not None:
            return str(self.data_dir)
        return str(default_data_dir())


class ReproService:
    """Queue + coalescer + worker pool behind the HTTP tier.

    ``runner`` (tests) replaces the process pool with any
    ``payload -> result-dict`` callable, executed on a thread so a
    blocking runner still exercises real queueing behaviour.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 runner: Optional[Callable[[dict], dict]] = None):
        self.config = config or ServeConfig()
        self.stats = ServiceStats()
        self.table = JobTable(self.config.result_cache)
        self._runner = runner
        self._executor: Optional[ProcessPoolExecutor] = None
        self._slots = asyncio.Semaphore(self.config.jobs)
        self._queued = 0       # admitted, waiting for a worker slot
        self._running = 0      # holding a worker slot right now
        self._draining = False
        self._tasks: "set[asyncio.Task]" = set()
        self._breakers: "dict[str, CircuitBreaker]" = {
            mode: CircuitBreaker(self.config.breaker_threshold,
                                 self.config.breaker_cooldown_s)
            for mode in ("compile", "simulate", "multi")}
        Path(self.data_dir).mkdir(parents=True, exist_ok=True)

    # -- directories -------------------------------------------------------------
    @property
    def cache_dir(self) -> Optional[str]:
        return self.config.resolved_cache_dir()

    @property
    def data_dir(self) -> str:
        return self.config.resolved_data_dir()

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Spin up the worker pool (no-op with an injected runner).

        The job modules are imported first, so the workers fork with
        them loaded: no first job pays for the imports, nor the first
        job of a worker respawned after a crash."""
        if self._runner is None and self._executor is None:
            for module in _JOB_MODULES:
                importlib.import_module(module)
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                initializer=_worker_init)

    async def drain(self) -> None:
        """Stop admitting, wait for in-flight jobs, shut the pool."""
        self._draining = True
        pending = [job.future for job in self.table.inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for task in list(self._tasks):
            try:
                await task
            except Exception:       # noqa: BLE001 — already reported
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission --------------------------------------------------------------
    async def submit(self, mode: str, body) -> JobOutcome:
        """One request in, one ``(status, result)`` out."""
        self.stats.received += 1
        started = time.perf_counter()
        try:
            status, result = await self._submit(mode, body)
        finally:
            self.stats.latency.record(
                (time.perf_counter() - started) * 1e3)
        return status, result

    async def _submit(self, mode: str, body) -> JobOutcome:
        try:
            request = parse_request(body, mode)
        except RequestError as err:
            self.stats.invalid += 1
            return err.status, err.body()
        if request.priorities and max(request.priorities) > 1:
            self.stats.priority_jobs += 1
        if self._draining:
            return 503, {"error": "service is draining"}
        breaker = self._breakers[request.mode]
        if not breaker.allow():
            self.stats.breaker_shed += 1
            return 503, {
                "error": f"circuit breaker open for /{request.mode} "
                         f"after repeated server-side failures",
                "retry_after_s": round(max(0.05,
                                           breaker.retry_after()), 3),
                "breaker": breaker.snapshot()}
        key = request.key
        cached = self.table.lookup_result(key)
        if cached is not None:
            self.stats.result_hits += 1
            status, result = cached
            return status, {**result, "served": "result-cache"}
        job = self.table.get_inflight(key)
        if job is not None:
            self.stats.coalesced += 1
            job.waiters += 1
            status, result = await job.wait()
            return status, {**result, "served": "coalesced"}
        if self._queued >= self.config.queue_depth:
            self.stats.rejected += 1
            return 429, {"error": "job queue is full",
                         "retry_after_s": self.retry_after()}
        job = Job(key, request.describe())
        self.table.register(job)
        self._queued += 1
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, request))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await job.wait()

    def retry_after(self) -> int:
        """A Retry-After estimate (s): queue length x mean latency."""
        mean_s = (self.stats.latency.sum_ms / 1e3
                  / max(1, self.stats.latency.total))
        backlog = self._queued + self._running
        return max(1, int(backlog * mean_s / max(1, self.config.jobs)))

    # -- execution ---------------------------------------------------------------
    async def _run_job(self, job: Job, request: JobRequest) -> None:
        try:
            await self._slots.acquire()
            self._queued -= 1
            self._running += 1
            job.started = time.perf_counter()
            try:
                outcome = await self._execute(request)
            finally:
                self._running -= 1
                self._slots.release()
        except BaseException as err:  # noqa: BLE001 — waiters must wake
            outcome = (500, {"error": f"internal error: "
                                      f"{type(err).__name__}: {err}"})
        self._account(outcome, request)
        self.table.remember(job.key, outcome)  # 200s only, both modes
        self.table.retire(job)
        job.finish(outcome)

    async def _execute(self, request: JobRequest) -> JobOutcome:
        """Dispatch one job, riding out worker crashes.

        The whole job (all retry attempts together) gets ``timeout_s``
        of wall clock.  A dead worker raises ``BrokenExecutor`` on the
        pending future the moment the pool notices — failing fast
        instead of burning the rest of the timeout — after which the
        pool is respawned and the job re-dispatched with exponential
        backoff + jitter, ``max_retries`` times at most.
        """
        loop = asyncio.get_running_loop()
        payload = request.payload(self.cache_dir, self.data_dir)
        deadline = loop.time() + self.config.timeout_s
        attempts = 0
        backoff = self.config.retry_base_s
        while True:
            try:
                # run_in_executor itself raises BrokenExecutor when
                # the pool is already known-broken, so the dispatch
                # lives inside the retry net too
                if self._runner is not None:
                    fut = loop.run_in_executor(None, self._runner,
                                               payload)
                else:
                    self.start()
                    fut = loop.run_in_executor(self._executor,
                                               execute_job, payload)
                raw = await asyncio.wait_for(
                    fut, timeout=max(0.001, deadline - loop.time()))
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                return 504, {"error": f"job exceeded the "
                                      f"{self.config.timeout_s:g} s "
                                      f"wall timeout",
                             "job": request.describe()}
            except BrokenExecutor:
                self.stats.worker_crashes += 1
                self._respawn_pool()
                if attempts >= self.config.max_retries:
                    return 503, {
                        "ok": False, "status": 503,
                        "error": {
                            "stage": "worker",
                            "type": "WorkerCrashed",
                            "message": (
                                f"worker process died "
                                f"{attempts + 1} time(s) running "
                                f"this job; giving up after "
                                f"{self.config.max_retries} "
                                f"retries")},
                        "job": request.describe()}
                attempts += 1
                self.stats.retries += 1
                await asyncio.sleep(
                    min(backoff * (0.5 + random.random()),
                        max(0.0, deadline - loop.time())))
                backoff *= 2
                continue
            status = int(raw.get("status",
                                 200 if raw.get("ok") else 500))
            return status, raw

    def _respawn_pool(self) -> None:
        """Throw away a broken process pool; ``start()`` rebuilds it."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
            self.stats.respawns += 1

    def _account(self, outcome: JobOutcome, request: JobRequest) -> None:
        """Fold one executed job into the request and work counters and
        its endpoint's breaker."""
        status, result = outcome
        if status == 200:
            self.stats.completed += 1
        else:
            self.stats.failed += 1
        # breaker sees executed jobs only (never cache hits or
        # coalesced waiters): 5xx = infrastructure failure
        self._breakers[request.mode].record(status < 500)
        if not isinstance(result, dict):
            return
        compile_meta = result.get("compile")
        if isinstance(compile_meta, dict):
            self.stats.record_cache(compile_meta.get("outcome", ""),
                                    compile_meta.get("corrupt", 0))
            if compile_meta.get("compiled"):
                self.stats.compiles += 1
        if "simulate" in result:
            self.stats.sims += 1
        if result.get("mode") == "multi":
            self.stats.multis += 1

    # -- observability -----------------------------------------------------------
    def healthz(self) -> JobOutcome:
        if self._draining:
            return 503, {"ok": False, "draining": True}
        return 200, {"ok": True, "inflight": len(self.table),
                     "queued": self._queued, "running": self._running}

    def statsz(self) -> dict:
        snapshot = self.stats.to_dict()
        snapshot["queue"] = {
            "depth": self._queued,
            "capacity": self.config.queue_depth,
            "running": self._running,
            "slots": self.config.jobs,
            "inflight_keys": len(self.table),
            "draining": self._draining,
        }
        snapshot["breakers"] = {
            mode: breaker.snapshot()
            for mode, breaker in sorted(self._breakers.items())}
        snapshot["qos"] = {"priority_jobs": self.stats.priority_jobs}
        snapshot["config"] = {
            "jobs": self.config.jobs,
            "queue_depth": self.config.queue_depth,
            "timeout_s": self.config.timeout_s,
            "result_cache": self.config.result_cache,
            "max_retries": self.config.max_retries,
            "breaker_threshold": self.config.breaker_threshold,
            "breaker_cooldown_s": self.config.breaker_cooldown_s,
            "cache_dir": self.cache_dir,
            "data_dir": self.data_dir,
        }
        return snapshot
