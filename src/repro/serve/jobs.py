"""Job bookkeeping: in-flight coalescing table and completed-result LRU.

Both structures are keyed by :attr:`JobRequest.key` — a hash over the
job's identity, mode, and normalized params — and both exist because
compilation and simulation are *deterministic*: two requests with equal
keys must produce byte-identical answers, so sharing one in-flight run
(coalescing) or replaying a finished one (result cache) is sound.

Everything here runs on the event loop thread; no locks needed.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: a job's final (status, result-dict) pair
JobOutcome = Tuple[int, dict]


class Job:
    """One in-flight unit of work, shared by every coalesced waiter."""

    __slots__ = ("key", "describe", "future", "waiters", "created",
                 "started")

    def __init__(self, key: str, describe: str = ""):
        self.key = key
        self.describe = describe
        self.future: asyncio.Future = \
            asyncio.get_running_loop().create_future()
        self.waiters = 1
        self.created = time.perf_counter()
        self.started: Optional[float] = None

    def finish(self, outcome: JobOutcome) -> None:
        if not self.future.done():
            self.future.set_result(outcome)

    async def wait(self) -> JobOutcome:
        # shield: one waiter's disconnect must not cancel the shared job
        return await asyncio.shield(self.future)


class JobTable:
    """In-flight jobs by key, plus a bounded LRU of completed results."""

    def __init__(self, result_cache_size: int = 256):
        self.inflight: Dict[str, Job] = {}
        self.result_cache_size = max(0, int(result_cache_size))
        self._results: "OrderedDict[str, JobOutcome]" = OrderedDict()

    # -- coalescing ---------------------------------------------------------------
    def get_inflight(self, key: str) -> Optional[Job]:
        return self.inflight.get(key)

    def register(self, job: Job) -> None:
        self.inflight[job.key] = job

    def retire(self, job: Job) -> None:
        self.inflight.pop(job.key, None)

    # -- result LRU ---------------------------------------------------------------
    def lookup_result(self, key: str) -> Optional[JobOutcome]:
        hit = self._results.get(key)
        if hit is not None:
            self._results.move_to_end(key)
        return hit

    def remember(self, key: str, outcome: JobOutcome) -> None:
        if self.result_cache_size == 0:
            return
        status, _ = outcome
        if status != 200:
            return  # never cache failures
        self._results[key] = outcome
        self._results.move_to_end(key)
        while len(self._results) > self.result_cache_size:
            self._results.popitem(last=False)

    def __len__(self) -> int:
        return len(self.inflight)
