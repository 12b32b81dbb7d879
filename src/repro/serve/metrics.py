"""Service metrics: counters and a log-scale latency histogram.

Latencies span four orders of magnitude (a result-cache hit is
microseconds; a cold compile+simulate of a four-step spec is hundreds
of milliseconds; a traced registry app can take seconds), so the
histogram uses geometric buckets.  Percentiles are interpolated inside
the containing bucket — good to a few percent, which is plenty for a
p50/p99 dashboard; the repo benchmark's ``serve_mix`` workload
computes exact percentiles client-side from raw samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List


class LatencyHistogram:
    """Fixed geometric buckets over milliseconds, 0.1 ms .. ~2 min."""

    #: bucket upper bounds in ms: 0.1 * 2**k, 21 buckets -> ~105 s
    BOUNDS = tuple(0.1 * (2 ** k) for k in range(21))

    def __init__(self):
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, ms: float) -> None:
        """Add one observation (milliseconds)."""
        ms = max(0.0, float(ms))
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)
        for k, bound in enumerate(self.BOUNDS):
            if ms <= bound:
                self.counts[k] += 1
                return
        self.counts[-1] += 1

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile in ms (0 <= p <= 100)."""
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        seen = 0
        for k, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                hi = (self.BOUNDS[k] if k < len(self.BOUNDS)
                      else self.max_ms)
                lo = self.BOUNDS[k - 1] if k > 0 else 0.0
                # linear interpolation within the bucket
                frac = (rank - seen) / count
                return lo + (min(hi, self.max_ms) - lo) * frac
            seen += count
        return self.max_ms

    def to_dict(self) -> dict:
        mean = self.sum_ms / self.total if self.total else 0.0
        return {
            "count": self.total,
            "mean_ms": round(mean, 3),
            "p50_ms": round(self.percentile(50), 3),
            "p90_ms": round(self.percentile(90), 3),
            "p99_ms": round(self.percentile(99), 3),
            "max_ms": round(self.max_ms, 3),
            "buckets": {
                (f"<={bound:g}ms" if k < len(self.BOUNDS) else "inf"):
                    self.counts[k]
                for k, bound in enumerate((*self.BOUNDS, 0.0))
                if self.counts[k]},
        }


class CircuitBreaker:
    """Per-endpoint circuit breaker over infrastructure failures.

    Counts *consecutive* server-side failures (5xx from actual job
    execution — 4xx client errors never trip it).  After ``threshold``
    of them the breaker opens and the endpoint sheds load with 503s
    until ``cooldown_s`` has passed; then exactly one probe request is
    let through (half-open).  A successful probe closes the breaker, a
    failed one reopens it for another cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown_s: float = 2.0,
                 clock=time.monotonic):
        self.threshold = max(1, int(threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self.state = "closed"       # "closed" | "open" | "half-open"
        self.failures = 0           # consecutive failures
        self.opened_total = 0       # closed/half-open -> open edges
        self.shed = 0               # requests rejected while open
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a request proceed right now?  (half-open admits one)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.cooldown_s:
                self.state = "half-open"
                return True
            self.shed += 1
            return False
        # half-open: the single probe is already in flight
        self.shed += 1
        return False

    def record(self, ok: bool) -> None:
        """Report the outcome of a request that was allowed through."""
        if ok:
            self.failures = 0
            self.state = "closed"
            return
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            if self.state != "open":
                self.opened_total += 1
            self.state = "open"
            self._opened_at = self._clock()

    def retry_after(self) -> float:
        """Seconds until the next half-open probe is admitted."""
        remaining = self.cooldown_s - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def snapshot(self) -> dict:
        return {"state": self.state,
                "consecutive_failures": self.failures,
                "opened_total": self.opened_total,
                "shed": self.shed}


@dataclass
class ServiceStats:
    """Everything ``/statsz`` reports (gauges are supplied by the
    service at snapshot time; these are the monotonic counters)."""

    received: int = 0
    completed: int = 0
    failed: int = 0            # job ran but produced an error result
    rejected: int = 0          # 429 backpressure
    invalid: int = 0           # 400/404 before reaching the queue
    timeouts: int = 0          # wall-clock per-job timeout tripped
    coalesced: int = 0         # requests attached to an in-flight twin
    result_hits: int = 0       # served from the completed-result LRU
    compiles: int = 0          # actual compilations (cache miss or off)
    sims: int = 0              # actual simulator runs
    multis: int = 0            # multi-tenant fabric runs
    priority_jobs: int = 0     # /multi bodies claiming a QoS weight > 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_off: int = 0
    cache_corrupt: int = 0
    worker_crashes: int = 0    # worker process died under a job
    retries: int = 0           # jobs re-dispatched after a crash
    respawns: int = 0          # pool rebuilds after a crash
    breaker_shed: int = 0      # requests shed with 503 by a breaker
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_cache(self, outcome: str, corrupt: int = 0) -> None:
        """Fold one worker-reported compile-cache outcome."""
        if outcome == "hit":
            self.cache_hits += 1
        elif outcome == "miss":
            self.cache_misses += 1
        elif outcome == "off":
            self.cache_off += 1
        self.cache_corrupt += int(corrupt)

    def to_dict(self) -> dict:
        return {
            "requests": {
                "received": self.received,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "invalid": self.invalid,
                "timeouts": self.timeouts,
                "coalesced": self.coalesced,
                "result_cache_hits": self.result_hits,
            },
            "work": {
                "compiles": self.compiles,
                "sims": self.sims,
                "multis": self.multis,
            },
            "compile_cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "off": self.cache_off,
                "corrupt": self.cache_corrupt,
            },
            "faults": {
                "worker_crashes": self.worker_crashes,
                "retries": self.retries,
                "respawns": self.respawns,
                "breaker_shed": self.breaker_shed,
            },
            "latency": self.latency.to_dict(),
        }
