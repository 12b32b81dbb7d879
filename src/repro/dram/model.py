"""The full memory system: channels + address mapping + statistics.

This is the DRAMSim2 substitute: the fabric simulator submits 64-byte
burst requests and receives completions with cycle-accurate-in-shape
latencies (row hits/misses, bank parallelism, bus serialisation, channel
interleaving).
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.params import DEFAULT, DramParams
from repro.dram.channel import Channel
from repro.dram.request import DramRequest
from repro.errors import DramProtocolError

#: a stream's dense position (the order streams admit in)
_position = attrgetter("_pos")


class DramModel:
    """Multi-channel DDR3 memory system, built from one memory record
    ``params`` (a :class:`~repro.arch.params.DramParams`: its geometry,
    queue depth and DDR3 timings).

    Usage: ``submit`` burst requests (checking ``can_accept`` per
    channel), call ``tick`` once per core cycle, and consume completions
    via the optional per-request callback or the list ``deliver``
    returns.

    A tile, gather or scatter engine is a *stream* the model pulls
    (``add_stream``): an issuer with a dense position ``_pos``, the
    ``tenant`` its bursts are stamped with, and an ``admit(now)`` step
    that dispatches its next bursts or addresses and returns True when
    it submitted a burst.  The stepping core
    (``repro.sim.scheduler``) runs each stream's step once per cycle at
    its position, also across the cycles in which the memory system
    runs alone.

    An issuer listed in ``wakers`` keeps the cycle its completions next
    wake a unit (``wakes_at()``), told as its requests issue
    (``note_issue``): :meth:`first_wake` is the earliest, and
    :meth:`drain` lands everything before it in one pass.
    """

    def __init__(self, params: DramParams = DEFAULT.dram):
        self.params = params
        self.channels = [Channel(params) for _ in range(params.channels)]
        self.cycle = 0
        self.reads = 0
        self.writes = 0
        #: tenant whose units are currently ticking (set by the
        #: multi-tenant Fabric before each tenant's tick pass; None in
        #: solo runs).  ``submit`` stamps it onto every request.
        self.tenant: Optional[int] = None
        #: tenant id -> submit/deliver tallies (multi-tenant runs only)
        self._tenant_counts: Dict[int, Dict[str, int]] = {}
        #: undelivered completions, a heap of ``(complete_cycle,
        #: arrival, request)``: the head is the next one to mature
        self._completed: List[Tuple[int, int, DramRequest]] = []
        self._arrivals = 0
        #: completions handed back by ``deliver`` so far
        self._delivered = 0
        #: streams still admitting bursts, in dense-position order
        self.streams: List = []
        #: issuers whose next completions may wake a unit
        self.wakers: List = []

    def attach_trace(self, tracer, tenant: Optional[int] = None) -> None:
        """Register every channel as an event track on ``tracer``.

        With ``tenant`` given, the tracer only receives events for that
        tenant's requests — each co-resident tenant attaches its own
        tracer and sees its own slice of the shared channels.
        """
        for k, channel in enumerate(self.channels):
            if tenant is None:
                channel.trace = tracer
            else:
                channel.tenant_traces[tenant] = tracer
            channel.trace_name = f"ch{k}"
            tracer.register_track(channel.trace_name, "dram")

    def set_tenant_weight(self, tenant: int, weight: int) -> None:
        """Register one tenant's QoS weight on every channel.

        Weighted FR-FCFS arbitration engages only when the registered
        weights are non-uniform; equal weights (or none) keep every
        channel on the bit-identical plain FR-FCFS path.
        """
        for channel in self.channels:
            channel.set_tenant_weight(tenant, weight)

    @property
    def weighted(self) -> bool:
        """True when non-uniform weights put channels in QoS mode."""
        return any(c._weighted for c in self.channels)

    # -- submission -------------------------------------------------------------
    def can_accept(self, byte_addr: int) -> bool:
        """True when the owning channel queue has room."""
        return self.channels[
            self.params.map_address(byte_addr)[0]].can_accept()

    def submit(self, request: DramRequest,
               callback: Optional[Callable[[DramRequest], None]] = None,
               channel: Optional[Channel] = None) -> None:
        """Enqueue one burst request (stamped with the current tenant);
        ``deliver`` calls ``callback`` with it once, when it completes.

        Without ``channel`` the address is decoded here and the owning
        channel queues the request in age order (``Channel.submit``).
        An issuer that has just built the request and decoded it — set
        its ``bank``/``row`` — passes the owning ``channel``: the
        request is then the youngest there is and joins the end of the
        queue here.  Either way the channel scheduler reads the bank
        and row from then on.
        """
        if channel is None:
            channel_id, request.bank, request.row, _ = \
                self.params.map_address(request.byte_addr)
            self.channels[channel_id].submit(request, self.cycle)
        else:
            queue = channel.queue
            if len(queue) >= channel.queue_depth:
                raise DramProtocolError("channel queue overflow")
            request.arrival_cycle = self.cycle
            queue.append(request)
            channel.scan_at = 0
        request.callback = callback
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
        tenant = self.tenant
        if tenant is not None:
            request.tenant = tenant
            counts = self._tenant_counts.get(tenant)
            if counts is None:
                counts = self._tenant_counts[tenant] = {
                    "reads": 0, "writes": 0, "submitted": 0,
                    "delivered": 0}
            counts["writes" if request.is_write else "reads"] += 1
            counts["submitted"] += 1

    def add_stream(self, stream) -> None:
        """``stream`` admits its bursts from this cycle on."""
        insort(self.streams, stream, key=_position)

    def drop_stream(self, stream) -> None:
        """``stream`` has drained (or its issuer failed)."""
        self.streams.remove(stream)

    # -- time -------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the memory system one core cycle.

        Only a channel that might issue is visited — one with a queue,
        at or past its scan memo (``Channel.scan_at``) — and what it
        issues goes straight onto the heap of undelivered completions.
        """
        self.cycle = now = self.cycle + 1
        for channel in self.channels:
            if channel.queue and now >= channel.scan_at:
                request = channel.tick(now)
                if request is not None:
                    done = request.complete_cycle
                    heapq.heappush(self._completed,
                                   (done, self._arrivals, request))
                    self._arrivals += 1
                    issuer = request.issuer
                    if issuer is not None:
                        issuer.note_issue(done)

    def next_completion(self) -> Optional[int]:
        """Cycle of the earliest undelivered completion (None if none).
        A queued request has no completion cycle until its channel
        issues it, and may then complete before this one."""
        return self._completed[0][0] if self._completed else None

    def first_wake(self) -> Optional[int]:
        """The first cycle whose completions wake a unit (None: none in
        flight does).  Exact while nothing is queued, and for the next
        cycle always (a request issued now completes later)."""
        first = None
        for issuer in self.wakers:
            at = issuer.wakes_at()
            if at is not None and (first is None or at < first):
                first = at
        return first

    def drain(self, stop: int, last: Dict) -> None:
        """With nothing queued, deliver every completion due before cycle
        ``stop`` as ``tick`` and ``deliver`` would cycle by cycle: in
        (cycle, arrival) order, the clock at each one's cycle when its
        callback runs (an error leaves it there).  ``last`` maps each
        tenant to its last delivery's cycle."""
        completed = self._completed
        counts = self._tenant_counts
        heappop = heapq.heappop
        while completed and completed[0][0] < stop:
            done, _, request = heappop(completed)
            self.cycle = done
            self._delivered += 1
            tenant = request.tenant
            last[tenant] = done
            if tenant is not None:
                tally = counts.get(tenant)
                if tally is not None:
                    tally["delivered"] += 1
            callback = request.callback
            if callback is not None:
                callback(request)

    def deliver(self) -> List[DramRequest]:
        """Requests whose data transfer has finished by the current cycle.

        Completions are buffered until their ``complete_cycle`` passes,
        then returned (and callbacks fired) exactly once, in the order
        the channels handed them over.
        """
        completed = self._completed
        now = self.cycle
        if not completed or completed[0][0] > now:
            return []           # nothing matures on most cycles
        entry = heapq.heappop(completed)
        if not completed or completed[0][0] > now:
            ready = [entry[2]]  # the usual case: one is due
        else:
            matured = [entry]
            while completed and completed[0][0] <= now:
                matured.append(heapq.heappop(completed))
            matured.sort(key=itemgetter(1))   # back to arrival order
            ready = [entry[2] for entry in matured]
        self._delivered += len(ready)
        for request in ready:
            if request.tenant is not None:
                counts = self._tenant_counts.get(request.tenant)
                if counts is not None:
                    counts["delivered"] += 1
            callback = request.callback
            if callback is not None:
                callback(request)
        return ready

    @property
    def queued(self) -> int:
        """Requests waiting in channel queues: submitted, not issued."""
        return self.reads + self.writes - self._arrivals

    @property
    def idle(self) -> bool:
        """True when no work is queued or in flight."""
        return not self._completed and not self.queued

    @property
    def pending(self) -> int:
        """Requests queued across all channels plus undelivered ones:
        everything submitted that ``deliver`` has not yet handed back."""
        return self.reads + self.writes - self._delivered

    def stats(self) -> dict:
        """Aggregate statistics across channels."""
        total = {"reads": self.reads, "writes": self.writes,
                 "row_hits": 0, "row_misses": 0, "row_empties": 0,
                 "bytes": 0}
        for channel in self.channels:
            for key, value in channel.stats().items():
                total[key] += value
        return total

    def stats_for(self, tenant: Optional[int]) -> dict:
        """Statistics for one tenant (``None`` -> aggregate ``stats``).

        Reads/writes come from submit-time tallies; row hit/miss/empty
        and byte counts are summed from the per-channel per-tenant issue
        tallies, so the sum over tenants reconciles with ``stats()``.
        """
        if tenant is None:
            return self.stats()
        counts = self._tenant_counts.get(tenant, {})
        total = {"reads": counts.get("reads", 0),
                 "writes": counts.get("writes", 0),
                 "row_hits": 0, "row_misses": 0, "row_empties": 0,
                 "bytes": 0}
        for channel in self.channels:
            tally = channel.tenant_stats.get(tenant)
            if tally is None:
                continue
            for key in ("row_hits", "row_misses", "row_empties", "bytes"):
                total[key] += tally[key]
        return total

    def progress_counts(self, tenant: Optional[int]
                        ) -> tuple:
        """(reads, writes, pending) for watchdog progress keys.

        ``None`` is the solo view; a tenant id narrows every component
        to that tenant's requests so one tenant's traffic cannot mask
        another's livelock.  Called once per machine per executed
        cycle: both views read counters, neither walks a queue.
        """
        if tenant is None:
            return (self.reads, self.writes, self.pending)
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            return (0, 0, 0)
        return (counts["reads"], counts["writes"],
                counts["submitted"] - counts["delivered"])

    def channel_util(self, tenant: Optional[int],
                     cycles: int) -> Dict[str, Dict[str, float]]:
        """Per-channel bandwidth-utilization counters.

        For each channel: bursts issued, bytes moved, and ``util`` — the
        fraction of elapsed ``cycles`` the data bus spent transferring
        those bursts (each burst occupies ``t_burst`` bus cycles, and the
        bus serialises bursts, so ``bursts * t_burst / cycles`` is exact
        bus occupancy).  With ``tenant`` given, only that tenant's bursts
        are counted — the per-tenant utilizations sum to the aggregate.

        Channels running weighted QoS arbitration additionally report
        ``arb_won`` / ``arb_deferred`` — contested-arbitration outcomes
        per tenant (summed over tenants for the aggregate view).  The
        keys are absent outside weighted mode, keeping equal-weight
        runs bit-identical to plain FR-FCFS.
        """
        out: Dict[str, Dict[str, float]] = {}
        for k, channel in enumerate(self.channels):
            if tenant is None:
                bursts = channel.bursts
                nbytes = channel.bytes_moved
            else:
                tally = channel.tenant_stats.get(tenant)
                bursts = tally["bursts"] if tally else 0
                nbytes = tally["bytes"] if tally else 0
            util = 0.0
            if cycles > 0:
                util = min(1.0, bursts * self.params.t_burst / cycles)
            entry: Dict[str, float] = {"bursts": bursts,
                                       "bytes": nbytes, "util": util}
            if channel._weighted:
                if tenant is None:
                    entry["arb_won"] = sum(
                        t["arb_won"] for t in channel.arb_stats.values())
                    entry["arb_deferred"] = sum(
                        t["arb_deferred"]
                        for t in channel.arb_stats.values())
                else:
                    arb = channel.arb_stats.get(
                        tenant, {"arb_won": 0, "arb_deferred": 0})
                    entry["arb_won"] = arb["arb_won"]
                    entry["arb_deferred"] = arb["arb_deferred"]
            out[f"ch{k}"] = entry
        return out

