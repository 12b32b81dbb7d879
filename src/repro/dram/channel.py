"""One DRAM channel: request queue, FR-FCFS scheduling, shared data bus."""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import List, Optional

from repro.arch.params import DramParams
from repro.dram.bank import Bank
from repro.dram.request import DramRequest
from repro.errors import DramProtocolError
from repro.trace.events import EventKind


#: credit a tenant may bank across refill rounds, in multiples of its
#: weight — bounds the burst a long-idle tenant can unleash at once
_CREDIT_CAP_ROUNDS = 4

#: a request's age: FR-FCFS breaks ties by it, and the queue is kept
#: sorted by it
_age = attrgetter("arrival_cycle", "req_id")


class Channel:
    """A DDR3 channel with per-bank state and an FR-FCFS scheduler.

    Each tick the scheduler issues at most one request: among queued
    requests whose bank could start immediately, row-buffer *hits* win,
    ties broken by age (First-Ready, First-Come-First-Served).  The data
    bus serialises bursts: a burst may not start before the previous one
    finished.

    QoS arbitration
    ---------------
    Multi-tenant fabrics may register per-tenant *weights* via
    :meth:`set_tenant_weight`.  When the registered weights are not all
    equal the scheduler becomes a weighted FR-FCFS: each tenant holds a
    deficit credit counter, refilled proportionally to its weight
    whenever no issuable request belongs to a tenant with credit left,
    and "has credit" is consulted as the leading sort key ahead of the
    row-hit/age key.  The arbitration is work-conserving (a creditless
    tenant still issues when nothing else is issuable) and
    starvation-free (every tenant with queued work gains at least one
    credit per refill round).  With equal weights — including the
    default of no registrations — the scheduler is **bit-identical** to
    plain FR-FCFS: the weighted path is never entered, no counter is
    touched, and the registry-wide equivalence suite asserts it.
    """

    def __init__(self, params: DramParams):
        self.params = params
        self.queue_depth = params.queue_depth
        self.banks = [Bank(params) for _ in range(params.banks_per_channel)]
        self.queue: List[DramRequest] = []
        self.bus_free_at = 0
        self.bytes_moved = 0
        #: bursts issued (== bytes_moved / burst_bytes; the per-channel
        #: utilization counters divide this by elapsed cycles)
        self.bursts = 0
        #: tenant id -> per-tenant issue tallies (multi-tenant runs)
        self.tenant_stats: dict = {}
        #: tenant id -> arbitration weight (QoS); weighted scheduling
        #: only activates when these are not all equal
        self.tenant_weights: dict = {}
        #: tenant id -> deficit credits (weighted scheduling only)
        self._credits: dict = {}
        #: True iff registered weights are non-uniform
        self._weighted = False
        #: tenant id -> {"arb_won", "arb_deferred"} — contested weighted
        #: arbitration outcomes (untouched outside weighted mode, so
        #: equal-weight runs stay bit-identical)
        self.arb_stats: dict = {}
        #: tenant id -> tracer (multi-tenant runs attach one per tenant;
        #: a request's events go to its issuing tenant's tracer)
        self.tenant_traces: dict = {}
        #: recent row-activation times, for the tFAW window (ascending)
        self._activates: List[int] = []
        #: scan memo: no queued request can issue before this cycle
        #: unless a new one arrives (see ``_schedule``); 0 = unknown
        self.scan_at = 0
        #: attached by the DramModel when tracing is enabled
        self.trace = None
        self.trace_name = "?"
        #: attached by the event scheduler while a unit waits on queue
        #: room: called whenever a request leaves the queue
        self.on_dequeue = None
        #: injected-fault latency added to every burst (0 = healthy;
        #: adding 0 keeps the no-fault path bit-identical)
        self.extra_latency = 0

    # -- interface ------------------------------------------------------------
    def can_accept(self) -> bool:
        """Queue has room for another request."""
        return len(self.queue) < self.queue_depth

    def submit(self, request: DramRequest, now: int) -> None:
        """Enqueue a request (caller must have checked ``can_accept``).

        The queue stays sorted by age, ``(arrival_cycle, req_id)``: a
        request built and submitted at once is the youngest and is
        appended; one built before a request already queued (or a
        ``now`` earlier than the newest arrival) is inserted in place.
        """
        queue = self.queue
        if len(queue) >= self.queue_depth:
            raise DramProtocolError("channel queue overflow")
        request.arrival_cycle = now
        if request.bank < 0:    # handed straight to the channel
            _, request.bank, request.row, _ = self.params.map_address(
                request.byte_addr)
        if queue and (queue[-1].arrival_cycle > now
                      or (queue[-1].arrival_cycle == now
                          and queue[-1].req_id > request.req_id)):
            queue.insert(bisect_right([_age(r) for r in queue],
                                      (now, request.req_id)), request)
        else:
            queue.append(request)
        self.scan_at = 0

    def tick(self, now: int) -> Optional[DramRequest]:
        """Advance one cycle: maybe issue one request to a bank; returns
        it (its ``complete_cycle`` set), or None.

        Costs a queue scan only when one could find something: not on
        an empty queue, and not before the cycle the last fruitless
        scan proved to be the earliest any queued request can issue.
        """
        if not self.queue or now < self.scan_at:
            return None
        choice = self._schedule(now)
        if choice is None:
            return None
        self.queue.remove(choice)
        if self.on_dequeue is not None:
            self.on_dequeue()
        bank_id, row = choice.bank, choice.row
        bank = self.banks[bank_id]
        hit = bank.open_row == row
        empty = bank.open_row is None
        if not hit:
            self._activates.append(now)
        trace = self.trace
        if self.tenant_traces:
            trace = self.tenant_traces.get(choice.tenant, trace)
        if trace is not None:
            if hit:
                kind = EventKind.DRAM_ROW_HIT
            elif empty:
                kind = EventKind.DRAM_ROW_EMPTY
            else:
                kind = EventKind.DRAM_ROW_MISS
            trace.emit(kind, self.trace_name,
                       (bank_id, len(self.queue)))
        done = bank.issue(row, now, choice.is_write) \
            + self.extra_latency
        # serialise the data bus: burst occupies t_burst ending at `done`
        burst_start = done - self.params.t_burst
        if burst_start < self.bus_free_at:
            shift = self.bus_free_at - burst_start
            done += shift
        self.bus_free_at = done
        choice.complete_cycle = done
        self.bytes_moved += self.params.burst_bytes
        self.bursts += 1
        if choice.tenant is not None:
            tally = self.tenant_stats.get(choice.tenant)
            if tally is None:
                tally = self.tenant_stats[choice.tenant] = {
                    "row_hits": 0, "row_misses": 0, "row_empties": 0,
                    "bytes": 0, "bursts": 0}
            if hit:
                tally["row_hits"] += 1
            elif empty:
                tally["row_empties"] += 1
            else:
                tally["row_misses"] += 1
            tally["bytes"] += self.params.burst_bytes
            tally["bursts"] += 1
        return choice

    def set_tenant_weight(self, tenant: int, weight: int) -> None:
        """Register one tenant's QoS arbitration weight (>= 1).

        Weighted scheduling engages only once the registered weights
        are non-uniform; a fleet of equal weights (any value) keeps the
        scheduler on the bit-identical plain FR-FCFS path.
        """
        if weight < 1:
            raise DramProtocolError(
                f"tenant weight must be >= 1, got {weight}")
        self.tenant_weights[tenant] = weight
        self._credits.setdefault(tenant, 0)
        self._weighted = len(set(self.tenant_weights.values())) > 1

    def _schedule(self, now: int) -> Optional[DramRequest]:
        """FR-FCFS: oldest row hit, else oldest request whose bank is
        ready soonest.  With non-uniform tenant weights registered,
        "issuing tenant still has deficit credit" leads the key.

        A request is *ready* when its bank's ``ready_at`` is within
        ``busy_skip_cycles`` of ``now``, and a ready non-hit needs an
        activate, which the tFAW window must allow.  The queue is in
        age order (``submit``), so the unweighted pick is one pass: the
        first ready row hit in queue order, else the first ready
        request if tFAW allows — what minimising the key ``(not hit,
        arrival_cycle, req_id)`` over the issuable requests would pick.
        The weighted pick is one pass too: credit is per tenant, so a
        tenant's first issuable row hit, else its first issuable
        request, is the only one of its requests that can win
        (:meth:`_schedule_weighted`).

        A scan that finds nothing issuable returns None and records in
        ``scan_at`` the earliest cycle at which it could find
        something.  That is exact because, with the queue and the banks
        untouched, "issuable at ``now``" is monotone in ``now`` for
        each queued request: its bank must satisfy ``ready_at <= now +
        busy_skip_cycles``, and a non-hit additionally needs fewer than
        ``faw_activates`` activates newer than ``now - t_faw``, i.e.
        ``now >= _activates[-faw_activates] + t_faw``.  The memo is the
        minimum over the queue of the later of the two, taken in the
        same pass as the pick: a scan that returns None has passed over
        every queued request.  Banks and ``_activates`` change only at
        an issue — which needs a scan at or after the memo, leaving it
        stale-low, so the next tick scans — and the queue otherwise
        only in ``submit``, which clears it.
        An empty scan has no other effect (the ``_activates`` prune is
        idempotent and the weighted arbiter is only entered with a
        non-empty set), so the scans the memo skips are unobservable.
        """
        timing = self.params
        expired = now - timing.t_faw
        activates = self._activates
        if activates and activates[0] <= expired:
            activates = self._activates = [t for t in activates
                                           if t > expired]
        faw_full = len(activates) >= timing.faw_activates
        # every non-hit waits for the tFAW window to reopen
        faw_open = (activates[-timing.faw_activates] + timing.t_faw
                    if faw_full else 0)
        skip = timing.busy_skip_cycles
        skip_horizon = now + skip
        banks = self.banks
        # the memo, in the same pass: the earliest cycle at which each
        # request passed over could issue (the queue is not empty)
        soonest = None
        if not self._weighted:
            first_ready = None
            for request in self.queue:
                bank = banks[request.bank]
                ready = bank.ready_at
                if bank.open_row == request.row:
                    if ready <= skip_horizon:
                        return request
                    at = ready - skip
                elif ready > skip_horizon:
                    # bank deeply busy; skip this cycle
                    at = ready - skip
                    if at < faw_open:
                        at = faw_open
                elif faw_full:
                    at = faw_open
                else:
                    if first_ready is None:
                        first_ready = request
                    continue
                if soonest is None or at < soonest:
                    soonest = at
            if first_ready is not None:
                return first_ready
        else:
            # each tenant's first issuable request and first issuable
            # row hit, in age order: no other request of a tenant can
            # beat both under the weighted key
            first = {}
            for request in self.queue:
                bank = banks[request.bank]
                ready = bank.ready_at
                hit = bank.open_row == request.row
                if ready > skip_horizon:
                    at = ready - skip
                    if not hit and at < faw_open:
                        at = faw_open
                elif not hit and faw_full:
                    at = faw_open   # would need an activate
                else:
                    pick = first.get(request.tenant)
                    if pick is None:
                        first[request.tenant] = [request, hit]
                    elif hit and not pick[1]:
                        pick[0], pick[1] = request, True
                    continue
                if soonest is None or at < soonest:
                    soonest = at
            if first:
                return self._schedule_weighted(first)
        self.scan_at = soonest
        return None

    def _schedule_weighted(self, first) -> DramRequest:
        """Deficit-credit arbitration over ``first``: tenant -> its best
        issuable request (its first row hit, else its first request)
        and whether that is a hit.

        Refill happens when no issuable request's tenant has credit:
        every tenant with *queued* work (issuable or not) gains credits
        proportional to its weight, capped so a long-blocked tenant
        cannot bank an unbounded burst.  The winner minimises ``(no
        credit, not hit, age)`` — the key over every issuable request,
        whose minimum is one of these candidates — and spends one
        credit.
        """
        credits = self._credits
        weights = self.tenant_weights
        if not any(credits.get(tenant, 0) > 0 for tenant in first):
            for tenant in {r.tenant for r in self.queue}:
                weight = weights.get(tenant, 1)
                credits[tenant] = min(credits.get(tenant, 0) + weight,
                                      weight * _CREDIT_CAP_ROUNDS)
        best = None
        best_key = None
        for tenant, (request, hit) in first.items():
            key = (credits.get(tenant, 0) <= 0, not hit,
                   request.arrival_cycle, request.req_id)
            if best_key is None or key < best_key:
                best, best_key = request, key
        winner = best.tenant
        credits[winner] = credits.get(winner, 0) - 1
        if len(first) > 1:
            self._arb_tally(winner)["arb_won"] += 1
            for tenant in first:
                if tenant != winner:
                    self._arb_tally(tenant)["arb_deferred"] += 1
        return best

    def _arb_tally(self, tenant) -> dict:
        tally = self.arb_stats.get(tenant)
        if tally is None:
            tally = self.arb_stats[tenant] = {"arb_won": 0,
                                              "arb_deferred": 0}
        return tally

    def stats(self) -> dict:
        """Aggregate bank statistics."""
        return {
            "row_hits": sum(b.hits for b in self.banks),
            "row_misses": sum(b.misses for b in self.banks),
            "row_empties": sum(b.empties for b in self.banks),
            "bytes": self.bytes_moved,
        }
