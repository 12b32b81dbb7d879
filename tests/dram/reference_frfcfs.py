"""The keyed FR-FCFS scan, kept as a reference.

``repro.dram.channel.Channel`` keeps each queue sorted by age and picks
in one pass: the first ready row hit in queue order, else the first
ready request if tFAW allows.  This module is the scan that came
before: the queue in submit order, every issuable request collected as
a ``(request, hit)`` pair, and the pick the one minimising the key
``(not hit, arrival_cycle, req_id)`` — or, under non-uniform weights,
``(no credit, not hit, arrival_cycle, req_id)`` over that whole set —
with scan memo, tFAW prune and credit refill exactly as they were.  The differential tests drive
the same streams through both and compare everything observable.  It is
slow on purpose; nothing under ``src/`` may import it.
"""

from __future__ import annotations

from typing import Optional

from repro.dram import DramModel, DramRequest
from repro.dram.channel import _CREDIT_CAP_ROUNDS, Channel
from repro.errors import DramProtocolError


class KeyedChannel(Channel):
    """A channel whose queue is in submit order and whose pick is the
    keyed scan."""

    def submit(self, request: DramRequest, now: int) -> None:
        if not self.can_accept():
            raise DramProtocolError("channel queue overflow")
        request.arrival_cycle = now
        if request.bank < 0:
            _, request.bank, request.row, _ = self.geometry.map_address(
                request.byte_addr)
        self.queue.append(request)
        self.scan_at = 0

    def _schedule(self, now: int) -> Optional[DramRequest]:
        timing = self.timing
        expired = now - timing.t_faw
        activates = self._activates
        if activates and activates[0] <= expired:
            activates = self._activates = [t for t in activates
                                           if t > expired]
        faw_full = len(activates) >= timing.faw_activates
        skip = timing.busy_skip_cycles
        skip_horizon = now + skip
        banks = self.banks
        issuable = []
        for request in self.queue:
            bank = banks[request.bank]
            if bank.ready_at > skip_horizon:
                continue
            hit = bank.open_row == request.row
            if not hit and faw_full:
                continue
            issuable.append((request, hit))
        if not issuable:
            faw_open = (activates[-timing.faw_activates] + timing.t_faw
                        if faw_full else 0)
            self.scan_at = min(
                max(banks[r.bank].ready_at - skip,
                    0 if banks[r.bank].open_row == r.row else faw_open)
                for r in self.queue)
            return None
        if not self._weighted:
            best = None
            best_key = None
            for request, hit in issuable:
                key = (0 if hit else 1, request.arrival_cycle,
                       request.req_id)
                if best_key is None or key < best_key:
                    best, best_key = request, key
            return best
        return self._keyed_weighted(issuable)

    def _keyed_weighted(self, issuable) -> DramRequest:
        """Deficit-credit arbitration over the whole issuable set, as
        the channel arbitrated before its one-pass candidates: refill,
        key ``(no credit, not hit, arrival_cycle, req_id)``, tallies."""
        credits = self._credits
        weights = self.tenant_weights
        if not any(credits.get(r.tenant, 0) > 0 for r, _ in issuable):
            for tenant in {r.tenant for r in self.queue}:
                weight = weights.get(tenant, 1)
                credits[tenant] = min(credits.get(tenant, 0) + weight,
                                      weight * _CREDIT_CAP_ROUNDS)
        best = None
        best_key = None
        for request, hit in issuable:
            key = (0 if credits.get(request.tenant, 0) > 0 else 1,
                   0 if hit else 1, request.arrival_cycle,
                   request.req_id)
            if best_key is None or key < best_key:
                best, best_key = request, key
        winner = best.tenant
        credits[winner] = credits.get(winner, 0) - 1
        contenders = {r.tenant for r, _ in issuable}
        if len(contenders) > 1:
            self._arb_tally(winner)["arb_won"] += 1
            for tenant in contenders:
                if tenant != winner:
                    self._arb_tally(tenant)["arb_deferred"] += 1
        return best


def keyed_model(queue_depth: int = 64) -> DramModel:
    """A default-geometry DDR3 model on keyed-scan channels."""
    model = DramModel(queue_depth=queue_depth)
    model.channels = [KeyedChannel(model.timing, model.geometry,
                                   queue_depth)
                      for _ in model.channels]
    return model
