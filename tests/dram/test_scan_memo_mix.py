"""One pass picks and, when nothing can issue, records the memo.

``Channel._schedule`` computes its pick and the ``scan_at`` memo of a
fruitless scan in one walk over the queue.  The memo must be what the
two-pass rule gives — the minimum over the queue of the later of "the
bank is within ``busy_skip_cycles`` of ready" and, for a request that
is not a row hit, "the tFAW window has reopened" — also on fruitless
scans that pass over both kinds of blocked request at once: row hits
whose bank is busy, and misses whose bank is ready but whose activate
tFAW forbids.  Skipping the scans the memo rules out must change
nothing (``test_channel_skip``'s always-scan reference).
"""

import random

import pytest

from repro.dram import DramModel, DramRequest

from tests.dram.test_channel_skip import (BANK_STRIDE, COL_STRIDE,
                                          ROW_STRIDE, _drive)


def _hits_and_faw(n, seed=12, tenants=None):
    """Channel 0 only: now a row hit on a bank's open row, now a fresh
    row in a random bank, a third of them writes — bursts of activates
    fill the tFAW window while hits queue behind busy banks."""
    rng = random.Random(seed)
    open_rows = {}
    stream = []
    for k in range(n):
        bank = rng.randrange(8)
        if bank in open_rows and rng.random() < 0.5:
            row = open_rows[bank]
        else:
            row = open_rows[bank] = rng.randrange(1, 64)
        addr = (row * ROW_STRIDE + bank * BANK_STRIDE
                + rng.randrange(8) * COL_STRIDE)
        stream.append((addr, rng.random() < 0.3,
                       None if tenants is None else k % tenants))
    return stream


def _two_pass_memo(channel, now):
    """The memo as the two-pass rule states it."""
    timing = channel.params
    recent = [t for t in channel._activates if t > now - timing.t_faw]
    faw_open = (recent[-timing.faw_activates] + timing.t_faw
                if len(recent) >= timing.faw_activates else 0)
    skip = timing.busy_skip_cycles
    return min(max(channel.banks[r.bank].ready_at - skip,
                   0 if channel.banks[r.bank].open_row == r.row
                   else faw_open)
               for r in channel.queue)


def _blocked_kinds(channel, now):
    """What a fruitless scan at ``now`` passed over: bank-busy row hits,
    tFAW-blocked misses."""
    timing = channel.params
    horizon = now + timing.busy_skip_cycles
    recent = [t for t in channel._activates if t > now - timing.t_faw]
    faw_full = len(recent) >= timing.faw_activates
    kinds = set()
    for request in channel.queue:
        bank = channel.banks[request.bank]
        if bank.open_row == request.row:
            if bank.ready_at > horizon:
                kinds.add("busy_hit")
        elif bank.ready_at <= horizon and faw_full:
            kinds.add("faw_miss")
    return kinds


@pytest.mark.parametrize("weights", [None, {0: 8, 1: 1}],
                         ids=["fr_fcfs", "weighted_8_1"])
def test_fruitless_scans_over_busy_hits_and_faw_misses(weights):
    stream = _hits_and_faw(400, tenants=None if weights is None else 2)
    model = DramModel()
    for tenant, weight in (weights or {}).items():
        model.set_tenant_weight(tenant, weight)
    channel = model.channels[0]
    schedule = channel._schedule
    mixed = fruitless = 0

    def checked(now):
        nonlocal mixed, fruitless
        pick = schedule(now)
        if pick is None:
            fruitless += 1
            assert channel.scan_at == _two_pass_memo(channel, now)
            mixed += _blocked_kinds(channel, now) == {"busy_hit",
                                                      "faw_miss"}
        return pick

    channel._schedule = checked
    sent = delivered = 0
    while delivered < len(stream):
        while (sent < len(stream) and sent - delivered < 24
               and model.can_accept(stream[sent][0])):
            addr, is_write, tenant = stream[sent]
            model.tenant = tenant
            model.submit(DramRequest(addr, is_write=is_write))
            sent += 1
        model.tenant = None
        model.tick()
        delivered += len(model.deliver())
        assert model.cycle < 200 * len(stream), "no progress"
    assert fruitless > 0 and mixed > 0
    # and skipping what the memo rules out changes nothing
    memo = _drive(stream, always_scan=False, weights=weights)
    assert memo == _drive(stream, always_scan=True, weights=weights)
