"""The channel scan memo is exact: skipping scans changes nothing.

A fruitless ``Channel._schedule`` scan records in ``Channel.scan_at``
the earliest cycle at which a scan could find something to issue, and
neither ``Channel.tick`` nor ``DramModel.tick`` scans again before then.
The reference here is the same model with the memo cleared before every
tick — which then scans every queued channel every cycle, the behaviour
the memo replaced.  Both must issue the same requests on the same cycles
with the same completion times, bank outcomes and arbitration tallies.
"""

import random

import pytest

from repro.dram import DramModel, DramRequest

#: two addresses this far apart share channel and bank but not row
#: (64 B bursts x 4 channels x 8 banks x 128 bursts per row)
ROW_STRIDE = 64 * 4 * 8 * 128
#: next bank of the same channel / next column of the same bank
BANK_STRIDE = 64 * 4
COL_STRIDE = 64 * 4 * 8


def _sequential(n):
    return [(k * 64, False, None) for k in range(n)]


def _one_bank_conflicts(n):
    """Channel 0, bank 0 only: three rows taking turns."""
    return [((k % 3) * ROW_STRIDE + (k // 3 % 8) * COL_STRIDE, False, None)
            for k in range(n)]


def _faw_storm(n):
    """Channel 0: a fresh row in every bank, round after round — every
    request needs an activate, so the tFAW window stays saturated."""
    return [((k % 8) * BANK_STRIDE + (k // 8) * ROW_STRIDE, False, None)
            for k in range(n)]


def _mixed_rw(n, seed=5):
    rng = random.Random(seed)
    return [(64 * rng.randrange(1 << 14), rng.random() < 0.3, None)
            for _ in range(n)]


def _two_tenants(n, seed=6):
    rng = random.Random(seed)
    return [(64 * rng.randrange(1 << 12), rng.random() < 0.2, k % 2)
            for k in range(n)]


def _drive(stream, always_scan, weights=None, queue_depth=64,
           in_flight=32, bump=None):
    """Push ``stream`` through a fresh model; returns everything
    observable.  ``always_scan`` clears every memo before every tick;
    ``bump`` is ``(cycle, channel, extra)``: a mid-run ``dram_slow``."""
    model = DramModel(queue_depth=queue_depth)
    for tenant, weight in (weights or {}).items():
        model.set_tenant_weight(tenant, weight)
    requests = []
    waiting = []        # submitted, not yet issued
    issues = []         # (issue cycle, stream index, complete_cycle)
    delivered = []      # (delivery cycle, stream index)
    index_of = {}
    while len(delivered) < len(stream):
        while (len(requests) < len(stream)
               and len(requests) - len(delivered) < in_flight
               and model.can_accept(stream[len(requests)][0])):
            addr, is_write, tenant = stream[len(requests)]
            model.tenant = tenant
            request = DramRequest(addr, is_write=is_write)
            model.submit(request)
            index_of[request.req_id] = len(requests)
            requests.append(request)
            waiting.append(request)
        if bump is not None and model.cycle + 1 == bump[0]:
            model.channels[bump[1]].extra_latency += bump[2]
        if always_scan:
            for channel in model.channels:
                channel.scan_at = 0
        model.tick()
        for request in [r for r in waiting if r.done]:
            waiting.remove(request)
            issues.append((model.cycle, index_of[request.req_id],
                           request.complete_cycle))
        delivered.extend((model.cycle, index_of[r.req_id])
                         for r in model.deliver())
        assert model.cycle < 200 * len(stream) + 1000, "no progress"
    assert model.idle and model.pending == 0
    banks = [[(b.hits, b.misses, b.empties, b.open_row, b.ready_at)
              for b in channel.banks] for channel in model.channels]
    arb = [channel.arb_stats for channel in model.channels]
    tenants = [channel.tenant_stats for channel in model.channels]
    return {"issues": issues, "delivered": delivered, "banks": banks,
            "arb": arb, "tenants": tenants, "cycle": model.cycle,
            "stats": model.stats()}


CASES = {
    "sequential": dict(stream=_sequential(400)),
    "one_bank_conflicts": dict(stream=_one_bank_conflicts(200)),
    "faw_storm": dict(stream=_faw_storm(200)),
    "mixed_rw": dict(stream=_mixed_rw(400)),
    "tenants_8_to_1": dict(stream=_two_tenants(400),
                           weights={0: 8, 1: 1}),
    "tenants_uniform": dict(stream=_two_tenants(400),
                            weights={0: 3, 1: 3}),
    "slow_channel_mid_run": dict(stream=_mixed_rw(300, seed=8),
                                 bump=(120, 1, 37)),
    "full_queue": dict(stream=_mixed_rw(300, seed=9), queue_depth=4,
                       in_flight=1 << 30),
    "full_queue_conflicts": dict(stream=_one_bank_conflicts(120),
                                 queue_depth=4, in_flight=1 << 30),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_skips_only_fruitless_scans(case):
    kwargs = CASES[case]
    memo = _drive(always_scan=False, **kwargs)
    reference = _drive(always_scan=True, **kwargs)
    assert memo == reference
    assert len(memo["issues"]) == len(kwargs["stream"])


def test_weighted_case_really_arbitrates():
    """The 8:1 case must exercise the weighted arbiter (else its
    equality above says nothing about ``arb_*``)."""
    out = _drive(always_scan=False, **CASES["tenants_8_to_1"])
    assert sum(t["arb_won"] for channel in out["arb"]
               for t in channel.values()) > 0
    uniform = _drive(always_scan=False, **CASES["tenants_uniform"])
    assert uniform["arb"] == [{}] * 4


@pytest.mark.parametrize("case", ["one_bank_conflicts", "faw_storm",
                                  "mixed_rw", "full_queue"])
def test_memo_is_the_first_issuable_cycle(case):
    """While a recorded memo stands (no arrival, no issue since the
    fruitless scan), a scan at any earlier cycle finds nothing and
    recomputes the same memo; a scan at the memo finds a request."""
    kwargs = CASES[case]
    stream = kwargs["stream"]
    model = DramModel(queue_depth=kwargs.get("queue_depth", 64))
    sent = done = early = on_time = 0
    while done < len(stream):
        while (sent < len(stream)
               and sent - done < kwargs.get("in_flight", 32)
               and model.can_accept(stream[sent][0])):
            model.submit(DramRequest(stream[sent][0],
                                     is_write=stream[sent][1]))
            sent += 1
        now = model.cycle + 1
        for channel in model.channels:
            memo = channel.scan_at
            if not channel.queue or now > memo:
                continue        # cleared (0) or stale-low after an issue
            # plain FR-FCFS: a scan has no effect beyond the memo
            probe = channel._schedule(now)
            if now < memo:
                assert probe is None and channel.scan_at == memo
                early += 1
            else:
                assert probe in channel.queue
                on_time += 1
        model.tick()
        done += len(model.deliver())
    assert early > 0 and on_time > 0


def test_scan_count_drops_where_banks_block():
    """The point of the memo: a one-bank conflict stream scans twice
    per issue (the fruitless scan that records the memo, then the one
    at it), not once per cycle."""
    counts = {}
    for always_scan in (False, True):
        model = DramModel()
        scans = [0]
        for channel in model.channels:
            def counted(now, inner=channel._schedule):
                scans[0] += 1
                return inner(now)
            channel._schedule = counted
        stream = _one_bank_conflicts(64)
        for addr, is_write, _ in stream:
            model.submit(DramRequest(addr, is_write=is_write))
        delivered = 0
        while delivered < len(stream):
            if always_scan:
                for channel in model.channels:
                    channel.scan_at = 0
            model.tick()
            delivered += len(model.deliver())
        counts[always_scan] = (scans[0], model.cycle)
    (memo_scans, memo_cycle), (all_scans, all_cycle) = \
        counts[False], counts[True]
    assert memo_cycle == all_cycle
    assert memo_scans <= 2 * 64 + 2
    assert all_scans > 2 * memo_scans


def test_channel_decodes_a_request_submitted_directly():
    """``Channel.submit`` without the model in front still fills in the
    bank and row the scheduler reads."""
    model = DramModel()
    addr = 3 * ROW_STRIDE + 5 * BANK_STRIDE
    channel_id, bank, row, _ = model.geometry.map_address(addr)
    request = DramRequest(addr)
    assert (request.bank, request.row) == (-1, -1)
    channel = model.channels[channel_id]
    channel.submit(request, now=0)
    assert (request.bank, request.row) == (bank, row) == (5, 3)
    assert channel.tick(1) is request
    assert channel.banks[bank].open_row == row
