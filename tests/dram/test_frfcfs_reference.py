"""The one-pass FR-FCFS pick equals the keyed scan it replaced.

``Channel`` keeps its queue in age order and takes the first ready row
hit, else the first ready request tFAW allows.  ``reference_frfcfs``
keeps the keyed scan over a submit-order queue.  Seeded streams go
through both — requests built in one order and submitted in another,
row hits queued behind misses, saturated tFAW windows, a mid-run
``dram_slow`` latency bump, weighted tenants and full queues — and
issue order, completion and delivery cycles, bank hit/miss/empty
tallies, credits, arbitration tallies and every channel's ``scan_at``
after every tick must be equal.  Under non-uniform weights the reference
keys the whole issuable set, the channel only each tenant's first
issuable hit and first issuable request; the four-tenant 8:1:1:1
stream keeps two 64-deep queues full while they arbitrate.
"""

import random
from operator import attrgetter

import pytest

from repro.dram import DramModel, DramRequest
from repro.dram.channel import Channel
from tests.dram.reference_frfcfs import keyed_model

#: two addresses this far apart share channel and bank but not row
ROW_STRIDE = 64 * 4 * 8 * 128
#: next bank of the same channel / next column of the same bank
BANK_STRIDE = 64 * 4
COL_STRIDE = 64 * 4 * 8

_age = attrgetter("arrival_cycle", "req_id")


def _random_rows(n, seed):
    """Random bursts over eight rows: hits and misses interleave."""
    rng = random.Random(seed)
    return [(64 * rng.randrange(1 << 15), rng.random() < 0.3, None)
            for _ in range(n)]


def _hits_behind_misses(n, seed):
    """Channel 0, bank 0: mostly row 0, a stray other row every few
    requests — the queue holds row-0 hits behind a miss at its head."""
    rng = random.Random(seed)
    out = []
    for k in range(n):
        row = rng.choice((1, 2, 3)) if k % 4 == 0 else 0
        out.append((row * ROW_STRIDE + (k % 16) * COL_STRIDE, False, None))
    return out


def _faw_storm(n, seed):
    """Channel 0: a fresh row in every bank, round after round — every
    request needs an activate, so the tFAW window stays full."""
    rng = random.Random(seed)
    banks = list(range(8))
    out = []
    for k in range(n):
        if k % 8 == 0:
            rng.shuffle(banks)
        out.append((banks[k % 8] * BANK_STRIDE + (k // 8) * ROW_STRIDE,
                    False, None))
    return out


def _two_tenants(n, seed):
    rng = random.Random(seed)
    return [(64 * rng.randrange(1 << 13), rng.random() < 0.2, k % 2)
            for k in range(n)]


def _four_tenants_two_channels(n, seed):
    """Channels 0 and 1 only, random banks and rows, four tenants in
    turn: with enough in flight both 64-deep queues stay full."""
    rng = random.Random(seed)
    return [(64 * (4 * rng.randrange(1 << 12) + rng.randrange(2)),
             rng.random() < 0.2, k % 4)
            for k in range(n)]


CASES = {
    "random_rows": dict(stream=_random_rows),
    "hits_behind_misses": dict(stream=_hits_behind_misses),
    "faw_storm": dict(stream=_faw_storm),
    "dram_slow_mid_run": dict(stream=_random_rows, bump=(90, 1, 41)),
    "tenants_8_to_1": dict(stream=_two_tenants, weights={0: 8, 1: 1}),
    "tenants_uniform": dict(stream=_two_tenants, weights={0: 2, 1: 2}),
    "full_queue": dict(stream=_random_rows, queue_depth=4),
    "tenants_8_1_1_1_saturated": dict(
        stream=_four_tenants_two_channels,
        weights={0: 8, 1: 1, 2: 1, 3: 1}, requests=720, per_cycle=64,
        in_flight=400),
}


def _drive(model, stream, seed, weights=None, bump=None, per_cycle=5,
           in_flight=48, check_order=False):
    """Push ``stream`` through ``model``: each cycle the next few
    requests are built in stream order, then everything built and not
    yet accepted is submitted in a seeded random order (a request a
    full queue refuses is offered again next cycle, so it reaches the
    queue after younger ones).  Returns everything observable, plus
    how often the streams did what they are here for."""
    rng = random.Random(seed)
    for tenant, weight in (weights or {}).items():
        model.set_tenant_weight(tenant, weight)
    geometry = model.geometry
    held = []           # built, not yet accepted: (stream index, request)
    built = accepted = 0
    waiting = []        # accepted, not yet issued
    issues, delivered, scans = [], [], []
    index_of = {}
    seen = {"inserted": 0, "passed_head": 0, "faw_full": 0,
            "saturated": 0}
    while len(delivered) < len(stream):
        fresh = min(per_cycle, len(stream) - built,
                    in_flight - (accepted - len(delivered)))
        for _ in range(max(fresh, 0)):
            addr, is_write, tenant = stream[built]
            held.append((built, DramRequest(addr, is_write=is_write)))
            built += 1
        rng.shuffle(held)
        refused = []
        for index, request in held:
            if not model.can_accept(request.byte_addr):
                refused.append((index, request))
                continue
            model.tenant = stream[index][2]
            queue = model.channels[
                geometry.map_address(request.byte_addr)[0]].queue
            if queue and _age(queue[-1]) > (model.cycle, request.req_id):
                seen["inserted"] += 1
            model.submit(request)
            index_of[request.req_id] = index
            waiting.append(request)
            accepted += 1
            if check_order:
                assert queue == sorted(queue, key=_age)
        model.tenant = None
        held = refused
        if bump is not None and model.cycle + 1 == bump[0]:
            model.channels[bump[1]].extra_latency += bump[2]
        heads = [channel.queue[0] if channel.queue else None
                 for channel in model.channels]
        seen["saturated"] += sum(len(channel.queue) == channel.queue_depth
                                 for channel in model.channels)
        model.tick()
        for request in [r for r in waiting if r.done]:
            waiting.remove(request)
            issues.append((model.cycle, index_of[request.req_id],
                           request.complete_cycle))
            channel = geometry.map_address(request.byte_addr)[0]
            if request is not heads[channel]:
                seen["passed_head"] += 1
        scans.append(tuple(channel.scan_at for channel in model.channels))
        t_faw, cap = model.timing.t_faw, model.timing.faw_activates
        seen["faw_full"] += sum(
            len([t for t in channel._activates
                 if t > model.cycle - t_faw]) >= cap
            for channel in model.channels)
        delivered.extend((model.cycle, index_of[r.req_id])
                         for r in model.deliver())
        assert model.cycle < 300 * len(stream) + 1000, "no progress"
    assert model.idle and model.pending == 0
    banks = [[(b.hits, b.misses, b.empties, b.open_row, b.ready_at)
              for b in channel.banks] for channel in model.channels]
    observed = {
        "issues": issues, "delivered": delivered, "scan_at": scans,
        "banks": banks, "cycle": model.cycle, "stats": model.stats(),
        "arb": [channel.arb_stats for channel in model.channels],
        "credits": [channel._credits for channel in model.channels],
        "tenants": [channel.tenant_stats for channel in model.channels]}
    return observed, seen


def _run(case, seed, reference):
    kwargs = dict(CASES[case])
    depth = kwargs.pop("queue_depth", 64)
    stream = kwargs.pop("stream")(kwargs.pop("requests", 240), seed)
    model = keyed_model(depth) if reference else DramModel(
        queue_depth=depth)
    return _drive(model, stream, seed, check_order=not reference,
                  **kwargs)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_pass_pick_equals_keyed_scan(case, seed):
    got, seen = _run(case, seed, reference=False)
    want, _ = _run(case, seed, reference=True)
    assert got == want
    assert len(got["issues"]) == CASES[case].get("requests", 240)
    # built out of submit order, and inserted in age order
    assert seen["inserted"] > 0


@pytest.mark.parametrize("case, what", [
    ("hits_behind_misses", "passed_head"),
    ("random_rows", "passed_head"),
    ("faw_storm", "faw_full"),
    ("full_queue", "passed_head"),
    ("tenants_8_1_1_1_saturated", "saturated"),
])
def test_streams_exercise_what_they_are_for(case, what):
    """Equality above says nothing about a situation no stream reached."""
    _, seen = _run(case, 0, reference=False)
    assert seen[what] > 0


def test_weighted_four_tenants_contend_on_full_queues():
    """The 8:1:1:1 stream holds both queues full for most of its ticks
    and every tenant both wins and is deferred: the one-pass pick is
    compared where all four candidates are live."""
    got, seen = _run("tenants_8_1_1_1_saturated", 0, reference=False)
    assert seen["saturated"] > 400
    for arb in got["arb"][:2]:
        assert sorted(arb) == [0, 1, 2, 3]
        assert all(t["arb_won"] and t["arb_deferred"] for t in arb.values())
    won = sum(channel[0]["arb_won"] for channel in got["arb"][:2])
    assert won > sum(channel[1]["arb_won"] for channel in got["arb"][:2])


def test_submit_keeps_the_queue_in_age_order():
    """Appending is the usual case; a request built before one already
    queued, or stamped with an earlier cycle, is inserted in place."""
    model = DramModel()
    channel: Channel = model.channels[0]
    first, second, third, fourth = (DramRequest(k * BANK_STRIDE)
                                    for k in range(4))
    channel.submit(second, now=5)
    channel.submit(fourth, now=5)
    channel.submit(first, now=5)        # built before both: goes first
    channel.submit(third, now=3)        # earlier cycle: goes first
    assert channel.queue == [third, first, second, fourth]
    channel.submit(DramRequest(0), now=9)
    assert channel.queue == sorted(channel.queue, key=_age)
    assert channel.scan_at == 0
