"""Unit and invariant tests for the DDR3 memory model."""

import pytest

from repro.dram import (DDR3_1600, DEFAULT_GEOMETRY, Bank, DramModel,
                        DramRequest, DramGeometry)


def run_until_idle(model, limit=100000):
    done = []
    for _ in range(limit):
        model.tick()
        done.extend(model.deliver())
        if model.idle:
            break
    return done


# -- address mapping -----------------------------------------------------------

def test_adjacent_bursts_interleave_channels():
    geo = DEFAULT_GEOMETRY
    channels = [geo.map_address(burst * 64)[0] for burst in range(8)]
    assert channels == [0, 1, 2, 3, 0, 1, 2, 3]


def test_same_burst_same_mapping():
    geo = DEFAULT_GEOMETRY
    assert geo.map_address(100) == geo.map_address(70)  # same 64B burst


def test_row_change_beyond_row_bytes():
    geo = DramGeometry(channels=1, banks_per_channel=1, row_bytes=1024)
    _, _, row0, _ = geo.map_address(0)
    _, _, row1, _ = geo.map_address(1024)
    assert row1 == row0 + 1


# -- bank state machine -----------------------------------------------------------

def test_bank_empty_then_hit_latency():
    bank = Bank(DDR3_1600)
    done0 = bank.issue(row=5, now=0, is_write=False)
    assert done0 == DDR3_1600.row_empty_latency
    done1 = bank.issue(row=5, now=bank.ready_at, is_write=False)
    assert done1 - bank.ready_at <= DDR3_1600.row_hit_latency
    assert bank.hits == 1 and bank.empties == 1


def test_bank_conflict_pays_precharge():
    bank = Bank(DDR3_1600)
    bank.issue(row=1, now=0, is_write=False)
    now = bank.ready_at
    done = bank.issue(row=2, now=now, is_write=False)
    # must wait for tRAS since activation, then precharge + activate + cas
    assert done - now >= DDR3_1600.t_rp
    assert bank.misses == 1


def test_bank_hit_miss_counters():
    bank = Bank(DDR3_1600)
    for row in (1, 1, 1, 2, 2, 1):
        bank.issue(row, bank.ready_at, is_write=False)
    assert bank.empties == 1
    assert bank.hits == 3
    assert bank.misses == 2


# -- full model -----------------------------------------------------------------

def test_single_read_completes():
    model = DramModel()
    model.submit(DramRequest(byte_addr=0))
    done = run_until_idle(model)
    assert len(done) == 1
    assert done[0].complete_cycle >= DDR3_1600.row_empty_latency


def test_callback_fired_once():
    model = DramModel()
    seen = []
    model.submit(DramRequest(byte_addr=64), callback=seen.append)
    run_until_idle(model)
    assert len(seen) == 1


def test_stream_achieves_high_bandwidth():
    """Dense sequential bursts should get near the 51.2 GB/s peak."""
    model = DramModel()
    n_bursts = 512
    pending = [DramRequest(byte_addr=64 * i) for i in range(n_bursts)]
    submitted = 0
    for _ in range(200000):
        while submitted < n_bursts and model.can_accept(
                pending[submitted].byte_addr):
            model.submit(pending[submitted])
            submitted += 1
        model.tick()
        model.deliver()
        if submitted == n_bursts and model.idle:
            break
    stats = model.stats()
    gbps = stats["bytes"] / model.cycle  # bytes/ns == GB/s at 1 GHz
    assert gbps > 35.0  # > ~70% of 51.2 peak for a pure stream
    assert stats["row_hits"] > stats["row_misses"]


def test_random_bandwidth_below_stream():
    import random
    rng = random.Random(7)
    model_rand = DramModel()
    model_seq = DramModel()
    n_bursts = 256
    seq = [64 * i for i in range(n_bursts)]
    rand = [64 * rng.randrange(0, 1 << 20) for _ in range(n_bursts)]

    def run(model, addrs):
        submitted = 0
        for _ in range(500000):
            while submitted < len(addrs) and model.can_accept(
                    addrs[submitted]):
                model.submit(DramRequest(byte_addr=addrs[submitted]))
                submitted += 1
            model.tick()
            model.deliver()
            if submitted == len(addrs) and model.idle:
                break
        return model.cycle

    t_seq = run(model_seq, seq)
    t_rand = run(model_rand, rand)
    assert t_rand > 1.5 * t_seq


def test_writes_counted():
    model = DramModel()
    model.submit(DramRequest(byte_addr=0, is_write=True))
    model.submit(DramRequest(byte_addr=64))
    run_until_idle(model)
    assert model.writes == 1 and model.reads == 1


def test_queue_depth_respected():
    model = DramModel(queue_depth=2)
    model.submit(DramRequest(byte_addr=0))
    model.submit(DramRequest(byte_addr=256))
    assert not model.can_accept(0)
    with pytest.raises(Exception):
        model.submit(DramRequest(byte_addr=512))


def test_completions_monotone_with_bus_serialisation():
    """Two hits to the same bank cannot overlap on the data bus."""
    model = DramModel(geometry=DramGeometry(channels=1,
                                            banks_per_channel=1))
    model.submit(DramRequest(byte_addr=0))
    model.submit(DramRequest(byte_addr=64))
    done = run_until_idle(model)
    assert len(done) == 2
    times = sorted(r.complete_cycle for r in done)
    assert times[1] - times[0] >= DDR3_1600.t_burst


def test_pending_counts():
    model = DramModel()
    model.submit(DramRequest(byte_addr=0))
    assert model.pending == 1
    run_until_idle(model)
    assert model.pending == 0


def test_deliver_pops_the_matured_prefix_in_handover_order():
    """Undelivered completions are kept ordered by completion cycle, but
    one ``deliver`` call still returns (and calls back) in the order the
    channels handed them over — also when the clock has moved past
    completions of several different cycles at once."""
    model = DramModel()
    handed = []
    for channel in model.channels:
        def spy(now, tick=channel.tick):
            # a channel hands over the request it issues as it issues it
            issued = tick(now)
            if issued is not None:
                handed.append(issued)
            return issued
        channel.tick = spy
    called = []
    # random bursts over a few rows: hits and conflicts interleave, so
    # hand-over order is not completion order
    import random
    rng = random.Random(3)
    for _ in range(48):
        model.submit(DramRequest(byte_addr=64 * rng.randrange(1 << 12)),
                     callback=called.append)
    while any(channel.queue for channel in model.channels):
        model.tick()
    cycles = [r.complete_cycle for r in handed]
    assert len(handed) == 48 and cycles != sorted(cycles)
    assert model.next_completion() == min(cycles)
    middle = sorted(cycles)[24]
    model.cycle = middle
    first = model.deliver()
    assert first == [r for r in handed if r.complete_cycle <= middle]
    assert called == first
    assert model.next_completion() == min(c for c in cycles if c > middle)
    model.cycle = max(cycles)
    assert first + model.deliver() == sorted(
        handed, key=lambda r: (r.complete_cycle > middle, handed.index(r)))
    assert model.deliver() == [] and model.next_completion() is None
    assert model.idle and model.pending == 0
