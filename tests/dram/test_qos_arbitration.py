"""Weighted (QoS) DRAM arbitration: deficit credits over FR-FCFS.

The load-bearing invariant: with *equal* weights — any value, including
no registrations at all — the scheduler must be bit-identical to plain
FR-FCFS (the weighted path is never entered, no counter is touched).
With non-uniform weights the high-weight tenant's requests must finish
measurably earlier, but never by starving anyone: every tenant with
queued work gains credit each refill round.

Also pins the timing-derived scheduler constants (the tFAW activate cap
and the busy-bank skip horizon used to come from magic numbers).
"""

import dataclasses

import pytest

from repro.arch.params import DramParams
from repro.dram import DramModel, DramRequest
from repro.errors import DramProtocolError

DDR3 = DramParams()


def _drain(model, limit=100_000):
    """Tick until idle; completions in delivery order."""
    done = []
    for _ in range(limit):
        model.tick()
        done.extend(model.deliver())
        if model.idle:
            break
    assert model.idle, "workload did not drain"
    return done


def _submit_streams(model, tenants, per_tenant=24):
    """Interleaved row-miss-heavy streams, one per tenant.

    Each tenant walks its own distant address range (distinct rows in
    the same banks), submissions interleaved so every channel sees all
    tenants contending from cycle zero.
    """
    for k in range(per_tenant):
        for t in tenants:
            model.tenant = t
            model.submit(DramRequest(
                byte_addr=t * 1_000_003 * 64 + k * 64))
    model.tenant = None


def _signature(done):
    """Order-and-cycle fingerprint of one drained run."""
    return [(r.tenant, r.byte_addr, r.complete_cycle) for r in done]


def _mean_completion(done, tenant):
    cycles = [r.complete_cycle for r in done if r.tenant == tenant]
    assert cycles, f"tenant {tenant} never completed a request"
    return sum(cycles) / len(cycles)


# ---------------------------------------------------------------------------
# Equal weights == plain FR-FCFS, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weight", [None, 1, 7])
def test_equal_weights_bit_identical_to_unweighted(weight):
    baseline = DramModel()
    _submit_streams(baseline, (0, 1, 2))
    want = _signature(_drain(baseline))

    model = DramModel()
    if weight is not None:
        for tenant in (0, 1, 2):
            model.set_tenant_weight(tenant, weight)
        assert model.weighted is False
    _submit_streams(model, (0, 1, 2))
    assert _signature(_drain(model)) == want
    # the weighted path never ran: no arbitration tallies anywhere
    assert all(not c.arb_stats for c in model.channels)
    assert all("arb_won" not in entry for entry
               in model.channel_util(None, model.cycle).values())


def test_weight_registration_validates():
    model = DramModel()
    with pytest.raises(DramProtocolError):
        model.set_tenant_weight(0, 0)
    model.set_tenant_weight(0, 3)
    model.set_tenant_weight(1, 3)
    assert model.weighted is False
    model.set_tenant_weight(2, 1)
    assert model.weighted is True


# ---------------------------------------------------------------------------
# Non-uniform weights: effective, work-conserving, starvation-free
# ---------------------------------------------------------------------------


def test_high_weight_tenant_completes_earlier():
    flat = DramModel()
    _submit_streams(flat, (0, 1))
    flat_done = _drain(flat)

    weighted = DramModel()
    weighted.set_tenant_weight(0, 8)
    weighted.set_tenant_weight(1, 1)
    _submit_streams(weighted, (0, 1))
    done = _drain(weighted)

    assert _mean_completion(done, 0) < _mean_completion(done, 1)
    assert _mean_completion(done, 0) < _mean_completion(flat_done, 0)


@pytest.mark.parametrize("weights", [(8, 1), (5, 2, 1), (8, 8, 1),
                                     (2, 3, 4, 5)])
def test_no_tenant_starves(weights):
    """Every tenant retires every request, whatever the weights."""
    model = DramModel()
    tenants = tuple(range(len(weights)))
    for tenant, weight in zip(tenants, weights):
        model.set_tenant_weight(tenant, weight)
    assert model.weighted is True
    per_tenant = 20
    _submit_streams(model, tenants, per_tenant=per_tenant)
    done = _drain(model)
    by_tenant = {t: [r for r in done if r.tenant == t] for t in tenants}
    for t in tenants:
        assert len(by_tenant[t]) == per_tenant
    # weakest tenant makes continuous progress, not a trailing burst:
    # its first completion lands before the strongest tenant's last
    weakest = min(tenants, key=lambda t: weights[t])
    strongest = max(tenants, key=lambda t: weights[t])
    assert min(r.complete_cycle for r in by_tenant[weakest]) \
        < max(r.complete_cycle for r in by_tenant[strongest])


def test_arbitration_counters_reconcile():
    model = DramModel()
    model.set_tenant_weight(0, 8)
    model.set_tenant_weight(1, 1)
    _submit_streams(model, (0, 1))
    _drain(model)
    util = model.channel_util(None, model.cycle)
    per0 = model.channel_util(0, model.cycle)
    per1 = model.channel_util(1, model.cycle)
    contested = 0
    for name, entry in util.items():
        assert entry["arb_won"] == per0[name]["arb_won"] \
            + per1[name]["arb_won"]
        assert entry["arb_deferred"] == per0[name]["arb_deferred"] \
            + per1[name]["arb_deferred"]
        # two contenders: each contested grant defers exactly one
        assert entry["arb_won"] == entry["arb_deferred"]
        contested += entry["arb_won"]
    assert contested > 0, "streams never contended"


# ---------------------------------------------------------------------------
# Timing-derived scheduler constants (were hardcoded magic numbers)
# ---------------------------------------------------------------------------


def test_scheduler_constants_derive_from_timing():
    assert DDR3.faw_activates == 4
    assert DDR3.busy_skip_cycles == DDR3.t_ccd * 4
    custom = dataclasses.replace(DDR3, faw_activates=2, t_ccd=7)
    assert custom.busy_skip_cycles == 14


def test_tighter_faw_cap_slows_activate_storms():
    """Halving the allowed activates per tFAW window must not speed a
    row-miss storm up (and should visibly slow it)."""
    def last_completion(timing):
        model = DramModel(timing)
        _submit_streams(model, (0,), per_tenant=32)
        return max(r.complete_cycle for r in _drain(model))

    default = last_completion(DDR3)
    tight = last_completion(
        dataclasses.replace(DDR3, faw_activates=1))
    assert tight >= default


# measured once on the pre-refactor (magic-number) scheduler; any
# drift means the derived constants changed the schedule
PINNED_LAST_CYCLE = 107
PINNED_DRAIN_CYCLE = 107


def test_schedule_cycle_counts_pinned():
    """Regression pin: deriving the tFAW cap and busy-bank skip window
    from DramParams must reproduce the magic-number scheduler exactly."""
    model = DramModel()
    _submit_streams(model, (0, 1), per_tenant=16)
    done = _drain(model)
    assert max(r.complete_cycle for r in done) == PINNED_LAST_CYCLE
    assert model.cycle == PINNED_DRAIN_CYCLE
