"""FaultPlan semantics: validation, ordering, pruning, serialization,
and seeded random generation."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (DEGRADE_KINDS, KINDS, TRANSIENT_KINDS,
                               FaultEvent, FaultPlan, random_plan)


def test_event_validation():
    with pytest.raises(ConfigError):
        FaultEvent(cycle=5, kind="meteor_strike")
    with pytest.raises(ConfigError):
        FaultEvent(cycle=0, kind="unit_fail", unit="u")
    event = FaultEvent(cycle=5, kind="unit_fail", unit="u")
    assert "unit_fail" in event.describe()


def test_plan_sorts_events_by_cycle():
    plan = FaultPlan([
        FaultEvent(cycle=9, kind="dram_slow", channel=1, extra=8),
        FaultEvent(cycle=2, kind="unit_fail", unit="u"),
        FaultEvent(cycle=9, kind="link_degrade", unit="v", extra=4),
    ])
    assert [e.cycle for e in plan] == [2, 9, 9]
    assert len(plan) == 3
    # ties break deterministically by kind
    assert plan.events[1].kind < plan.events[2].kind or \
        plan.events[1].cycle < plan.events[2].cycle


def test_without_prunes_kinds_and_events():
    events = [FaultEvent(cycle=2, kind="unit_fail", unit="u"),
              FaultEvent(cycle=3, kind="dram_corrupt", array="a",
                         word=0, xor_mask=1),
              FaultEvent(cycle=4, kind="dram_slow", channel=0,
                         extra=8)]
    plan = FaultPlan(events)
    assert [e.kind for e in plan.without(TRANSIENT_KINDS)] == \
        ["unit_fail", "dram_slow"]
    # pruning never mutates the original
    assert len(plan) == 3


def test_plan_round_trips_through_dict():
    plan = FaultPlan([
        FaultEvent(cycle=7, kind="dram_corrupt", array="b", word=3,
                   xor_mask=0x10),
        FaultEvent(cycle=2, kind="link_degrade", unit="u", extra=6),
    ], seed=42)
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.seed == 42
    assert clone.events == plan.events


def test_random_plan_is_deterministic_and_bounded():
    kwargs = dict(units=("u0", "u1"), arrays=(("a", 64), ("b", 64)),
                  channels=4, max_cycle=100, max_events=5)
    one = random_plan(7, **kwargs)
    two = random_plan(7, **kwargs)
    other = random_plan(8, **kwargs)
    assert one.events == two.events
    assert 1 <= len(one) <= 5
    assert all(1 <= e.cycle <= 100 for e in one)
    assert one.events != other.events or one.seed != other.seed


def test_random_plan_skips_kinds_without_candidates():
    plan = random_plan(3, units=(), arrays=(), channels=0,
                       max_cycle=50)
    assert len(plan) == 0
    dram_only = random_plan(3, units=(), arrays=(("a", 8),),
                            channels=0, max_cycle=50, max_events=8)
    assert all(e.kind == "dram_corrupt" for e in dram_only)


def test_kind_taxonomy_is_complete():
    assert set(DEGRADE_KINDS) < set(KINDS)
    assert set(TRANSIENT_KINDS) < set(KINDS)
    assert "unit_fail" in KINDS
