"""Oracle classification when a simulator raises *mid-run*.

A scheduler that dies partway through a simulation (deadlock watchdog,
DRAM protocol violation, injected fault) must come back as a cleanly
classified failure at the ``sim-dense`` / ``sim-event`` stage — never
as a confusing ``compare`` divergence report built from a half-written
memory image, and never as an unhandled traceback.
"""

import pytest

from repro.errors import SimulationError
from repro.fuzz import gen_spec, run_oracle
from repro.sim.machine import Machine

SPEC = gen_spec(0)


@pytest.fixture
def midrun_raise(monkeypatch):
    """Patch ``Machine.run`` to die mid-run on selected schedulers."""
    real_run = Machine.run

    def arm(schedulers, exc=None):
        def boom(self, max_cycles=None):
            mode = self.scheduler
            if mode in schedulers:
                # simulate partial progress before the failure: some
                # cycles elapsed, the image possibly half-written
                self.cycle = 17
                raise (exc or SimulationError(
                    f"synthetic mid-run failure on {mode}"))
            return real_run(self, max_cycles=max_cycles)

        monkeypatch.setattr(Machine, "run", boom)

    return arm


def test_dense_midrun_error_classified_not_compared(midrun_raise):
    midrun_raise({"dense"})
    result = run_oracle(SPEC)
    assert not result.ok
    assert result.stage == "sim-dense"
    assert "synthetic mid-run failure on dense" in result.error
    # a mid-run death must never leak into divergence reporting
    assert result.mismatches == []
    assert "FAIL at sim-dense" in result.describe()


def test_event_midrun_error_classified_not_compared(midrun_raise):
    midrun_raise({"event"})
    result = run_oracle(SPEC)
    assert not result.ok
    assert result.stage == "sim-event"
    assert "synthetic mid-run failure on event" in result.error
    assert result.mismatches == []


def test_both_legs_dying_reports_the_first(midrun_raise):
    midrun_raise({"dense", "event"})
    result = run_oracle(SPEC)
    assert not result.ok
    assert result.stage == "sim-dense"
    assert result.mismatches == []


def test_unexpected_midrun_crash_still_classified(midrun_raise):
    """A non-ReproError crasher is a finding, not a harness failure."""
    midrun_raise({"event"}, exc=ZeroDivisionError("lane / 0"))
    result = run_oracle(SPEC)
    assert not result.ok
    assert result.stage == "sim-event"
    assert "ZeroDivisionError" in result.error
    assert result.mismatches == []


def test_unexpected_midrun_crash_reraises_under_trip_error(
        midrun_raise):
    midrun_raise({"dense"}, exc=ZeroDivisionError("lane / 0"))
    with pytest.raises(ZeroDivisionError):
        run_oracle(SPEC, trip_error=True)


def test_fault_error_midrun_is_a_typed_sim_failure(midrun_raise):
    """An injected FaultError surfacing mid-sim keeps its type name in
    the classification (chaos + fuzz composing cleanly)."""
    from repro.errors import FaultError
    midrun_raise({"dense"},
                 exc=FaultError("unit dead", cycle=17, unit="u0",
                                kind="unit_fail"))
    result = run_oracle(SPEC)
    assert not result.ok
    assert result.stage == "sim-dense"
    assert "FaultError" in result.error
    assert result.mismatches == []
