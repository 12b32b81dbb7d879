"""Fault injection inside a real simulated machine.

Pins the contract the chaos harness relies on: a dead unit is detected
as a typed, attributed FaultError on BOTH schedulers; timing-only
degradation completes bit-correct but slower; DRAM corruption is
caught by the end-to-end checksums; and — critically — a machine with
no plan (or an empty one) stays bit-identical to the golden run.
"""

import pytest

from repro.compiler.artifact import compile_to_bitstream
from repro.errors import FaultError
from repro.faults import FaultEvent, FaultPlan

WATCHDOG = 2_500
MAX_CYCLES = 100_000


@pytest.fixture(scope="module")
def artifact():
    return compile_to_bitstream("innerproduct", "tiny")


@pytest.fixture(scope="module")
def golden(artifact):
    machine = artifact.machine(watchdog=WATCHDOG,
                               max_cycles=MAX_CYCLES)
    stats = machine.run()
    return stats, machine.image.checksums()


def _compute_leaf(artifact) -> str:
    return sorted(n for n, t in artifact.config.leaf_timing.items()
                  if t.num_pcus)[0]


def _machine(artifact, plan, **kwargs):
    return artifact.machine(fault_plan=plan, watchdog=WATCHDOG,
                            max_cycles=MAX_CYCLES, **kwargs)


def test_empty_plan_is_bit_identical(artifact, golden):
    stats, sums = golden
    machine = _machine(artifact, FaultPlan([]))
    again = machine.run()
    assert again.same_as(stats)
    assert machine.image.checksums() == sums


@pytest.mark.parametrize("scheduler", ["dense", "event"])
def test_unit_fail_raises_attributed_fault_error(artifact, golden,
                                                 scheduler):
    leaf = _compute_leaf(artifact)
    plan = FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=leaf)])
    machine = _machine(artifact, plan, scheduler=scheduler)
    with pytest.raises(FaultError) as excinfo:
        machine.run()
    err = excinfo.value
    assert err.kind == "unit_fail"
    assert err.unit == leaf
    assert err.cycle == 5          # the injection cycle
    assert "injected fault" in str(err)
    assert "detected at cycle" in str(err)
    attribution = err.attribution()
    assert attribution["kind"] == "unit_fail"
    assert attribution["detail"]["busy_leaves"]


def test_detection_is_scheduler_identical(artifact):
    leaf = _compute_leaf(artifact)
    plan = FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=leaf)])
    messages = []
    for scheduler in ("dense", "event"):
        with pytest.raises(FaultError) as excinfo:
            _machine(artifact, plan, scheduler=scheduler).run()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_fault_sites_flow_into_attribution(artifact):
    """A killed unit is attributed with the sites its artifact records."""
    leaf = _compute_leaf(artifact)
    sites = artifact.config.sites[leaf]
    assert sites
    plan = FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=leaf)])
    with pytest.raises(FaultError) as excinfo:
        _machine(artifact, plan).run()
    assert excinfo.value.sites == sites
    assert f"at sites {list(sites)}" in str(excinfo.value)


def test_max_cycles_trip_is_typed_when_faults_fired(artifact):
    leaf = _compute_leaf(artifact)
    plan = FaultPlan([FaultEvent(cycle=5, kind="unit_fail",
                                 unit=leaf)])
    machine = artifact.machine(fault_plan=plan,
                               watchdog=10 * MAX_CYCLES,
                               max_cycles=3_000)
    with pytest.raises(FaultError) as excinfo:
        machine.run()
    assert "max_cycles" in str(excinfo.value)
    assert excinfo.value.kind == "unit_fail"


@pytest.mark.parametrize("scheduler", ["dense", "event"])
def test_degradation_completes_bit_correct_but_slower(artifact,
                                                      golden,
                                                      scheduler):
    stats, sums = golden
    leaf = _compute_leaf(artifact)
    plan = FaultPlan([
        FaultEvent(cycle=5, kind="link_degrade", unit=leaf, extra=24),
        FaultEvent(cycle=9, kind="dram_slow", channel=0, extra=40),
    ])
    machine = _machine(artifact, plan, scheduler=scheduler)
    degraded = machine.run()
    assert degraded.cycles > stats.cycles
    assert machine.image.checksums() == sums
    assert len(machine.faults.fired) == 2


def test_degradation_is_scheduler_identical(artifact):
    leaf = _compute_leaf(artifact)
    plan = FaultPlan([
        FaultEvent(cycle=5, kind="link_degrade", unit=leaf, extra=24),
        FaultEvent(cycle=9, kind="dram_slow", channel=0, extra=40),
    ])
    runs = [_machine(artifact, plan, scheduler=s)
            for s in ("dense", "event")]
    stats = [m.run() for m in runs]
    assert stats[0].same_as(stats[1])
    assert runs[0].image.checksums() == runs[1].image.checksums()


def test_dram_corruption_caught_by_checksums(artifact, golden):
    _, sums = golden
    array = sorted(ref.name for ref in artifact.dhdl.drams)[0]
    plan = FaultPlan([FaultEvent(cycle=2, kind="dram_corrupt",
                                 array=array, word=0, xor_mask=1)])
    machine = _machine(artifact, plan)
    machine.run()       # corruption is silent at runtime...
    assert machine.image.checksums() != sums   # ...but not end-to-end


def test_degrade_does_not_mutate_shared_config(artifact, golden):
    """The artifact's LeafTiming must never change: chaos reuses one
    artifact across scenarios."""
    stats, sums = golden
    leaf = _compute_leaf(artifact)
    before = artifact.config.leaf_timing[leaf].pipeline_depth
    plan = FaultPlan([FaultEvent(cycle=5, kind="link_degrade",
                                 unit=leaf, extra=24)])
    _machine(artifact, plan).run()
    assert artifact.config.leaf_timing[leaf].pipeline_depth == before
    # and a fresh no-fault machine still reproduces the golden run
    clean = artifact.machine(watchdog=WATCHDOG,
                             max_cycles=MAX_CYCLES)
    assert clean.run().same_as(stats)
    assert clean.image.checksums() == sums
