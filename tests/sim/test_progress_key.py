"""The watchdog's liveness key is read from counters, not re-summed —
and it is the *same value* it always was.

``Machine._progress_key`` used to walk every FIFO, every outer
controller's ``_completed`` list and every DRAM channel queue on every
executed cycle.  It now reads counters bumped where those events occur
(``repro.sim.scheduler.Progress``, ``DramModel._delivered``).  The
re-summing body survives here as :func:`reference_progress_key`; the two
must agree at every ``_close_cycle`` of every run, under both
schedulers — a key that merely *changes* on the same cycles would not
do, because the completed-children total is not monotone (an activation
resets its controller's list) and ``_last_progress`` feeds the deadlock
message.
"""

import pytest

from repro.apps import ALL_APPS
from repro.compiler import compile_to_bitstream, freeze_program
from repro.fuzz import build_program, gen_spec
from repro.sim import Fabric
from repro.sim import scheduler
from repro.sim.scheduler import SCHEDULER_MODES
from repro.tenancy import pack_apps


def reference_progress_key(machine):
    """The key as ``Machine._progress_key`` computed it before the
    counters existed: re-sum the whole machine."""
    fifo_flow = sum(f.pushed + f.popped for f in machine.fifos.values())
    completed = sum(sum(o._completed) for o in machine._outers)
    dram = machine.dram
    if machine.tenant is None:
        pending = (sum(len(c.queue) for c in dram.channels)
                   + len(dram._completed))
        reads, writes = dram.reads, dram.writes
    else:
        reads, writes, pending = dram.progress_counts(machine.tenant)
    return (machine.stats.vector_issues, reads, writes, pending,
            fifo_flow, completed)


@pytest.fixture
def checked(monkeypatch):
    """Compare the two keys at every ``_close_cycle``; yields the list
    of keys seen so tests can assert the check really ran."""
    seen = []
    close_cycle = scheduler._close_cycle

    def checking(machine, cycle):
        key = machine._progress_key()
        assert key == reference_progress_key(machine), \
            f"cycle {cycle}: {machine.tenant_name}"
        seen.append(key)
        return close_cycle(machine, cycle)

    monkeypatch.setattr(scheduler, "_close_cycle", checking)
    return seen


@pytest.mark.parametrize("mode", SCHEDULER_MODES)
@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_registry_key_equals_reference(app, mode, checked):
    compiled = compile_to_bitstream(app.name, "tiny")
    stats = compiled.machine(scheduler=mode).run()
    assert checked and len(checked) <= stats.cycles
    if mode == "dense":
        assert len(checked) == stats.cycles


@pytest.mark.parametrize("mode", SCHEDULER_MODES)
def test_fuzz_specs_key_equals_reference(mode, checked):
    """100 generated programs: FIFO-heavy flatmaps, nested tile loops
    (whose controllers restart, so the completed total falls), gathers."""
    fell = 0
    for seed in range(100):
        program, _ = build_program(gen_spec(seed))
        compiled = freeze_program(program, program.name, "fuzz")
        before = len(checked)
        compiled.machine(scheduler=mode).run()
        totals = [key[5] for key in checked[before:]]
        fell += any(b < a for a, b in zip(totals, totals[1:]))
    assert fell > 0, "no run ever reset a controller: the test is blind " \
                     "to the non-monotone case"
    assert any(key[4] for key in checked), "no FIFO traffic generated"


@pytest.mark.parametrize("mode", SCHEDULER_MODES)
def test_three_tenant_fabric_key_equals_reference(mode, checked):
    """Co-resident machines keep separate counters against one DRAM
    model (the per-tenant branch of ``progress_counts``)."""
    report = pack_apps(("bfs", "tpchq6", "gemm"), "tiny")
    assert report.feasible, report.reason
    fabric = Fabric()
    handles = [fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                 name=t.footprint.app)
               for t in report.tenants]
    fabric.run(scheduler=mode)
    assert all(handle.done for handle in handles)
    machines = [handle.machine for handle in handles]
    assert len({id(m._progress) for m in machines}) == 3
    assert any(key[4] for key in checked)       # bfs streams via FIFOs
    assert any(key[5] for key in checked)
