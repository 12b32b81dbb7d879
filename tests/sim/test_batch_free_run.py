"""The free-running follower leaf, and the stepped replay it left behind.

A follower leaf whose body emits into no FIFO, on an untraced machine,
parks across its whole activation (``batch._IssuePark``); every other
follower leaf still replays issue by issue.  Both paths apply issues
through ``_ReplayInnerComputeSim._apply``, so these tests keep each one
*selected* where it should be — a traced follower and an emitting leaf
step, everything else runs free — and pin, in the style of
``test_lazy_parks.py``, what the free run saves as counts: if run-ahead
is lost the results stay right and only these numbers move.
"""

import pytest

from repro.bitstream import Bitstream
from repro.compiler import freeze_program
from repro.fuzz import SPEC_VERSION, build_program
from repro.sim import batch
from repro.sim.batch import (_RecordingMachine, _ReplayMachine, instantiate,
                             run_batch)
from repro.sim.leaves import InnerComputeSim
from repro.sim.scheduler import SCHEDULER_MODES
from repro.trace import RingTracer
from tests.sim.test_batch_equivalence import (_compiled, _follower,
                                              _left_behind, _solo_outcome)
from tests.sim.test_fifo_stalls import _fifo_bound


def _filter_spec():
    """A fuzz ``filter`` step: ``filter0_body`` emits into a FIFO."""
    program, _ = build_program({
        "version": SPEC_VERSION, "seed": 7, "n": 256, "steps": [
            {"kind": "filter", "threshold": 0.0, "par": 16,
             "consume": True, "data_seed": 11}]})
    return freeze_program(program, "filter", "fuzz")


@pytest.fixture
def free_runs(monkeypatch):
    """Names of the leaves that started a free run, one per park."""
    started = []
    run_free = batch._ReplayInnerComputeSim._run_free

    def watching(self, i, cycle):
        run_free(self, i, cycle)
        if self._ahead is not None:
            started.append(self.name)

    monkeypatch.setattr(batch._ReplayInnerComputeSim, "_run_free",
                        watching)
    return started


def _count_compute_ticks(machine):
    calls = [0]
    for leaf in machine._leaves:
        if isinstance(leaf, InnerComputeSim):
            def counted(cycle, tick=leaf.tick):
                calls[0] += 1
                tick(cycle)
            leaf.tick = counted
    return calls


# -- the stepped path stays selected, and stays exact ------------------------


@pytest.mark.parametrize("scheduler", SCHEDULER_MODES)
def test_traced_follower_steps_like_its_traced_solo_twin(scheduler,
                                                         free_runs):
    """A traced unit's marks alternate BUSY / BANK_CONFLICT per cycle
    (gemm at banks=4 serialises every issue), so it keeps stepping:
    attribution tables, RLE timelines and the discrete event ring —
    ISSUE and BANK_CONFLICT events included — are its solo twin's."""
    source = _compiled("gemm")
    overrides = {"stages": 3, "banks": 4}
    result = run_batch(source, [{}, overrides], scheduler=scheduler,
                       tracer_factory=lambda i, p: RingTracer())
    twin = result[1]
    assert twin.role == "replay" and free_runs == []
    solo = instantiate(source, overrides, scheduler=scheduler,
                       tracer=RingTracer())
    solo.run()
    assert (twin.machine.trace_report().render()
            == solo.trace_report().render())
    ours, theirs = twin.machine.tracer, solo.tracer
    assert ours.counts == theirs.counts
    assert ({unit: list(line) for unit, line in ours.timelines.items()}
            == {unit: list(line) for unit, line in theirs.timelines.items()})
    assert list(ours.events) == list(theirs.events)
    kinds = {event.kind.value for event in ours.events}
    assert {"issue", "bank_conflict"} <= kinds


#: programs with an ``EmitStmt`` leaf (bfs is the only registry app
#: with one: ``frontier_scan_body``, ``expand_body``, ``unvisited_body``)
EMITTING = {
    "filter": (_filter_spec, {"filter0_body"}),
    "bfs": (lambda: _compiled("bfs"),
            {"frontier_scan_body", "expand_body", "unvisited_body"}),
    "fifo_bound": (lambda: Bitstream("fifo_bound", "tiny", *_fifo_bound()),
                   {"emit"}),
}


@pytest.mark.parametrize("scheduler", SCHEDULER_MODES)
@pytest.mark.parametrize("name", EMITTING)
def test_emitting_leaf_replays_issue_by_issue(name, scheduler, free_runs):
    """FIFO backpressure can stall an emitting leaf between any two
    issues, so it never runs free — its siblings do — and its full
    stalls are the solo run's."""
    build, emitting = EMITTING[name]
    source = build()
    leaves = {leaf.name for leaf in source.dhdl.leaves()}
    assert emitting <= leaves
    params = [{"banks": 4}, {"stages": 9, "dram_queue_depth": 1}]
    result = run_batch(source, [{}] + params, scheduler=scheduler)
    for inst, overrides in zip(result.instances[1:], params):
        assert inst.role == "replay"
        solo, solo_error = _solo_outcome(source, overrides, scheduler)
        assert (_left_behind(inst.machine, inst.error)
                == _left_behind(solo, solo_error))
    assert not emitting & set(free_runs)
    if name == "filter":
        assert free_runs            # the consuming sibling runs free
    if name == "fifo_bound":
        # at banks=4 conflicts throttle the producer; as banked, it
        # outruns the drain
        slow, fast = (inst.machine.fifos["f"].full_stalls
                      for inst in result.instances[1:])
        assert slow == 0 < fast == result[2].stats.fifo_stall_cycles


# -- the free run stays on: what it saves, as counts -------------------------

#: one ``small`` follower under the event core: (app, overrides) ->
#: (compute-leaf ``tick`` calls, executed cycles).  At ``dc3a52b``,
#: where a follower stepped per vector issue, the same runs read gemm
#: 1 544 ticks / 1 162 executed (1 708 at banks=4) and kmeans 933 /
#: 1 917 (1 920): a compute leaf now ticks at the first and last issue,
#: the chain end and the drain of each activation.  A watchdog shorter
#: than an activation cuts the run into parks of at most that length.
#: Burst completions that wake nobody are delivered inside jumps, not
#: on executed cycles: before that the six runs executed 197, 197, 502,
#: 1 089, 1 092 and 1 131 cycles.  A tile transfer is a burst stream
#: the DRAM model pulls, and cycles in which only streams and channels
#: act are stepped by ``EventScheduler._run_alone`` and counted as
#: fast-forwarded: before that the six runs executed 121, 121, 426,
#: 657, 657 and 699 cycles.
FOLLOWER_PINS = [
    ("gemm", {}, 1277, 14, 47),
    ("gemm", {"banks": 4}, 4349, 14, 47),
    ("gemm", {"banks": 4, "watchdog": 21}, 4349, 320, 352),
    ("kmeans", {}, 2510, 78, 273),
    ("kmeans", {"banks": 4}, 2510, 78, 282),
    ("kmeans", {"banks": 4, "watchdog": 21}, 2510, 117, 321),
]


@pytest.mark.parametrize(
    "app,overrides,cycles,ticks,executed", FOLLOWER_PINS,
    ids=[f"{p[0]}-{'-'.join(f'{k}{v}' for k, v in p[1].items()) or 'as-compiled'}"
         for p in FOLLOWER_PINS])
def test_follower_compute_ticks_and_executed_cycles(app, overrides, cycles,
                                                    ticks, executed):
    follower = _follower(_compiled(app, "small"), overrides)
    calls = _count_compute_ticks(follower)
    follower.run()
    sched = follower.scheduler_stats
    assert follower.stats.cycles == cycles
    assert sched.executed_cycles + sched.fast_forwarded_cycles == cycles
    assert (calls[0], sched.executed_cycles) == (ticks, executed)


def test_one_charge_applies_the_merged_middle_once_per_cohort(monkeypatch):
    """The whole middle of a block is one charge — one ``_apply`` of
    issues ``[1, n - 1)``, each address its range's last write — and
    the block is priced once per banking configuration for the cohort:
    a leader and three followers built by hand, so their compute log is
    still there to read once they have run (``run_batch`` frees it)."""
    applied = []
    apply = InnerComputeSim._apply

    def watching(self, lo, hi):
        applied.append((self, lo, hi))
        apply(self, lo, hi)

    monkeypatch.setattr(InnerComputeSim, "_apply", watching)
    source = _compiled("gemm", "small")
    log, layouts = {}, {}
    instantiate(source, {}, machine_cls=_RecordingMachine, log=log,
                layouts=layouts).run()
    followers = [instantiate(source, overrides, machine_cls=_ReplayMachine,
                             log=log, layouts=layouts)
                 for overrides in ({"banks": 4}, {"banks": 8}, {})]
    for follower in followers:
        follower.run()
    leaf = next(leaf for leaf in followers[0]._leaves
                if isinstance(leaf, InnerComputeSim))
    blocks = [block for act in log[leaf.name] for block in act.blocks]
    assert blocks
    assert [(lo, hi) for who, lo, hi in applied if who is leaf] == [
        span for block in blocks
        for span in ((0, 1), (1, block.n - 1), (block.n - 1, block.n))]
    # priced once per banking configuration: 16 (twice), 4 and 8
    assert all(len(block._schedules) == 3 for block in blocks)
