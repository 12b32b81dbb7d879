"""The process-wide memo of scalar datapath code objects.

Counter bounds, transfer offsets and counts and carry combines are
compiled to Python; every build of one generated source shares a code
object, and each build ``exec``s it into a namespace of its own, which
binds that machine's memories and symbols.  So machines built from one artifact — solo
or as tenants of one fabric — share code and never state, and finish
exactly as they do with no memo at all.
"""

import pytest

from repro.compiler.artifact import compile_to_bitstream
from repro.dhdl import Counter, WriteStmt
from repro.dhdl.memory import Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.sim import datapath
from repro.sim.fabric import Fabric
from repro.tenancy import pack_apps

from tests.sim.test_datapath_kernel import Rig


def _compile_afresh(source, name):
    return compile(source, f"<datapath {name}>", "exec")


def _without_memo(run):
    """``run()`` with every build compiling its source afresh, as
    before the memo; then the memo is emptied for what follows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datapath, "_code", _compile_afresh)
        outcome = run()
    datapath._code.cache_clear()
    return outcome


def _functions(machine):
    """Every generated function of a run machine, in build order: the
    scalars of each node's evaluator (counter bounds, transfer offsets
    and counts, carry combines)."""
    fns = []
    for node in machine._nodes:
        fns += list(node._evaluate._fns.values())
    return fns


def _outcome(machine):
    return machine.stats.as_dict(), {
        name: buf.copy() for name, buf in machine.image.buffers.items()}


def _assert_same(got, want):
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for name, buf in want[1].items():
        assert got[1][name].dtype == buf.dtype
        assert got[1][name].tobytes() == buf.tobytes(), name


def _assert_share_code_not_state(a, b):
    fa, fb = _functions(a), _functions(b)
    assert fa and len(fa) == len(fb)
    for x, y in zip(fa, fb):
        assert x.source == y.source
        assert x.__code__ is y.__code__
        assert x.__globals__ is not y.__globals__


@pytest.mark.parametrize("app", ["smdv", "tpchq6", "bfs"])
def test_two_machines_of_one_artifact_share_code_not_state(app):
    artifact = compile_to_bitstream(app, "tiny")

    def solo():
        machine = artifact.machine()
        machine.run()
        return _outcome(machine)

    want = _without_memo(solo)
    first, second = artifact.machine(), artifact.machine()
    first.run()
    second.run()
    _assert_same(_outcome(first), want)
    _assert_same(_outcome(second), want)
    _assert_share_code_not_state(first, second)
    info = datapath._code.cache_info()
    assert info.hits >= info.misses > 0


def _fabric_run():
    packing = pack_apps(["smdv", "smdv"], "tiny")
    assert packing.feasible, packing.reason
    fabric = Fabric()
    tenants = [fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                 name=t.app) for t in packing.tenants]
    fabric.run()
    return [t.machine for t in tenants]


def test_two_tenants_of_one_app_share_code_not_state():
    want = _without_memo(lambda: [_outcome(m) for m in _fabric_run()])
    machines = _fabric_run()
    for machine, expected in zip(machines, want):
        _assert_same(_outcome(machine), expected)
    _assert_share_code_not_state(*machines)


def test_memo_never_grows_past_its_capacity():
    datapath._code.cache_clear()
    try:
        for k in range(datapath.CODE_MEMO_SIZE + 40):
            datapath._code(f"def scalar():\n    return {k}\n", "scalar")
        info = datapath._code.cache_info()
        assert info.maxsize == datapath.CODE_MEMO_SIZE
        assert info.currsize == datapath.CODE_MEMO_SIZE
        assert info.misses == datapath.CODE_MEMO_SIZE + 40
    finally:
        datapath._code.cache_clear()


def test_too_deep_kernel_fails_the_same_on_every_build():
    """A scalar kernel — here a counter bound — nested too deeply to
    compile fails typed, the same way on every build, and is never
    memoised."""
    ptr, o = Sram("ptr", (4,), E.INT32), Sram("o", (16,), E.FLOAT32)
    i = E.Idx("i")
    value = ptr[0]
    for k in range(120):
        value = E.select(ptr[0].eq(100 + k), k, value)
    messages = []
    for _ in range(3):
        size = datapath._code.cache_info().currsize
        with pytest.raises(SimulationError, match="nests too deeply") as err:
            Rig(False, [WriteStmt(o, (i,), E.to_float(i))],
                [Counter(0, value, par=16)], [ptr, o],
                data={"ptr": [16, 0, 0, 0]}, indices=[i]).run()
        messages.append(str(err.value))
        assert datapath._code.cache_info().currsize == size
    assert len(set(messages)) == 1
