"""The whole-domain executor against the per-element one it replaced.

``reference_executor`` is the old executor: one tree walk per element
over Python scalars, a FLOAT32 node rounding whatever it yields.  Every
program array must come out of both identical — ints and floats alike,
except floats downstream of a transcendental (``exp`` / ``log`` /
``sigmoid`` / ``tanh``: numpy's and ``math``'s may differ in the last
bit), which must agree within the fuzz oracle's tolerance.  A program
the reference rejects must be rejected with the same error class and
message.  (Arithmetic faults are the one intended difference — the
reference lets Python's exception escape, the executor types it;
``test_executor_faults.py`` covers them.)
"""

from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import ALL_APPS
from repro.compiler.artifact import freeze_program
from repro.errors import SimulationError
from repro.fuzz import load_spec
from repro.fuzz.generator import build_program, gen_spec
from repro.fuzz.oracle import ATOL, RTOL
from repro.patterns import Dyn, Fold, Program, select, to_int
from repro.patterns import expr as E
from repro.patterns.executor import run_program
from repro.patterns.program import Loop, Step

from tests.patterns import reference_executor as reference

CORPUS = sorted((Path(__file__).parents[1] / "fuzz" / "corpus").glob(
    "*.json"))
TRANSCENDENTAL = {"exp", "log", "sigmoid", "tanh"}


def _steps(body):
    for node in body:
        if isinstance(node, Step):
            yield node
        elif isinstance(node, Loop):
            yield from _steps(node.body)


def _expressions(pattern):
    for attr in ("body", "combine", "value", "key", "index", "emits"):
        value = getattr(pattern, attr, None)
        for item in value if isinstance(value, (tuple, list)) else (value,):
            yield from (item if isinstance(item, tuple) else (item,))
    for dim in pattern.dims:
        yield from (getattr(dim, "lo", None), getattr(dim, "hi", None))
    if getattr(pattern, "inner", None) is not None:
        yield from _expressions(pattern.inner)


def _transcendental_arrays(program):
    """Arrays whose values depend, through any chain of steps, on a
    transcendental operation."""
    tainted = set()
    while True:
        before = len(tainted)
        for step in _steps(program.body):
            if any(isinstance(n, E.UnOp) and n.op in TRANSCENDENTAL
                   or isinstance(n, E.Load) and n.array.name in tainted
                   for root in _expressions(step.pattern)
                   if isinstance(root, E.Expr) for n in E.postorder(root)):
                tainted.update(out.name for out in step.outputs)
        if len(tainted) == before:
            return tainted


def _outcome(run, program):
    try:
        return run(program), None
    except SimulationError as err:
        return None, err


def assert_same(build):
    """``build()`` twice — one program per executor — and compare."""
    want, want_err = _outcome(reference.run_program, build())
    program = build()
    got, got_err = _outcome(run_program, program)
    if want_err is not None or got_err is not None:
        assert (type(got_err), str(got_err)) == (type(want_err),
                                                 str(want_err))
        return
    loose = _transcendental_arrays(program)
    for name in program.arrays:
        a, b = want.buffers[name], got.buffers[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if name in loose and a.dtype.kind == "f":
            np.testing.assert_allclose(b, a, rtol=RTOL, atol=ATOL,
                                       err_msg=name)
        else:
            assert np.array_equal(a, b, equal_nan=True), name


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("app", ALL_APPS, ids=lambda app: app.name)
def test_registry_app(app, scale):
    assert_same(lambda: app.build(scale))


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
def test_fuzz_corpus(path):
    assert_same(lambda: build_program(load_spec(path))[0])


@pytest.mark.parametrize("first", range(0, 200, 25))
def test_generated_specs(first):
    for seed in range(first, first + 25):
        assert_same(lambda: build_program(gen_spec(seed))[0])


# -- hand-written edges --------------------------------------------------------

N = 12


def _floats(n=N, seed=0):
    return np.random.default_rng(seed).uniform(-2, 2, n).astype(np.float32)


def prefix_recurrence():
    """Reads its own output at i-1: the points run in domain order."""
    p = Program("scan")
    a = p.input("a", (N,), data=_floats())
    o = p.output("o", (N,))
    p.map("scan", o, N, lambda i: select(i > 0, o[i - 1], 0.0) + a[i])
    return p


def lazy_select():
    """The untaken side reads a[N], out of bounds: never evaluated."""
    p = Program("lazy")
    a = p.input("a", (N,), data=_floats())
    o = p.output("o", (N,))
    p.map("shift", o, N, lambda i: select(i < N - 1, a[i + 1], a[i]))
    return p


def out_of_bounds_read():
    p = Program("oob")
    a = p.input("a", (N,), data=_floats())
    o = p.output("o", (N,))
    p.map("oob", o, N, lambda i: a[i * 2 - 5])
    return p


def flat_map_overflow():
    p = Program("overflow")
    a = p.input("a", (N,), data=_floats())
    n = p.output("n", (), E.INT32)
    kept = p.output("kept", (Dyn(n),), max_elems=3)
    p.flatmap("twice", kept, n, N,
              lambda i: [(a[i] > 0.0, a[i]), (a[i] < 1.0, a[i] * 2.0)])
    return p


def flat_map_pairs():
    p = Program("pairs")
    a = p.input("a", (N,), data=_floats())
    n = p.output("n", (), E.INT32)
    kept = p.output("kept", (Dyn(n),), max_elems=2 * N)
    p.flatmap("twice", kept, n, N,
              lambda i: [(a[i] > 0.0, a[i]), (a[i] < 1.0, a[i] * 2.0)])
    return p


def hash_key_out_of_range():
    p = Program("badkey")
    v = p.input("v", (N,), E.INT32, data=np.arange(N, dtype=np.int32))
    h = p.output("h", (8,))
    p.hash_reduce("hist", h, N, 8, key=lambda i: v[i],
                  value=lambda i: 1.0, r=lambda x, y: x + y)
    return p


def hash_general_combine():
    """A combine that is not a bare add: every bin in domain order."""
    p = Program("hash")
    a = p.input("a", (N,), data=_floats())
    h = p.output("h", (3,))
    p.hash_reduce("mix", h, N, 3, key=lambda i: (i * 7) % 3,
                  value=lambda i: a[i], r=lambda x, y: x * 0.5 + y)
    return p


def scatter_collisions():
    p = Program("collide")
    a = p.input("a", (N,), data=_floats())
    t = p.output("t", (4,))
    p.scatter("sc", t, N, index=lambda i: i % 4, value=lambda i: a[i])
    return p


def empty_range_dim():
    p = Program("ragged")
    ptr = p.input("ptr", (5,), E.INT32,
                  data=np.array([0, 2, 2, 5, 5], dtype=np.int32))
    val = p.input("val", (5,), data=_floats(5))
    o = p.output("o", (4,))
    p.map("rows", o, 4, lambda i: Fold((ptr[i], ptr[i + 1]), 1.5,
                                       lambda j: val[j],
                                       lambda x, y: x + y))
    w = p.output("w", (4,))
    p.map("nothing", w, (E.wrap(3), E.wrap(3)), lambda i: 7.0)
    return p


def zero_dyn_length():
    p = Program("nothing")
    a = p.input("a", (N,), data=np.full(N, -1.0, dtype=np.float32))
    n = p.output("n", (), E.INT32)
    kept = p.output("kept", (Dyn(n),), max_elems=N)
    p.filter("pos", kept, n, N, lambda i: a[i] > 0.0, lambda i: a[i])
    total = p.output("total")
    p.fold("sum", total, Dyn(n), 0.25, lambda i: kept[i],
           lambda x, y: x + y)
    doubled = p.output("doubled", (Dyn(n),), max_elems=N)
    p.map("x2", doubled, Dyn(n), lambda i: kept[i] * 2.0)
    return p


def loop_stop_and_index():
    p = Program("countdown")
    left = p.temp("left", (), E.INT32, data=np.int32(3))
    it = p.temp("it", (), E.INT32)
    seen = p.output("seen", (10,), E.INT32)
    with p.loop("down", 10, stop_when_zero=left, index_cell=it):
        p.update("dec", left, lambda: left.scalar() - 1)
        p.scatter("mark", seen, 1, index=lambda i: it.scalar(),
                  value=lambda i: it.scalar() * 10 + 1)
    return p


def mixed_types():
    """A Select over an int and a float branch and a min of an int and a
    float, each then divided: both are FLOAT32 nodes, so both divisions
    are true divisions at every point."""
    p = Program("mixed")
    a = p.input("a", (N,), data=_floats())
    o = p.output("o", (N,))
    q = p.output("q", (N,))
    p.map("mix", (o, q), N,
          lambda i: (select(a[i] > 0.0, a[i], to_int(i) + 3) / 2,
                     E.minimum(to_int(i), a[i] * 4.0) / 2))
    return p


def fold_int_init():
    """A float fold from an int init: the accumulator is FLOAT32 from
    the start, so halving it is a true division (1 -> 0.125, not 0)."""
    p = Program("halves")
    a = p.input("a", (N,), data=_floats())
    h = p.output("h")
    p.fold("halves", h, 3, 1, lambda i: a[i] * 0.0,
           lambda x, y: x / 2 + y)
    return p


def fold_general_combine():
    """A top-level argmin (two accumulators, a Select combine) and a
    nested two-dimensional fold whose inner range depends on the outer
    index and the fold's own first index, empty for some of them."""
    p = Program("argmin")
    a = p.input("a", (N,), data=_floats())
    best = p.output("best")
    arg = p.output("arg", (), E.INT32)
    p.fold("argmin", (best, arg), N, (1e30, 0),
           lambda i: (a[i], to_int(i)),
           lambda x, y: (select(y[0] < x[0], y[0], x[0]),
                         select(y[0] < x[0], y[1], x[1])))
    m = p.input("m", (4, N), data=_floats(4 * N).reshape(4, N))
    o = p.output("o", (4,))
    p.map("tri", o, 4, lambda r: Fold(
        (3, lambda k: (E.wrap(0), k * 3 + r)), 0.0,
        lambda k, j: m[k, j], lambda x, y: x + y))
    return p


# -- steps that fault at more than one point: the first in domain order wins

def two_faults_in_one_body():
    """a[i+1] is out of bounds at the last point, b[i-1] at the first;
    the first point faults first."""
    p = Program("twofaults")
    a = p.input("a", (N,), data=_floats())
    b = p.input("b", (N,), data=_floats(seed=1))
    o = p.output("o", (N,))
    p.map("both", o, N, lambda i: a[i + 1] + b[i - 1])
    return p


def fold_two_faults():
    p = Program("foldfaults")
    a = p.input("a", (N,), data=_floats())
    b = p.input("b", (N,), data=_floats(seed=1))
    s = p.output("s")
    p.fold("sum", s, N, 0.0, lambda i: a[i + 1] * b[i - 1],
           lambda x, y: x + y)
    return p


def nested_fold_fault_order():
    """Row 3 faults at its first inner point, row 2 at its third: row 2's
    comes first."""
    p = Program("nestedfault")
    a = p.input("a", (N,), data=_floats())
    o = p.output("o", (4,))
    p.map("rows", o, 4, lambda r: Fold(6, 0.0, lambda j: a[r * 5 + j],
                                       lambda x, y: x + y))
    return p


def flat_map_value_fault_before_overflow():
    """The third emission reads a[12]; only the fourth would overflow."""
    p = Program("emitfault")
    a = p.input("a", (N,), data=_floats())
    n = p.output("n", (), E.INT32)
    kept = p.output("kept", (Dyn(n),), max_elems=3)
    p.flatmap("all", kept, n, N, lambda i: [(i >= 0, a[i + 10])])
    return p


def flat_map_overflow_before_value_fault():
    """The fourth emission overflows; the sixth would read a[12]."""
    p = Program("emitoverflow")
    a = p.input("a", (N,), data=_floats())
    n = p.output("n", (), E.INT32)
    kept = p.output("kept", (Dyn(n),), max_elems=3)
    p.flatmap("all", kept, n, N, lambda i: [(i >= 0, a[i + 7])])
    return p


def scatter_value_fault_before_bad_index():
    p = Program("scatterfault")
    a = p.input("a", (N,), data=_floats())
    t = p.output("t", (8,))
    p.scatter("sc", t, N, index=lambda i: i, value=lambda i: a[15 - i])
    return p


def hash_value_fault_before_bad_key():
    p = Program("hashfault")
    v = p.input("v", (N,), E.INT32, data=np.arange(N, dtype=np.int32))
    a = p.input("a", (N,), data=_floats())
    h = p.output("h", (8,))
    p.hash_reduce("hist", h, N, 8, key=lambda i: v[i],
                  value=lambda i: a[i + 9], r=lambda x, y: x + y)
    return p


def own_output_fault_after_write():
    """The second output's index reads the first output, just written at
    the same point: a re-run must start from the step's own inputs."""
    p = Program("rewrite")
    b = p.input("b", (N,), data=_floats())
    w = p.temp("w", (N,))
    q = p.output("q", (N,))
    p.map("bump", (w, q), N,
          lambda i: (w[i] + 20.0, b[to_int(w[i]) - i]))
    return p


EDGES = [prefix_recurrence, lazy_select, out_of_bounds_read,
         flat_map_overflow, flat_map_pairs, hash_key_out_of_range,
         hash_general_combine, scatter_collisions, empty_range_dim,
         zero_dyn_length, loop_stop_and_index, mixed_types,
         fold_int_init, fold_general_combine, two_faults_in_one_body,
         fold_two_faults,
         nested_fold_fault_order, flat_map_value_fault_before_overflow,
         flat_map_overflow_before_value_fault,
         scatter_value_fault_before_bad_index,
         hash_value_fault_before_bad_key, own_output_fault_after_write]


@pytest.mark.parametrize("build", EDGES, ids=lambda b: b.__name__)
def test_edge_program(build):
    assert_same(build)


def test_edges_reach_the_paths_they_name():
    """The edges are not vacuous: the ones that must fail do, with the
    scalar executor's message, and the others produce data."""
    _, err = _outcome(run_program, out_of_bounds_read())
    assert str(err) == "out-of-bounds read a[[-5]] (buffer shape (12,))"
    _, err = _outcome(run_program, flat_map_overflow())
    assert str(err) == "FlatMap output 'kept' overflow (max_elems=3)"
    _, err = _outcome(run_program, hash_key_out_of_range())
    assert str(err) == "HashReduce key 8 outside [0, 8)"
    env = run_program(prefix_recurrence())
    np.testing.assert_allclose(env.buffers["o"], np.cumsum(_floats()),
                               rtol=1e-5, atol=1e-5)
    env = run_program(loop_stop_and_index())
    assert env.buffers["seen"].tolist() == [1, 11, 21] + [0] * 7
    env = run_program(empty_range_dim())
    assert env.buffers["o"][1] == np.float32(1.5)
    env = run_program(fold_int_init())
    assert env.buffers["h"] == np.float32(0.125)
    for build, said in [
            (two_faults_in_one_body, "b[[-1]]"),
            (fold_two_faults, "b[[-1]]"),
            (nested_fold_fault_order, "a[[12]]"),
            (flat_map_value_fault_before_overflow, "a[[12]]"),
            (scatter_value_fault_before_bad_index, "a[[15]]"),
            (hash_value_fault_before_bad_key, "a[[12]]"),
            (own_output_fault_after_write, "b[[20]]")]:
        _, err = _outcome(run_program, build())
        assert str(err) == f"out-of-bounds read {said} (buffer shape " \
            "(12,))", build.__name__


def test_an_int_at_a_float32_node_is_a_float():
    """``mixed_types``' ints meet FLOAT32 nodes at a Select branch and a
    ``min`` winner: the executor, the per-element reference and the
    simulator all divide them truly, at every point."""
    a = _floats()
    i = np.arange(N)
    want = {"o": (np.where(a > 0, a, i + 3) / 2).astype(np.float32),
            "q": (np.minimum(i, a * 4.0) / 2).astype(np.float32)}
    machine = freeze_program(mixed_types(), "mixed", "tiny").machine()
    machine.run()
    for name, value in want.items():
        for env in (run_program(mixed_types()),
                    reference.run_program(mixed_types())):
            assert np.array_equal(env.buffers[name], value), name
        assert np.array_equal(machine.result(name).reshape(-1)[:N], value)
