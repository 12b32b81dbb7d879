"""Randomized differential testing: generated programs, compiled and
simulated, must match the reference executor.

A seeded generator produces random pattern programs (elementwise maps
with random expression trees, folds with random associative combines,
filters, 2-d tiled maps) over random data; each is pushed through the
full compile-and-simulate pipeline and compared against the executor.
This catches interaction bugs no hand-written case covers.
"""

import numpy as np
import pytest

from repro.bitstream import CompileOptions
from repro.compiler import freeze_program
from repro.patterns import (Dyn, Fold, Program, maximum, minimum,
                            run_program, select)
from repro.patterns import expr as E

#: small tiles, so the random programs span many of them
OPTIONS = CompileOptions(tile_words=128, whole_budget=4096)


def _random_expr(rng, operands, depth):
    """A random float expression tree over the given operand makers."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return operands[rng.integers(len(operands))]()
        return E.wrap(float(np.float32(rng.uniform(-2, 2))))
    op = rng.choice(["add", "sub", "mul", "min", "max", "select",
                     "abs"])
    lhs = _random_expr(rng, operands, depth - 1)
    rhs = _random_expr(rng, operands, depth - 1)
    if op == "min":
        return minimum(lhs, rhs)
    if op == "max":
        return maximum(lhs, rhs)
    if op == "select":
        return select(lhs > rhs, lhs, rhs * 0.5)
    if op == "abs":
        return E.absolute(lhs)
    return E.BinOp(op, lhs, rhs)


def _check(program, outputs):
    env = run_program(program)
    compiled = freeze_program(program, program.name, "tiny",
                              options=OPTIONS)
    machine = compiled.machine()
    machine.run()
    for name in outputs:
        want = env.buffers[name]
        got = machine.result(name)
        got = np.asarray(got).reshape(-1)[:want.size].reshape(want.shape)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3,
                                   err_msg=f"output {name!r}")


@pytest.mark.parametrize("seed", range(8))
def test_random_elementwise_maps(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.choice([96, 256, 512]))
    program = Program(f"rand_map_{seed}")
    num_inputs = int(rng.integers(1, 4))
    arrays = []
    for k in range(num_inputs):
        data = rng.uniform(-4, 4, n).astype(np.float32)
        arrays.append(program.input(f"in{k}", (n,), data=data))
    out = program.output("out", (n,))

    def body(i):
        operands = [lambda a=a: a[i] for a in arrays]
        return _random_expr(rng, operands, depth=int(rng.integers(1, 4)))

    program.map("body", out, n, body).set_par(16)
    _check(program, ["out"])


@pytest.mark.parametrize("seed", range(6))
def test_random_folds(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.choice([128, 384]))
    program = Program(f"rand_fold_{seed}")
    data = rng.uniform(-3, 3, n).astype(np.float32)
    a = program.input("a", (n,), data=data)
    out = program.output("out")
    combine_kind = rng.choice(["sum", "max", "min"])
    if combine_kind == "sum":
        init, combine = 0.0, (lambda x, y: x + y)
    elif combine_kind == "max":
        init, combine = -1e30, (lambda x, y: maximum(x, y))
    else:
        init, combine = 1e30, (lambda x, y: minimum(x, y))

    def body(i):
        operands = [lambda: a[i]]
        return _random_expr(rng, operands, depth=2)

    step = program.fold("f", out, n, init, body, combine)
    step.set_par(16, outer=int(rng.choice([1, 2])))
    _check(program, ["out"])


@pytest.mark.parametrize("seed", range(4))
def test_random_2d_tiled_maps(seed):
    rng = np.random.default_rng(3000 + seed)
    rows = int(rng.choice([24, 48]))
    cols = int(rng.choice([32, 64]))
    program = Program(f"rand_2d_{seed}")
    data = rng.uniform(-2, 2, (rows, cols)).astype(np.float32)
    m = program.input("m", (rows, cols), data=data)
    out = program.output("out", (rows, cols))
    scale = float(np.float32(rng.uniform(0.5, 2.0)))
    step = program.map("body", out, (rows, cols),
                       lambda i, j: m[i, j] * scale + m[i, j])
    step.tile = (8, 16)
    step.set_par(1, 16)
    _check(program, ["out"])


@pytest.mark.parametrize("seed", range(4))
def test_random_filters(seed):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.choice([128, 256]))
    program = Program(f"rand_filter_{seed}")
    data = rng.uniform(-5, 5, n).astype(np.float32)
    a = program.input("a", (n,), data=data)
    count = program.output("count", (), E.INT32)
    kept = program.output("kept", (Dyn(count),), max_elems=n)
    threshold = float(np.float32(rng.uniform(-2, 2)))
    program.filter("keep", kept, count, n,
                   cond=lambda i: a[i] > threshold,
                   value=lambda i: a[i] * 2.0).set_par(16)
    env = run_program(program)
    compiled = freeze_program(program, program.name, "tiny",
                              options=OPTIONS)
    machine = compiled.machine()
    machine.run()
    want_count = env.scalar(count)
    assert machine.scalar("count") == want_count
    np.testing.assert_allclose(
        machine.result("kept")[:want_count],
        env.buffers["kept"][:want_count], rtol=1e-4)


@pytest.mark.parametrize("seed", range(3))
def test_random_map_of_fold(seed):
    rng = np.random.default_rng(5000 + seed)
    rows = int(rng.choice([16, 32]))
    cols = int(rng.choice([32, 64]))
    program = Program(f"rand_mf_{seed}")
    data = rng.uniform(-2, 2, (rows, cols)).astype(np.float32)
    m = program.input("m", (rows, cols), data=data)
    out = program.output("out", (rows,))
    program.map("rowred", out, rows,
                lambda i: Fold(cols, 0.0,
                               lambda j: E.absolute(m[i, j]),
                               lambda x, y: x + y)).set_par(1, inner=16)
    _check(program, ["out"])
