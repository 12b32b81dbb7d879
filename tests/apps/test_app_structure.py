"""Structural and semantic tests per benchmark definition.

These check the *programs* (independent of the compiler): reference
semantics against independent numpy implementations, dataset scaling,
and the structural features each benchmark is supposed to exercise.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.apps.streaming import BlackScholes
from repro.errors import ReproError
from repro.patterns import run_program
from repro.patterns.patterns import (FlatMap, Fold, HashReduce, Map,
                                     ScatterMap)


def test_registry_names_unique_and_complete():
    names = [a.name for a in ALL_APPS]
    assert len(names) == 13
    assert len(set(names)) == 13
    # typed for the CLI's error handler, still a KeyError for lookups
    with pytest.raises(KeyError) as caught:
        get_app("nope")
    assert isinstance(caught.value, ReproError)
    assert str(caught.value).startswith("unknown benchmark 'nope'")


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_scales_grow(app):
    tiny = app.build("tiny")
    small = app.build("small")
    tiny_words = sum(a.static_elems() for a in tiny.inputs)
    small_words = sum(a.static_elems() for a in small.inputs)
    assert small_words > tiny_words


# -- independent numpy references ----------------------------------------------

def test_innerproduct_semantics():
    prog = get_app("innerproduct").build("tiny")
    env = run_program(prog)
    a = prog.arrays["a"].data
    b = prog.arrays["b"].data
    assert env.scalar(prog.arrays["dot"]) == pytest.approx(
        float(np.dot(a.astype(np.float64), b)), rel=1e-3)


def test_outerproduct_semantics():
    prog = get_app("outerproduct").build("tiny")
    env = run_program(prog)
    a, b = prog.arrays["a"].data, prog.arrays["b"].data
    np.testing.assert_allclose(env.buffers["c"], np.outer(a, b),
                               rtol=1e-5)


def test_blackscholes_matches_closed_form():
    app = BlackScholes()
    prog = app.build("tiny")
    env = run_program(prog)
    expect = app.numpy_reference(prog.arrays["price"].data,
                                 prog.arrays["strike"].data,
                                 prog.arrays["time"].data)
    np.testing.assert_allclose(env.buffers["call"], expect, rtol=1e-3,
                               atol=1e-3)


def test_tpchq6_matches_pandas_style_filter():
    prog = get_app("tpchq6").build("tiny")
    env = run_program(prog)
    date = prog.arrays["shipdate"].data
    qty = prog.arrays["quantity"].data
    price = prog.arrays["price"].data
    disc = prog.arrays["discount"].data
    keep = ((date >= 200) & (date < 600) & (disc >= 0.02)
            & (disc <= 0.08) & (qty < 24))
    expect = float((price[keep] * disc[keep]).sum())
    assert env.scalar(prog.arrays["revenue"]) == pytest.approx(
        expect, rel=1e-3)


def test_gda_matches_numpy_covariance():
    prog = get_app("gda").build("tiny")
    env = run_program(prog)
    x = prog.arrays["x"].data.astype(np.float64)
    mu = x.mean(axis=0)
    expect = (x - mu).T @ (x - mu)
    np.testing.assert_allclose(env.buffers["sigma"], expect, rtol=1e-2,
                               atol=1e-2)


def test_logreg_gradient_descends():
    prog = get_app("logreg").build("tiny")
    env = run_program(prog)
    x = prog.arrays["x"].data.astype(np.float64)
    y = prog.arrays["y"].data.astype(np.float64)
    w = env.buffers["w"].astype(np.float64)

    def loss(weights):
        z = x @ weights
        p = 1 / (1 + np.exp(-z))
        eps = 1e-9
        return -np.mean(y * np.log(p + eps)
                        + (1 - y) * np.log(1 - p + eps))

    assert loss(w) < loss(np.zeros_like(w))


def test_kmeans_centroids_are_cluster_means():
    prog = get_app("kmeans").build("tiny")
    env = run_program(prog)
    x = prog.arrays["x"].data
    assign = env.buffers["assign"]
    cents = env.buffers["centroids"]
    for c in range(cents.shape[0]):
        members = x[assign == c]
        if len(members):
            np.testing.assert_allclose(cents[c], members.mean(axis=0),
                                       rtol=1e-3, atol=1e-3)


def test_cnn_matches_scipy_style_conv():
    prog = get_app("cnn").build("tiny")
    env = run_program(prog)
    img = prog.arrays["image"].data
    w = prog.arrays["weights"].data
    oc, ic, kh, kw = w.shape
    out = env.buffers["fmap"]
    h_out = img.shape[1] - kh + 1
    expect = np.zeros((oc, h_out, h_out), dtype=np.float64)
    for o in range(oc):
        for i in range(ic):
            for y in range(h_out):
                for x_ in range(h_out):
                    expect[o, y, x_] += (
                        img[i, y:y + kh, x_:x_ + kw] * w[o, i]).sum()
    np.testing.assert_allclose(out, expect, rtol=1e-3, atol=1e-3)


def test_smdv_matches_scipy_style_spmv():
    prog = get_app("smdv").build("tiny")
    env = run_program(prog)
    ptr = prog.arrays["ptr"].data
    col = prog.arrays["col"].data
    val = prog.arrays["val"].data
    x = prog.arrays["x"].data
    rows = len(ptr) - 1
    expect = np.zeros(rows, dtype=np.float64)
    for r in range(rows):
        for e in range(ptr[r], ptr[r + 1]):
            expect[r] += val[e] * x[col[e]]
    np.testing.assert_allclose(env.buffers["y"], expect, rtol=1e-3,
                               atol=1e-3)


def test_pagerank_is_a_probability_distribution():
    prog = get_app("pagerank").build("tiny")
    env = run_program(prog)
    ranks = env.buffers["ranks"]
    assert (ranks > 0).all()
    # with damping each iteration redistributes most mass
    assert 0.3 < ranks.sum() < 1.7


def test_bfs_levels_are_shortest_paths():
    app = get_app("bfs")
    prog = app.build("tiny")
    env = run_program(prog)
    expect = app.expected(prog)["levels"]
    np.testing.assert_array_equal(env.buffers["levels"], expect)


# -- structural expectations ------------------------------------------------------

def _patterns_of(prog):
    return [type(step.pattern) for step in prog.walk_steps()]


def test_gemm_is_map_of_fold():
    prog = get_app("gemm").build("tiny")
    steps = list(prog.walk_steps())
    assert len(steps) == 1
    assert isinstance(steps[0].pattern, Map)
    assert steps[0].pattern.inner is not None


def test_kmeans_uses_hash_reduce():
    prog = get_app("kmeans").build("tiny")
    assert HashReduce in _patterns_of(prog)


def test_bfs_uses_flatmap_and_scatter():
    prog = get_app("bfs").build("tiny")
    kinds = _patterns_of(prog)
    assert FlatMap in kinds
    assert ScatterMap in kinds


def test_sparse_inputs_marked_offchip():
    assert get_app("smdv").build("tiny").arrays["x"].offchip
    assert get_app("pagerank").build("tiny").arrays["deg"].offchip
    assert get_app("bfs").build("tiny").arrays["levels"].offchip
