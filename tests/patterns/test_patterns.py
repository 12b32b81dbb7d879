"""Unit tests for pattern construction and tracing."""

import pytest

from repro.errors import PatternError, TraceError
from repro.patterns import (Array, Dyn, Filter, FlatMap, Fold, HashReduce,
                            Map, Program, ScatterMap, scalar_cell, select)
from repro.patterns import expr as E


def test_map_trace_scalar_body():
    a = Array("a", (8,))
    m = Map(8, lambda i: a[i] * 2.0)
    assert m.ndim == 1
    assert m.inner is None
    assert m.out_width == 1


def test_map_multi_output():
    a = Array("a", (8,))
    m = Map(8, lambda i: (a[i] + 1.0, a[i] - 1.0))
    assert m.out_width == 2


def test_map_nested_fold():
    a = Array("a", (4, 6))
    m = Map(4, lambda i: Fold(6, 0.0, lambda j: a[i, j],
                              lambda x, y: x + y))
    assert m.inner is not None
    assert m.inner.width == 1


def test_nested_fold_must_be_sole_output():
    a = Array("a", (4, 6))
    with pytest.raises(TraceError):
        Map(4, lambda i: (Fold(6, 0.0, lambda j: a[i, j],
                               lambda x, y: x + y), a[i, 0]))


def test_map_body_must_be_expr():
    with pytest.raises(TraceError):
        Map(4, lambda i: 42 if False else "oops")


def test_fold_multi_accumulator():
    a = Array("a", (8,))
    f = Fold(8, (float("inf"), 0),
             lambda i: (a[i], E.to_int(i)),
             lambda x, y: (select(y[0] < x[0], y[0], x[0]),
                           select(y[0] < x[0], y[1], x[1])))
    assert f.width == 2
    assert len(f.combine) == 2
    # each init is taken as its accumulator's dtype
    flags = Fold(8, (0.5, 1), lambda i: (E.to_int(a[i]), a[i] > 0.0),
                 lambda x, y: (x[0] + y[0], x[1] & y[1]))
    assert flags.init == (0, True)
    assert [type(v) for v in flags.init] == [int, bool]


def test_fold_width_mismatch_rejected():
    a = Array("a", (8,))
    with pytest.raises(TraceError):
        Fold(8, (0.0, 0.0), lambda i: a[i], lambda x, y: x + y)


def test_fold_combine_width_mismatch_rejected():
    a = Array("a", (8,))
    with pytest.raises(TraceError):
        Fold(8, (0.0, 0.0),
             lambda i: (a[i], a[i]),
             lambda x, y: x[0] + y[0])


def test_flatmap_filter_form():
    a = Array("a", (8,))
    fm = Filter(8, lambda i: a[i] > 0.0, lambda i: a[i])
    assert isinstance(fm, FlatMap)
    assert len(fm.emits) == 1
    assert fm.out_dtype == E.FLOAT32


def test_flatmap_multiple_emissions():
    a = Array("a", (8,))
    fm = FlatMap(8, lambda i: [(a[i] > 0.0, a[i]),
                               (a[i] > 1.0, a[i] * 2.0)])
    assert len(fm.emits) == 2


def test_flatmap_mixed_dtypes_rejected():
    a = Array("a", (8,))
    with pytest.raises(TraceError):
        FlatMap(8, lambda i: [(a[i] > 0.0, a[i]),
                              (a[i] > 1.0, E.to_int(a[i]))])


def test_flatmap_empty_emissions_rejected():
    with pytest.raises(TraceError):
        FlatMap(8, lambda i: [])


def test_hash_reduce_dense():
    vals = Array("v", (16,), E.INT32)
    hr = HashReduce(16, key=lambda i: vals[i] % 4,
                    value=lambda i: 1,
                    r=lambda x, y: x + y, bins=4, init=0)
    assert hr.bins == 4
    # the default init 0.0 is taken as the INT32 accumulator's dtype
    default = HashReduce(16, key=lambda i: vals[i] % 4, value=lambda i: 1,
                         r=lambda x, y: x + y, bins=4)
    assert default.init == (0,) and type(default.init[0]) is int
    with pytest.raises(TypeError, match="bins"):    # no sparse form
        HashReduce(16, key=lambda i: vals[i] % 4, value=lambda i: 1,
                   r=lambda x, y: x + y)


def test_hash_reduce_key_must_be_int():
    vals = Array("v", (16,))
    with pytest.raises(TraceError):
        HashReduce(16, key=lambda i: vals[i],
                   value=lambda i: 1,
                   r=lambda x, y: x + y, bins=4)


def test_scatter_map_trace():
    idx = Array("idx", (8,), E.INT32)
    sm = ScatterMap(8, index=lambda i: idx[i], value=lambda i: 1)
    assert isinstance(sm.index, E.Load)


def test_scatter_index_must_be_int():
    vals = Array("v", (8,))
    with pytest.raises(TraceError):
        ScatterMap(8, index=lambda i: vals[i], value=lambda i: 1)


def test_dynamic_domain_dim():
    length = scalar_cell("n", E.INT32)
    data = Array("d", (Dyn(length),), max_elems=64)
    m = Map(Dyn(length), lambda i: data[i] + 1.0)
    assert not m.dims[0].static


def test_range_domain_from_callable():
    ptr = Array("ptr", (9,), E.INT32)
    f = Fold((8, lambda i: (ptr[i], ptr[i + 1])), 0.0,
             lambda i, j: E.to_float(j),
             lambda x, y: x + y)
    assert f.ndim == 2
    assert not f.dims[1].static


def test_step_validation_in_program():
    p = Program("t")
    a = p.input("a", (4,))
    wrong_rank = p.output("o", (4, 4))
    with pytest.raises(PatternError):
        p.map("bad", wrong_rank, 4, lambda i: a[i])


def test_program_duplicate_names_rejected():
    p = Program("t")
    p.input("a", (4,))
    with pytest.raises(PatternError):
        p.input("a", (4,))
    a2 = p.arrays["a"]
    o = p.output("o", (4,))
    p.map("s", o, 4, lambda i: a2[i])
    with pytest.raises(PatternError):
        p.map("s", o, 4, lambda i: a2[i])


def test_set_par_validation():
    p = Program("t")
    a = p.input("a", (4, 4))
    o = p.output("o", (4, 4))
    step = p.map("s", o, (4, 4), lambda i, j: a[i, j])
    step.set_par(2, 2, inner=4)
    assert step.par == (2, 2)
    assert step.inner_par == 4
    with pytest.raises(PatternError):
        step.set_par(2)
