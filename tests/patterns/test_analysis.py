"""Unit tests for access-pattern analysis."""

from repro.patterns import Array
from repro.patterns import expr as E
from repro.patterns.analysis import Affine, as_affine, classify_load


def test_affine_of_constant():
    form = as_affine(E.wrap(7))
    assert form.is_const()
    assert form.const == 7


def test_affine_of_index():
    i = E.Idx("i")
    form = as_affine(i)
    assert form.stride_of(i) == 1


def test_affine_linear_combination():
    i, j = E.Idx("i"), E.Idx("j")
    form = as_affine(i * 3 + j + 5)
    assert form.stride_of(i) == 3
    assert form.stride_of(j) == 1
    assert form.const == 5


def test_affine_subtraction_and_negation():
    i = E.Idx("i")
    form = as_affine(10 - i * 2)
    assert form.const == 10
    assert form.stride_of(i) == -2
    neg = as_affine(-(i + 1))
    assert neg.const == -1
    assert neg.stride_of(i) == -1


def test_nonaffine_returns_none():
    i, j = E.Idx("i"), E.Idx("j")
    assert as_affine(i * j) is None
    a = Array("a", (4,), E.INT32)
    assert as_affine(a[i]) is None


def test_classify_affine_load():
    a = Array("a", (4, 8))
    i, j = E.Idx("i"), E.Idx("j")
    lc = classify_load(a[i, j * 2])
    assert lc.is_affine
    assert not lc.is_gather


def test_classify_gather_load():
    idx = Array("idx", (8,), E.INT32)
    data = Array("d", (64,))
    i = E.Idx("i")
    lc = classify_load(data[idx[i]])
    assert lc.is_gather


def test_flat_affine_row_major():
    a = Array("a", (4, 8))
    i, j = E.Idx("i"), E.Idx("j")
    lc = classify_load(a[i, j])
    flat = lc.flat_affine(a.shape)
    assert flat.stride_of(i) == 8
    assert flat.stride_of(j) == 1


def test_innermost_stride_unit():
    a = Array("a", (4, 8))
    i, j = E.Idx("i"), E.Idx("j")

    def stride(load):
        return classify_load(load).flat_affine(a.shape).stride_of(j)

    assert stride(a[i, j]) == 1
    assert stride(a[j, i]) == 8
    assert stride(a[i, i]) == 0


def test_innermost_stride_gather_is_none():
    idx = Array("idx", (8,), E.INT32)
    data = Array("d", (64,))
    i = E.Idx("i")
    assert classify_load(data[idx[i]]).flat_affine(data.shape) is None


def test_affine_add_and_scale():
    i = E.Idx("i")
    f1 = Affine(1, {i: 2})
    f2 = Affine(3, {i: 4})
    total = (f1 + f2).scale(2)
    assert total.const == 8
    assert total.stride_of(i) == 12
