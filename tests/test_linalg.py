"""Jet-matrix algebra on stacked coefficient arrays, against the per-entry formulas.

The references work on object arrays of one-entry jets; the tests stack
their inputs (``pklab.fields.stacked``) before calling ``pklab.linalg``.
"""

import numpy as np
import pytest

from pklab.catalog import FAMILIES, PRESETS, default_triple, preset_triple
from pklab.fields import stacked
from pklab.jets import Jet, jreciprocal, seed_point
from pklab.linalg import mdet, minv, mmul, mscale


def gauss_jordan(a: np.ndarray) -> np.ndarray:
    """The former jet inverse, kept as the reference: Gauss-Jordan
    elimination with partial pivoting on the value parts (one point)."""
    def leading(x):
        return abs(x.value) if isinstance(x, Jet) else abs(float(x))

    n = a.shape[0]
    sp = next(x.space for x in a.flat if isinstance(x, Jet))
    aug = np.empty((n, 2 * n), dtype=object)
    aug[:, :n] = a
    aug[:, n:] = Jet.constant(0.0, sp.dim, sp.order)
    np.fill_diagonal(aug[:, n:], Jet.constant(1.0, sp.dim, sp.order))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: leading(aug[r, col]))
        if leading(aug[pivot_row, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in jet inverse")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] * jreciprocal(aug[col, col])
        for r in range(n):
            if r == col:
                continue
            factor = aug[r, col]
            if leading(factor) == 0.0 and not isinstance(factor, Jet):
                continue
            aug[r] = aug[r] - np.multiply(factor, aug[col])
    return aug[:, n:].copy()


def entry_mdet(a: np.ndarray):
    """The former determinant, kept as the reference: cofactor expansion
    along the first row, one ring element at a time."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    acc = None
    for j in range(n):
        term = a[0, j] * entry_mdet(np.delete(np.delete(a, 0, axis=0), j, axis=1))
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def entry_minv(a: np.ndarray) -> np.ndarray:
    """The former jet inverse, kept as the reference: the adjugate from the
    per-entry cofactors over det = a[0] @ cof[0]."""
    n = a.shape[0]
    cof = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        minor = entry_mdet(np.delete(np.delete(a, i, axis=0), j, axis=1)) if n > 1 else 1.0
        cof[i, j] = -minor if (i + j) % 2 else minor
    det = a[0] @ cof[0]
    if np.any(np.asarray(det.coeffs[0] if isinstance(det, Jet) else det) == 0.0):
        raise ZeroDivisionError("singular matrix in jet inverse")
    return cof.T * jreciprocal(det)


def stack(m: np.ndarray) -> Jet:
    """An object matrix of jets and numbers as one stacked Jet."""
    return stacked(m, next(x for x in m.flat if isinstance(x, Jet)))


def entries(x: Jet, ndim: int = 2) -> np.ndarray:
    """The object array of the one-entry jets of a stacked x with ``ndim`` entry axes."""
    out = np.empty(x.coeffs.shape[1:1 + ndim], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(x.space, x.coeffs[(slice(None),) + idx])
    return out


def coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of a jet matrix, shape (rows, cols, size); a number is a constant."""
    size = next(x.space.size for x in m.flat if isinstance(x, Jet))
    out = np.zeros(m.shape + (size,))
    for idx, x in np.ndenumerate(m):
        if isinstance(x, Jet):
            out[idx] = x.coeffs
        else:
            out[idx][0] = x
    return out


def same(x: Jet, y) -> bool:
    """Coefficient-for-coefficient equality of a stacked result and the
    reference's ring element or array of them; a number equals the constant
    jet of its value."""
    y = np.asarray(y, dtype=object)
    ref = stacked(y, Jet(x.space, x.coeffs[(slice(None),) + (0,) * y.ndim]))
    return x.coeffs.shape == ref.coeffs.shape and np.array_equal(x.coeffs, ref.coeffs)


MATRIX_TRIPLES = ([("family", f) for f in sorted(FAMILIES)]
                  + [("preset", p) for p in sorted(PRESETS)])


@pytest.mark.parametrize("kind, name", MATRIX_TRIPLES)
def test_stacked_algebra_equals_the_entry_formulas(kind, name):
    tr = default_triple(name) if kind == "family" else preset_triple(name)
    pts = tr.sample_points(20, seed=4)
    for order in (2, 3):
        for where in (pts[0], pts[:4], pts):  # one point, batches of 4 and 20
            g, t, a = (f.jets(where, order) for f in (tr.g, tr.t, tr.a))
            col = Jet(a.space, a.coeffs[:, :, 1:2])  # A's second column, a 4 x 1 matrix
            for m in (g, t, a):
                e = entries(m)
                assert same(mdet(m), entry_mdet(e)), (name, order)
                assert same(minv(m), entry_minv(e)), (name, order)
                assert same(mmul(m, g), e @ entries(g)), (name, order)
                assert same(mmul(m, col), e @ entries(col)), (name, order)
            s = mdet(a)
            assert same(mscale(g, s), entries(g) * s), name
            assert same(mscale(a, -0.75), entries(a) * -0.75), name


def test_small_mixed_and_number_matrices_equal_the_entry_formulas():
    x = seed_point([0.5, 1.0, 2.0, 3.0], 3)
    b = seed_point(np.array([[0.5, 1.0, 2.0, 3.0], [0.7, 1.5, 2.5, 3.5]]), 2)
    one = np.array([[x[0] * x[1] + 2.0]], dtype=object)
    mixed = np.array([[x[0], 1.0, 0.0], [0.0, 2.0, x[1]], [1.0, x[2], 3.0]], dtype=object)
    batch = np.array([[b[0], 1.0], [0.5, b[1] * b[2]]], dtype=object)
    numbers = np.array([[2.0, 1.0, 0.5], [-1.0, 3.0, 0.25], [0.0, 1.5, 4.0]], dtype=object)
    # dense entries, where every reassociated sum shows in the bits
    r = np.random.default_rng(7).uniform(-1.0, 1.0, (4, 4, 3))
    c = seed_point(np.random.default_rng(8).uniform(0.5, 2.0, (3, 4)), 3)
    dense = np.array([[c[i] * r[i, j, 0] + c[i] * c[j] * r[i, j, 1] + r[i, j, 2]
                       for j in range(4)] for i in range(4)], dtype=object)
    for m, like in ((one, x[0]), (mixed, x[0]), (batch, b[0]), (numbers, x[0]), (dense, c[0])):
        j = stacked(m, like)
        assert same(mdet(j), entry_mdet(m))
        assert same(minv(j), entry_minv(m))
        assert same(mmul(j, j), m @ m)
        assert same(mmul(j, Jet(j.space, j.coeffs[:, :, :1])), m @ m[:, :1])
    # numbers stacked as constant jets, and times a jet
    assert same(mscale(stacked(numbers, x[3]), x[3]), numbers * x[3])
    assert same(mmul(stack(mixed), stacked(numbers, x[0])), mixed @ numbers)
    # a float array goes to numpy and stays one
    floats = numbers.astype(float)
    assert np.array_equal(mmul(floats, floats), floats @ floats)
    assert np.array_equal(minv(floats), np.linalg.inv(floats))
    assert mdet(floats) == np.linalg.det(floats)
    assert np.array_equal(mscale(floats, -0.75), floats * -0.75)


def test_adjugate_inverse_matches_gauss_jordan(triples):
    for name, tr in triples.items():
        for p in tr.sample_points(3, seed=2):
            for field in (tr.g, tr.a):
                m = field.jets(p)
                ref = coefficients(gauss_jordan(entries(m)))
                got = np.moveaxis(minv(m).coeffs, 0, -1)
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), name


def test_batched_inverse_columns_equal_the_one_point_inverse(triples):
    tr = triples["complex-liouville"]
    pts = tr.sample_points(4)
    batch = minv(tr.g.jets(pts))
    for k, p in enumerate(pts):
        assert np.array_equal(batch.coeffs[..., k], minv(tr.g.jets(p)).coeffs)


def test_singular_jet_matrix_raises_zero_division():
    x = seed_point([0.5, 1.0, 2.0, 3.0], 2)
    singular = np.array([[x[0], x[1]], [x[0] * 2.0, x[1] * 2.0]], dtype=object)
    with pytest.raises(ZeroDivisionError):
        minv(stack(singular))
    # one singular column of a batch: the whole batch is singular
    b = seed_point(np.array([[0.5, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]]), 2)
    with pytest.raises(ZeroDivisionError):
        minv(stack(np.array([[b[0], 1.0], [0.0, b[1]]], dtype=object)))
    numbers = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ZeroDivisionError):
        minv(stacked(numbers, x[0]))
    with pytest.raises(ZeroDivisionError):
        minv(numbers)


def test_small_and_mixed_matrices():
    x = seed_point([0.5, 1.0, 2.0, 3.0], 2)
    one = minv(stack(np.array([[x[0]]], dtype=object)))
    assert np.allclose(one.coeffs[:, 0, 0], x[0].reciprocal().coeffs)
    mixed = np.array([[x[0], 1.0, 0.0], [0.0, 2.0, x[1]], [1.0, 0.0, 3.0]], dtype=object)
    values = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 3.0]])
    inv = entries(minv(stack(mixed)))
    assert np.allclose(coefficients(inv)[..., 0], np.linalg.inv(values), rtol=0, atol=1e-14)
    assert np.allclose(coefficients(mixed @ inv)[..., 0], np.eye(3), rtol=0, atol=1e-14)
    assert np.allclose(coefficients(mixed @ inv)[..., 1:], 0.0, atol=1e-14)
