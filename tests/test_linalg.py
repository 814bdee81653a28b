"""The jet matrix inverse: adjugate over determinant, for one point or a batch."""

import numpy as np
import pytest

from pklab.jets import DualBatch, Jet, dual_point, jreciprocal, seed_point
from pklab.linalg import minv


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


def dual_inverse_partials(vals: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The former partials of a dual-batch inverse, kept as the reference:
    d(M^-1) = -M^-1 dM M^-1 as one three-operand einsum."""
    inv = np.linalg.inv(vals)
    return -np.einsum("bik,bklm,blj->bijm", inv, grads, inv)


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


def test_adjugate_inverse_matches_gauss_jordan(triples):
    for name, tr in triples.items():
        for p in tr.sample_points(3, seed=2):
            for field in (tr.g, tr.a):
                m = field.jets(p)
                ref = coefficients(gauss_jordan(m))
                got = coefficients(minv(m))
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), name


def test_batched_inverse_columns_equal_the_one_point_inverse(triples):
    tr = triples["complex-liouville"]
    pts = tr.sample_points(4)
    batch = minv(tr.g.jets(pts))
    for k, p in enumerate(pts):
        alone = minv(tr.g.jets(p))
        for x, y in zip(batch.flat, alone.flat):
            assert np.array_equal(x.coeffs[:, k], y.coeffs)


def test_singular_jet_matrix_raises_zero_division():
    x = seed_point([0.5, 1.0, 2.0, 3.0], 2)
    singular = np.array([[x[0], x[1]], [x[0] * 2.0, x[1] * 2.0]], dtype=object)
    with pytest.raises(ZeroDivisionError):
        minv(singular)
    # one singular column of a batch: the whole batch is singular
    b = seed_point(np.array([[0.5, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]]), 2)
    with pytest.raises(ZeroDivisionError):
        minv(np.array([[b[0], 1.0], [0.0, b[1]]], dtype=object))
    with pytest.raises(ZeroDivisionError):
        minv(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=object))


def test_small_and_mixed_matrices():
    x = seed_point([0.5, 1.0, 2.0, 3.0], 2)
    one = minv(np.array([[x[0]]], dtype=object))[0, 0]
    assert np.allclose(one.coeffs, x[0].reciprocal().coeffs)
    mixed = np.array([[x[0], 1.0, 0.0], [0.0, 2.0, x[1]], [1.0, 0.0, 3.0]], dtype=object)
    values = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 3.0]])
    inv = minv(mixed)
    assert np.allclose(coefficients(inv)[..., 0], np.linalg.inv(values), rtol=0, atol=1e-14)
    assert np.allclose(coefficients(mixed @ inv)[..., 0], np.eye(3), rtol=0, atol=1e-14)
    assert np.allclose(coefficients(mixed @ inv)[..., 1:], 0.0, atol=1e-14)


def test_dual_batch_inverse_matches_the_einsum_partials(triples):
    for name, tr in triples.items():
        pts = tr.sample_points(5, seed=3)
        for field in (tr.g, tr.a):
            inv = minv(field.components(dual_point(pts)))
            assert all(isinstance(x, DualBatch) for x in inv.flat)
            got = np.moveaxis(np.array([[x.grad for x in row] for row in inv]), 2, 0)
            ref = dual_inverse_partials(*field.batch_duals(pts))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name
