"""Small dense linear algebra over stacked jet matrices.

A matrix of jets is one :class:`~pklab.jets.Jet` of coefficient shape
``(size, rows, cols, *points)`` (a vector drops ``cols``, a scalar both):
``pklab.fields.stacked`` builds it from a field rule's entries.  Each
routine here runs its per-entry formula on the whole stacked array, one
table product per product of the formula, summed in the formula's order:
every entry is bit for bit what entry-by-entry arithmetic gives.  A float
ndarray goes to numpy.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet

__all__ = ["mmul", "mdet", "minv", "msolve", "mscale"]


def _mul(sp, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Entry-by-entry product of two stacked arrays, by the jet table of sp."""
    return (Jet(sp, p) * Jet(sp, q)).coeffs


def mmul(a, b):
    """Matrix product of two stacked jet matrices, one stacked product per k
    added up in k order as numpy's object ``@`` does; ``@`` for floats."""
    if not isinstance(a, Jet):
        return a @ b
    x, y = a.coeffs, b.coeffs
    terms = [_mul(a.space, x[:, :, k:k + 1], y[:, k:k + 1]) for k in range(x.shape[2])]
    return Jet(a.space, sum(terms[1:], terms[0]))


def mscale(m, s):
    """``m * s``: every entry of the stacked matrix (or vector) m times the
    number s, or times the scalar jet s at the same points; numpy's product
    for a float array."""
    if not isinstance(m, Jet):
        return m * s
    if not isinstance(s, Jet):
        return Jet(m.space, m.coeffs * s)
    c = s.coeffs
    return m * Jet(s.space, c.reshape(c.shape[:1] + (1,) * (m.coeffs.ndim - c.ndim) + c.shape[1:]))


def _others(n: int) -> np.ndarray:
    """others[j] = the indices 0..n-1 other than j."""
    return np.array([[k for k in range(n) if k != j] for j in range(n)], dtype=np.intp)


def _det(sp, c: np.ndarray) -> np.ndarray:
    """Determinants of the matrices on axes 1, 2 of a stacked array, along the first row."""
    n = c.shape[1]
    if n == 1:
        return c[:, 0, 0]
    if n == 2:
        return _mul(sp, c[:, 0, 0], c[:, 1, 1]) - _mul(sp, c[:, 0, 1], c[:, 1, 0])
    # minor j of every matrix at once, j on axis 3: rows 1.., columns other than j
    terms = _mul(sp, c[:, 0], _det(sp, np.moveaxis(c[:, 1:, _others(n)], 2, 3)))
    return sum((-terms[:, j] if j % 2 else terms[:, j] for j in range(1, n)), terms[:, 0])


def mdet(a):
    """Determinant by cofactor expansion; exact over the jet ring (n <= 4)."""
    if not isinstance(a, Jet):
        return np.linalg.det(a)
    return Jet(a.space, _det(a.space, a.coeffs))


def _float(solver, a, *args):
    """numpy's ``solver(a, *args)`` for a stack of square float matrices a,
    a singular one raising ZeroDivisionError; a stack that is not square
    raises numpy's LinAlgError, a programming error."""
    try:
        return solver(a, *args)
    except np.linalg.LinAlgError as e:
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise
        raise ZeroDivisionError(f"singular matrix in float {solver.__name__}") from e


def msolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a stack of float matrices (..., n, n) and one
    right-hand side each (..., n): numpy's solve, without forming the
    inverse.  A singular matrix raises ZeroDivisionError, as in ``minv``."""
    return _float(np.linalg.solve, a, b[..., None])[..., 0]


def minv(a):
    """Matrix inverse, or a stack of them for a float array.

    A singular matrix raises ZeroDivisionError, where numpy's inverse
    would raise; a float array that is not a stack of square matrices
    raises numpy's LinAlgError.  A jet matrix is inverted as the adjugate
    over det = a[0] @ cof[0], one-point and batched alike; a det whose
    value vanishes (at any point of a batch) is the singular case.
    """
    if not isinstance(a, Jet):
        return _float(np.linalg.inv, a)
    sp, c = a.space, a.coeffs
    n = c.shape[1]
    if n == 1:  # the cofactor of a 1x1 matrix is the constant 1
        cof = np.concatenate([np.ones_like(c[:1]), np.zeros_like(c[1:])])
    else:
        # cofactor[i, j] = (-1)^(i+j) det of a without row i and column j, a
        # row i at a time: all n^2 minors at once hold n times the terms
        o = _others(n)
        minors = np.stack([_det(sp, np.moveaxis(c[:, o[i]][:, :, o], 2, 3)) for i in range(n)], 1)
        odd = (np.add.outer(range(n), range(n)) % 2 == 1).reshape((n, n) + (1,) * (c.ndim - 3))
        cof = np.where(odd, -minors, minors)
    terms = _mul(sp, c[:, 0], cof[:, 0])
    det = sum((terms[:, k] for k in range(1, n)), terms[:, 0])  # a[0] @ cof[0], in order
    if np.any(det[0] == 0.0):
        raise ZeroDivisionError("singular matrix in jet inverse")
    return Jet(sp, _mul(sp, np.swapaxes(cof, 1, 2), Jet(sp, det).reciprocal().coeffs[:, None, None]))
