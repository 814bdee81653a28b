"""Small dense linear algebra over jet-valued matrices.

Tensor components evaluated through jets come back as numpy object arrays
whose entries are :class:`~pklab.jets.Jet` or plain floats.  ``stack``
gathers a matrix of Jets and numbers into one Jet of coefficient shape
``(size, rows, cols, *points)``, and each routine here runs its per-entry
formula on whole stacked arrays, one table product per product of the
formula, summed in the formula's order: every entry is bit for bit what
entry-by-entry arithmetic gives.  A matrix of plain numbers runs the same
formulas on a float array.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet

__all__ = ["mmul", "mdet", "minv", "mscale", "stack", "unstack"]


def _operands(*mats) -> tuple:
    """(space, arrays): the matrices stacked in the space of their first Jet,
    numbers lifted to constants; with no Jet, None and the float values
    under a leading axis of length 1."""
    mats = [np.asarray(m, dtype=object) for m in mats]
    ref = next((x for m in mats for x in m.flat if isinstance(x, Jet)), None)
    if ref is None:
        return None, [m.astype(float)[None] for m in mats]
    return ref.space, [
        np.stack([x.coeffs if isinstance(x, Jet) else ref._lift(x) for x in m.flat], 1)
        .reshape(ref.coeffs.shape[:1] + m.shape + ref.coeffs.shape[1:]) for m in mats]


def stack(m: np.ndarray) -> Jet:
    """An array of Jets and numbers as one Jet, entry axes before the point axes."""
    sp, (c,) = _operands(m)
    return Jet(sp, c)


def unstack(x: Jet, ndim: int) -> np.ndarray:
    """The object array of the Jets on the first ``ndim`` trailing axes of x."""
    out = np.empty(x.coeffs.shape[1:1 + ndim], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(x.space, x.coeffs[(slice(None),) + idx])
    return out


def _mul(sp, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Entry-by-entry product of two stacked arrays, by the jet table of sp."""
    return p * q if sp is None else (Jet(sp, p) * Jet(sp, q)).coeffs


def _entries(sp, c: np.ndarray, ndim: int) -> np.ndarray:
    """The ring elements of a stacked result with ``ndim`` matrix axes."""
    return c[0].astype(object) if sp is None else unstack(Jet(sp, c), ndim)


def _matmul(sp, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the k-th products of all entries at once, added up in k order as
    # numpy's object @ does
    terms = [_mul(sp, x[:, :, k:k + 1], y[:, k:k + 1]) for k in range(x.shape[2])]
    return sum(terms[1:], terms[0])


def mmul(a, b):
    """Matrix product, or matrix times vector, as numpy's ``@`` gives it; a jet
    matrix takes one stacked product per k, and two stacked jet matrices
    (``stack``) give their stacked product."""
    if isinstance(a, Jet):
        return Jet(a.space, _matmul(a.space, a.coeffs, b.coeffs))
    if a.dtype != object and b.dtype != object:
        return a @ b
    if b.ndim == 1:
        return mmul(a, b[:, None])[:, 0]
    sp, (x, y) = _operands(a, b)
    return _entries(sp, _matmul(sp, x, y), 2)


def mscale(m: np.ndarray, s) -> np.ndarray:
    """``m * s``: every entry of the matrix m times the ring element s."""
    if not isinstance(s, Jet):
        sp, (c,) = _operands(m)
        return _entries(sp, c * s, m.ndim)
    sp, (c, d) = _operands(m, s)
    return _entries(sp, _mul(sp, c, d.reshape(d.shape[:1] + (1,) * m.ndim + d.shape[1:])), m.ndim)


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


def mdet(a: np.ndarray):
    """Determinant by cofactor expansion; exact over the jet ring (n <= 4)."""
    if a.dtype != object:
        return np.linalg.det(a)
    sp, (c,) = _operands(a)
    return _entries(sp, _det(sp, c)[:, None], 1)[0]


def minv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse, or a stack of them for a float array.

    A singular matrix raises ZeroDivisionError, where numpy's inverse
    would raise; a float array that is not a stack of square matrices
    raises numpy's LinAlgError.  Jet matrices are inverted as the
    adjugate over det = a[0] @ cof[0], one-point and batched alike; a det
    whose value vanishes (at any point of a batch) is the singular case.
    """
    if a.dtype != object:
        try:
            return np.linalg.inv(a)
        except np.linalg.LinAlgError as e:
            if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
                raise
            raise ZeroDivisionError("singular matrix in float inverse") from e
    sp, (c,) = _operands(a)
    n = a.shape[0]
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
    inv_det = 1.0 / det if sp is None else Jet(sp, det).reciprocal().coeffs
    return _entries(sp, _mul(sp, np.swapaxes(cof, 1, 2), inv_det[:, None, None]), 2)

