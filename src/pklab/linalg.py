"""Small dense linear algebra over jet-valued matrices.

Tensor components evaluated through jets come back as numpy object arrays
whose entries are :class:`~pklab.jets.Jet`, :class:`~pklab.jets.DualBatch`
or plain floats.  These are ring elements, so numpy's object dtype
already supplies the product, the trace and broadcasting; this module
adds the determinant and the inverse, which numpy only has for floats.
"""

from __future__ import annotations

import numpy as np

from .jets import DualBatch, Jet, jreciprocal

__all__ = ["mmul", "mdet", "minv"]


def _is_object(m: np.ndarray) -> bool:
    return m.dtype == object


def mmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of float or ring-element matrices."""
    return a @ b


def mdet(a: np.ndarray):
    """Determinant by cofactor expansion; exact over the jet ring (n <= 4)."""
    if not _is_object(a):
        return np.linalg.det(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    acc = None
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        term = a[0, j] * mdet(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def minv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse, or a stack of them for a float array.

    A singular matrix raises ZeroDivisionError, where numpy's inverse
    would raise; a float array that is not a stack of square matrices
    raises numpy's LinAlgError.  Object (jet) matrices are inverted as
    the adjugate over the determinant, with the cofactors of ``mdet``'s
    expansion, so one-point and batched jets take the same path; a
    determinant whose value vanishes (at any point of a batch) is the
    singular case.  DualBatch component matrices are inverted
    analytically: d(M^-1) = -M^-1 dM M^-1.
    """
    if not _is_object(a):
        try:
            return np.linalg.inv(a)
        except np.linalg.LinAlgError as e:
            if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
                raise
            raise ZeroDivisionError("singular matrix in float inverse") from e
    if any(isinstance(x, DualBatch) for x in a.flat):
        return _minv_dual(a)
    n = a.shape[0]
    # cofactor[i, j] = (-1)^(i+j) det of a without row i and column j
    cof = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        minor = mdet(np.delete(np.delete(a, i, axis=0), j, axis=1)) if n > 1 else 1.0
        cof[i, j] = -minor if (i + j) % 2 else minor
    det = a[0] @ cof[0]
    if np.any(np.asarray(det.coeffs[0] if isinstance(det, Jet) else det) == 0.0):
        raise ZeroDivisionError("singular matrix in jet inverse")
    return cof.T * jreciprocal(det)


def _minv_dual(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    ref = next(x for x in a.flat if isinstance(x, DualBatch))
    batch = ref.val.shape[0]
    dim = ref.grad.shape[1]
    vals = np.empty((batch, n, n))
    grads = np.zeros((batch, n, n, dim))
    for i in range(n):
        for j in range(n):
            x = a[i, j]
            if isinstance(x, DualBatch):
                vals[:, i, j] = x.val
                grads[:, i, j, :] = x.grad
            else:
                vals[:, i, j] = x
    inv = minv(vals)
    # -inv dM inv, one matrix product per direction m
    dinv = -(inv[:, None] @ np.moveaxis(grads, 3, 1) @ inv[:, None]).transpose(0, 2, 3, 1)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = DualBatch(inv[:, i, j], dinv[:, i, j, :])
    return out
