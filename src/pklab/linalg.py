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


def _leading(x) -> float:
    """Magnitude of the value part, used for pivot selection."""
    if isinstance(x, Jet):
        return abs(x.value)
    return float(np.min(np.abs(x)))


def minv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse.

    Object (jet) matrices go through Gauss-Jordan elimination with partial
    pivoting on the value parts; division by a jet whose value vanishes
    raises, which is the degenerate-matrix signal.  DualBatch component
    matrices are inverted analytically: d(M^-1) = -M^-1 dM M^-1.
    """
    if not _is_object(a):
        return np.linalg.inv(a)
    n = a.shape[0]
    if any(isinstance(x, DualBatch) for x in a.flat):
        return _minv_dual(a)

    sample = a[0, 0]
    if isinstance(sample, Jet):
        sp = sample.space
        one = Jet.constant(1.0, sp.dim, sp.order)
        zero = Jet.constant(0.0, sp.dim, sp.order)
    else:
        one, zero = 1.0, 0.0
    aug = np.empty((n, 2 * n), dtype=object)
    aug[:, :n] = a
    aug[:, n:] = zero
    np.fill_diagonal(aug[:, n:], one)

    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: _leading(aug[r, col]))
        if _leading(aug[pivot_row, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in jet inverse")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] * jreciprocal(aug[col, col])
        for r in range(n):
            if r == col:
                continue
            factor = aug[r, col]
            if _leading(factor) == 0.0 and not isinstance(factor, Jet):
                continue
            # factor * entry, with the factor as the left operand
            aug[r] = aug[r] - np.multiply(factor, aug[col])
    return aug[:, n:].copy()


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
    inv = np.linalg.inv(vals)
    dinv = -np.einsum("bik,bklm,blj->bijm", inv, grads, inv)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = DualBatch(inv[:, i, j], dinv[:, i, j, :])
    return out
