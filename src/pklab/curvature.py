"""Levi-Civita connection, curvature tensors and covariant derivatives.

Connection coefficients are computed through jet arithmetic so that
their own first partials (needed for the curvature tensor) stay exact to
rounding; nothing here is finite-differenced.  Sign conventions:

    R^k_{l ij} = d_i G^k_{lj} - d_j G^k_{li} + G^k_{ir} G^r_{lj} - G^k_{jr} G^r_{li}
    Ric_{lj}   = R^k_{l kj}

with G the Christoffel symbols of the metric.  The functions here act on
component jets or on values and partials, with or without a trailing
point axis; ``pklab.geometry.Geometry`` feeds them its batches over all
the sample points at once.
"""

from __future__ import annotations

import numpy as np

from .fields import DIM, TensorField, metric_inverse_jets
from .jets import Jet
from .linalg import minv, mmul

__all__ = [
    "christoffel_jets",
    "christoffel_batch",
    "geodesic_spray",
    "riemann",
    "einstein_residual",
    "covariant_derivative_endo",
    "covariant_derivative_vector",
    "scalar_hessian",
]


def christoffel_jets(g: Jet, ginv: Jet | None = None) -> Jet:
    """Christoffel symbols as stacked jets, entry shape (k, i, j), from the
    metric's stacked jets.

    ``ginv`` is the inverse metric as jets when the caller already holds
    it.  One jet order is consumed by the metric partials, so with
    coordinate jets of order K the result is trustworthy through order
    K-2 when the metric components themselves embed profile derivatives.
    """
    if ginv is None:
        ginv = metric_inverse_jets(g)
    # d[i, j, l] = d_l g_ij, the coefficient axis after the index axes
    d = np.moveaxis(np.stack([g.derivative(l).coeffs for l in range(DIM)], axis=3), 0, 3)
    # over the pairs i <= j: c[m, l] = d_i g_jl + d_j g_il - d_l g_ij
    iu, ju = np.triu_indices(DIM)
    c = d[ju, :, iu] + d[iu, :, ju] - d[iu, ju, :]
    half = (mmul(ginv, Jet(g.space, np.moveaxis(c, (2, 1), (0, 1)))) * 0.5).coeffs
    gamma = np.empty(half.shape[:2] + (DIM, DIM) + half.shape[3:])
    gamma[:, :, iu, ju] = half
    gamma[:, :, ju, iu] = half
    return Jet(g.space, gamma)


def christoffel_batch(g: TensorField, points: np.ndarray) -> np.ndarray:
    """Christoffel symbols over an (n, 4) batch, shape (n, k, i, j).

    Works through second-order dual batches.  No module of the package
    calls it: the geodesic readers contract the symbols with one velocity
    twice, which ``geodesic_spray`` does without forming this tensor.  It
    stays as the float reference the tests hold the spray and the
    integrator to, and as a layer the benchmark's trace reads.
    """
    pts = np.asarray(points, dtype=float)
    gv, gp = g.batch_duals(pts)
    ginv = minv(gv)
    # gp[n, i, j, l] = d_l g_ij; c[n, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    c = np.einsum("njli->nijl", gp) + np.einsum("nilj->nijl", gp) - gp
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, c)


def geodesic_spray(g: TensorField, points: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """S^k = G^k_ij v^i v^j over an (n, 4) batch of points and velocities, shape (n, 4).

    S = g^-1 [(d_v g) v - grad g(v, v) / 2], with (d_v g)_lj = v^m d_m g_lj
    and (grad g(v, v))_l = v^i v^j d_l g_ij: the symbols contracted at the
    source, so the (n, 4, 4, 4) tensor of ``christoffel_batch`` is never
    formed.  It makes the same one ``batch_duals`` and one ``minv`` call
    as that function, so a singular metric raises ZeroDivisionError.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(velocities, dtype=float)
    gv, gp = g.batch_duals(pts)
    ginv = minv(gv)
    n = len(pts)
    gp = gp.reshape(n, DIM * DIM, DIM)  # rows (i, j), columns l: d_l g_ij
    col = v[:, :, None]
    dvg = (gp @ col).reshape(n, DIM, DIM)  # v^m d_m g_lj
    grad = (col * v[:, None, :]).reshape(n, 1, DIM * DIM) @ gp  # v^i v^j d_l g_ij, a row
    return (ginv @ (dvg @ col - 0.5 * np.swapaxes(grad, 1, 2)))[..., 0]


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature tensor R^k_{l ij} from the symbols and their partials.

    ``dgamma[k, i, j, m]`` is d_m G^k_{ij}.  Both may carry a trailing
    point axis (see ``pklab.fields.split_jets``), which the result then carries too.
    """
    r = np.swapaxes(dgamma, 2, 3) - dgamma  # d_i G^k_{lj} - d_j G^k_{li}
    r += np.einsum("kir...,rlj...->klij...", gamma, gamma)
    r -= np.einsum("kjr...,rli...->klij...", gamma, gamma)
    return r


def einstein_residual(geo, lam: float, metric: str = "g") -> np.ndarray:
    """Ric - lam * metric at the sample points of a Geometry ('g' or 'ghat')."""
    return geo.ricci(metric) - lam * geo.values(metric)


def covariant_derivative_endo(
    gamma: np.ndarray, av: np.ndarray, ap: np.ndarray
) -> np.ndarray:
    """(nabla_k A)^i_j, shape (k, i, j), from A's values and partials."""
    out = np.moveaxis(ap, 2, 0) + np.einsum("ikm...,mj...->kij...", gamma, av)
    out -= np.einsum("mkj...,im...->kij...", gamma, av)
    return out


def covariant_derivative_vector(
    gamma: np.ndarray, vv: np.ndarray, vp: np.ndarray
) -> np.ndarray:
    """(nabla_k V)^i = d_k V^i + G^i_{km} V^m, shape (k, i)."""
    return np.swapaxes(vp, 0, 1) + np.einsum("ikm...,m...->ki...", gamma, vv)


def scalar_hessian(jet: Jet) -> tuple:
    """(value, gradient covector, coordinate Hessian) of a scalar jet (order >= 2),
    each with the jet's trailing point axis if it is a batch."""
    sp = jet.space
    hess = np.empty((DIM, DIM) + jet.coeffs.shape[1:])
    for i, j in np.ndindex(DIM, DIM):
        k = sp.position[tuple(int(i == m) + int(j == m) for m in range(DIM))]
        hess[i, j] = jet.coeffs[k] * sp.factorials[k]
    return jet.value, jet.gradient(), hess
