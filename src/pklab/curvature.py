"""Levi-Civita connection, curvature tensors and covariant derivatives.

Connection coefficients are computed through jet arithmetic so that
their own first partials (needed for the curvature tensor) stay exact to
rounding; nothing here is finite-differenced.  Sign conventions:

    R^k_{l ij} = d_i G^k_{lj} - d_j G^k_{li} + G^k_{ir} G^r_{lj} - G^k_{jr} G^r_{li}
    Ric_{lj}   = R^k_{l kj}

with G the Christoffel symbols of the metric.  The functions here act on
component jets or on values and partials; ``pklab.geometry.Geometry``
feeds them cached data, one evaluation per sample point.
"""

from __future__ import annotations

import numpy as np

from .fields import DIM, TensorField, jet_differential, metric_inverse_jets, objarray
from .jets import Jet
from .linalg import minv, mmul

__all__ = [
    "christoffel_jets",
    "christoffel_batch",
    "metricity_residual",
    "riemann",
    "einstein_residual",
    "covariant_derivative_endo",
    "covariant_derivative_vector",
    "scalar_hessian",
]


def christoffel_jets(gj: np.ndarray, ginv: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols as jets, shape (k, i, j), from metric component jets.

    ``ginv`` is the inverse metric as jets when the caller already holds
    it.  One jet order is consumed by the metric partials, so with
    coordinate jets of order K the result is trustworthy through order
    K-2 when the metric components themselves embed profile derivatives.
    """
    if ginv is None:
        ginv = metric_inverse_jets(gj)
    # dg[i, j, l] = d_l g_ij
    dg = objarray([[jet_differential(gij) for gij in row] for row in gj])
    # over the pairs i <= j: c[m, l] = d_i g_jl + d_j g_il - d_l g_ij
    iu, ju = np.triu_indices(DIM)
    c = dg[ju, :, iu] + dg[iu, :, ju] - dg[iu, ju, :]
    half = mmul(ginv, c.T) * 0.5
    gamma = np.empty((DIM, DIM, DIM), dtype=object)
    gamma[:, iu, ju] = half
    gamma[:, ju, iu] = half
    return gamma


def christoffel_batch(g: TensorField, points: np.ndarray) -> np.ndarray:
    """Christoffel symbols over an (n, 4) batch, shape (n, k, i, j).

    Works through second-order dual batches; the geodesic integrator
    calls it once per Picard sweep, on every node of every curve.
    """
    pts = np.asarray(points, dtype=float)
    gv, gp = g.batch_duals(pts)
    ginv = minv(gv)
    # gp[n, i, j, l] = d_l g_ij; c[n, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    c = np.einsum("njli->nijl", gp) + np.einsum("nilj->nijl", gp) - gp
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, c)


def metricity_residual(gamma: np.ndarray, gv: np.ndarray, gp: np.ndarray) -> float:
    """max |nabla_k g_ij| from the symbols and the metric's values/partials.

    A correctness oracle for the symbols.
    """
    nabla = np.transpose(gp, (2, 0, 1)).copy()
    nabla -= np.einsum("lki,lj->kij", gamma, gv)
    nabla -= np.einsum("lkj,il->kij", gamma, gv)
    return float(np.max(np.abs(nabla)))


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature tensor R^k_{l ij} from the symbols and their partials.

    ``dgamma[k, i, j, m]`` is d_m G^k_{ij}.  Both may carry a trailing
    point axis (see ``split_jets``), which the result then carries too.
    """
    r = np.swapaxes(dgamma, 2, 3) - dgamma  # d_i G^k_{lj} - d_j G^k_{li}
    r += np.einsum("kir...,rlj...->klij...", gamma, gamma)
    r -= np.einsum("kjr...,rli...->klij...", gamma, gamma)
    return r


def einstein_residual(geo, i: int, lam: float, metric: str = "g") -> np.ndarray:
    """Ric - lam * metric at sample point i of a Geometry ('g' or 'ghat')."""
    return geo.ricci(i, metric) - lam * geo.values(i, metric)


def covariant_derivative_endo(
    gamma: np.ndarray, av: np.ndarray, ap: np.ndarray
) -> np.ndarray:
    """(nabla_k A)^i_j, shape (k, i, j), from A's values and partials."""
    out = np.transpose(ap, (2, 0, 1)).copy()
    out += np.einsum("ikm,mj->kij", gamma, av)
    out -= np.einsum("mkj,im->kij", gamma, av)
    return out


def covariant_derivative_vector(
    gamma: np.ndarray, vv: np.ndarray, vp: np.ndarray
) -> np.ndarray:
    """(nabla_k V)^i = d_k V^i + G^i_{km} V^m, shape (k, i)."""
    return vp.T + np.einsum("ikm,m->ki", gamma, vv)


def scalar_hessian(jet: Jet) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, gradient covector, coordinate Hessian) of a scalar jet (order >= 2)."""
    hess = np.empty((DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            alpha = [0] * DIM
            alpha[i] += 1
            alpha[j] += 1
            hess[i, j] = jet.partial(alpha)
    return jet.value, jet.gradient(), hess
