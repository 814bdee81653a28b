"""One triple's geometry at a fixed set of sample points, evaluated once.

A :class:`Geometry` holds a triple (g, T, A) and its sample points and
fills a per-point cache lazily: the order-3 component jets of g, T and A
(one field evaluation each), the inverse metric, the invariants mu1, mu2,
the potential psi, the Christoffel symbols of g and of the companion
metric with their partials, the curvature tensors, the weighted tensor
sigma(g) and the canonical Killing fields.  Every residual reads from it,
so each derivative object is computed once per point and shared by all
its consumers (the "taping" idea of Griewank & Walther, *Evaluating
Derivatives*).  ``stacked`` hands out a quantity's jets at several points
as batched jets, for work done once over all of them (the members of the
two-parameter Einstein family).

``run_suite`` builds one Geometry per call and drops it with the call;
nothing is memoized on the triple or its fields, so a later call on the
same triple evaluates everything anew.

The module also holds the jet-level formulas of the companion metric,
the family members, sigma(g), psi and the invariants, shared by the
cache and by the field constructors of ``pklab.projective``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import curvature
from .fields import (
    DEFAULT_ORDER,
    DIM,
    DegenerateMetricError,
    jet_differential,
    metric_inverse,
    metric_inverse_jets,
    ring_value,
    split_jets,
)
from .jets import Jet, jlog, jpow, jreciprocal
from .linalg import mdet, minv, mmul

__all__ = [
    "Geometry",
    "mu_invariants",
    "companion_components",
    "companion_inverse_components",
    "family_components",
    "family_inverse_components",
    "weighted_sigma_components",
    "psi_component",
]

# -- jet-level formulas ---------------------------------------------------


def mu_invariants(aj: np.ndarray):
    """(mu1, mu2) = (tr A / 2, (tr A)^2/8 - tr(A^2)/4) from A's components."""
    tr = np.trace(aj)
    return tr * 0.5, tr * tr * 0.125 - np.trace(mmul(aj, aj)) * 0.25


def _det_a(aj: np.ndarray, where: str):
    """det A, which must be positive where the companion metric and psi are defined."""
    det = mdet(aj)
    if ring_value(det) <= 0.0:
        raise DegenerateMetricError(f"det A = {ring_value(det):.3e} <= 0 in {where}")
    return det


def companion_components(gj: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """ghat = (det A)^(-1/2) g A^(-1) with the positive square root."""
    det = _det_a(aj, "companion metric")
    return mmul(gj, minv(aj)) * jpow(det, -0.5)


def companion_inverse_components(ginv: np.ndarray, aj: np.ndarray) -> np.ndarray:
    """ghat^(-1) = (det A)^(1/2) A g^(-1), from g's inverse."""
    return mmul(aj, ginv) * jpow(_det_a(aj, "companion metric"), 0.5)


def _family_scale(mu1, mu2, alpha: float, beta: float):
    """s = alpha^2 + alpha beta mu1 + beta^2 mu2 = signed sqrt det(alpha Id + beta A), nonzero."""
    s = alpha * alpha + alpha * beta * mu1 + beta * beta * mu2
    smallest = float(np.min(np.abs(ring_value(s))))
    if smallest < 1e-13:
        raise DegenerateMetricError(
            f"family combination ({alpha}, {beta}) degenerate: |sqrt det| = {smallest:.3e}"
        )
    return s


def family_components(
    gj: np.ndarray, aj: np.ndarray, mu1, mu2, alpha: float, beta: float
) -> np.ndarray:
    """g (alpha Id + beta A)^(-1) / s = g ((alpha + beta mu1) Id - beta A) / s^2.

    A^2 - mu1 A + mu2 Id = 0 gives (alpha Id + beta A)^(-1) in closed form.
    Batched jets give the member at every point of the batch.
    """
    s = _family_scale(mu1, mu2, alpha, beta)
    return mmul(gj, (alpha + beta * mu1) * np.eye(DIM) - beta * aj) * jreciprocal(s * s)


def family_inverse_components(
    ginv: np.ndarray, aj: np.ndarray, mu1, mu2, alpha: float, beta: float
) -> np.ndarray:
    """Inverse s (alpha Id + beta A) g^(-1) of the family member, from g's inverse."""
    s = _family_scale(mu1, mu2, alpha, beta)
    return mmul(beta * aj + alpha * np.eye(DIM), ginv) * s


def weighted_sigma_components(gj: np.ndarray, ginv: np.ndarray | None = None) -> np.ndarray:
    """sigma^{ij} = |det g|^(1/6) g^{ij}; ``ginv`` is the inverse if already known."""
    det = mdet(gj)
    if ring_value(det) < 0.0:
        det = -det
    if ginv is None:
        ginv = minv(gj)
    return ginv * jpow(det, 1.0 / 6.0)


def psi_component(aj: np.ndarray):
    """psi = -(1/4) log det A; its differential drives the connection shift."""
    return jlog(_det_a(aj, "psi")) * (-0.25)


# -- the cache --------------------------------------------------------------


def _field(attr: str):
    def build(geo: "Geometry", i: int) -> np.ndarray:
        field = getattr(geo, attr)
        if field is None:
            raise ValueError(f"this geometry has no field {attr!r}")
        return field.jets(geo.points[i], DEFAULT_ORDER)

    return build


def _killing(geo: "Geometry", i: int) -> np.ndarray:
    """Rows V1, V2, TV1, TV2 with V_k = grad mu_k (one jet order consumed)."""
    ginv = geo.jets(i, "ginv")
    v = [ginv @ jet_differential(mu) for mu in geo.jets(i, "mu")]
    tj = geo.jets(i, "t")
    return np.stack(v + [tj @ vk for vk in v])


def _as_jet(x) -> Jet:
    """x, or the constant jet of a plain number (from constant components)."""
    return x if isinstance(x, Jet) else Jet.constant(float(x), DIM, DEFAULT_ORDER)


def _mu(geo: "Geometry", i: int) -> np.ndarray:
    out = np.empty(2, dtype=object)
    out[0], out[1] = (_as_jet(mu) for mu in mu_invariants(geo.jets(i, "a")))
    return out


_BUILDERS = {
    "g": _field("g"),
    "t": _field("t"),
    "a": _field("a"),
    "ginv": lambda geo, i: metric_inverse_jets(geo.jets(i, "g")),
    "gamma": lambda geo, i: curvature.christoffel_jets(geo.jets(i, "g"), geo.jets(i, "ginv")),
    "ghat": lambda geo, i: companion_components(geo.jets(i, "g"), geo.jets(i, "a")),
    "ghat_gamma": lambda geo, i: curvature.christoffel_jets(
        geo.jets(i, "ghat"), companion_inverse_components(geo.jets(i, "ginv"), geo.jets(i, "a"))
    ),
    "mu": _mu,
    "killing": _killing,
    "sigma": lambda geo, i: weighted_sigma_components(geo.jets(i, "g"), geo.jets(i, "ginv")),
    "a_sigma": lambda geo, i: mmul(geo.jets(i, "a"), geo.jets(i, "sigma")),
}

_GAMMA = {"g": "gamma", "ghat": "ghat_gamma"}


class Geometry:
    """Lazily filled per-point cache of one triple's geometry.

    ``triple`` needs attributes ``g`` and ``t`` (tensor fields) and may
    carry ``a`` (the Benenti tensor), ``meta`` and ``chart``; quantities
    that need a missing field raise ValueError when asked for.  Points
    are addressed by their index ``i`` in ``points``.
    """

    def __init__(self, triple, points: Sequence[Sequence[float]]):
        self.triple = triple
        self.g = triple.g
        self.t = triple.t
        self.a = getattr(triple, "a", None)
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._memo: list[dict] = [{} for _ in range(len(self.points))]

    @classmethod
    def at(cls, point: Sequence[float], g=None, t=None, a=None) -> "Geometry":
        """One-point geometry of loose fields, for pointwise use."""
        return cls(SimpleNamespace(g=g, t=t, a=a, meta={}), [point])

    def __len__(self) -> int:
        return len(self.points)

    def cached(self, i: int, key: str, build):
        """``build()``, evaluated once per point i and ``key``; errors are not kept."""
        memo = self._memo[i]
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- jets -------------------------------------------------------------

    def jets(self, i: int, name: str) -> np.ndarray:
        """Order-3 jets of 'g', 't', 'a', 'ginv', 'ghat', 'gamma' (of g),
        'ghat_gamma', 'mu' (mu1, mu2), 'killing' (V1, V2, TV1, TV2),
        'sigma' (weighted sigma(g)) or 'a_sigma' (A sigma)."""
        return self.cached(i, name, lambda: _BUILDERS[name](self, i))

    def vp(self, i: int, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, first partials) of ``jets(i, name)``; partials on the last axis."""
        return self.cached(i, name + "/vp", lambda: split_jets(self.jets(i, name)))

    def values(self, i: int, name: str) -> np.ndarray:
        return self.vp(i, name)[0]

    def psi_jet(self, i: int) -> Jet:
        """Jet of psi = -(1/4) log det A (a constant jet when A is constant)."""
        return self.cached(i, "psi", lambda: _as_jet(psi_component(self.jets(i, "a"))))

    def stacked(self, name: str, points: Sequence[int], order: int) -> np.ndarray:
        """``jets(i, name)`` at every i in ``points`` as one array of batched
        jets cut to ``order``; column k of each entry is point ``points[k]``."""
        per_point = [self.jets(i, name) for i in points]
        out = np.empty(per_point[0].shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = Jet.stack([arr[idx] for arr in per_point], DIM, order)
        return out

    # -- floats -------------------------------------------------------------

    def ginv(self, i: int) -> np.ndarray:
        """Inverse metric values, with the determinant guard."""
        return self.cached(i, "ginv/f", lambda: metric_inverse(self.values(i, "g")))

    def mu(self, i: int) -> np.ndarray:
        """Values (mu1, mu2)."""
        return self.values(i, "mu")

    def lam(self, i: int) -> np.ndarray:
        """Lam = (1/4) grad tr A = (1/2) g^{-1} d mu1."""
        return self.cached(i, "lam", lambda: 0.5 * self.ginv(i) @ self.vp(i, "mu")[1][0])

    def gamma(self, i: int, metric: str = "g") -> np.ndarray:
        """Christoffel symbols of 'g' or 'ghat' as floats, shape (k, i, j)."""
        return self.values(i, _GAMMA[metric])

    def riemann(self, i: int, metric: str = "g") -> np.ndarray:
        return self.cached(
            i, "riemann/" + metric, lambda: curvature.riemann(*self.vp(i, _GAMMA[metric]))
        )

    def ricci(self, i: int, metric: str = "g") -> np.ndarray:
        return self.cached(
            i, "ricci/" + metric, lambda: np.einsum("klkj->lj", self.riemann(i, metric))
        )
