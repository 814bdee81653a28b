"""One triple's geometry at a fixed set of sample points, evaluated once.

A :class:`Geometry` holds a triple (g, T, A) and its sample points and
builds each quantity lazily, once, as one stacked Jet over all the points,
of coefficient shape ``(size, *entry_shape, points)`` (column k is point
k, bit for bit the jet computed at that point alone; a constant entry is
a constant jet):
the jets of g, T and A (one field evaluation each), the inverses of g
and A, det A, mu1, mu2, psi, the Christoffel symbols of g and of the
companion metric, sigma(g) and the canonical Killing fields, then the
curvature tensors.  Each quantity is built at the lowest jet order its
readers need (see ``ORDER``): through degree 2 where a Hessian or the
partials of a connection are read, through degree 1 elsewhere.  Every
residual reads these batches as arrays whose last axis is the sample
point (the "taping" idea of Griewank & Walther, *Evaluating
Derivatives*), so one array expression evaluates it at all the points;
no float matrix is inverted again.  A
domain error in a quantity (det A <= 0, a near-singular metric) is kept
and raises wherever the quantity is read.  ``run_suite`` builds one
Geometry per call; nothing is memoized on the triple or its fields.

The module also holds the jet-level formulas of the companion metric,
the family members, sigma(g), psi and the invariants, shared by the
cache and by the field constructors of ``pklab.projective``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import curvature
from .curves import DegenerateVelocityError, GeodesicConvergenceError, ShortCurveError
from .fields import (
    DIM,
    DegenerateMetricError,
    MalformedFormError,
    metric_inverse_jets,
    split_jets,
    stacked,
)
from .jets import Jet, JetDomainError, jlog, jpow, jreciprocal
from .linalg import mdet, minv, mmul, mscale

__all__ = [
    "Geometry",
    "mu_invariants",
    "det_a",
    "companion_components",
    "companion_inverse_components",
    "family_components",
    "weighted_sigma_components",
]

# what an evaluation outside a field's domain, or of a curve that cannot be
# integrated or measured, raises; anything else is a programming error
DOMAIN_ERRORS = (JetDomainError, DegenerateMetricError, MalformedFormError, ZeroDivisionError,
                 GeodesicConvergenceError, DegenerateVelocityError, ShortCurveError)

# jet order of g, A, A^-1, det A, ghat, mu and psi: the curvature reads the
# first partials of the Christoffel symbols of g and ghat, and the family
# members the Hessians of psi and mu, none above degree 2.  Every other
# batch is read as values and first partials only and is built at order 1:
# T, g^-1, sigma, A sigma, the Killing fields and the Christoffel symbols
# (one order below their metric's)
ORDER = 2

# -- jet-level formulas ---------------------------------------------------


def _trace(m: Jet) -> Jet:
    """The trace of a stacked jet matrix, summed in diagonal order."""
    c = m.coeffs
    return Jet(m.space, sum((c[:, i, i] for i in range(1, c.shape[1])), c[:, 0, 0]))


def mu_invariants(aj: Jet) -> tuple[Jet, Jet]:
    """(mu1, mu2) = (tr A / 2, (tr A)^2/8 - tr(A^2)/4) from A's stacked jets."""
    tr = _trace(aj)
    return tr * 0.5, tr * tr * 0.125 - _trace(mmul(aj, aj)) * 0.25


def det_a(aj: Jet) -> Jet:
    """det A, which must be positive (at every point of a batch) where the
    companion metric and psi are defined."""
    det = mdet(aj)
    low = float(np.min(det.coeffs[0]))
    if low <= 0.0:
        raise DegenerateMetricError(f"det A = {low:.3e} <= 0 (companion metric, psi)")
    return det


def companion_components(gj: Jet, ainv: Jet, det: Jet) -> Jet:
    """ghat = (det A)^(-1/2) g A^(-1), positive root, from A's inverse and det A."""
    return mscale(mmul(gj, ainv), jpow(det, -0.5))


def companion_inverse_components(ginv: Jet, aj: Jet, det: Jet) -> Jet:
    """ghat^(-1) = (det A)^(1/2) A g^(-1), from g's inverse and det A."""
    return mscale(mmul(aj, ginv), jpow(det, 0.5))


def family_components(gj: Jet, aj: Jet, mu1: Jet, mu2: Jet, alpha: float, beta: float) -> Jet:
    """g (alpha Id + beta A)^(-1) / s = g ((alpha + beta mu1) Id - beta A) / s^2.

    A^2 - mu1 A + mu2 Id = 0 gives (alpha Id + beta A)^(-1) in closed form,
    and s = alpha^2 + alpha beta mu1 + beta^2 mu2 = signed sqrt det(alpha Id
    + beta A) must not vanish.  Batched jets give the member at every point.
    """
    s = alpha * alpha + alpha * beta * mu1 + beta * beta * mu2
    smallest = float(np.min(np.abs(s.coeffs[0])))
    if smallest < 1e-13:
        raise DegenerateMetricError(
            f"family combination ({alpha}, {beta}) degenerate: |sqrt det| = {smallest:.3e}")
    closed = mscale(stacked(np.eye(DIM), mu1), alpha + beta * mu1) - mscale(aj, beta)
    return mscale(mmul(gj, closed), jreciprocal(s * s))


def weighted_sigma_components(gj: Jet, ginv: Jet | None = None) -> Jet:
    """sigma^{ij} = |det g|^(1/6) g^{ij}; ``ginv`` is the inverse if already known."""
    det = mdet(gj)
    det = Jet(det.space, det.coeffs * np.where(det.coeffs[0] < 0.0, -1.0, 1.0))  # |det g|
    if ginv is None:
        ginv = minv(gj)
    return mscale(ginv, jpow(det, 1.0 / 6.0))


# -- the cache --------------------------------------------------------------


def _field(attr: str, order: int):
    def build(geo: "Geometry") -> Jet:
        field = getattr(geo, attr)
        if field is None:
            raise ValueError(f"this geometry has no field {attr!r}")
        # the rules embed profile derivatives: evaluated one order higher, then cut
        return field.jets(geo.points, order + 1).truncated(order)

    return build


def _mu(geo: "Geometry") -> Jet:
    mu1, mu2 = mu_invariants(geo.batch("a"))
    return Jet(mu1.space, np.stack([mu1.coeffs, mu2.coeffs], 1))


def _killing(geo: "Geometry") -> Jet:
    """Rows V1, V2, TV1, TV2 with V_k = grad mu_k (one jet order consumed)."""
    mu = geo.batch("mu")
    # dmu[l, k] = d_l mu_k, exact through degree 1
    dmu = Jet(mu.space, np.stack([mu.derivative(l).coeffs for l in range(DIM)], 1))
    v = mmul(geo.batch("ginv"), dmu.truncated(1))
    rows = np.concatenate([v.coeffs, mmul(geo.batch("t"), v).coeffs], axis=2)
    return Jet(v.space, np.swapaxes(rows, 1, 2))


def _companion(geo: "Geometry") -> Jet:
    det = geo.batch("det_a")  # first: det A <= 0 fails as such, before A^-1 is formed
    return companion_components(geo.batch("g"), geo.batch("ainv"), det)


_BUILDERS = {
    "g": _field("g", ORDER),
    "t": _field("t", 1),
    "a": _field("a", ORDER),
    "ginv": lambda geo: metric_inverse_jets(geo.batch("g").truncated(1)),
    "gamma": lambda geo: curvature.christoffel_jets(geo.batch("g"), geo.batch("ginv")),
    "ainv": lambda geo: minv(geo.batch("a")),
    "det_a": lambda geo: det_a(geo.batch("a")),
    "ghat": _companion,
    "ghat_gamma": lambda geo: curvature.christoffel_jets(
        geo.batch("ghat"),
        companion_inverse_components(
            geo.batch("ginv"), geo.batch("a").truncated(1), geo.batch("det_a").truncated(1)),
    ),
    "mu": _mu,
    "killing": _killing,
    "sigma": lambda geo: weighted_sigma_components(geo.batch("g").truncated(1), geo.batch("ginv")),
    "a_sigma": lambda geo: mmul(geo.batch("a").truncated(1), geo.batch("sigma")),
    # its differential drives the connection shift
    "psi": lambda geo: jlog(geo.batch("det_a")) * (-0.25),
}

_GAMMA = {"g": "gamma", "ghat": "ghat_gamma"}


class Geometry:
    """Lazily built batches of one triple's geometry at its sample points.

    ``triple`` needs attributes ``g`` and ``t`` (tensor fields) and may
    carry ``a`` (the Benenti tensor), ``meta`` and ``chart``; quantities
    that need a missing field raise ValueError when asked for.  Every
    float accessor returns an array whose last axis runs over ``points``.
    """

    def __init__(self, triple, points: Sequence[Sequence[float]]):
        self.triple = triple
        self.g = triple.g
        self.t = triple.t
        self.a = getattr(triple, "a", None)
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._cache: dict = {}

    @classmethod
    def at(cls, point: Sequence[float], g=None, t=None, a=None) -> "Geometry":
        """One-point geometry of loose fields, for pointwise use."""
        return cls(SimpleNamespace(g=g, t=t, a=a, meta={}), [point])

    def __len__(self) -> int:
        return len(self.points)

    def cached(self, key: str, build):
        """``build()``, evaluated once per ``key``.  A domain error is kept and
        raised again on every read."""
        if key not in self._cache:
            try:
                self._cache[key] = build()
            except DOMAIN_ERRORS as e:
                self._cache[key] = e
                raise
        out = self._cache[key]
        if isinstance(out, DOMAIN_ERRORS):  # a fresh traceback, not one grown per read
            raise out.with_traceback(None)
        return out

    # -- jets -------------------------------------------------------------

    def batch(self, name: str) -> Jet:
        """The stacked jets of 'g', 't', 'a', 'ginv', 'ainv', 'det_a', 'ghat',
        'gamma' (of g), 'ghat_gamma', 'mu' (mu1, mu2), 'killing' (V1, V2, TV1, TV2),
        'sigma' (weighted sigma(g)), 'a_sigma' (A sigma) or 'psi' over all
        points, through degree 2 for 'g', 'a', 'ainv', 'det_a', 'ghat',
        'mu' and 'psi' and through degree 1 for the others (see ``ORDER``):
        one Jet of coefficient shape (size, *entry_shape, points) whose
        column k is point k."""
        return self.cached(name, lambda: _BUILDERS[name](self))

    # -- floats -------------------------------------------------------------

    def split(self, jets: Jet) -> tuple[np.ndarray, np.ndarray]:
        """(values, first partials) of stacked jets over the points: values[..., p]
        and partials[..., k, p] at point p."""
        return split_jets(jets, 1)

    def vp(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``split(batch(name))``."""
        return self.cached(name + "/vp", lambda: self.split(self.batch(name)))

    def values(self, name: str) -> np.ndarray:
        """Values of ``batch(name)``, with a trailing point axis."""
        return self.vp(name)[0]

    def lam(self) -> np.ndarray:
        """Lam = (1/4) grad tr A = V1 / 2, shape (4, points)."""
        return 0.5 * self.values("killing")[0]

    def gamma(self, metric: str = "g") -> np.ndarray:
        """Christoffel symbols of 'g' or 'ghat' as floats, shape (k, i, j, points)."""
        return self.values(_GAMMA[metric])

    def riemann(self, metric: str = "g") -> np.ndarray:
        """R^k_{l ij} of 'g' or 'ghat', shape (k, l, i, j, points)."""
        return self.cached("riemann/" + metric, lambda: curvature.riemann(*self.vp(_GAMMA[metric])))

    def ricci(self, metric: str = "g") -> np.ndarray:
        """Ric_{lj} of 'g' or 'ghat', shape (l, j, points)."""
        return self.cached(
            "ricci/" + metric, lambda: np.einsum("klkj...->lj...", self.riemann(metric))
        )
