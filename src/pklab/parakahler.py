"""Para-Kahler structure triples and their axiom validators.

A triple bundles a chart with a neutral metric g and a para-complex
structure T (T^2 = Id, trace-free, g(T.,T.) = -g) whose fundamental
2-form g(T.,.) is closed and whose Nijenhuis tensor vanishes; the
Levi-Civita connection then makes T parallel.  ``validate`` checks all
of that pointwise on the chart's sample set.

``check_points`` is the one runner of pointwise results, for ``validate``
and the suites: it takes a declared :class:`Check` and fails closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from difflib import get_close_matches
from functools import reduce
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

from .curvature import covariant_derivative_endo
from .fields import Chart, TensorField, exterior_derivative_2form, nijenhuis
from .geometry import DOMAIN_ERRORS, Geometry
from .report import CheckResult, VerificationReport, worst

__all__ = [
    "ParaKahlerTriple",
    "fundamental_form",
    "validate",
    "null_coordinate_check",
    "signature_counts",
]

DEFAULT_POINTS = 20


@dataclass(frozen=True)
class Check:
    """A declared result: name, default tolerance, identity and pointwise parts.

    ``residual(geo)`` gives the residual at each of geo's sample points,
    shape (points,), inf at a point it could not evaluate, for
    ``check_points`` (None when the suite reduces the points itself);
    ``flags(geo)`` names remarks on the points, and such errors;
    ``when(geo)`` says whether the result applies to geo's triple.
    """

    name: str
    tolerance: float
    identity: str
    residual: Callable[[Geometry], np.ndarray] | None = None
    flags: Callable[[Geometry], Iterable[str]] | None = None
    when: Callable[[Geometry], bool] | None = None

    def result(self, residual: float, points: int, tolerances: Mapping[str, float],
               flags: Iterable[str] = (), identity: str | None = None) -> CheckResult:
        """This result, with the tolerance override in ``tolerances`` if any."""
        tol = float(tolerances.get(self.name, self.tolerance))
        return CheckResult(self.name, residual, tol, points,
                           self.identity if identity is None else identity, sorted(flags))


def check_points(
    geo: Geometry, check: Check, tolerances: Mapping[str, float], identity: str | None = None
) -> CheckResult:
    """``check``'s result: the worst of its residuals over geo's points.

    A domain error makes the residual inf and flags the result
    ``eval-error:<type>``, so a result that could not be evaluated fails;
    other exceptions propagate.  ``identity`` replaces the declared one
    (for identities that quote the triple's data).
    """
    flags: set[str] = set()
    try:
        values = np.asarray(check.residual(geo), dtype=float)
        if check.flags:
            flags.update(check.flags(geo))
    except DOMAIN_ERRORS as e:
        values = np.full(len(geo), np.inf)
        flags.add(f"eval-error:{type(e).__name__}")
    if values.shape != (len(geo),):
        raise ValueError(f"{check.name}: residuals of shape {values.shape} for {len(geo)} points")
    return check.result(worst(values), len(geo), tolerances, flags, identity)


def check_tolerances(tolerances: Mapping[str, float], names: Collection[str]) -> None:
    """Raise ValueError for an override that names no result in ``names`` or
    is not a positive finite number (a report is strict JSON)."""
    for name, val in tolerances.items():
        if name not in names:
            close = get_close_matches(name, names, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"tolerance override {name!r} names no result{hint}")
        if not 0 < val < np.inf:
            raise ValueError(f"tolerance override {name}={val} must be positive and finite")


@dataclass(frozen=True)
class ParaKahlerTriple:
    """Chart + metric + para-complex structure (+ optional Benenti candidate).

    ``meta`` carries family bookkeeping used by the verification suites:
    family name, expected rank of the canonical distribution, expected
    gradient configuration, flatness flag, Einstein constants if known.
    """

    chart: Chart
    g: TensorField
    t: TensorField
    a: TensorField | None = None
    meta: dict = dc_field(default_factory=dict)

    def sample_points(self, n: int = DEFAULT_POINTS, seed: int = 0) -> np.ndarray:
        return self.chart.sample_points(n, seed=seed)


# -- arrays over the sample points, the point axis last ---------------------


def amax(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the last, one value per point; a NaN is kept."""
    return np.abs(x).reshape(-1, np.shape(x)[-1]).max(axis=0)


def relative(x: np.ndarray, *refs: np.ndarray) -> np.ndarray:
    """max |x| at each point, relative to the largest max |ref| of ``refs``
    there where that exceeds 1; a NaN in x or in any ref is kept."""
    return amax(x) / reduce(np.maximum, map(amax, refs), 1.0)


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b at each point, for a matrix or vector b; both carry the point axis."""
    return np.einsum("ij...,jk...->ik..." if b.ndim == a.ndim else "ij...,j...->i...", a, b)


def transposed(m: np.ndarray) -> np.ndarray:
    """m transposed at each point."""
    return np.swapaxes(m, 0, 1)


def asymmetry(m: np.ndarray) -> np.ndarray:
    """|m - m^T| at each point, ``relative`` to |m|: 0 for a symmetric m."""
    return relative(m - transposed(m), m)


def para_hermitian_defect(h: np.ndarray, tm: np.ndarray) -> np.ndarray:
    """|h(T., T.) + h| at each point, ``relative`` to |h|: 0 for an h that
    is para-Hermitian for T."""
    return relative(mm(mm(transposed(tm), h), tm) + h, h)


def fundamental_form(geo: Geometry) -> np.ndarray:
    """omega_ij = T^k_i g_kj, i.e. omega(X, Y) = g(TX, Y), at each sample point."""
    return mm(transposed(geo.values("t")), geo.values("g"))


# T in an adapted chart, diag(Id2, -Id2): the catalog states it, the checks test for it
ADAPTED_T = np.diag([1.0, 1.0, -1.0, -1.0])
# eigenvalues of g within this of 0, relative to the largest, count as near-degenerate
_SIGNATURE_FLOOR = 1e-10
# largest entry of T - diag(Id2, -Id2) in an adapted chart
_ADAPTED_TOL = 1e-11


def signature_counts(gm: np.ndarray) -> tuple:
    """(positive, negative, near-degenerate) eigenvalue counts of g, one count
    per point for values with a trailing point axis."""
    m = np.moveaxis(gm, (0, 1), (-2, -1))
    ev = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
    scale = np.maximum(1.0, np.max(np.abs(ev), axis=-1, keepdims=True))
    pos = np.sum(ev > _SIGNATURE_FLOOR * scale, axis=-1)
    neg = np.sum(ev < -_SIGNATURE_FLOOR * scale, axis=-1)
    return pos, neg, gm.shape[0] - pos - neg


def null_coordinate_check(geo: Geometry) -> bool:
    """True iff T equals diag(Id2, -Id2) at all of geo's points (adapted chart)."""
    return bool(np.all(amax(geo.values("t") - ADAPTED_T[..., None]) <= _ADAPTED_TOL))


def _t_squares_to_id(geo: Geometry) -> np.ndarray:
    tm = geo.values("t")
    return amax(mm(tm, tm) - np.eye(4)[..., None])


def _t_trace_free(geo: Geometry) -> np.ndarray:
    return np.abs(np.einsum("ii...->...", geo.values("t")))


def _signature(geo: Geometry) -> tuple:
    """``signature_counts`` of g at geo's points, diagonalized once per geometry."""
    return geo.cached("signature", lambda: signature_counts(geo.values("g")))


def _neutral_signature(geo: Geometry) -> np.ndarray:
    pos, neg, _ = _signature(geo)
    return np.where((pos == 2) & (neg == 2), 0.0, 1.0)


def _near_degenerate(geo: Geometry) -> list[str]:
    return ["near-degenerate-point"] if np.any(_signature(geo)[2]) else []


def _omega_antisymmetric(geo: Geometry) -> np.ndarray:
    om = fundamental_form(geo)
    return relative(om + transposed(om), om)


def _omega_closed(geo: Geometry) -> np.ndarray:
    gv, gp = geo.vp("g")
    tv, tp = geo.vp("t")
    # omega_ij = T^k_i g_kj, partials by the product rule
    om = mm(transposed(tv), gv)
    dom = np.einsum("kim...,kj...->ijm...", tp, gv) + np.einsum("ki...,kjm...->ijm...", tv, gp)
    return relative(exterior_derivative_2form(om, dom), om)


def _nijenhuis_zero(geo: Geometry) -> np.ndarray:
    return amax(nijenhuis(*geo.vp("t")))


def _t_parallel(geo: Geometry) -> np.ndarray:
    return amax(covariant_derivative_endo(geo.gamma(), *geo.vp("t")))


AXIOMS = (
    Check("g-symmetric", 1e-12, "g_ij = g_ji", lambda geo: asymmetry(geo.values("g"))),
    Check("t-squares-to-id", 1e-11, "T^2 = Id", _t_squares_to_id),
    Check("t-trace-free", 1e-11, "tr T = 0 (eigendistributions of equal dimension)",
          _t_trace_free),
    Check("g-para-hermitian", 1e-10, "g(T.,T.) = -g",
          lambda geo: para_hermitian_defect(geo.values("g"), geo.values("t"))),
    Check("neutral-signature", 0.5, "g has signature (2,2)", _neutral_signature,
          flags=_near_degenerate),
    Check("fundamental-form-antisymmetric", 1e-11,
          "omega(X,Y) = -omega(Y,X) for omega = g(T.,.)", _omega_antisymmetric),
    Check("fundamental-form-closed", 1e-9, "d omega = 0", _omega_closed),
    Check("nijenhuis-zero", 1e-9, "Nijenhuis tensor of T vanishes", _nijenhuis_zero),
    Check("t-parallel", 1e-9, "nabla T = 0 for the Levi-Civita connection of g", _t_parallel),
)


def validate(geo: Geometry, tolerances: Mapping[str, float] | None = None) -> VerificationReport:
    """Run the full para-Kahler axiom suite at geo's points, reading its cache.

    Each axiom goes through ``check_points``, so a check that could not be
    evaluated at a point fails.  A tolerance override that names no axiom,
    or is not positive, raises ValueError.
    """
    tolerances = tolerances or {}
    check_tolerances(tolerances, [c.name for c in AXIOMS])
    triple = geo.triple  # a Geometry.at of loose fields has no chart
    label = triple.meta.get("family") or getattr(getattr(triple, "chart", None), "label", "")
    return VerificationReport(label, checks=[check_points(geo, c, tolerances) for c in AXIOMS])
