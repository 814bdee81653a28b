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

    ``residual(geo, i)`` is the residual at sample point i for
    ``check_points`` (None when the suite reduces the points itself);
    ``flags(geo, i)`` names remarks on point i; ``when(geo)`` says whether
    the result applies to geo's triple.
    """

    name: str
    tolerance: float
    identity: str
    residual: Callable[[Geometry, int], float] | None = None
    flags: Callable[[Geometry, int], Iterable[str]] | None = None
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
    """``check``'s result: the worst of its residual over geo's points.

    A domain error at a point makes that point's residual inf and flags
    the result ``eval-error:<type>``, so a result that could not be
    evaluated fails; other exceptions propagate.  ``identity`` replaces
    the declared one (for identities that quote the triple's data).
    """
    flags: set[str] = set()
    values = []
    for i in range(len(geo)):
        try:
            values.append(float(check.residual(geo, i)))
            if check.flags:
                flags.update(check.flags(geo, i))
        except DOMAIN_ERRORS as e:
            values.append(np.inf)
            flags.add(f"eval-error:{type(e).__name__}")
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


def fundamental_form(geo: Geometry, i: int) -> np.ndarray:
    """omega_ij = T^k_i g_kj, i.e. omega(X, Y) = g(TX, Y), at sample point i."""
    return geo.values(i, "t").T @ geo.values(i, "g")


# eigenvalues of g within this of 0, relative to the largest, count as near-degenerate
_SIGNATURE_FLOOR = 1e-10
# largest entry of T - diag(Id2, -Id2) in an adapted chart
_ADAPTED_TOL = 1e-11


def signature_counts(gm: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, near-degenerate) eigenvalue counts of g."""
    ev = np.linalg.eigvalsh(0.5 * (gm + gm.T))
    scale = max(1.0, float(np.max(np.abs(ev))))
    pos = int(np.sum(ev > _SIGNATURE_FLOOR * scale))
    neg = int(np.sum(ev < -_SIGNATURE_FLOOR * scale))
    return pos, neg, gm.shape[0] - pos - neg


def null_coordinate_check(geo: Geometry) -> bool:
    """True iff T equals diag(Id2, -Id2) at all of geo's points (adapted chart)."""
    block = np.diag([1.0, 1.0, -1.0, -1.0])
    return all(np.max(np.abs(geo.values(i, "t") - block)) <= _ADAPTED_TOL
               for i in range(len(geo)))


def relative(x: np.ndarray, ref: np.ndarray) -> float:
    """max |x|, relative to max |ref| where that exceeds 1."""
    return float(np.max(np.abs(x))) / max(1.0, float(np.max(np.abs(ref))))


def _g_symmetric(geo: Geometry, i: int) -> float:
    gm = geo.values(i, "g")
    return relative(gm - gm.T, gm)


def _t_squares_to_id(geo: Geometry, i: int) -> float:
    tm = geo.values(i, "t")
    return np.max(np.abs(tm @ tm - np.eye(4)))


def _t_trace_free(geo: Geometry, i: int) -> float:
    return abs(np.trace(geo.values(i, "t")))


def _g_para_hermitian(geo: Geometry, i: int) -> float:
    gm, tm = geo.values(i, "g"), geo.values(i, "t")
    return relative(tm.T @ gm @ tm + gm, gm)


def _neutral_signature(geo: Geometry, i: int) -> float:
    return 0.0 if signature_counts(geo.values(i, "g"))[:2] == (2, 2) else 1.0


def _near_degenerate(geo: Geometry, i: int) -> list[str]:
    return ["near-degenerate-point"] if signature_counts(geo.values(i, "g"))[2] else []


def _omega_antisymmetric(geo: Geometry, i: int) -> float:
    om = fundamental_form(geo, i)
    return relative(om + om.T, om)


def _omega_closed(geo: Geometry, i: int) -> float:
    gv, gp = geo.vp(i, "g")
    tv, tp = geo.vp(i, "t")
    # omega_ij = T^k_i g_kj, partials by the product rule
    om = tv.T @ gv
    dom = np.einsum("kim,kj->ijm", tp, gv) + np.einsum("ki,kjm->ijm", tv, gp)
    return relative(exterior_derivative_2form(om, dom), om)


def _nijenhuis_zero(geo: Geometry, i: int) -> float:
    return np.max(np.abs(nijenhuis(*geo.vp(i, "t"))))


def _t_parallel(geo: Geometry, i: int) -> float:
    return np.max(np.abs(covariant_derivative_endo(geo.gamma(i), *geo.vp(i, "t"))))


AXIOMS = (
    Check("g-symmetric", 1e-12, "g_ij = g_ji", _g_symmetric),
    Check("t-squares-to-id", 1e-11, "T^2 = Id", _t_squares_to_id),
    Check("t-trace-free", 1e-11, "tr T = 0 (eigendistributions of equal dimension)",
          _t_trace_free),
    Check("g-para-hermitian", 1e-10, "g(T.,T.) = -g", _g_para_hermitian),
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
