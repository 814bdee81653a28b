"""Para-Kahler structure triples and their axiom validators.

A triple bundles a chart with a neutral metric g and a para-complex
structure T (T^2 = Id, trace-free, g(T.,T.) = -g) whose fundamental
2-form g(T.,.) is closed and whose Nijenhuis tensor vanishes; the
Levi-Civita connection then makes T parallel.  ``validate`` checks all
of that pointwise on the chart's sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import numpy as np

from .curvature import covariant_derivative_endo
from .fields import (
    Chart,
    DegenerateMetricError,
    MalformedFormError,
    TensorField,
    exterior_derivative_2form,
    nijenhuis,
)
from .geometry import Geometry
from .jets import JetDomainError
from .report import CheckResult, VerificationReport, worst

__all__ = [
    "ParaKahlerTriple",
    "fundamental_form",
    "validate",
    "null_coordinate_check",
    "signature_counts",
]

DEFAULT_POINTS = 20

# what an evaluation at a point outside a field's domain raises; anything
# else is a programming error and propagates
DOMAIN_ERRORS = (JetDomainError, DegenerateMetricError, MalformedFormError, ZeroDivisionError)


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


def signature_counts(gm: np.ndarray, floor: float = 1e-10) -> tuple[int, int, int]:
    """(positive, negative, near-degenerate) eigenvalue counts of g."""
    ev = np.linalg.eigvalsh(0.5 * (gm + gm.T))
    scale = max(1.0, float(np.max(np.abs(ev))))
    pos = int(np.sum(ev > floor * scale))
    neg = int(np.sum(ev < -floor * scale))
    return pos, neg, gm.shape[0] - pos - neg


def null_coordinate_check(geo: Geometry, tol: float = 1e-11) -> bool:
    """True iff T equals diag(Id2, -Id2) at all of geo's points (adapted chart)."""
    block = np.diag([1.0, 1.0, -1.0, -1.0])
    return all(np.max(np.abs(geo.values(i, "t") - block)) <= tol for i in range(len(geo)))


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(m))))


# Axiom residuals at sample point i; ``flags`` collects remarks for the check.


def _g_symmetric(geo: Geometry, i: int, flags: set) -> float:
    gm = geo.values(i, "g")
    return np.max(np.abs(gm - gm.T)) / _scale(gm)


def _t_squares_to_id(geo: Geometry, i: int, flags: set) -> float:
    tm = geo.values(i, "t")
    return np.max(np.abs(tm @ tm - np.eye(4)))


def _t_trace_free(geo: Geometry, i: int, flags: set) -> float:
    return abs(np.trace(geo.values(i, "t")))


def _g_para_hermitian(geo: Geometry, i: int, flags: set) -> float:
    gm, tm = geo.values(i, "g"), geo.values(i, "t")
    return np.max(np.abs(tm.T @ gm @ tm + gm)) / _scale(gm)


def _neutral_signature(geo: Geometry, i: int, flags: set) -> float:
    pos, neg, degen = signature_counts(geo.values(i, "g"))
    if degen:
        flags.add("near-degenerate-point")
    return 0.0 if (pos, neg) == (2, 2) else 1.0


def _omega_antisymmetric(geo: Geometry, i: int, flags: set) -> float:
    om = fundamental_form(geo, i)
    return np.max(np.abs(om + om.T)) / _scale(om)


def _omega_closed(geo: Geometry, i: int, flags: set) -> float:
    gv, gp = geo.vp(i, "g")
    tv, tp = geo.vp(i, "t")
    # omega_ij = T^k_i g_kj, partials by the product rule
    om = tv.T @ gv
    dom = np.einsum("kim,kj->ijm", tp, gv) + np.einsum("ki,kjm->ijm", tv, gp)
    return np.max(np.abs(exterior_derivative_2form(om, dom))) / _scale(om)


def _nijenhuis_zero(geo: Geometry, i: int, flags: set) -> float:
    return np.max(np.abs(nijenhuis(*geo.vp(i, "t"))))


def _t_parallel(geo: Geometry, i: int, flags: set) -> float:
    return np.max(np.abs(covariant_derivative_endo(geo.gamma(i), *geo.vp(i, "t"))))


# name -> (default tolerance, identity, residual)
_AXIOMS = {
    "g-symmetric": (1e-12, "g_ij = g_ji", _g_symmetric),
    "t-squares-to-id": (1e-11, "T^2 = Id", _t_squares_to_id),
    "t-trace-free": (1e-11, "tr T = 0 (eigendistributions of equal dimension)", _t_trace_free),
    "g-para-hermitian": (1e-10, "g(T.,T.) = -g", _g_para_hermitian),
    "neutral-signature": (0.5, "g has signature (2,2)", _neutral_signature),
    "fundamental-form-antisymmetric": (
        1e-11, "omega(X,Y) = -omega(Y,X) for omega = g(T.,.)", _omega_antisymmetric
    ),
    "fundamental-form-closed": (1e-9, "d omega = 0", _omega_closed),
    "nijenhuis-zero": (1e-9, "Nijenhuis tensor of T vanishes", _nijenhuis_zero),
    "t-parallel": (1e-9, "nabla T = 0 for the Levi-Civita connection of g", _t_parallel),
}


def validate(
    triple: ParaKahlerTriple,
    n_points: int = DEFAULT_POINTS,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
    geometry: Geometry | None = None,
) -> VerificationReport:
    """Run the full para-Kahler axiom suite on sampled points.

    With ``geometry`` the axioms are checked at its points and read its
    cache; ``n_points`` and ``seed`` are then ignored.  A domain error at
    a point sets the affected check's residual to inf and flags it
    (``eval-error:<type>``), so a check that could not be evaluated fails;
    other exceptions propagate.
    """
    tol = {name: spec[0] for name, spec in _AXIOMS.items()}
    if tolerances:
        tol.update(tolerances)
    geo = geometry or Geometry(triple, triple.sample_points(n_points, seed))

    report = VerificationReport(label=triple.meta.get("family", triple.chart.label))
    for name in tol:
        _, identity, residual = _AXIOMS[name]
        flags: set[str] = set()
        values = []
        for i in range(len(geo)):
            try:
                values.append(float(residual(geo, i, flags)))
            except DOMAIN_ERRORS as e:
                values.append(np.inf)
                flags.add(f"eval-error:{type(e).__name__}")
        report.add(
            CheckResult(
                name=name,
                residual=worst(values),
                tolerance=tol[name],
                points=len(geo),
                identity=identity,
                flags=sorted(flags),
            )
        )
    return report
