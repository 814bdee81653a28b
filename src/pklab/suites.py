"""Named verification suites bridging the geometry to the CLI and tests.

Each suite reads one triple's geometry at the run's sample points from a
shared :class:`~pklab.geometry.Geometry` and produces CheckResult
entries; ``run_suite`` builds that cache once per call and dispatches on
the check names exposed by the command-line runner.  All residuals are
evaluated on the chart's deterministic sample set, so a (config, seed)
pair fully determines the report.  Every result is declared once as a
:class:`~pklab.parakahler.Check`; pointwise results go through
``parakahler.check_points``, which reduces with ``report.worst`` (a NaN
from any point is kept) and fails a result that raised a domain error.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import projective as pj
from .curvature import covariant_derivative_endo, einstein_residual, geodesic_spray
from .curves import (
    GeodesicPath,
    integrate_geodesic_bundle,
    kinetic_energy,
    off_span,
    t_planarity_residual,
)
from .geometry import Geometry
from .jets import seed_point
from .linalg import mscale
from .parakahler import (
    AXIOMS,
    DOMAIN_ERRORS,
    Check,
    ParaKahlerTriple,
    amax,
    asymmetry,
    check_points,
    check_tolerances,
    mm,
    null_coordinate_check,
    para_hermitian_defect,
    relative,
    validate,
)
from .report import CheckResult, VerificationReport, worst

__all__ = ["CHECK_NAMES", "check_request", "geodesic_starts", "geodesic_paths", "run_suite",
           "demo_einstein"]


def _suite_parakahler(geo, tol):
    prefix = "parakahler/"
    own = {k.removeprefix(prefix): v for k, v in tol.items() if k.startswith(prefix)}
    checks = validate(geo, own).checks
    for c in checks:
        c.name = prefix + c.name
    return checks


def _pointwise(checks):
    """A suite of pointwise results, each on the triples its ``when`` admits."""

    def suite(geo, tol):
        return [check_points(geo, c, tol) for c in checks if c.when is None or c.when(geo)]

    return suite


# Each suite's results are declared once, with their default tolerance and
# identity, next to the suite that reads them.  A residual gives one value
# per sample point.  Residuals of ``pklab.projective`` are looked up at
# call time, so a patched function (a test's stand-in, a tracer's probe)
# is the one that runs.


def _commutes(geo):
    am, tm = geo.values("a"), geo.values("t")
    return relative(mm(am, tm) - mm(tm, am), am)


def _block(geo):
    am = geo.values("a")
    off = np.maximum(amax(am[:2, 2:]), amax(am[2:, :2]))
    tr_mismatch = np.abs(np.einsum("ii...->...", am[:2, :2]) - np.einsum("ii...->...", am[2:, 2:]))
    det_mismatch = np.abs(np.linalg.det(np.moveaxis(am[:2, :2], -1, 0))
                          - np.linalg.det(np.moveaxis(am[2:, 2:], -1, 0)))
    return (off + tr_mismatch + det_mismatch) / np.maximum(1.0, amax(am))


_BENENTI = (
    Check("benenti/equation", 1e-9,
          "nabla_X A = g(X,.)Lam + g(Lam,.)X - g(TX,.)TLam - g(TLam,.)TX",
          lambda geo: pj.benenti_residual(geo)),
    Check("benenti/hamiltonian-form", 1e-9,
          "2 nabla_X phi = d(tr_w phi) ^ (TX)b - T d(tr_w phi) ^ Xb, phi = g(AT.,.)",
          lambda geo: pj.hamiltonian_form_residual(geo)),
    Check("benenti/eigen-gradient", 1e-9, "A grad(eigenvalue) = eigenvalue * grad(eigenvalue)",
          lambda geo: pj.eigen_gradient_residual(geo),
          # a double eigenvalue has no eigenvalue jets: its point is not evaluated
          flags=lambda geo: ["eval-error:JetDomainError"]
          * ("degenerate" in pj.eigen_decompose(geo).kind)),
    Check("benenti/g-symmetric", 1e-10, "g(A.,.) = g(.,A.)",
          lambda geo: asymmetry(mm(geo.values("g"), geo.values("a")))),
    Check("benenti/commutes-with-t", 1e-10, "[A, T] = 0", _commutes),
    Check("benenti/det-positive", 0.5, "det A > 0",
          lambda geo: np.where(np.linalg.det(np.moveaxis(geo.values("a"), -1, 0)) > 0, 0.0, 1.0)),
    Check("benenti/adapted-block", 1e-10,
          "block-diagonal in adapted coordinates, equal block trace/determinant", _block,
          when=lambda geo: geo.triple.meta.get("adapted") and null_coordinate_check(geo)),
)
# per point: 1.0 where nabla A does not vanish; the suite inverts the worst
_NON_PARALLEL = Check(
    "benenti/non-parallel", 0.5, "nabla A does not vanish identically",
    lambda geo: (amax(covariant_derivative_endo(geo.gamma(), *geo.vp("a"))) > 1e-3) * 1.0,
)


def _suite_benenti(geo, tol):
    # passes when some point has nabla A != 0 and every point was evaluated
    moving = check_points(geo, _NON_PARALLEL, tol)
    moving.residual = 0.0 if moving.residual == 1.0 else 1.0
    return _pointwise(_BENENTI)(geo, tol) + [moving]


_KILLING = (
    Check("killing/rotated-gradients", 1e-9, "L_{T grad mu_i} g = 0",
          lambda geo: pj.killing_residual(geo)),
    Check("killing/hamiltonian-pairing", 1e-9, "omega(T grad mu_i, .) = d mu_i",
          lambda geo: pj.hamiltonian_pairing_residual(geo)),
    Check("killing/para-holomorphic", 1e-9, "L_X T = 0 for X in {V_i, T V_i}",
          lambda geo: pj.para_holomorphy_residual(geo)),
    Check("killing/brackets", 1e-8, "pairwise Lie brackets of {V1, V2, TV1, TV2} vanish",
          lambda geo: pj.commutation_residual(geo)),
    Check("killing/leaf-geodesic", 1e-8,
          "g(nabla_{V_i} V_j, T V_h) = 0 (totally geodesic leaves)",
          lambda geo: pj.leaf_geodesic_residual(geo),
          when=lambda geo: geo.triple.meta.get("expected_rank") == 4),
)


def _ranks(geo) -> tuple:
    """(ranks, configurations, flags) of ``distribution_d_rank``, once per geo."""
    return geo.cached("rank", lambda: pj.distribution_d_rank(geo))


def _expected(geo) -> tuple:
    """(rank, gradient configuration) the triple declares."""
    meta = geo.triple.meta
    return meta.get("expected_rank"), tuple(meta.get("expected_config", ()))


def _mismatch(part: int):
    """1.0 at each point whose rank (part 0) or configuration (part 1) is not the declared one."""

    def residual(geo):
        want, unset = _expected(geo)[part], (None, ())[part]
        return np.array([float(want not in (unset, got)) for got in _ranks(geo)[part]])

    return residual


_RANK = (
    Check("rank/dimension", 0.5, "rank of the invariant-gradient distribution = {}",
          _mismatch(0), flags=lambda geo: _ranks(geo)[2]),
    Check("rank/configuration", 0.5, "gradient configuration = {}", _mismatch(1)),
)


def _suite_rank(geo, tol):
    return [check_points(geo, c, tol, c.identity.format(x)) for c, x in zip(_RANK, _expected(geo))]


def _duality(geo):
    # Psi(e_k) = -g(Lam, A^{-1} e_k) = -(g A^{-1} Lam)_k since g A^{-1} is symmetric
    psi = geo.vp("psi")[1]
    return relative(psi + mm(mm(geo.values("g"), geo.values("ainv")), geo.lam()), psi)


def _exponential(geo):
    # |mu2| = sqrt det A; psi raises where det A <= 0
    mu2 = np.abs(geo.values("mu")[1])
    return np.abs(mu2 - np.exp(-2.0 * geo.values("psi"))) / np.maximum(1.0, mu2)


def _roundtrip(geo):
    am = geo.values("a")
    gm, hm = (np.moveaxis(geo.values(q), -1, 0) for q in ("g", "ghat"))
    return relative(np.moveaxis(pj.a_from_pair(gm, hm), 0, -1) - am, am)


def _invariance(geo):
    # x1 * sigma(g) is not a solution; the expression must not see the connection
    sigma = geo.batch("sigma")
    probe = mscale(sigma, seed_point(geo.points, sigma.space.order)[0])
    e1 = pj.mobility_expression(geo, probe)
    return relative(e1 - pj.mobility_expression(geo, probe, metric="ghat"), e1)


_COMPANION = (
    Check("companion/connection-difference", 1e-9,
          "Gammahat - Gamma = Psi-shift with Psi = d(-1/4 log det A)",
          lambda geo: pj.connection_difference_residual(geo)),
    Check("companion/potential-duality", 1e-9, "Psi(X) = -g(Lam, A^{-1} X)", _duality),
    Check("companion/pair-roundtrip", 1e-10, "A recovered from the pair (g, companion)",
          _roundtrip),
    Check("companion/symmetric", 1e-10, "companion metric is symmetric",
          lambda geo: asymmetry(geo.values("ghat"))),
    Check("companion/para-hermitian", 1e-10, "companion metric is para-Hermitian for T",
          lambda geo: para_hermitian_defect(geo.values("ghat"), geo.values("t"))),
    Check("companion/mobility-solution", 1e-9,
          "A.sigma solves the projectively invariant first-order system",
          lambda geo: pj.mobility_residual(geo, geo.batch("a_sigma"))),
    Check("companion/sigma-parallel", 1e-9, "weighted sigma(g) is parallel",
          lambda geo: pj.sigma_parallel_residual(geo)),
    Check("companion/mobility-invariance", 1e-9,
          "invariant system agrees under both Levi-Civita connections", _invariance),
    Check("companion/potential-exponential", 1e-10,
          "half-block determinant equals exp(-2 psi) in adapted coordinates", _exponential,
          when=lambda geo: geo.triple.meta.get("adapted")),
)


def _ricci_pair(geo):
    return geo.cached("ricci-diff", lambda: pj.ricci_difference_residual(geo))


_RICCI_DIFF = (
    Check("ricci-diff/identity", 1e-8,
          "Ric(ghat) - Ric(g) = -2(n+1)(nabla Psi - Psi x Psi - (Psi o T) x (Psi o T))",
          lambda geo: _ricci_pair(geo)[0]),
    Check("ricci-diff/gradient-form", 1e-8,
          "same difference expressed through nabla Lam and A^{-1}",
          lambda geo: _ricci_pair(geo)[1]),
)


def _einstein_residual(key, metric):
    def residual(geo):
        lam = geo.triple.meta[key]
        return relative(einstein_residual(geo, lam, metric), geo.values(metric))

    return residual


_EINSTEIN = (
    Check("einstein/metric", 1e-8, "Ric(g) = {} g", _einstein_residual("einstein", "g")),
    Check("einstein/companion", 1e-8, "Ric(companion) = {} companion",
          _einstein_residual("companion_einstein", "ghat")),
)


def _suite_einstein(geo, tol):
    meta = geo.triple.meta
    if meta.get("einstein") is None:
        return [_EINSTEIN[0].result(0.0, 0, tol, ["no-einstein-constant-declared"],
                                    "Ric(g) = lam g (not checked: no Einstein constant declared)")]
    return [check_points(geo, c, tol, c.identity.format(meta[key]))
            for c, key in zip(_EINSTEIN, ("einstein", "companion_einstein"))
            if meta.get(key) is not None]


_GRID_A = (0.0, 0.5, 1.0, 1.5, 2.0)
_GRID_B = (0.0, 0.25, 0.5, 0.75, 1.0)


def _family_sweep(geo, lam, lam_hat):
    """(alpha, beta, einstein_family_constant result or None at the origin) over the grid."""
    for al in _GRID_A:
        for be in _GRID_B:
            if al == 0.0 and be == 0.0:
                yield al, be, None
                continue
            yield al, be, pj.einstein_family_constant(geo, lam, lam_hat, al, be)


_FAMILY = (
    Check("family-einstein/spread", 1e-8, "family Einstein constant is point-independent"),
    Check("family-einstein/ricci", 1e-8, "each family member satisfies Ric = constant * metric"),
    Check("family-einstein/prediction", 1e-8,
          "family constant equals lam * alpha^3 for this instance"),
)


def _suite_family_einstein(geo, tol):
    spread_c, ricci_c, prediction_c = _FAMILY
    lam = geo.triple.meta.get("einstein")
    lam_hat = geo.triple.meta.get("companion_einstein")
    if lam is None or lam_hat is None:
        return [spread_c.result(0.0, 0, tol, ["no-einstein-constants-declared"],
                                "family Einstein constants (not checked: constants not declared)")]
    rule = geo.triple.meta.get("family_constant_rule")
    n = len(geo)
    try:
        sweep = list(_family_sweep(geo, lam, lam_hat))
    except DOMAIN_ERRORS as e:
        # a member could not be evaluated: every result fails
        declared = _FAMILY if rule == "lam*alpha^3" else _FAMILY[:2]
        return [c.result(np.inf, n, tol, [f"eval-error:{type(e).__name__}"]) for c in declared]
    spread, ric, pred = [], [], []
    flags: set[str] = set()
    for al, be, out in sweep:
        if out is None:
            flags.add("skipped-origin")
            continue
        if not out["points"]:
            flags.add(f"grid-point-({al},{be})-degenerate")
            continue
        flags.update(out["flags"])
        spread.append(out["spread"])
        ric.append(out["ricci_residual"])
        if rule == "lam*alpha^3":
            target = lam * al**3
            pred.append(abs(out["constant"] - target) / max(1.0, abs(target)))
    results = [spread_c.result(worst(spread), n, tol, flags), ricci_c.result(worst(ric), n, tol)]
    if rule == "lam*alpha^3":
        results.append(prediction_c.result(worst(pred), n, tol))
    return results


_FLATNESS = Check("flatness/riemann", 1e-9, "curvature tensor vanishes",
                  lambda geo: amax(geo.riemann()))


def _suite_flatness(geo, tol):
    if not geo.triple.meta.get("flat"):
        return [_FLATNESS.result(0.0, 0, tol, ["not-declared-flat"],
                                 _FLATNESS.identity + " (not checked: instance not declared flat)")]
    return [check_points(geo, _FLATNESS, tol)]


def _control_curves(g, t, p0, v0, rnd, step, n_steps) -> list[GeodesicPath]:
    """Curves that are not T-planar by construction, one per (p0, v0) row.

    x(t) = p0 + t v0 + t^2 w / 2 with w = n - Gamma_g(p0)(v0, v0), where n
    is ``rnd`` with its part in span{v0, T v0} removed, scaled to |n| = 0.25:
    the g-covariant acceleration at t = 0 is n, which no T-planar curve has.
    """
    normals = off_span(v0, np.einsum("nki,ni->nk", t.batch_values(p0), v0), rnd)
    normals *= 0.25 / np.linalg.norm(normals, axis=1, keepdims=True)
    w = normals - geodesic_spray(g, p0, v0)
    ts = step * np.arange(n_steps + 1)[:, None]
    return [
        GeodesicPath(ts[:, 0], p0[k] + ts * v0[k] + 0.5 * (ts**2 * w[k]), v0[k] + ts * w[k], step)
        for k in range(len(p0))
    ]


_GEODESIC = (
    Check("geodesic/energy-drift", 1e-8, "g(velocity, velocity) conserved along geodesics"),
    Check("geodesic/planarity", 1e-6, "companion geodesics are T-planar for (g, T)"),
    Check("geodesic/negative-control", 0.5,
          "curves accelerating off span{v, Tv} are detected as not T-planar"),
)


# sample spacing and sample count of the companion geodesics
GEODESIC_STEP = 1e-3
GEODESIC_STEPS = 400


def geodesic_starts(chart, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start points, directions, control normals) of the geodesic check, three rows each.

    Start points lie in the middle fifth of the chart box and directions
    have Euclidean length 0.25; the normals feed ``_control_curves``.
    The same seed gives the same rows.
    """
    rng = np.random.default_rng(seed + 11)
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    p0 = lo + (hi - lo) * (0.4 + 0.2 * rng.uniform(size=(3, 4)))
    v0 = rng.normal(size=(3, 4))
    v0 = 0.25 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    return p0, v0, rng.normal(size=(3, 4))


def geodesic_paths(triple, seed: int) -> list[GeodesicPath]:
    """The companion geodesics of the geodesic check, one per start row of
    ``geodesic_starts``."""
    p0, v0, _ = geodesic_starts(triple.chart, seed)
    return integrate_geodesic_bundle(
        partial(pj.companion_spray, triple.g, triple.a), p0, v0, GEODESIC_STEP, GEODESIC_STEPS,
        triple.chart,
    )


def _geodesic_residuals(triple, seed, p0, v0, normals):
    """(energy drifts, planarity residuals, smallest control residual)."""
    g, t = triple.g, triple.t
    paths = geodesic_paths(triple, seed)
    drifts = [float(np.max(np.abs(en - en[0]))) / max(1.0, abs(en[0]))
              for en in kinetic_energy(partial(pj.companion_values, g, triple.a), paths)]
    controls = _control_curves(g, t, p0, v0, normals, GEODESIC_STEP, 40)
    plans = [float(np.max(r)) for r in t_planarity_residual(g, t, paths + controls)]
    # np.min, not min(): a NaN control makes the smallest NaN wherever it stands
    return drifts, plans[:len(paths)], np.min(plans[len(paths):])


def _suite_geodesic(geo, tol, seed: int = 0):
    starts = geodesic_starts(geo.triple.chart, seed)
    n = len(starts[0])
    try:
        drifts, plans, neg = _geodesic_residuals(geo.triple, seed, *starts)
    except DOMAIN_ERRORS as e:
        # the curves could not be integrated or measured: every result fails
        return [c.result(np.inf, n, tol, [f"eval-error:{type(e).__name__}"]) for c in _GEODESIC]
    drift_c, planarity_c, control_c = _GEODESIC
    return [
        drift_c.result(worst(drifts), n, tol),
        planarity_c.result(worst(plans), n, tol),
        # neg > 1e-3 is False for NaN, so an unevaluable control fails
        control_c.result(0.0 if neg > 1e-3 else 1.0, n, tol),
    ]


# every result a tolerance override may name
_DECLARED = frozenset(
    [f"parakahler/{c.name}" for c in AXIOMS]
    + [c.name for group in (_BENENTI, (_NON_PARALLEL,), _KILLING, _RANK, _COMPANION,
                            _RICCI_DIFF, _EINSTEIN, _FAMILY, (_FLATNESS,), _GEODESIC)
       for c in group]
)

_SUITES: dict[str, Callable] = {
    "parakahler": _suite_parakahler,
    "benenti": _suite_benenti,
    "killing": _pointwise(_KILLING),
    "rank": _suite_rank,
    "companion": _pointwise(_COMPANION),
    "ricci-diff": _pointwise(_RICCI_DIFF),
    "einstein": _suite_einstein,
    "family-einstein": _suite_family_einstein,
    "flatness": _suite_flatness,
    "geodesic": _suite_geodesic,
}
CHECK_NAMES = tuple(_SUITES)


def check_request(checks: Sequence[str], tolerances: Mapping[str, float]) -> None:
    """Raise ValueError for an unknown check name, or for a tolerance
    override that names no declared result or is not positive and finite."""
    for name in checks:
        if name not in _SUITES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    check_tolerances(tolerances, _DECLARED)


def run_suite(
    triple: ParaKahlerTriple,
    checks: Sequence[str],
    n_points: int = 20,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Execute the named checks on a triple and assemble a report.

    One Geometry of the triple at the run's sample points is shared by
    every check and dropped with the call.  A request that
    ``check_request`` rejects raises ValueError.  A result that could not
    be evaluated at a point fails (see ``parakahler.check_points``); with
    ``n_points`` < 1 nothing would be evaluated, so it raises ValueError.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    tolerances = dict(tolerances or {})
    check_request(checks, tolerances)
    geo = Geometry(triple, triple.sample_points(n_points, seed=seed))
    results: list[CheckResult] = []
    for name in checks:
        if name == "geodesic":
            results.extend(_SUITES[name](geo, tolerances, seed=seed))
        else:
            results.extend(_SUITES[name](geo, tolerances))
    report = VerificationReport(label=triple.meta.get("family", ""))
    report.checks = sorted(results, key=lambda c: c.name)
    return report


def demo_einstein(n_points: int = 20, seed: int = 0) -> VerificationReport:
    """Sweep the two-parameter Einstein family of the separable preset.

    Builds the unit-constant separable instance (Ricci-flat companion),
    sweeps a 5 x 5 grid of family weights and compares the measured
    Einstein constant against lam * alpha^3; degenerate grid points are
    skipped with a flag.
    """
    from .catalog import preset_triple

    triple = preset_triple("einstein-lambda1")
    geo = Geometry(triple, triple.sample_points(n_points, seed=seed))
    lam = triple.meta["einstein"]
    report = VerificationReport(label="einstein-family-demo")
    for al, be, out in _family_sweep(geo, lam, triple.meta["companion_einstein"]):
        name = f"family-einstein/alpha={al}-beta={be}"
        if out is None:
            report.add(CheckResult(name, 0.0, 1.0, 0, "origin is degenerate",
                                   flags=["skipped-origin"]))
            continue
        if not out["points"]:
            report.add(CheckResult(name, 0.0, 1.0, 0, "degenerate on the whole box",
                                   flags=sorted(set(out["flags"]) | {"skipped"})))
            continue
        target = lam * al**3
        resid = worst([
            abs(out["constant"] - target) / max(1.0, abs(target)),
            out["spread"],
            out["ricci_residual"],
        ])
        report.add(
            CheckResult(name, resid, 1e-8, out["points"],
                        f"Einstein constant {out['constant']:.12g} vs lam*alpha^3 = {target}",
                        flags=sorted(out["flags"])),
        )
    return report
