"""Named verification suites bridging the geometry to the CLI and tests.

Each suite reads one triple's geometry at the run's sample points from a
shared :class:`~pklab.geometry.Geometry` and produces CheckResult
entries; ``run_suite`` builds that cache once per call and dispatches on
the check names exposed by the command-line runner.  All residuals are
evaluated on the chart's deterministic sample set, so a (config, seed)
pair fully determines the report.  Per-point residuals are reduced with
``report.worst``, which keeps a NaN from any point.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import projective as pj
from .curvature import christoffel_batch, covariant_derivative_endo, einstein_residual
from .curves import (
    GeodesicPath,
    integrate_geodesic_bundle,
    kinetic_energy,
    t_planarity_residual,
)
from .fields import DEFAULT_ORDER
from .geometry import Geometry
from .jets import seed_point
from .parakahler import ParaKahlerTriple, null_coordinate_check, validate
from .report import CheckResult, VerificationReport, worst

__all__ = ["CHECK_NAMES", "run_suite", "demo_einstein"]

CHECK_NAMES = (
    "parakahler",
    "benenti",
    "killing",
    "rank",
    "companion",
    "ricci-diff",
    "einstein",
    "family-einstein",
    "flatness",
    "geodesic",
)

_DEFAULT_TOL = {
    "benenti/equation": 1e-9,
    "benenti/hamiltonian-form": 1e-9,
    "benenti/eigen-gradient": 1e-9,
    "benenti/g-symmetric": 1e-10,
    "benenti/commutes-with-t": 1e-10,
    "benenti/det-positive": 0.5,
    "benenti/adapted-block": 1e-10,
    "benenti/non-parallel": 0.5,
    "killing/rotated-gradients": 1e-9,
    "killing/hamiltonian-pairing": 1e-9,
    "killing/para-holomorphic": 1e-9,
    "killing/brackets": 1e-8,
    "killing/leaf-geodesic": 1e-8,
    "rank/dimension": 0.5,
    "rank/configuration": 0.5,
    "companion/connection-difference": 1e-9,
    "companion/potential-duality": 1e-9,
    "companion/potential-exponential": 1e-10,
    "companion/pair-roundtrip": 1e-10,
    "companion/symmetric": 1e-10,
    "companion/para-hermitian": 1e-10,
    "companion/mobility-solution": 1e-9,
    "companion/mobility-invariance": 1e-9,
    "companion/sigma-parallel": 1e-9,
    "ricci-diff/identity": 1e-8,
    "ricci-diff/gradient-form": 1e-8,
    "einstein/metric": 1e-8,
    "einstein/companion": 1e-8,
    "family-einstein/spread": 1e-8,
    "family-einstein/ricci": 1e-8,
    "family-einstein/prediction": 1e-8,
    "flatness/riemann": 1e-9,
    "geodesic/energy-drift": 1e-8,
    "geodesic/planarity": 1e-6,
    "geodesic/negative-control": 0.5,
}


def _tol(overrides: dict, name: str) -> float:
    return float(overrides.get(name, _DEFAULT_TOL[name]))


def _suite_parakahler(geo, tol):
    rep = validate(geo.triple, geometry=geo)
    out = []
    for c in rep.checks:
        name = f"parakahler/{c.name}"
        out.append(
            CheckResult(
                name=name,
                residual=c.residual,
                tolerance=float(tol.get(name, c.tolerance)),
                points=c.points,
                identity=c.identity,
                flags=c.flags,
            )
        )
    return out


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def _worst_over_points(geo, tol, name, residual_at, identity, **extra) -> CheckResult:
    """CheckResult of the largest per-point residual ``residual_at(i)`` over geo."""
    n = len(geo)
    return CheckResult(name, worst(residual_at(i) for i in range(n)), _tol(tol, name), n,
                       identity, **extra)


def _suite_benenti(geo, tol):
    def g_symmetric(i):
        ga = geo.values(i, "g") @ geo.values(i, "a")
        return _max_abs(ga - ga.T) / max(1.0, _max_abs(ga))

    def commutes(i):
        am, tm = geo.values(i, "a"), geo.values(i, "t")
        return _max_abs(am @ tm - tm @ am) / max(1.0, _max_abs(am))

    def det_bad(i):
        return 1.0 if np.linalg.det(geo.values(i, "a")) <= 0 else 0.0

    def non_parallel_at(i):
        return _max_abs(covariant_derivative_endo(geo.gamma(i), *geo.vp(i, "a"))) > 1e-3

    def block(i):
        am = geo.values(i, "a")
        off = max(_max_abs(am[:2, 2:]), _max_abs(am[2:, :2]))
        tr_mismatch = abs(np.trace(am[:2, :2]) - np.trace(am[2:, 2:]))
        det_mismatch = abs(np.linalg.det(am[:2, :2]) - np.linalg.det(am[2:, 2:]))
        return (off + tr_mismatch + det_mismatch) / max(1.0, _max_abs(am))

    out = [
        _worst_over_points(geo, tol, "benenti/equation", lambda i: pj.benenti_residual(geo, i),
                           "nabla_X A = g(X,.)Lam + g(Lam,.)X - g(TX,.)TLam - g(TLam,.)TX"),
        _worst_over_points(geo, tol, "benenti/hamiltonian-form",
                           lambda i: pj.hamiltonian_form_residual(geo, i),
                           "2 nabla_X phi = d(tr_w phi) ^ (TX)b - T d(tr_w phi) ^ Xb, "
                           "phi = g(AT.,.)"),
        _worst_over_points(geo, tol, "benenti/eigen-gradient",
                           lambda i: pj.eigen_gradient_residual(geo, i),
                           "A grad(eigenvalue) = eigenvalue * grad(eigenvalue)"),
        _worst_over_points(geo, tol, "benenti/g-symmetric", g_symmetric, "g(A.,.) = g(.,A.)"),
        _worst_over_points(geo, tol, "benenti/commutes-with-t", commutes, "[A, T] = 0"),
        _worst_over_points(geo, tol, "benenti/det-positive", det_bad, "det A > 0"),
        CheckResult("benenti/non-parallel",
                    0.0 if any(non_parallel_at(i) for i in range(len(geo))) else 1.0,
                    _tol(tol, "benenti/non-parallel"), len(geo),
                    "nabla A does not vanish identically"),
    ]
    if geo.triple.meta.get("adapted") and null_coordinate_check(geo):
        out.append(_worst_over_points(
            geo, tol, "benenti/adapted-block", block,
            "block-diagonal in adapted coordinates, equal block trace/determinant"))
    return out


def _suite_killing(geo, tol):
    out = [
        _worst_over_points(geo, tol, "killing/rotated-gradients",
                           lambda i: pj.killing_residual(geo, i), "L_{T grad mu_i} g = 0"),
        _worst_over_points(geo, tol, "killing/hamiltonian-pairing",
                           lambda i: pj.hamiltonian_pairing_residual(geo, i),
                           "omega(T grad mu_i, .) = d mu_i"),
        _worst_over_points(geo, tol, "killing/para-holomorphic",
                           lambda i: pj.para_holomorphy_residual(geo, i),
                           "L_X T = 0 for X in {V_i, T V_i}"),
        _worst_over_points(geo, tol, "killing/brackets",
                           lambda i: pj.commutation_residual(geo, i),
                           "pairwise Lie brackets of {V1, V2, TV1, TV2} vanish"),
    ]
    if geo.triple.meta.get("expected_rank") == 4:
        out.append(_worst_over_points(
            geo, tol, "killing/leaf-geodesic", lambda i: pj.leaf_geodesic_residual(geo, i),
            "g(nabla_{V_i} V_j, T V_h) = 0 (totally geodesic leaves)"))
    return out


def _suite_rank(geo, tol):
    expected_rank = geo.triple.meta.get("expected_rank")
    expected_config = tuple(geo.triple.meta.get("expected_config", ()))
    rank_bad = config_bad = 0.0
    flags: set[str] = set()
    for i in range(len(geo)):
        rank, config, fl = pj.distribution_d_rank(geo, i)
        flags.update(fl)
        if expected_rank is not None and rank != expected_rank:
            rank_bad = 1.0
        if expected_config and tuple(config) != expected_config:
            config_bad = 1.0
    return [
        CheckResult("rank/dimension", rank_bad, _tol(tol, "rank/dimension"), len(geo),
                    f"rank of the invariant-gradient distribution = {expected_rank}",
                    flags=sorted(flags)),
        CheckResult("rank/configuration", config_bad, _tol(tol, "rank/configuration"),
                    len(geo), f"gradient configuration = {expected_config}"),
    ]


def _suite_companion(geo, tol):
    def duality(i):
        # Psi(e_k) = -g(Lam, A^{-1} e_k) = -(g A^{-1} Lam)_k since g A^{-1} is symmetric
        _, psi = pj.psi_potential(geo, i)
        ainv = np.linalg.inv(geo.values(i, "a"))
        return _max_abs(psi + geo.values(i, "g") @ ainv @ geo.lam(i)) / max(1.0, _max_abs(psi))

    def exponential(i):
        mu2 = geo.mu(i)[1]
        if mu2 <= 0:
            return 0.0
        psi_val, _ = pj.psi_potential(geo, i)
        return abs(mu2 - np.exp(-2.0 * psi_val)) / max(1.0, mu2)

    def roundtrip(i):
        am = geo.values(i, "a")
        rec = pj.a_from_pair(geo.values(i, "g"), geo.values(i, "ghat"))
        return _max_abs(rec - am) / max(1.0, _max_abs(am))

    def symmetric(i):
        hm = geo.values(i, "ghat")
        return _max_abs(hm - hm.T) / max(1.0, _max_abs(hm))

    def para_hermitian(i):
        hm, tm = geo.values(i, "ghat"), geo.values(i, "t")
        return _max_abs(tm.T @ hm @ tm + hm) / max(1.0, _max_abs(hm))

    def invariance(i):
        # x1 * sigma(g) is not a solution; the expression must not see the connection
        probe = geo.jets(i, "sigma") * seed_point(geo.points[i], DEFAULT_ORDER)[0]
        e1 = pj.mobility_expression(geo, i, probe)
        e2 = pj.mobility_expression(geo, i, probe, metric="ghat")
        return _max_abs(e1 - e2) / max(1.0, _max_abs(e1))

    out = [
        _worst_over_points(geo, tol, "companion/connection-difference",
                           lambda i: pj.connection_difference_residual(geo, i),
                           "Gammahat - Gamma = Psi-shift with Psi = d(-1/4 log det A)"),
        _worst_over_points(geo, tol, "companion/potential-duality", duality,
                           "Psi(X) = -g(Lam, A^{-1} X)"),
        _worst_over_points(geo, tol, "companion/pair-roundtrip", roundtrip,
                           "A recovered from the pair (g, companion)"),
        _worst_over_points(geo, tol, "companion/symmetric", symmetric,
                           "companion metric is symmetric"),
        _worst_over_points(geo, tol, "companion/para-hermitian", para_hermitian,
                           "companion metric is para-Hermitian for T"),
        _worst_over_points(geo, tol, "companion/mobility-solution",
                           lambda i: pj.mobility_residual(geo, i, geo.jets(i, "a_sigma")),
                           "A.sigma solves the projectively invariant first-order system"),
        _worst_over_points(geo, tol, "companion/sigma-parallel",
                           lambda i: pj.sigma_parallel_residual(geo, i),
                           "weighted sigma(g) is parallel"),
        _worst_over_points(geo, tol, "companion/mobility-invariance", invariance,
                           "invariant system agrees under both Levi-Civita connections"),
    ]
    if geo.triple.meta.get("adapted"):
        out.append(_worst_over_points(
            geo, tol, "companion/potential-exponential", exponential,
            "half-block determinant equals exp(-2 psi) in adapted coordinates"))
    return out


def _suite_ricci_diff(geo, tol):
    pairs = [pj.ricci_difference_residual(geo, i) for i in range(len(geo))]
    return [
        _worst_over_points(geo, tol, "ricci-diff/identity", lambda i: pairs[i][0],
                           "Ric(ghat) - Ric(g) = -2(n+1)(nabla Psi - Psi x Psi "
                           "- (Psi o T) x (Psi o T))"),
        _worst_over_points(geo, tol, "ricci-diff/gradient-form", lambda i: pairs[i][1],
                           "same difference expressed through nabla Lam and A^{-1}"),
    ]


def _suite_einstein(geo, tol):
    def residual(lam, metric):
        return lambda i: (_max_abs(einstein_residual(geo, i, lam, metric))
                          / max(1.0, _max_abs(geo.values(i, metric))))

    lam = geo.triple.meta.get("einstein")
    if lam is None:
        return [CheckResult("einstein/metric", 0.0, _tol(tol, "einstein/metric"), 0,
                            "Ric(g) = lam g (not checked: no Einstein constant declared)",
                            flags=["no-einstein-constant-declared"])]
    out = [_worst_over_points(geo, tol, "einstein/metric", residual(lam, "g"), f"Ric(g) = {lam} g")]
    lam_hat = geo.triple.meta.get("companion_einstein")
    if lam_hat is not None:
        out.append(_worst_over_points(geo, tol, "einstein/companion", residual(lam_hat, "ghat"),
                                      f"Ric(companion) = {lam_hat} companion"))
    return out


_GRID_A = (0.0, 0.5, 1.0, 1.5, 2.0)
_GRID_B = (0.0, 0.25, 0.5, 0.75, 1.0)


def _family_sweep(geo, lam, lam_hat):
    """(alpha, beta, einstein_family_constant result or None at the origin) over the grid."""
    for al in _GRID_A:
        for be in _GRID_B:
            if al == 0.0 and be == 0.0:
                yield al, be, None
                continue
            yield al, be, pj.einstein_family_constant(
                geo, lam, lam_hat, al, be, check_inputs=False
            )


def _suite_family_einstein(geo, tol):
    lam = geo.triple.meta.get("einstein")
    lam_hat = geo.triple.meta.get("companion_einstein")
    if lam is None or lam_hat is None:
        return [CheckResult("family-einstein/spread", 0.0,
                            _tol(tol, "family-einstein/spread"), 0,
                            "family Einstein constants (not checked: constants not declared)",
                            flags=["no-einstein-constants-declared"])]
    rule = geo.triple.meta.get("family_constant_rule")
    spread, ric, pred = [], [], []
    flags: set[str] = set()
    for al, be, out in _family_sweep(geo, lam, lam_hat):
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
    n = len(geo)
    results = [
        CheckResult("family-einstein/spread", worst(spread), _tol(tol, "family-einstein/spread"),
                    n, "family Einstein constant is point-independent", flags=sorted(flags)),
        CheckResult("family-einstein/ricci", worst(ric), _tol(tol, "family-einstein/ricci"),
                    n, "each family member satisfies Ric = constant * metric"),
    ]
    if rule == "lam*alpha^3":
        results.append(
            CheckResult("family-einstein/prediction", worst(pred),
                        _tol(tol, "family-einstein/prediction"), n,
                        "family constant equals lam * alpha^3 for this instance")
        )
    return results


def _suite_flatness(geo, tol):
    if not geo.triple.meta.get("flat"):
        return [CheckResult("flatness/riemann", 0.0, _tol(tol, "flatness/riemann"), 0,
                            "curvature tensor vanishes (not checked: instance not declared flat)",
                            flags=["not-declared-flat"])]
    return [_worst_over_points(geo, tol, "flatness/riemann", lambda i: _max_abs(geo.riemann(i)),
                               "curvature tensor vanishes")]


def _control_curves(g, t, p0, v0, rnd, step, n_steps) -> list[GeodesicPath]:
    """Curves that are not T-planar by construction, one per (p0, v0) row.

    x(t) = p0 + t v0 + t^2 w / 2 with w = n - Gamma_g(p0)(v0, v0), where n
    is ``rnd`` with its part in span{v0, T v0} removed, scaled to |n| = 0.25:
    the g-covariant acceleration at t = 0 is n, which no T-planar curve has.
    """
    tv0 = np.einsum("nki,ni->nk", t.batch_values(p0), v0)
    normals = np.empty_like(rnd)
    for k in range(len(p0)):
        q, _ = np.linalg.qr(np.stack([v0[k], tv0[k]], axis=1))
        n = rnd[k] - q @ (q.T @ rnd[k])
        normals[k] = 0.25 * n / np.linalg.norm(n)
    w = normals - np.einsum("nkij,ni,nj->nk", christoffel_batch(g, p0), v0, v0)
    times = step * np.arange(n_steps + 1)
    return [
        GeodesicPath(
            times=times,
            positions=p0[k] + np.outer(times, v0[k]) + 0.5 * np.outer(times**2, w[k]),
            velocities=v0[k] + np.outer(times, w[k]),
            step=step,
            metric_name="control",
        )
        for k in range(len(p0))
    ]


def _suite_geodesic(geo, tol, seed: int = 0, n_steps: int = 400):
    triple = geo.triple
    g, t = triple.g, triple.t
    ghat = pj.companion_metric(g, triple.a)
    rng = np.random.default_rng(seed + 11)
    m = 3
    lo = np.array([b[0] for b in triple.chart.box])
    hi = np.array([b[1] for b in triple.chart.box])
    p0 = lo + (hi - lo) * (0.4 + 0.2 * rng.uniform(size=(m, 4)))
    v0 = rng.normal(size=(m, 4))
    v0 = 0.25 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    h = 1e-3
    paths = integrate_geodesic_bundle(ghat, p0, v0, h, n_steps, triple.chart)
    drifts, plans = [], []
    for path in paths:
        en = kinetic_energy(ghat, path)
        drifts.append(_max_abs(en - en[0]) / max(1.0, abs(en[0])))
        plans.append(t_planarity_residual(g, t, path).max_residual)
    controls = _control_curves(g, t, p0, v0, rng.normal(size=(m, 4)), h, 40)
    neg = min(t_planarity_residual(g, t, c).max_residual for c in controls)
    return [
        CheckResult("geodesic/energy-drift", worst(drifts), _tol(tol, "geodesic/energy-drift"),
                    len(paths), "g(velocity, velocity) conserved along geodesics"),
        CheckResult("geodesic/planarity", worst(plans), _tol(tol, "geodesic/planarity"),
                    len(paths), "companion geodesics are T-planar for (g, T)"),
        # neg > 1e-3 is False for NaN, so an unevaluable control fails
        CheckResult("geodesic/negative-control", 0.0 if neg > 1e-3 else 1.0,
                    _tol(tol, "geodesic/negative-control"), len(controls),
                    "curves accelerating off span{v, Tv} are detected as not T-planar"),
    ]


_SUITES: dict[str, Callable] = {
    "parakahler": _suite_parakahler,
    "benenti": _suite_benenti,
    "killing": _suite_killing,
    "rank": _suite_rank,
    "companion": _suite_companion,
    "ricci-diff": _suite_ricci_diff,
    "einstein": _suite_einstein,
    "family-einstein": _suite_family_einstein,
    "flatness": _suite_flatness,
    "geodesic": _suite_geodesic,
}


def run_suite(
    triple: ParaKahlerTriple,
    checks: Sequence[str],
    n_points: int = 20,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Execute the named checks on a triple and assemble a report.

    One Geometry of the triple at the run's sample points is shared by
    every check and dropped with the call.  Unknown check names raise
    ValueError.
    """
    tolerances = dict(tolerances or {})
    for name in checks:
        if name not in _SUITES:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    for name, val in tolerances.items():
        if val <= 0:
            raise ValueError(f"tolerance override {name}={val} must be positive")
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
