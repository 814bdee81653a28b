"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here, not configurable; the suite is the exit
gate for the package.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import json
from functools import partial

import numpy as np
import pytest

from conftest import fd_partial
from pklab import projective as pj
from pklab.cli import main as cli_main
from pklab.curvature import geodesic_spray
from pklab.curves import integrate_geodesic_bundle, t_planarity_residual
from pklab.fields import TensorField, objarray
from pklab.geometry import Geometry
from pklab.jets import seed_point
from pklab.parakahler import validate


def _verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def catalog(triples):
    return triples


def test_criterion_1_separable_einstein_instance(einstein_preset):
    """Unit-constant instance: Einstein residual, companion closed form, Ricci-flat."""
    tr = einstein_preset
    lam = 1.0
    pts = tr.sample_points(20)
    geo = Geometry(tr, pts)
    worst_e = 0.0
    for i, p in enumerate(pts):
        gm = tr.g.values(p)
        worst_e = max(worst_e, np.max(np.abs(geo.ricci()[..., i] - lam * gm)) / np.max(np.abs(gm)))

    ghat = pj.companion_metric(tr.g, tr.a)
    worst_c = worst_rf = 0.0
    for i, p in enumerate(pts):
        u, v = p[0] ** 2, p[1] ** 2
        expected = np.zeros((4, 4))
        expected[0, 0] = lam**2 * u * (u + v) / 36.0
        expected[1, 1] = -(lam**2) * v * (u + v) / 36.0
        expected[2, 2] = lam**2 * (u - v) / 9.0
        expected[2, 3] = expected[3, 2] = -2.0 * lam / 3.0
        worst_c = max(worst_c, np.max(np.abs(ghat.values(p) - expected)))
        worst_rf = max(worst_rf, np.max(np.abs(geo.ricci("ghat")[..., i])))
    ok = worst_e < 1e-8 and worst_c < 1e-10 and worst_rf < 1e-8
    _verdict(
        1, ok,
        f"Einstein residual {worst_e:.2e} (<1e-8), companion closed form {worst_c:.2e} "
        f"(<1e-10), companion Ricci {worst_rf:.2e} (<1e-8), 20 points",
    )


def test_criterion_2_family_einstein_constant(einstein_preset):
    """5x5 family grid: measured constant equals lam*alpha^3, point spread tiny."""
    tr = einstein_preset
    lam, lam_hat = 1.0, 0.0
    geo = Geometry(tr, tr.sample_points(20))
    worst_pred = worst_spread = worst_ric = 0.0
    used = 0
    for al in (0.0, 0.5, 1.0, 1.5, 2.0):
        for be in (0.0, 0.25, 0.5, 0.75, 1.0):
            if al == 0.0 and be == 0.0:
                continue
            out = pj.einstein_family_constant(geo, lam, lam_hat, al, be)
            if not out["points"]:
                continue
            used += 1
            target = lam * al**3
            worst_pred = max(worst_pred, abs(out["constant"] - target) / max(1.0, abs(target)))
            worst_spread = max(worst_spread, out["spread"])
            worst_ric = max(worst_ric, out["ricci_residual"])
    ok = used >= 20 and worst_pred < 1e-8 and worst_spread < 1e-8 and worst_ric < 1e-8
    _verdict(
        2, ok,
        f"constant vs lam*alpha^3 {worst_pred:.2e}, spread {worst_spread:.2e}, "
        f"member Ricci residual {worst_ric:.2e} (all <1e-8) over {used} grid points",
    )


def test_criterion_3_catalog_conformance(catalog):
    """All 8 families: structure axioms, defining equation and its symplectic
    form, eigen-gradients (1e-9), declared rank and gradient configuration."""
    tol = {
        "t-squares-to-id": 1e-9,
        "g-para-hermitian": 1e-9,
        "fundamental-form-closed": 1e-9,
        "nijenhuis-zero": 1e-9,
        "t-parallel": 1e-9,
    }
    bad = []
    for name, tr in catalog.items():
        geo = Geometry(tr, tr.sample_points(20))
        rep = validate(geo, tol)
        if not rep.all_passed:
            bad.append((name, [c.name for c in rep.checks if not c.passed]))
            continue
        ben = np.max(pj.benenti_residual(geo))
        ham = np.max(pj.hamiltonian_form_residual(geo))
        eig = np.max(pj.eigen_gradient_residual(geo))
        if max(ben, ham, eig) >= 1e-9:
            bad.append((name, f"residuals {ben:.1e}/{ham:.1e}/{eig:.1e}"))
            continue
        ranks, configs, _ = pj.distribution_d_rank(geo)
        for rank, config in zip(ranks, configs):
            if rank != tr.meta["expected_rank"] or tuple(config) != tr.meta["expected_config"]:
                bad.append((name, f"rank {rank} config {config}"))
                break
    _verdict(3, not bad, f"8 families, 20 points each; failures: {bad or 'none'}")


def test_criterion_4_pair_identities(catalog):
    """Each (g, companion): connection shift (1e-9), Ricci comparison (1e-8),
    invariant first-order system agreeing under both connections (1e-9)."""
    worst = {"conn": 0.0, "ricci": 0.0, "mob": 0.0, "inv": 0.0}
    for name, tr in catalog.items():
        sig = pj.weighted_sigma_field(tr.g)
        sighat = pj.weighted_endo_sigma_field(tr.a, sig)
        from pklab.fields import ScalarField

        probe = pj.scale_weighted_field(ScalarField(lambda x1, *r: x1, "x1"), sig)
        geo = Geometry(tr, tr.sample_points(20))
        worst["conn"] = max(worst["conn"], *pj.connection_difference_residual(geo))
        prim, cross = pj.ricci_difference_residual(geo)
        worst["ricci"] = max(worst["ricci"], *prim, *cross)
        m1 = pj.mobility_residual(geo, sighat.jets(geo.points))
        m2 = pj.mobility_residual(geo, sighat.jets(geo.points), metric="ghat")
        worst["mob"] = max(worst["mob"], *m1, *m2)
        e1 = pj.mobility_expression(geo, probe.jets(geo.points))
        e2 = pj.mobility_expression(geo, probe.jets(geo.points), metric="ghat")
        for i in range(20):
            worst["inv"] = max(worst["inv"], np.max(np.abs(e1[..., i] - e2[..., i]))
                               / max(1.0, np.max(np.abs(e1[..., i]))))
    ok = worst["conn"] < 1e-9 and worst["ricci"] < 1e-8 and worst["mob"] < 1e-9 and worst["inv"] < 1e-9
    _verdict(
        4, ok,
        f"connection {worst['conn']:.2e} (<1e-9), Ricci comparison {worst['ricci']:.2e} "
        f"(<1e-8), invariant system {worst['mob']:.2e} / agreement {worst['inv']:.2e} (<1e-9)",
    )


def test_criterion_5_killing_suite(catalog):
    """Rank-4 families: rotated gradients are Killing and Hamiltonian, all four
    canonical fields para-holomorphic (1e-9) and mutually commuting (1e-8)."""
    worst = {"kill": 0.0, "pair": 0.0, "holo": 0.0, "brack": 0.0}
    for name in ("real-liouville", "complex-liouville"):
        tr = catalog[name]
        geo = Geometry(tr, tr.sample_points(20))
        # each residual is the worst over TV1, TV2 (pairs with mu1, mu2),
        # or over V1, V2, TV1, TV2, at each of the 20 points
        worst["kill"] = max(worst["kill"], *pj.killing_residual(geo))
        worst["pair"] = max(worst["pair"], *pj.hamiltonian_pairing_residual(geo))
        worst["holo"] = max(worst["holo"], *pj.para_holomorphy_residual(geo))
        worst["brack"] = max(worst["brack"], *pj.commutation_residual(geo))
    ok = (worst["kill"] < 1e-9 and worst["pair"] < 1e-9
          and worst["holo"] < 1e-9 and worst["brack"] < 1e-8)
    _verdict(
        5, ok,
        f"Killing {worst['kill']:.2e}, pairing {worst['pair']:.2e}, "
        f"para-holomorphy {worst['holo']:.2e} (<1e-9), brackets {worst['brack']:.2e} (<1e-8)",
    )


def test_criterion_6_flat_families(catalog, dimd1_flat_preset):
    """Degenerate families 2, 3, 4 and the separable rank-1 instance are flat."""
    worst = 0.0
    for tr in (catalog["dim-d2-2"], catalog["dim-d2-2neg"], catalog["dim-d2-4"],
               dimd1_flat_preset):
        geo = Geometry(tr, tr.sample_points(20))
        worst = max(worst, float(np.max(np.abs(geo.riemann()))))
    _verdict(6, worst < 1e-9, f"max |Riemann| {worst:.2e} (<1e-9) over 4 instances x 20 points")


def test_criterion_7_companion_einstein_constants(
    companion_einstein_preset, dimd2_1_einstein_preset
):
    """Companion constants: half the first integral constant for the separable
    family; c^2(lam c - c2/2) for the constant-eigenvalue family."""
    half_c1 = 0.5 * companion_einstein_preset.meta["constants"]["c1"]
    results = []
    for tr, expected in (
        (companion_einstein_preset, half_c1),
        (dimd2_1_einstein_preset, 8.0),
    ):
        geo = Geometry(tr, tr.sample_points(20))
        worst = 0.0
        for i in range(20):
            hm = geo.values("ghat")[..., i]
            worst = max(
                worst,
                np.max(np.abs(geo.ricci("ghat")[..., i] - expected * hm))
                / max(1.0, np.max(np.abs(hm))),
            )
        results.append((tr.meta["family"], expected, worst))
    ok = all(w < 1e-8 for _, _, w in results)
    _verdict(
        7, ok,
        "; ".join(f"{fam}: Ric(companion) = {e} companion to {w:.2e}" for fam, e, w in results)
        + " (<1e-8)",
    )


def test_criterion_8_planarity_and_convergence(catalog):
    """10 companion geodesics are T-planar (1e-6) with order-4 convergence;
    unrelated straight lines are not (>1e-3)."""
    tr = catalog["real-liouville"]
    ghat = partial(pj.companion_spray, tr.g, tr.a)
    rng = np.random.default_rng(3)
    m = 10
    lo = np.array([b[0] for b in tr.chart.box])
    hi = np.array([b[1] for b in tr.chart.box])
    p0 = lo + (hi - lo) * (0.35 + 0.3 * rng.uniform(size=(m, 4)))
    v0 = rng.normal(size=(m, 4))
    v0 = 0.25 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    paths = integrate_geodesic_bundle(ghat, p0, v0, 1e-3, 1000, tr.chart)
    plan = max(np.max(r) for r in t_planarity_residual(tr.g, tr.t, paths))

    flat = TensorField(
        (0, 2),
        lambda *c: objarray(
            [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
             [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        ),
    )
    controls = integrate_geodesic_bundle(partial(geodesic_spray, flat), p0, v0, 1e-3, 1000,
                                         tr.chart)
    neg = min(np.max(r) for r in t_planarity_residual(tr.g, tr.t, controls))

    p0c = np.tile(tr.chart.center(), (3, 1))
    v0c = rng.normal(size=(3, 4))
    v0c = 1.2 * v0c / np.linalg.norm(v0c, axis=1, keepdims=True)
    residuals = []
    for h in (4e-3, 2e-3, 1e-3):
        bundle = integrate_geodesic_bundle(ghat, p0c, v0c, h, int(round(0.3 / h)), tr.chart)
        residuals.append(max(np.max(r) for r in t_planarity_residual(tr.g, tr.t, bundle)))
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    ok = plan < 1e-6 and neg > 1e-3 and np.all(orders > 3.4)
    _verdict(
        8, ok,
        f"10 companion geodesics max residual {plan:.2e} (<1e-6), negative control "
        f"{neg:.2e} (>1e-3), halving orders {orders.round(2).tolist()} (>3.4)",
    )


def test_criterion_9_ad_integrity_and_determinism(tmp_path):
    """200 randomized jet-vs-difference comparisons at 1e-6 relative; JSON
    reports are byte-identical for identical configuration and seed."""
    from test_jets import _random_composition

    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(200):
        f = _random_composition(rng)
        p = rng.uniform(0.4, 1.4, size=4)
        jet = f(*seed_point(p, 3))
        order = 1 + trial % 3
        idx = np.zeros(4, dtype=int)
        for _ in range(order):
            idx[rng.integers(0, 4)] += 1
        exact = jet.partial(idx)
        approx = fd_partial(f, p, idx)
        worst = max(worst, abs(exact - approx) / max(1.0, abs(approx)))

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--family", "real-liouville", "--preset", "einstein-lambda1",
            "--checks", "einstein,rank", "--points", "6", "--seed", "5"]
    assert cli_main(args + ["--json", str(a)]) == 0
    assert cli_main(args + ["--json", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # parses
    ok = worst < 1e-6 and identical
    _verdict(
        9, ok,
        f"200 derivative comparisons, worst relative deviation {worst:.2e} (<1e-6); "
        f"byte-identical reports: {identical}",
    )
