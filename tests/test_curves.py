import csv

import numpy as np
import pytest

from pklab import projective as pj
from pklab.curvature import christoffel_batch
from pklab.curves import (
    DegenerateVelocityError,
    export_curve_csv,
    integrate_geodesic,
    integrate_geodesic_bundle,
    kinetic_energy,
    momentum_along,
    t_planarity_residual,
)
from pklab.fields import Chart, TensorField, objarray

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]


def flat_metric():
    return TensorField((0, 2), lambda *c: objarray(FLAT), name="flat")


P0 = np.array([2.4, 0.9, 0.4, 0.5])
V0 = np.array([0.12, -0.2, 0.15, 0.1])


def test_flat_geodesics_are_straight_lines():
    path = integrate_geodesic(flat_metric(), P0, V0, 1e-3, 500)
    expected = P0[None, :] + path.times[:, None] * V0[None, :]
    assert np.max(np.abs(path.positions - expected)) < 1e-12
    assert np.max(np.abs(path.velocities - V0)) < 1e-13


def test_energy_conservation_on_curved_metric(triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(tr.g, P0, V0, 1e-3, 1000, tr.chart)
    en = kinetic_energy(tr.g, path)
    assert np.max(np.abs(en - en[0])) < 1e-8


def test_killing_momentum_conserved(triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(tr.g, P0, V0, 1e-3, 1000, tr.chart)
    _, (tv1, tv2) = pj.canonical_killing_fields(tr, tr.a)
    for field in (tv1, tv2):
        mom = momentum_along(tr.g, field, path, stride=100)
        assert np.max(np.abs(mom - mom[0])) < 1e-8


def test_own_geodesics_are_planar(triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(tr.g, P0, V0, 1e-3, 1000, tr.chart)
    res = t_planarity_residual(tr.g, tr.t, path)
    assert res.max_residual < 1e-10


def test_companion_geodesics_are_planar(triples):
    tr = triples["real-liouville"]
    ghat = pj.companion_metric(tr.g, tr.a)
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=(4, 4))
    v0 = 0.25 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    p0 = np.tile(P0, (4, 1))
    for path in integrate_geodesic_bundle(ghat, p0, v0, 1e-3, 1000, tr.chart):
        assert t_planarity_residual(tr.g, tr.t, path).max_residual < 1e-6


def test_unrelated_metric_geodesics_are_not_planar(triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(flat_metric(), P0, V0, 1e-3, 1000, tr.chart)
    assert t_planarity_residual(tr.g, tr.t, path).max_residual > 1e-3


def test_step_halving_shows_order_four(triples):
    tr = triples["real-liouville"]
    ghat = pj.companion_metric(tr.g, tr.a)
    rng = np.random.default_rng(5)
    p0 = np.tile(tr.chart.center(), (2, 1))
    v0 = rng.normal(size=(2, 4))
    v0 = 1.2 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    residuals = []
    for h in (4e-3, 2e-3, 1e-3):
        n = int(round(0.3 / h))
        paths = integrate_geodesic_bundle(ghat, p0, v0, h, n, tr.chart)
        residuals.append(max(t_planarity_residual(tr.g, tr.t, q).max_residual for q in paths))
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(orders > 3.4), (residuals, orders)


def test_reparameterized_planar_curve_stays_planar(triples):
    # integrate the companion geodesic in a warped parameter u with
    # dt/du = w(u); the velocity gains a factor w and the acceleration a
    # velocity-direction term, which the alpha-slot of planarity absorbs
    tr = triples["real-liouville"]
    ghat = pj.companion_metric(tr.g, tr.a)

    def w(u):
        return 1.0 + 0.3 * np.sin(2.0 * u)

    def rhs(state, u):
        x, v = state[:, :4], state[:, 4:]  # v = dx/dt along the geodesic
        gamma = christoffel_batch(ghat, x)
        acc = -np.einsum("nkij,ni,nj->nk", gamma, v, v)
        return np.concatenate([w(u) * v, w(u) * acc], axis=1)

    h, n = 1e-3, 800
    state = np.concatenate([P0[None, :], V0[None, :]], axis=1)
    xs, vs = [state[0, :4].copy()], [w(0.0) * state[0, 4:]]
    u = 0.0
    for _ in range(n):
        k1 = rhs(state, u)
        k2 = rhs(state + 0.5 * h * k1, u + 0.5 * h)
        k3 = rhs(state + 0.5 * h * k2, u + 0.5 * h)
        k4 = rhs(state + h * k3, u + h)
        state = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        u += h
        xs.append(state[0, :4].copy())
        vs.append(w(u) * state[0, 4:])  # dx/du = w(u) dx/dt
    from pklab.curves import GeodesicPath

    path = GeodesicPath(
        times=h * np.arange(n + 1),
        positions=np.array(xs),
        velocities=np.array(vs),
        step=h,
    )
    assert t_planarity_residual(tr.g, tr.t, path).max_residual < 1e-6


def test_box_exit_truncates_and_flags(triples):
    tr = triples["real-liouville"]
    v_out = np.array([0.0, 3.0, 0.0, 0.0])  # races to the x2 boundary
    path = integrate_geodesic(tr.g, P0, v_out, 1e-3, 1000, tr.chart)
    assert path.exited_box
    assert len(path) < 1001
    assert all(tr.chart.contains(p) for p in path.positions)


def test_bundle_matches_single_integration(triples):
    tr = triples["real-liouville"]
    bundle = integrate_geodesic_bundle(
        tr.g, np.stack([P0, P0 + 0.05]), np.stack([V0, V0]), 1e-3, 50, tr.chart
    )
    single = integrate_geodesic(tr.g, P0, V0, 1e-3, 50, tr.chart)
    assert np.allclose(bundle[0].positions, single.positions)
    assert np.allclose(bundle[0].velocities, single.velocities)


def test_bundle_stops_each_row_where_chart_contains_says_it_left():
    # straight lines of a flat metric: a row inside throughout, one leaving
    # the box, and one whose position turns NaN, which counts as outside
    chart = Chart(((0.0, 1.0),) * 4)
    p0 = np.full((3, 4), 0.5)
    v0 = np.array([[0.1, 0.0, 0.0, 0.0], [3.0, 0.0, 1.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    n = 400
    free = integrate_geodesic_bundle(flat_metric(), p0, v0, 1e-3, n)
    boxed = integrate_geodesic_bundle(flat_metric(), p0, v0, 1e-3, n, chart)
    for row, path in zip(free, boxed):
        outside = [s for s in range(1, n + 1) if not chart.contains(row.positions[s])]
        expected = outside[0] if outside else n + 1
        assert len(path) == expected
        assert path.exited_box == bool(outside)
        assert np.array_equal(path.positions, row.positions[:expected])
    assert [len(p) for p in boxed] == [n + 1, 167, 1]


def test_degenerate_velocity_rejected():
    path = integrate_geodesic(flat_metric(), P0, np.zeros(4), 1e-3, 10)
    with pytest.raises(DegenerateVelocityError):
        t_planarity_residual(flat_metric(), flat_metric(), path)


def test_csv_export(tmp_path, triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(tr.g, P0, V0, 1e-3, 20, tr.chart)
    res = t_planarity_residual(tr.g, tr.t, path)
    out = tmp_path / "curve.csv"
    export_curve_csv(path, out, residuals=res.residuals)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3", "x4", "v1", "v2", "v3", "v4", "residual"]
    assert len(rows) == len(path) + 1
    assert rows[1][-1] == ""  # boundary samples carry no stencil residual
    assert rows[3][-1] != ""


def test_planarity_keeps_samples(triples):
    tr = triples["real-liouville"]
    path = integrate_geodesic(tr.g, P0, V0, 1e-3, 20, tr.chart)
    res = t_planarity_residual(tr.g, tr.t, path, keep_samples=True)
    assert len(res.samples) == len(path) - 4
    s = res.samples[0]
    assert s.position.shape == (4,) and s.acceleration_cov.shape == (4,)
    # for a geodesic of g itself the covariant acceleration is tiny
    assert np.max(np.abs(s.acceleration_cov)) < 1e-8
