import csv
from functools import partial

import numpy as np
import pytest

from pklab import projective as pj
from pklab.curvature import christoffel_batch, geodesic_spray
from pklab.curves import (
    DegenerateVelocityError,
    GeodesicConvergenceError,
    GeodesicPath,
    ShortCurveError,
    export_curve_csv,
    integrate_geodesic_bundle,
    kinetic_energy,
    t_planarity_residual,
)
from pklab.fields import Chart, TensorField, objarray
from pklab.geometry import DOMAIN_ERRORS, Geometry
from pklab import suites
from pklab.catalog import PRESETS, preset_triple
from pklab.suites import GEODESIC_STEP, GEODESIC_STEPS, geodesic_starts

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]


def flat_metric():
    return TensorField((0, 2), lambda *c: objarray(FLAT), name="flat")


def spray(g):
    """The spray of a metric field, the callable the integrator takes."""
    return partial(geodesic_spray, g)


def companion_spray(tr):
    """The spray of a triple's companion metric."""
    return partial(pj.companion_spray, tr.g, tr.a)


P0 = np.array([2.4, 0.9, 0.4, 0.5])
V0 = np.array([0.12, -0.2, 0.15, 0.1])


def test_flat_geodesics_are_straight_lines():
    (path,) = integrate_geodesic_bundle(spray(flat_metric()), [P0], [V0], 1e-3, 500)
    expected = P0[None, :] + path.times[:, None] * V0[None, :]
    assert np.max(np.abs(path.positions - expected)) < 1e-12
    assert np.max(np.abs(path.velocities - V0)) < 1e-13


def test_energy_conservation_on_curved_metric(triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 1000, tr.chart)
    (en,) = kinetic_energy(tr.g.batch_values, [path])
    assert np.max(np.abs(en - en[0])) < 1e-8


def test_killing_momentum_conserved(triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 1000, tr.chart)
    x, v = path.positions[::100], path.velocities[::100]
    geo = Geometry(tr, x)
    for k in (2, 3):  # TV1, TV2
        mom = np.array([v[i] @ geo.values("g")[..., i] @ geo.values("killing")[k][:, i]
                        for i in range(len(x))])
        assert np.max(np.abs(mom - mom[0])) < 1e-8


def test_own_geodesics_are_planar(triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 1000, tr.chart)
    (res,) = t_planarity_residual(tr.g, tr.t, [path])
    assert np.max(res) < 1e-10


def test_companion_geodesics_are_planar(triples):
    tr = triples["real-liouville"]
    rng = np.random.default_rng(2)
    v0 = rng.normal(size=(4, 4))
    v0 = 0.25 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    p0 = np.tile(P0, (4, 1))
    paths = integrate_geodesic_bundle(companion_spray(tr), p0, v0, 1e-3, 1000, tr.chart)
    for res in t_planarity_residual(tr.g, tr.t, paths):
        assert np.max(res) < 1e-6


def test_unrelated_metric_geodesics_are_not_planar(triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(flat_metric()), [P0], [V0], 1e-3, 1000, tr.chart)
    assert np.max(t_planarity_residual(tr.g, tr.t, [path])[0]) > 1e-3


def test_step_halving_shows_order_four(triples):
    tr = triples["real-liouville"]
    rng = np.random.default_rng(5)
    p0 = np.tile(tr.chart.center(), (2, 1))
    v0 = rng.normal(size=(2, 4))
    v0 = 1.2 * v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    residuals = []
    for h in (4e-3, 2e-3, 1e-3):
        n = int(round(0.3 / h))
        paths = integrate_geodesic_bundle(companion_spray(tr), p0, v0, h, n, tr.chart)
        residuals.append(max(np.max(r) for r in t_planarity_residual(tr.g, tr.t, paths)))
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(orders > 3.4), (residuals, orders)


def test_reparameterized_planar_curve_stays_planar(triples):
    # integrate the companion geodesic in a warped parameter u with
    # dt/du = w(u); the velocity gains a factor w and the acceleration a
    # velocity-direction term, which the alpha-slot of planarity absorbs
    tr = triples["real-liouville"]
    ghat = companion_spray(tr)

    def w(u):
        return 1.0 + 0.3 * np.sin(2.0 * u)

    def rhs(state, u):
        x, v = state[:, :4], state[:, 4:]  # v = dx/dt along the geodesic
        acc = -ghat(x, v)
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
    path = GeodesicPath(
        times=h * np.arange(n + 1),
        positions=np.array(xs),
        velocities=np.array(vs),
        step=h,
    )
    assert np.max(t_planarity_residual(tr.g, tr.t, [path])[0]) < 1e-6


def test_box_exit_truncates_and_flags(triples):
    tr = triples["real-liouville"]
    v_out = np.array([0.0, 3.0, 0.0, 0.0])  # races to the x2 boundary
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [v_out], 1e-3, 1000, tr.chart)
    assert path.exited_box
    assert len(path) < 1001
    lo, hi = np.array(tr.chart.box).T
    assert np.all((path.positions >= lo) & (path.positions <= hi))


def test_bundle_matches_single_integration(triples):
    tr = triples["real-liouville"]
    bundle = integrate_geodesic_bundle(
        spray(tr.g), np.stack([P0, P0 + 0.05]), np.stack([V0, V0]), 1e-3, 50, tr.chart
    )
    (single,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 50, tr.chart)
    assert np.allclose(bundle[0].positions, single.positions)
    assert np.allclose(bundle[0].velocities, single.velocities)


def test_bundle_stops_each_row_where_it_leaves_the_box():
    # straight lines of a flat metric: a row inside throughout, one leaving
    # the box, and one whose position turns NaN, which counts as outside
    chart = Chart(((0.0, 1.0),) * 4)
    p0 = np.full((3, 4), 0.5)
    v0 = np.array([[0.1, 0.0, 0.0, 0.0], [3.0, 0.0, 1.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    n = 400
    free = integrate_geodesic_bundle(spray(flat_metric()), p0, v0, 1e-3, n)
    boxed = integrate_geodesic_bundle(spray(flat_metric()), p0, v0, 1e-3, n, chart)
    lo, hi = np.array(chart.box).T
    for row, path in zip(free, boxed):
        outside = [s for s in range(1, n + 1)
                   if not np.all((row.positions[s] >= lo) & (row.positions[s] <= hi))]
        expected = outside[0] if outside else n + 1
        assert len(path) == expected
        assert path.exited_box == bool(outside)
        assert np.array_equal(path.positions, row.positions[:expected])
    assert [len(p) for p in boxed] == [n + 1, 167, 1]


def test_degenerate_velocity_rejected():
    good = integrate_geodesic_bundle(spray(flat_metric()), [P0, P0], [V0, 2.0 * V0], 1e-3, 10)
    (path,) = integrate_geodesic_bundle(spray(flat_metric()), [P0], [np.full(4, 1e-11)], 1e-3, 10)
    for paths in ([path], [good[0], good[1], path]):  # one such curve fails the call
        with pytest.raises(DegenerateVelocityError):
            t_planarity_residual(flat_metric(), flat_metric(), paths)


def test_short_curve_rejected_as_a_domain_error():
    # a curve that left its chart after 3 samples has no stencil point
    good = integrate_geodesic_bundle(spray(flat_metric()), [P0, P0], [V0, 2.0 * V0], 1e-3, 10)
    (path,) = integrate_geodesic_bundle(spray(flat_metric()), [P0], [V0], 1e-3, 2)
    for paths in ([path], [good[0], path, good[1]]):  # one such curve fails the call
        with pytest.raises(ShortCurveError, match="3 samples"):
            t_planarity_residual(flat_metric(), flat_metric(), paths)
    # both fail a result closed instead of escaping the suite runner
    assert issubclass(ShortCurveError, DOMAIN_ERRORS)
    assert issubclass(DegenerateVelocityError, DOMAIN_ERRORS)


@pytest.mark.parametrize("seed", [0, 3])
def test_batched_readers_equal_one_curve_calls(triples, seed):
    # the suite's three geodesics and three controls, read in one call and one
    # curve at a time: every array has the same bits
    for name, tr in {**triples, **{p: preset_triple(p) for p in PRESETS}}.items():
        p0, v0, normals = geodesic_starts(tr.chart, seed)
        ghat = partial(pj.companion_values, tr.g, tr.a)
        paths = integrate_geodesic_bundle(companion_spray(tr), p0, v0, GEODESIC_STEP,
                                          GEODESIC_STEPS, tr.chart)
        # the values the energy reads are those of the companion metric's jets
        x = paths[0].positions[::100]
        jets = pj.companion_metric(tr.g, tr.a).jets(x, order=1).coeffs[0]
        assert ghat(x) == pytest.approx(np.moveaxis(jets, -1, 0), rel=1e-12), name
        paths += suites._control_curves(tr.g, tr.t, p0, v0, normals, GEODESIC_STEP, 40)
        for got, path in zip(kinetic_energy(ghat, paths), paths, strict=True):
            assert np.array_equal(got, kinetic_energy(ghat, [path])[0]), name
        for got, path in zip(t_planarity_residual(tr.g, tr.t, paths), paths, strict=True):
            (one,) = t_planarity_residual(tr.g, tr.t, [path])
            assert np.array_equal(got, one), name


def test_csv_export(tmp_path, triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 20, tr.chart)
    (res,) = t_planarity_residual(tr.g, tr.t, [path])
    out = tmp_path / "curve.csv"
    export_curve_csv(path, out, residuals=res)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "x3", "x4", "v1", "v2", "v3", "v4", "residual"]
    assert len(rows) == len(path) + 1
    assert rows[1][-1] == ""  # boundary samples carry no stencil residual
    assert rows[3][-1] != ""


def test_planarity_keeps_samples(triples):
    tr = triples["real-liouville"]
    (path,) = integrate_geodesic_bundle(spray(tr.g), [P0], [V0], 1e-3, 20, tr.chart)
    (res,) = t_planarity_residual(tr.g, tr.t, [path])
    assert res.shape == (len(path) - 4,)
    # for a geodesic of g itself the covariant acceleration is tiny
    v, xs = path.velocities, path.positions[2:-2]
    acc = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * path.step)
    cov = acc + np.einsum("nkij,ni,nj->nk", christoffel_batch(tr.g, xs), v[2:-2], v[2:-2])
    assert np.max(np.abs(cov)) < 1e-8


def _rk4_positions(spray_fn, x, v, h, n):
    """Classical fixed-step RK4 for x'' = -spray_fn(x, x'): positions (n + 1, m, 4)."""

    def f(x, v):
        return v, -spray_fn(x, v)

    out = [x]
    for _ in range(n):
        k1 = f(x, v)
        k2 = f(x + 0.5 * h * k1[0], v + 0.5 * h * k1[1])
        k3 = f(x + 0.5 * h * k2[0], v + 0.5 * h * k2[1])
        k4 = f(x + h * k3[0], v + h * k3[1])
        x = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out.append(x)
    return np.array(out)


def test_picard_matches_rk4_on_every_family(triples):
    # the geodesic check's companion curves over its 0.4 span, against RK4
    # at step 5e-3 on every fifth sample.  RK4's own O(h^4) error there is
    # ~1e-13, except on complex-liouville, where it is ~5e-10: there the
    # bound adds twice RK4's step-doubling estimate |x_h - x_2h| / 15
    for name, tr in triples.items():
        ghat = companion_spray(tr)
        p0, v0, _ = geodesic_starts(tr.chart, 0)
        paths = integrate_geodesic_bundle(ghat, p0, v0, 1e-3, 400, tr.chart)
        picard = np.stack([q.positions[::5] for q in paths], axis=1)
        rk4 = _rk4_positions(ghat, p0, v0, 5e-3, 80)
        bound = 1e-12
        if name == "complex-liouville":
            coarse = _rk4_positions(ghat, p0, v0, 1e-2, 40)
            bound += 2.0 * np.max(np.abs(rk4[::2] - coarse)) / 15.0
        assert np.max(np.abs(picard - rk4)) <= bound, name


def _planarity_lstsq_loop(g, t, path):
    """Planarity residuals with one lstsq per sample: the reference."""
    v = path.velocities
    acc = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * path.step)
    xs, vels = path.positions[2:-2], v[2:-2]
    cov = acc + np.einsum("nkij,ni,nj->nk", christoffel_batch(g, xs), vels, vels)
    tv = np.einsum("nki,ni->nk", t.batch_values(xs), vels)
    out = np.empty(len(xs))
    for i in range(len(xs)):
        basis = np.stack([vels[i], tv[i]], axis=1)
        coef, *_ = np.linalg.lstsq(basis, cov[i], rcond=None)
        out[i] = np.linalg.norm(cov[i] - basis @ coef) / max(vels[i] @ vels[i], 1.0)
    return out


def test_planarity_projection_matches_lstsq_loop(triples):
    # the first companion geodesic of each family's geodesic check
    for name, tr in triples.items():
        p0, v0, _ = geodesic_starts(tr.chart, 0)
        (path,) = integrate_geodesic_bundle(companion_spray(tr), p0[:1], v0[:1],
                                            1e-3, 400, tr.chart)
        (got,) = t_planarity_residual(tr.g, tr.t, [path])
        assert np.max(np.abs(got - _planarity_lstsq_loop(tr.g, tr.t, path))) < 1e-12, name
    # velocities on and near an eigenline of T, where T = diag(1, 1, -1, -1):
    # on it T v = v exactly and span{v, Tv} is a line, which the reference
    # finds by its rank cutoff; near it the span is a plane
    tr = triples["dim-d1"]
    p = tr.chart.center()
    e, u = np.array([0.3, 0.15, 0.0, 0.0]), np.array([0.0, 0.0, 0.2, 0.1])
    for delta in (0.0, 1e-12, 1e-9, 1e-6):
        vel = e + delta * u
        times = 1e-3 * np.arange(9)
        line = GeodesicPath(times, p + np.outer(times, vel), np.tile(vel, (9, 1)), 1e-3)
        (got,) = t_planarity_residual(tr.g, tr.t, [line])
        want = _planarity_lstsq_loop(tr.g, tr.t, line)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(want)), delta
    # with g11 = exp(x2) the spray along the eigenline has a part in the
    # eigenplane off the line, which only the rank cutoff keeps in the residual
    # (on this line the rounding left in Tv - (q1 . Tv) q1 does not point along it)
    bent = TensorField((0, 2), lambda x1, x2, x3, x4: objarray(
        [[x2.exp(), 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]))
    for delta in (0.0, 1e-3):
        vel = np.array([0.3, 0.2, 0.0, 0.0]) + delta * u
        line = GeodesicPath(times, p + np.outer(times, vel), np.tile(vel, (9, 1)), 1e-3)
        (got,) = t_planarity_residual(bent, tr.t, [line])
        want = _planarity_lstsq_loop(bent, tr.t, line)
        assert np.min(want) > 1e-3
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(want)), delta


@pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
def test_row_leaving_into_undefined_metric_stops_at_its_exit(triples):
    # the second row leaves complex-liouville's box near t = 0.91, and the
    # companion metric is singular shortly past the exit: the window holding
    # the exit cannot be integrated, so the row goes on alone in halved
    # windows and stops at sample 911, where RK4 stops it too
    tr = triples["complex-liouville"]
    ghat = companion_spray(tr)
    p0, v0, _ = geodesic_starts(tr.chart, 3)
    paths = integrate_geodesic_bundle(ghat, p0, v0, 1e-3, 1000, tr.chart)
    assert [len(q) for q in paths] == [1001, 911, 1001]
    assert [q.exited_box for q in paths] == [False, True, False]
    lo, hi = np.array(tr.chart.box).T
    assert np.all((paths[1].positions >= lo) & (paths[1].positions <= hi))
    # the first row is integrated alone from the window the second fails in
    (alone,) = integrate_geodesic_bundle(ghat, p0[:1], v0[:1], 1e-3, 1000)
    assert np.array_equal(alone.positions, paths[0].positions)


def test_sweeps_that_never_settle_raise():
    rng = np.random.default_rng(0)
    with pytest.raises(GeodesicConvergenceError):
        integrate_geodesic_bundle(lambda x, v: rng.normal(size=(len(x), 4)), [P0], [V0], 1e-3, 100)
