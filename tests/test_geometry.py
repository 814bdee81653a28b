"""A Geometry evaluates each quantity once over all its sample points.

Every batch is one stacked Jet of coefficient shape (size, *entry_shape,
points); column i is, bit for bit, the jet of a one-point Geometry at
point i, and each field is evaluated once per Geometry, whatever its
number of points.  Each batch holds the coefficients of the degrees its
readers need: g, A and what the curvature and the Hessians of psi and mu
are built from through degree 2, every other quantity through degree 1.
"""

import dataclasses
import sys

import numpy as np
import pytest

from pklab import geometry, linalg
from pklab.catalog import FAMILIES, PRESETS, default_triple, preset_triple
from pklab.fields import TensorField, metric_inverse_jets
from pklab.geometry import Geometry, companion_inverse_components, weighted_sigma_components
from pklab.jets import Jet

NAMES = sorted(geometry._BUILDERS)
# the entry shape of each batch: a scalar, the pair (mu1, mu2), the rows
# V1, V2, TV1, TV2 of the Killing fields, Christoffel symbols (k, i, j)
ENTRY_SHAPES = {"det_a": (), "psi": (), "mu": (2,), "killing": (4, 4),
                "gamma": (4, 4, 4), "ghat_gamma": (4, 4, 4)}
# the jet order of each batch: degree 2 where a Hessian or a connection's
# partials are read, degree 1 where only values and first partials are
ORDERS = {"g": 2, "a": 2, "ainv": 2, "det_a": 2, "ghat": 2, "mu": 2, "psi": 2,
          "t": 1, "ginv": 1, "gamma": 1, "ghat_gamma": 1, "killing": 1, "sigma": 1,
          "a_sigma": 1}
TRIPLES = [("family", f) for f in sorted(FAMILIES)] + [("preset", p) for p in sorted(PRESETS)]


def _build(kind, name):
    return default_triple(name) if kind == "family" else preset_triple(name)


def _bits(x, i):
    """Coefficient bits of column i of a stacked batch."""
    return np.ascontiguousarray(x.coeffs[..., i]).tobytes()


@pytest.mark.parametrize("kind, triple_name", TRIPLES)
def test_batch_columns_equal_the_one_point_geometry(kind, triple_name):
    tr = _build(kind, triple_name)
    pts = tr.sample_points(3, seed=5)
    geo = Geometry(tr, pts)
    for name in NAMES:  # one Jet per quantity: (size, *entry_shape, points)
        x = geo.batch(name)
        assert isinstance(x, Jet) and x.space.order == ORDERS[name], name
        assert x.coeffs.shape == (x.space.size, *ENTRY_SHAPES.get(name, (4, 4)), 3), name
    for i, p in enumerate(pts):
        alone = Geometry.at(p, tr.g, tr.t, tr.a)
        for name in NAMES:
            assert _bits(geo.batch(name), i) == _bits(alone.batch(name), 0), (triple_name, name, i)
        for metric in ("g", "ghat"):
            assert np.array_equal(geo.ricci(metric)[..., i], alone.ricci(metric)[..., 0])


def test_each_field_is_evaluated_once_per_geometry(triples, monkeypatch):
    calls = []
    components = TensorField.components

    def counted(field, coords):
        calls.append(field)
        return components(field, coords)

    monkeypatch.setattr(TensorField, "components", counted)
    for n in (1, 7):
        tr = triples["complex-liouville"]
        geo = Geometry(tr, tr.sample_points(n))
        for name in NAMES:
            geo.batch(name)
        geo.ricci("ghat")
        assert len(calls) == 3 and {id(f) for f in calls} == {id(tr.g), id(tr.t), id(tr.a)}, n
        calls.clear()


def test_constant_components_read_as_constants_at_every_point(triples):
    tr = triples["dim-d2-2"]
    constant = np.diag([2.0, 1.0, 3.0, 0.5])
    a = TensorField((1, 1), lambda *c: constant.astype(object))
    geo = Geometry(dataclasses.replace(tr, a=a), tr.sample_points(3))
    for name in ("a", "mu", "det_a", "psi"):  # constant jets: a value and zero partials
        x = geo.batch(name)
        assert isinstance(x, Jet) and x.coeffs.shape[-1] == 3, name
        assert not np.any(x.coeffs[1:]), name
    assert np.array_equal(geo.batch("a").coeffs[0], np.repeat(constant[..., None], 3, axis=-1))
    for i in range(3):
        assert np.array_equal(geo.values("a")[..., i], constant)
        assert geo.values("psi")[i] == pytest.approx(-0.25 * np.log(3.0))
    assert not np.any(geo.vp("a")[1])
    assert not np.any(geo.vp("psi")[1])


def test_batches_are_the_field_jets_cut_to_degree_two(triples):
    # g and A: their order-3 jets (the rules embed profile derivatives) cut to 2
    tr = triples["complex-liouville"]
    pts = tr.sample_points(3)
    geo = Geometry(tr, pts)
    for name, field in (("g", tr.g), ("a", tr.a)):
        x, y = geo.batch(name), field.jets(pts, order=3)
        assert x.space.order == 2 and x.coeffs.tobytes() == y.coeffs[:15].tobytes()


def test_t_batch_is_its_order_two_jets_cut_to_degree_one(triples):
    tr = triples["complex-liouville"]
    pts = tr.sample_points(3)
    x, y = Geometry(tr, pts).batch("t"), tr.t.jets(pts, order=2)
    assert x.space.order == 1 and x.coeffs.tobytes() == y.coeffs[:5].tobytes()


def _symbols_at_metric_order(g, ginv):
    """The Christoffel symbols at g's own order, top degree from zeroed
    partials: the formula every order-2 batch of symbols was built with."""
    d = np.moveaxis(np.stack([g.derivative(l).coeffs for l in range(4)], axis=3), 0, 3)
    iu, ju = np.triu_indices(4)
    c = d[ju, :, iu] + d[iu, :, ju] - d[iu, ju, :]
    half = (linalg.mmul(ginv, Jet(g.space, np.moveaxis(c, (2, 1), (0, 1)))) * 0.5).coeffs
    gamma = np.empty(half.shape[:2] + (4, 4) + half.shape[3:])
    gamma[:, :, iu, ju] = half
    gamma[:, :, ju, iu] = half
    return Jet(g.space, gamma)


def _at_order_two(geo):
    """Each order-1 quantity built from order-2 jets throughout."""
    g, a, mu = geo.batch("g"), geo.batch("a"), geo.batch("mu")
    ginv = metric_inverse_jets(g)
    dmu = Jet(mu.space, np.stack([mu.derivative(l).coeffs for l in range(4)], 1))
    t = geo.t.jets(geo.points, order=3).truncated(2)
    v = linalg.mmul(ginv, dmu)
    sigma = weighted_sigma_components(g, ginv)
    ghat_inv = companion_inverse_components(ginv, a, geo.batch("det_a"))
    return {
        "t": t,
        "ginv": ginv,
        "gamma": _symbols_at_metric_order(g, ginv),
        "ghat_gamma": _symbols_at_metric_order(geo.batch("ghat"), ghat_inv),
        "killing": Jet(v.space, np.swapaxes(
            np.concatenate([v.coeffs, linalg.mmul(t, v).coeffs], axis=2), 1, 2)),
        "sigma": sigma,
        "a_sigma": linalg.mmul(a, sigma),
    }


@pytest.mark.parametrize("kind, triple_name", TRIPLES)
def test_order_one_batches_are_the_order_two_formulas_cut(kind, triple_name):
    # degree <= 1 coefficients of a table product sum the same pairs in the
    # same order at either order, so cutting first keeps every bit (the sign
    # of a zero too: tobytes tells -0.0 from +0.0)
    tr = _build(kind, triple_name)
    geo = Geometry(tr, tr.sample_points(5, seed=2))
    refs = _at_order_two(geo)
    assert set(refs) == {name for name, order in ORDERS.items() if order == 1}
    for name, ref in refs.items():
        x = geo.batch(name)
        assert x.space.order == 1 and x.coeffs.tobytes() == ref.truncated(1).coeffs.tobytes(), name


def test_order_one_batches_take_only_order_one_products(triples, einstein_preset, monkeypatch):
    # a machine-independent guard: once g, A and their order-2 quantities
    # are built, building the order-1 batches multiplies no order-2 jet
    orders = []
    mul = Jet.__mul__

    def counted(self, other):
        orders.append(self.space.order)
        return mul(self, other)

    for tr in (triples["real-liouville"], triples["complex-liouville"], einstein_preset):
        geo = Geometry(tr, tr.sample_points(4))
        for name in ("g", "a", "t", "ainv", "det_a", "ghat", "mu"):
            geo.batch(name)
        with monkeypatch.context() as m:
            m.setattr(Jet, "__mul__", counted)
            m.setattr(Jet, "__rmul__", counted)
            for name in ("ginv", "gamma", "ghat_gamma", "killing", "sigma", "a_sigma"):
                geo.batch(name)
        assert orders and set(orders) == {1}
        orders.clear()


def test_det_a_guard_fails_the_whole_batch(triples):
    # det A <= 0 at one point: no point of the batch has a companion metric
    tr = triples["dim-d2-2"]
    pts = tr.sample_points(3)

    def a_comps(*c):
        # det A = (x1 - x1 of point 1)^2: zero at point 1, positive at the others
        out = np.eye(4).astype(object)
        out[0, 0] = (c[0] - pts[1, 0]) * (c[0] - pts[1, 0])
        return out

    geo = Geometry(dataclasses.replace(tr, a=TensorField((1, 1), a_comps)), pts)
    for _ in range(2):  # kept, and raised again on every read
        with pytest.raises(geometry.DegenerateMetricError, match="det A"):
            geo.batch("ghat")
    # A is singular at point 1, so its inverse, read alone, fails every point too
    with pytest.raises(ZeroDivisionError):
        geo.values("ainv")


def test_g_and_a_are_inverted_once_per_geometry(triples, einstein_preset, monkeypatch):
    # the only jet matrices inverted are g, cut to degree 1 (its inverse is
    # read as values and first partials), and A: every family states T in
    # closed form, so none is inverted for T
    inverted = []
    minv = linalg.minv

    def counted(m):
        if isinstance(m, Jet):
            inverted.append(m)
        return minv(m)

    for module in [m for name, m in sys.modules.items() if name.startswith("pklab")]:
        if getattr(module, "minv", None) is minv:
            monkeypatch.setattr(module, "minv", counted)
    for tr in (triples["real-liouville"], triples["dim-d2-2"], einstein_preset):
        geo = Geometry(tr, tr.sample_points(4))
        for q in NAMES:
            geo.batch(q)
        geo.values("ginv"), geo.lam(), geo.ricci("ghat")
        g, a = geo.batch("g"), geo.batch("a")
        assert len(inverted) == 2 and sum(m is a for m in inverted) == 1
        cut = next(m for m in inverted if m is not a)
        assert cut.space.order == 1 and cut.coeffs.tobytes() == g.truncated(1).coeffs.tobytes()
        inverted.clear()


def test_jet_matrix_algebra_takes_one_table_product_per_operation(einstein_preset, monkeypatch):
    # a machine-independent guard: stacked matrix products, inverses and
    # scalings take 210 jet products here, where one product per entry took 1,342
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    geo = Geometry(einstein_preset, einstein_preset.sample_points(4))
    for name in NAMES:
        geo.batch(name)
    assert len(calls) <= 240
