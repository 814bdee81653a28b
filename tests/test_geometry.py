"""A Geometry evaluates each quantity once over all its sample points.

Every batch is one stacked Jet of coefficient shape (size, *entry_shape,
points); column i is, bit for bit, the jet of a one-point Geometry at
point i, and each field is evaluated once per Geometry, whatever its
number of points.  Every batch holds the degree <= 2 coefficients of the
fields' jets.
"""

import dataclasses
import sys

import numpy as np
import pytest

from pklab import geometry, linalg
from pklab.catalog import FAMILIES, PRESETS, default_triple, preset_triple
from pklab.fields import TensorField
from pklab.geometry import Geometry
from pklab.jets import Jet

NAMES = sorted(geometry._BUILDERS)
# the entry shape of each batch: a scalar, the pair (mu1, mu2), the rows
# V1, V2, TV1, TV2 of the Killing fields, Christoffel symbols (k, i, j)
ENTRY_SHAPES = {"det_a": (), "psi": (), "mu": (2,), "killing": (4, 4),
                "gamma": (4, 4, 4), "ghat_gamma": (4, 4, 4)}
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
        assert isinstance(x, Jet) and x.space.order == geometry.ORDER, name
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
    tr = triples["complex-liouville"]
    pts = tr.sample_points(3)
    geo = Geometry(tr, pts)
    for name, field in (("g", tr.g), ("t", tr.t), ("a", tr.a)):
        x, y = geo.batch(name), field.jets(pts)
        assert x.space.order == 2 and np.array_equal(x.coeffs, y.coeffs[:15])


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
    # the only jet matrices inverted are g and A: every family states T in
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
        assert sorted(map(id, inverted)) == sorted(map(id, (geo.batch("g"), geo.batch("a"))))
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
