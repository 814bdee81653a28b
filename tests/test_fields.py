import numpy as np
import pytest

from conftest import fd_tensor_partials
from pklab.fields import (
    Chart,
    DegenerateMetricError,
    MalformedFormError,
    ScalarField,
    TensorField,
    _halton,
    exterior_derivative_2form,
    gradient,
    lie_bracket,
    lie_derivative_metric,
    metric_inverse,
    nijenhuis,
    objarray,
    tensor_values_and_partials,
)
from pklab.geometry import Geometry

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]


def vp(field, point):
    """Component values and first partials, the input of the derivative helpers."""
    return tensor_values_and_partials(field, point)


def flat_metric():
    return TensorField((0, 2), lambda *c: objarray(FLAT), name="flat")


class TestChart:
    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            Chart(((1.0, 1.0),) * 4)
        with pytest.raises(ValueError):
            Chart(((0.0, np.inf),) * 4)

    def test_sampling_is_deterministic_and_inside(self):
        chart = Chart(((0.0, 1.0), (2.0, 3.0), (-1.0, 0.0), (5.0, 6.0)))
        a = chart.sample_points(50, seed=3)
        b = chart.sample_points(50, seed=3)
        c = chart.sample_points(50, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert all(chart.contains(p) for p in a)

    def test_contains(self):
        chart = Chart(((0.0, 1.0),) * 4)
        assert chart.contains([0.5, 0.5, 0.5, 0.5])
        assert not chart.contains([1.5, 0.5, 0.5, 0.5])

    def test_halton_matches_the_digit_loop_bit_for_bit(self):
        # the radical inverse digit by digit, one point at a time: the
        # vectorized sampler must reproduce its bits, so charts sample the
        # same points and certificates and reports do not move
        def radical_inverse(n, base):
            out = np.empty(n)
            for k in range(n):
                i, f, x = k + 1, 1.0, 0.0
                while i > 0:
                    f /= base
                    x += f * (i % base)
                    i //= base
                out[k] = x
            return out

        for base in (2, 3, 5, 7):
            assert np.array_equal(_halton(3000, base), radical_inverse(3000, base))


def test_metric_inverse_flat_block_structure():
    g = flat_metric()
    inv = metric_inverse(g.values([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(inv, np.array(FLAT))


def test_metric_inverse_roundtrip_on_curved_metric(triples):
    tr = triples["real-liouville"]
    for p in tr.sample_points(5):
        gm = tr.g.values(p)
        assert np.max(np.abs(gm @ metric_inverse(tr.g.values(p)) - np.eye(4))) < 1e-10


def test_metric_inverse_singular_reports_det():
    rows = [[1.0, 0, 0, 0], [0, 0.0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    g = TensorField((0, 2), lambda *c: objarray(rows))
    with pytest.raises(DegenerateMetricError, match="determinant"):
        metric_inverse(g.values([0, 0, 0, 0]))


def test_gradient_flat_coordinate_function():
    # g = 2 dx1 dx3 + 2 dx2 dx4: grad x1 = g^{i1} = e_3
    g = flat_metric()
    f = ScalarField(lambda x1, x2, x3, x4: x1)
    assert np.allclose(gradient(g, f, [0.3, 0.1, 0.0, 0.7]), [0, 0, 1, 0])
    const = ScalarField(lambda *c: 5.0 + 0.0 * c[0])
    assert np.allclose(gradient(g, const, [0.3, 0.1, 0.0, 0.7]), 0.0)


def test_gradient_duality(triples):
    # g(grad f, X) = X(f) for arbitrary X
    tr = triples["real-liouville"]
    f = ScalarField(lambda x1, x2, x3, x4: x1 * x2 + (x3 * x3 + 1.0).log())
    rng = np.random.default_rng(0)
    for p in tr.sample_points(4):
        gm = tr.g.values(p)
        gf = gradient(tr.g, f, p)
        x = rng.normal(size=4)
        assert gf @ gm @ x == pytest.approx(f.gradient_covector(p) @ x, rel=1e-9, abs=1e-9)


def test_raise_lower_roundtrip(triples):
    tr = triples["complex-liouville"]
    rng = np.random.default_rng(1)
    for p in tr.sample_points(4):
        gm = tr.g.values(p)
        ginv = metric_inverse(gm)
        v = rng.normal(size=4)
        assert np.max(np.abs(ginv @ (gm @ v) - v)) < 1e-10


def test_lie_derivative_coordinate_killing_field(triples):
    # the real Liouville metric has no x3 dependence, so d_3 is Killing
    tr = triples["real-liouville"]
    x3 = TensorField((1, 0), lambda *c: objarray([0.0, 0.0, 1.0, 0.0]))
    for p in tr.sample_points(3):
        assert np.max(np.abs(lie_derivative_metric(*vp(tr.g, p), *vp(x3, p)))) < 1e-13


def test_lie_derivative_gradient_not_killing(triples):
    tr = triples["real-liouville"]
    geo = Geometry(tr, tr.sample_points(3))
    # V1 = grad mu1 = grad(rho + sigma) is not Killing; T V1 is
    vals = []
    for i in range(3):
        kv, kp = geo.vp(i, "killing")
        vals.append(np.max(np.abs(lie_derivative_metric(*geo.vp(i, "g"), kv[0], kp[0]))))
    assert min(vals) > 1e-3


def test_lie_bracket_of_coordinate_fields_vanishes():
    e1 = TensorField((1, 0), lambda *c: objarray([1.0, 0.0, 0.0, 0.0]))
    e2 = TensorField((1, 0), lambda *c: objarray([0.0, 1.0, 0.0, 0.0]))
    p = [0.1, 0.2, 0.3, 0.4]
    assert np.allclose(lie_bracket(*vp(e1, p), *vp(e2, p)), 0.0)


def test_lie_bracket_hand_example():
    # [x2 d1, d2] = -d1
    x = TensorField((1, 0), lambda x1, x2, x3, x4: objarray([x2, 0.0, 0.0, 0.0]))
    y = TensorField((1, 0), lambda *c: objarray([0.0, 1.0, 0.0, 0.0]))
    p = [0.5, 1.5, 0.0, 0.0]
    br = lie_bracket(*vp(x, p), *vp(y, p))
    assert np.allclose(br, [-1.0, 0.0, 0.0, 0.0])


class TestExteriorDerivative:
    def test_constant_form_closed(self):
        rows = [[0.0, 1.0, 0, 0], [-1.0, 0, 0, 0], [0, 0, 0, 2.0], [0, 0, -2.0, 0]]
        w = TensorField((0, 2), lambda *c: objarray(rows))
        assert np.max(np.abs(exterior_derivative_2form(*vp(w, [1, 2, 3, 4])))) == 0.0

    def test_coefficient_depending_on_its_own_plane_is_closed(self):
        # w = x1 dx1 ^ dx2: the cyclic sum cancels identically
        def wfn(x1, x2, x3, x4):
            z = 0.0
            return objarray([[z, x1, z, z], [-x1, z, z, z], [z, z, z, z], [z, z, z, z]])

        w = TensorField((0, 2), wfn)
        assert np.max(np.abs(exterior_derivative_2form(*vp(w, [1.5, 2, 3, 4])))) < 1e-14

    def test_nonclosed_form_detected(self):
        # w = x3 dx1 ^ dx2: (dw)_{312} = 1
        def wfn(x1, x2, x3, x4):
            z = 0.0
            return objarray([[z, x3, z, z], [-x3, z, z, z], [z, z, z, z], [z, z, z, z]])

        dw = exterior_derivative_2form(*vp(TensorField((0, 2), wfn), [1, 2, 0.5, 4]))
        assert dw[2, 0, 1] == pytest.approx(1.0)
        assert dw[0, 1, 2] == pytest.approx(1.0)
        assert dw[1, 0, 2] == pytest.approx(-1.0)

    def test_malformed_input_rejected(self):
        rows = [[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        w = TensorField((0, 2), lambda *c: objarray(rows))
        with pytest.raises(MalformedFormError):
            exterior_derivative_2form(*vp(w, [0, 0, 0, 0]))


class TestNijenhuis:
    def test_constant_endomorphism(self):
        t = TensorField((1, 1), lambda *c: objarray(np.diag([1.0, 1.0, -1.0, -1.0]).tolist()))
        assert np.max(np.abs(nijenhuis(*vp(t, [1, 2, 3, 4])))) == 0.0

    def test_perturbed_structure_detected(self, triples):
        tr = triples["dim-d2-4"]

        def bad(*coords):
            arr = tr.t.components(coords)
            arr = arr.copy()
            arr[0, 1] = arr[0, 1] + 0.1 * coords[0] * coords[1]
            return arr

        t_bad = TensorField((1, 1), bad)
        p = tr.sample_points(1)[0]
        assert np.max(np.abs(nijenhuis(*vp(t_bad, p)))) > 1e-4
        assert np.max(np.abs(nijenhuis(*vp(tr.t, p)))) < 1e-12


def test_batch_values_match_pointwise(triples):
    tr = triples["dim-d1"]
    pts = tr.sample_points(5)
    batch = tr.g.batch_values(pts)
    for i, p in enumerate(pts):
        assert np.allclose(batch[i], tr.g.values(p), atol=1e-13)


def test_batch_duals_match_fd(triples):
    tr = triples["dim-d2-1"]
    pts = tr.sample_points(3)
    vals, grads = tr.g.batch_duals(pts)
    for i, p in enumerate(pts):
        fd = fd_tensor_partials(tr.g, p)
        assert np.allclose(grads[i], fd, rtol=1e-6, atol=1e-8)


def test_component_partials_match_fd_many_points(triples):
    # jet-carried first partials of every metric and endomorphism
    # component agree with central differences at 50 points per field
    for name in ("real-liouville", "dim-d1"):
        tr = triples[name]
        for field in (tr.g, tr.t, tr.a):
            for p in tr.sample_points(50, seed=9):
                _, parts = tensor_values_and_partials(field, p)
                fd = fd_tensor_partials(field, p)
                scale = max(1.0, np.max(np.abs(parts)))
                assert np.max(np.abs(parts - fd)) / scale < 1e-6, (name, field.name)
