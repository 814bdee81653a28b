import numpy as np
import pytest

from conftest import fd_tensor_partials
from pklab import projective as pj
from pklab.catalog import FAMILIES, PRESETS, default_triple, preset_triple
from pklab.curvature import (
    christoffel_batch,
    christoffel_jets,
    covariant_derivative_endo,
    einstein_residual,
    geodesic_spray,
    scalar_hessian,
)
from pklab.fields import (
    DegenerateMetricError,
    ScalarField,
    TensorField,
    metric_inverse_jets,
    objarray,
    tensor_values_and_partials,
)
from pklab.geometry import Geometry
from pklab.jets import Jet, jsin, seed_point
from pklab.linalg import minv

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]


def flat_metric(scale=1.0):
    rows = [[scale * v for v in row] for row in FLAT]
    return TensorField((0, 2), lambda *c: objarray(rows))


def sphere_block_metric():
    """diag(1, sin(x1)^2, 1, 1): a unit 2-sphere times a flat factor."""

    def fn(x1, x2, x3, x4):
        s = jsin(x1)
        return objarray(
            [[1.0, 0.0, 0.0, 0.0], [0.0, s * s, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )

    return TensorField((0, 2), fn)


P = [0.7, 0.3, 0.1, -0.2]


def christoffel(g, p):
    return Geometry.at(p, g).gamma()[..., 0]


def riemann(g, p):
    return Geometry.at(p, g).riemann()[..., 0]


def ricci(g, p):
    return Geometry.at(p, g).ricci()[..., 0]


def test_flat_metric_has_no_connection_or_curvature():
    g = flat_metric()
    assert np.max(np.abs(christoffel(g, P))) == 0.0
    assert np.max(np.abs(riemann(g, P))) == 0.0
    assert np.max(np.abs(ricci(g, P))) == 0.0


def test_constant_rescaling_leaves_christoffel_invariant(triples):
    tr = triples["real-liouville"]

    def scaled(*coords):
        arr = tr.g.components(coords).copy()
        for idx in np.ndindex(arr.shape):
            arr[idx] = arr[idx] * 2.5
        return arr

    g2 = TensorField((0, 2), scaled)
    p = tr.sample_points(1)[0]
    assert np.allclose(christoffel(g2, p), christoffel(tr.g, p), atol=1e-12)


def test_sphere_block_curvature_known_values():
    g = sphere_block_metric()
    r = riemann(g, P)
    assert r[0, 1, 0, 1] == pytest.approx(np.sin(P[0]) ** 2, rel=1e-12)
    ric = ricci(g, P)
    assert ric[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert ric[1, 1] == pytest.approx(np.sin(P[0]) ** 2, rel=1e-12)
    assert abs(ric[2, 2]) < 1e-13 and abs(ric[3, 3]) < 1e-13


def test_christoffel_against_finite_differences(triples):
    tr = triples["real-liouville"]
    p = tr.sample_points(2)[1]
    gm = tr.g.values(p)
    ginv = np.linalg.inv(gm)
    dg = fd_tensor_partials(tr.g, p)  # dg[i, j, k] = d_k g_ij
    expected = np.empty((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                expected[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                    for l in range(4)
                )
    assert np.allclose(christoffel(tr.g, p), expected, rtol=1e-6, atol=1e-7)


def test_riemann_against_finite_differences_of_christoffel(triples):
    tr = triples["dim-d2-1"]
    p = tr.sample_points(2)[0]
    gv = christoffel(tr.g, p)
    h = 1e-4
    dgamma = np.empty((4, 4, 4, 4))
    for m in range(4):
        e = np.zeros(4)
        e[m] = 1.0
        dgamma[..., m] = (
            -christoffel(tr.g, p + 2 * h * e)
            + 8 * christoffel(tr.g, p + h * e)
            - 8 * christoffel(tr.g, p - h * e)
            + christoffel(tr.g, p - 2 * h * e)
        ) / (12 * h)
    expected = dgamma.transpose(0, 1, 3, 2) - dgamma
    expected += np.einsum("kir,rlj->klij", gv, gv)
    expected -= np.einsum("kjr,rli->klij", gv, gv)
    assert np.allclose(riemann(tr.g, p), expected, rtol=1e-6, atol=1e-7)


def metricity_residual(gamma: np.ndarray, gv: np.ndarray, gp: np.ndarray) -> float:
    """max |nabla_k g_ij| from the symbols and the metric's values/partials:
    the oracle of the symbols."""
    nabla = np.transpose(gp, (2, 0, 1)).copy()
    nabla -= np.einsum("lki,lj->kij", gamma, gv)
    nabla -= np.einsum("lkj,il->kij", gamma, gv)
    return float(np.max(np.abs(nabla)))


def test_metricity_and_torsion(triples):
    for name in ("real-liouville", "complex-liouville", "dim-d1"):
        tr = triples[name]
        for p in tr.sample_points(4):
            gamma = christoffel(tr.g, p)
            assert metricity_residual(gamma, *tensor_values_and_partials(tr.g, p)) < 1e-10
            gamma = christoffel(tr.g, p)
            assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-11


def test_first_bianchi_identity(triples):
    for name in ("real-liouville", "dim-d2-1", "complex-liouville"):
        tr = triples[name]
        for p in tr.sample_points(3):
            r = riemann(tr.g, p)
            cyc = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
            assert np.max(np.abs(cyc)) < 1e-10


def test_lowered_riemann_symmetries(triples):
    tr = triples["real-liouville"]
    p = tr.sample_points(1)[0]
    rl = np.einsum("km,mlij->klij", tr.g.values(p), riemann(tr.g, p))  # R_{klij}
    scale = max(1.0, np.max(np.abs(rl)))
    assert np.max(np.abs(rl + rl.transpose(0, 1, 3, 2))) / scale < 1e-10
    assert np.max(np.abs(rl + rl.transpose(1, 0, 2, 3))) / scale < 1e-10
    assert np.max(np.abs(rl - rl.transpose(2, 3, 0, 1))) / scale < 1e-10


def test_ricci_para_hermitian_on_catalog(triples):
    for tr in triples.values():
        for p in tr.sample_points(2):
            ric = ricci(tr.g, p)
            tm = tr.t.values(p)
            scale = max(1.0, np.max(np.abs(ric)))
            assert np.max(np.abs(tm.T @ ric @ tm + ric)) / scale < 1e-9


def test_einstein_residual_detector(einstein_preset):
    tr = einstein_preset
    p = tr.sample_points(2)[0]
    gm = tr.g.values(p)
    geo = Geometry.at(p, tr.g)
    assert np.max(np.abs(einstein_residual(geo, 1.0))) < 1e-8 * np.max(np.abs(gm))
    wrong = einstein_residual(geo, 2.0)[..., 0]
    assert np.max(np.abs(wrong + gm)) < 1e-8 * np.max(np.abs(gm))
    # Ric_ab / g_ab at the largest metric entry
    a, b = np.unravel_index(np.argmax(np.abs(gm)), gm.shape)
    assert geo.ricci()[a, b, 0] / gm[a, b] == pytest.approx(1.0, abs=1e-10)


def test_identity_endomorphism_is_parallel(triples):
    tr = triples["dim-d2-4"]
    eye = TensorField((1, 1), lambda *c: objarray(np.eye(4).tolist()))
    p = tr.sample_points(1)[0]
    nabla = covariant_derivative_endo(christoffel(tr.g, p), *tensor_values_and_partials(eye, p))
    assert np.max(np.abs(nabla)) < 1e-13


def test_parallel_transport_of_t(triples):
    for tr in triples.values():
        p = tr.sample_points(2)[1]
        geo = Geometry(tr, [p])
        assert np.max(np.abs(covariant_derivative_endo(geo.gamma(), *geo.vp("t")))) < 1e-9


def test_christoffel_batch_matches_pointwise(triples):
    tr = triples["dim-d2-4"]
    pts = tr.sample_points(4)
    batch = christoffel_batch(tr.g, pts)
    for i, p in enumerate(pts):
        assert np.allclose(batch[i], christoffel(tr.g, p), atol=1e-11)


def test_singular_metric_raises_a_domain_error_and_shape_errors_propagate():
    singular = np.diag([1.0, 1.0, -1.0, 0.0]).tolist()
    g = TensorField((0, 2), lambda *c: objarray(singular))
    with pytest.raises(ZeroDivisionError):
        christoffel_batch(g, np.zeros((3, 4)))
    with pytest.raises(np.linalg.LinAlgError):  # not square: a programming error
        minv(np.ones((3, 4)))


@pytest.mark.parametrize(
    "kind,name", [("family", f) for f in sorted(FAMILIES)] + [("preset", p) for p in sorted(PRESETS)]
)
def test_geodesic_spray_is_the_symbols_contracted_with_the_velocity(kind, name):
    # the reference is the Geometry's symbols of g and ghat, built from jets;
    # the sprays read batch_duals: of g for g's, of g and A for ghat's
    # (companion_spray, the chain rule on ghat's definition).  Relative to
    # max |G| |v|^2: on einstein-lambda1 the float path and the jets differ
    # by about 1e-13 of max |Ghat|, and S cancels below |Ghat| |v|^2
    tr = default_triple(name) if kind == "family" else preset_triple(name)
    pts = tr.sample_points(20)
    geo = Geometry(tr, pts)
    v = np.random.default_rng(7).normal(size=pts.shape)
    for metric, spray in (("g", geodesic_spray(tr.g, pts, v)),
                          ("ghat", pj.companion_spray(tr.g, tr.a, pts, v))):
        gamma = geo.gamma(metric)
        ref = np.einsum("kijn,ni,nj->nk", gamma, v, v)
        scale = np.abs(gamma).max(axis=(0, 1, 2)) * np.einsum("ni,ni->n", v, v)
        assert spray.shape == (20, 4)
        assert np.all(np.abs(spray - ref).max(axis=1) <= 1e-12 * scale), metric


def test_geodesic_spray_of_a_singular_metric_raises():
    singular = np.diag([1.0, 1.0, -1.0, 0.0]).tolist()
    g = TensorField((0, 2), lambda *c: objarray(singular))
    with pytest.raises(ZeroDivisionError):
        geodesic_spray(g, np.zeros((3, 4)), np.ones((3, 4)))


def test_companion_spray_fails_closed():
    # det A <= 0 (here at one point of three) and infinite det A, where
    # ghat's values are zeros, are degenerate companions; a singular g
    # cannot be solved with
    pts, vel = np.array([[0.5, 0, 0, 0], [-0.5, 0, 0, 0], [0.2, 0, 0, 0]]), np.ones((3, 4))
    eye = TensorField((1, 1), lambda *c: objarray(np.eye(4).tolist()))
    signed = TensorField((1, 1), lambda x1, *c: objarray(
        [[x1, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    huge = TensorField((1, 1), lambda *c: objarray((1e100 * np.eye(4)).tolist()))
    for a in (signed, huge):
        with np.errstate(over="ignore"), pytest.raises(DegenerateMetricError, match="det A"):
            pj.companion_spray(flat_metric(), a, pts, vel)
    singular = TensorField((0, 2), lambda *c: objarray(np.diag([1.0, 1.0, -1.0, 0.0]).tolist()))
    with pytest.raises(ZeroDivisionError):
        pj.companion_spray(singular, eye, pts, vel)
    # the regular pair gives the flat metric's spray, zero
    assert np.array_equal(pj.companion_spray(flat_metric(), eye, pts, vel), np.zeros((3, 4)))


def test_christoffel_jets_equal_the_entry_loop(triples):
    # the stacked product must add the same jet products in the same
    # order as the entry-by-entry formula, so the coefficients it keeps,
    # one order below the metric's, are equal
    def entry(x, *idx):
        return Jet(x.space, x.coeffs[(slice(None),) + idx])

    for name in ("real-liouville", "complex-liouville", "dim-d1"):
        tr = triples[name]
        gj = tr.g.jets(tr.sample_points(1, seed=3)[0])
        ginv = metric_inverse_jets(gj)
        # dg[i][j][l] = d_l g_ij, entry by entry
        dg = [[[entry(gj, i, j).derivative(l) for l in range(4)] for j in range(4)]
              for i in range(4)]
        gamma = christoffel_jets(gj, ginv)
        assert gamma.space.order == gj.space.order - 1
        for k, i, j in np.ndindex(4, 4, 4):
            a, b = min(i, j), max(i, j)  # computed for i <= j, mirrored
            terms = [entry(ginv, k, l) * (dg[b][l][a] + dg[a][l][b] - dg[a][b][l])
                     for l in range(4)]
            ref = terms[0]
            for t in terms[1:]:
                ref = ref + t
            ref = (ref * 0.5).truncated(gamma.space.order)
            assert np.array_equal(gamma.coeffs[:, k, i, j], ref.coeffs), (name, k, i, j)


def test_scalar_hessian_symmetry_and_values():
    f = ScalarField(lambda x1, x2, x3, x4: x1 * x1 * x2 + jsin(x3))
    val, grad, hess = scalar_hessian(f.jet(P, order=3))
    assert val == pytest.approx(P[0] ** 2 * P[1] + np.sin(P[2]))
    assert np.allclose(grad, [2 * P[0] * P[1], P[0] ** 2, np.cos(P[2]), 0.0])
    assert np.allclose(hess, hess.T)
    assert hess[0, 0] == pytest.approx(2 * P[1])
    assert hess[0, 1] == pytest.approx(2 * P[0])
    assert hess[2, 2] == pytest.approx(-np.sin(P[2]))


def test_scalar_hessian_of_a_batch_is_each_points_hessian():
    f = ScalarField(lambda x1, x2, x3, x4: x1 * x1 * x2 + jsin(x3))
    pts = np.array([P, [0.1, 0.2, 0.3, 0.4]])
    val, grad, hess = scalar_hessian(f.fn(*seed_point(pts, 2)))
    for k, p in enumerate(pts):
        one = scalar_hessian(f.jet(p, order=2))
        assert val[k] == one[0]
        assert np.array_equal(grad[:, k], one[1]) and np.array_equal(hess[..., k], one[2])
