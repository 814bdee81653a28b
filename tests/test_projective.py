import numpy as np
import pytest

from conftest import fd_of
from pklab import projective as pj
from pklab.curvature import christoffel_jets, riemann
from pklab.fields import (
    DegenerateMetricError,
    ScalarField,
    TensorField,
    metric_inverse,
    objarray,
    split_jets,
)
from pklab import geometry
from pklab.geometry import (
    Geometry,
    companion_components,
    companion_inverse_components,
    family_components,
    family_inverse_components,
)
from pklab.jets import jlog, jpow
from pklab.linalg import mdet, minv, mmul

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]


def const_field(rows, valence=(1, 1)):
    return TensorField(valence, lambda *c: objarray(rows))


def scaled_identity(c):
    return const_field((c * np.eye(4)).tolist())


def at(tr, p, **fields):
    """One-point geometry of a triple, with fields replaced by keyword."""
    return Geometry.at(p, g=fields.get("g", tr.g), t=fields.get("t", tr.t),
                       a=fields.get("a", tr.a))


def over(tr, n):
    """Geometry of a triple at its first n sample points."""
    return Geometry(tr, tr.sample_points(n))


class TestLambdaField:
    def test_constant_multiple_of_identity_gives_zero(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        lam = at(tr, p, a=scaled_identity(3.0)).lam(0)
        assert np.allclose(lam, 0.0)

    def test_real_liouville_half_gradient_of_sum(self, triples):
        # tr A = 2(rho + sigma), so Lam = (1/2) grad(rho + sigma)
        tr = triples["real-liouville"]
        f = ScalarField(lambda x1, x2, x3, x4: x1 + x2)  # default profiles
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            expected = 0.5 * metric_inverse(tr.g.values(p)) @ f.gradient_covector(p)
            assert np.allclose(geo.lam(i), expected, atol=1e-12)

    def test_duality_with_trace_differential(self, triples):
        # X(tr A) = 4 g(Lam, X), trace differenced independently
        tr = triples["dim-d2-1"]
        trace = ScalarField(lambda *c: np.trace(tr.a.components(c)))
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            lam = geo.lam(i)
            gm = tr.g.values(p)
            for axis in range(4):
                fd = fd_of(lambda y: trace.jet(y, order=1).value, p, axis, 1e-5)
                assert 4 * (gm @ lam)[axis] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestBenentiResidual:
    def test_identity_endomorphism(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.benenti_residual(at(tr, p, a=scaled_identity(1.0)), 0) < 1e-14

    def test_catalog_families(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 6)
            worst = max(pj.benenti_residual(geo, i) for i in range(6))
            assert worst < 1e-9, name

    def test_linearity_shift(self, triples):
        tr = triples["complex-liouville"]
        shifted = TensorField((1, 1), lambda *c: tr.a.components(c) - 0.7 * np.eye(4))
        worst = max(
            pj.benenti_residual(at(tr, p, a=shifted), 0) for p in tr.sample_points(3)
        )
        assert worst < 1e-9

    def test_perturbation_detected(self, triples):
        tr = triples["real-liouville"]

        def bad(*coords):
            arr = tr.a.components(coords).copy()
            arr[2, 2] = arr[2, 2] + 0.1 * coords[0]
            return arr

        a_bad = TensorField((1, 1), bad)
        p = tr.sample_points(1)[0]
        assert pj.benenti_residual(at(tr, p, a=a_bad), 0) > 1e-3
        assert pj.hamiltonian_form_residual(at(tr, p, a=a_bad), 0) > 1e-4


class TestHamiltonianForm:
    def test_identity_trivial(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.hamiltonian_form_residual(at(tr, p, a=scaled_identity(2.0)), 0) < 1e-12

    def test_covanishes_with_defining_equation(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            for i in range(4):
                assert pj.hamiltonian_form_residual(geo, i) < 1e-9, name


class TestPairAlgebra:
    def test_a_from_scaled_pair(self):
        # ghat = c^{-3} g gives A = c Id
        c = 1.7
        g = const_field(FLAT, valence=(0, 2))
        ghat = const_field((np.array(FLAT) * c**-3).tolist(), valence=(0, 2))
        p = [0, 0, 0, 0]
        a = pj.a_from_pair(g.values(p), ghat.values(p))
        assert np.allclose(a, c * np.eye(4), rtol=1e-12)

    def test_a_from_equal_pair_is_identity(self):
        g = const_field(FLAT, valence=(0, 2))
        gm = g.values([0, 0, 0, 0])
        assert np.allclose(pj.a_from_pair(gm, gm), np.eye(4))

    def test_negative_determinant_ratio_rejected(self):
        g = const_field(FLAT, valence=(0, 2))
        lorentz = const_field(np.diag([1.0, -1.0, -1.0, -1.0]).tolist(), valence=(0, 2))
        with pytest.raises(DegenerateMetricError):
            pj.a_from_pair(g.values([0, 0, 0, 0]), lorentz.values([0, 0, 0, 0]))

    def test_companion_of_scaled_identity(self):
        g = const_field(FLAT, valence=(0, 2))
        c = 2.0
        ghat = pj.companion_metric(g, scaled_identity(c))
        assert np.allclose(ghat.values([0, 0, 0, 0]), np.array(FLAT) * c**-3)

    def test_roundtrip_on_catalog(self, triples):
        for name, tr in triples.items():
            ghat = pj.companion_metric(tr.g, tr.a)
            for p in tr.sample_points(3):
                rec = pj.a_from_pair(tr.g.values(p), ghat.values(p))
                assert np.max(np.abs(rec - tr.a.values(p))) < 1e-10, name

    def test_companion_batch_path_matches_jets(self, triples):
        tr = triples["real-liouville"]
        ghat = pj.companion_metric(tr.g, tr.a)
        pts = tr.sample_points(4)
        vals, grads = ghat.batch_duals(pts)
        for i, p in enumerate(pts):
            arr = ghat.jets(p, order=2)
            for idx in np.ndindex((4, 4)):
                assert vals[(i,) + idx] == pytest.approx(arr[idx].value, rel=1e-12)
                assert np.allclose(grads[(i,) + idx], arr[idx].gradient(), rtol=1e-9, atol=1e-12)


class TestPotential:
    def test_scaled_identity(self):
        c = 2.0
        psi, big_psi = pj.psi_potential(Geometry.at([0, 0, 0, 0], a=scaled_identity(c)), 0)
        assert psi == pytest.approx(-np.log(c))
        assert np.allclose(big_psi, 0.0)

    def test_duality_with_lambda(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            for i, p in enumerate(geo.points):
                _, big_psi = pj.psi_potential(geo, i)
                lam = geo.lam(i)
                gm = tr.g.values(p)
                ainv = np.linalg.inv(tr.a.values(p))
                assert np.max(np.abs(big_psi + gm @ ainv @ lam)) < 1e-9, name

    def test_block_determinant_exponential_identity(self, triples):
        # det of the half block equals exp(-2 psi) in adapted charts
        for name in ("dim-d2-2", "dim-d1"):
            tr = triples[name]
            geo = over(tr, 4)
            for i in range(4):
                psi, _ = pj.psi_potential(geo, i)
                m2 = geo.mu(i)[1]
                assert m2 > 0
                assert abs(m2 - np.exp(-2 * psi)) / m2 < 1e-10, name


class TestConnectionDifference:
    def test_equal_metrics(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.connection_difference_residual(at(tr, p, a=scaled_identity(1.0)), 0) < 1e-12

    def test_catalog_pairs(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            worst = max(pj.connection_difference_residual(geo, i) for i in range(4))
            assert worst < 1e-9, name

    def test_unrelated_metric_fails(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]

        def pair(*coords):
            # the pair (g, flat) as a Benenti candidate: (det flat / det g)^(1/6) flat^-1 g
            gj = tr.g.components(coords)
            return objarray(FLAT) @ gj * jpow(1.0 / mdet(gj), 1.0 / 6.0)

        a = TensorField((1, 1), pair)
        assert pj.connection_difference_residual(at(tr, p, a=a), 0) > 1e-2

    def test_parallel_a_means_equal_connections(self, triples):
        # A = c Id is parallel, the companion is a constant rescaling,
        # and constant rescalings share their Levi-Civita connection
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        gamma = Geometry.at(p, g=tr.g).gamma(0)
        ghat = pj.companion_metric(tr.g, scaled_identity(2.0))
        assert np.allclose(Geometry.at(p, g=ghat).gamma(0), gamma, atol=1e-11)
        ghat_np = pj.companion_metric(tr.g, tr.a)  # non-parallel catalog tensor
        assert np.max(np.abs(Geometry.at(p, g=ghat_np).gamma(0) - gamma)) > 1e-3

    def test_companion_inverse_matches_gauss_jordan(self, triples):
        # the cache's companion symbols use ghat^-1 = sqrt(det A) A g^-1;
        # Gauss-Jordan on ghat gives the same jets
        for name, tr in triples.items():
            geo = over(tr, 3)
            for i in range(3):
                ginv = companion_inverse_components(
                    *[geo.jets(i, k) for k in ("ginv", "a", "det_a")]
                )
                solved = minv(geo.jets(i, "ghat"))
                for x, y in ((ginv, solved),
                             (geo.jets(i, "ghat_gamma"), christoffel_jets(geo.jets(i, "ghat")))):
                    cx = np.array([[c.coeffs for c in row] for row in x.reshape(-1, 4)])
                    cy = np.array([[c.coeffs for c in row] for row in y.reshape(-1, 4)])
                    assert np.max(np.abs(cx - cy)) <= 1e-12 * max(1.0, np.max(np.abs(cy))), name

    def test_det_a_evaluated_once_per_point(self, triples, monkeypatch):
        # the companion metric, its inverse and psi read one cached det A
        # per point, and give the same bits as evaluating det A for each
        calls = [0]

        def counted(m):
            calls[0] += 1
            return mdet(m)

        monkeypatch.setattr(geometry, "mdet", counted)
        for name, tr in triples.items():
            geo = over(tr, 2)
            for i in range(2):
                calls[0] = 0
                ghat, psi = geo.jets(i, "ghat"), geo.psi_jet(i)
                geo.jets(i, "ghat_gamma")
                assert calls[0] == 1, name
                gj, aj = geo.jets(i, "g"), geo.jets(i, "a")
                alone = (companion_components(gj, aj), jlog(mdet(aj)) * (-0.25))
                for x, y in zip((ghat, psi), alone):
                    cx = np.array([c.coeffs for c in np.ravel(x)])
                    cy = np.array([c.coeffs for c in np.ravel(y)])
                    assert np.array_equal(cx, cy), name


class TestWeightedTensors:
    def test_flat_sigma_constant_and_parallel(self):
        g = const_field(FLAT, valence=(0, 2))
        sig = pj.weighted_sigma_field(g)
        p = [0.3, 0.1, 0.9, 0.4]
        assert np.allclose(sig.values(p), np.array(FLAT))  # |det| = 1
        assert pj.sigma_parallel_residual(Geometry.at(p, g), 0) == 0.0

    def test_catalog_sigma_parallel_and_para_hermitian(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            for i in range(3):
                assert pj.sigma_parallel_residual(geo, i) < 1e-9, name
                assert pj.sigma_para_hermitian_residual(geo, i) < 1e-10, name

    def test_mobility_solution_and_trivial_case(self, triples):
        for name, tr in triples.items():
            sig = pj.weighted_sigma_field(tr.g)
            sighat = pj.weighted_endo_sigma_field(tr.a, sig)
            geo = over(tr, 3)
            for i, p in enumerate(geo.points):
                assert pj.mobility_residual(geo, i, sig.jets(p)) < 1e-12, name
                assert pj.mobility_residual(geo, i, sighat.jets(p)) < 1e-9, name

    def test_mobility_connection_invariance(self, triples):
        tr = triples["complex-liouville"]
        sig = pj.weighted_sigma_field(tr.g)
        probe = pj.scale_weighted_field(ScalarField(lambda x1, *r: x1, "x1"), sig)
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            e1 = pj.mobility_expression(geo, i, probe.jets(p))
            e2 = pj.mobility_expression(geo, i, probe.jets(p), metric="ghat")
            scale = max(1.0, np.max(np.abs(e1)))
            assert np.max(np.abs(e1 - e2)) / scale < 1e-9
            assert np.max(np.abs(e1)) > 1e-3  # the probe is not a solution


class TestFamilyMetric:
    def test_endpoints(self, triples):
        tr = triples["real-liouville"]
        fam10 = pj.family_metric(tr.g, tr.a, 1.0, 0.0)
        fam01 = pj.family_metric(tr.g, tr.a, 0.0, 1.0)
        ghat = pj.companion_metric(tr.g, tr.a)
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            assert np.allclose(fam10.values(p), tr.g.values(p), atol=1e-12)
            assert geo.mu(i)[1] > 0  # positive and signed roots coincide here
            assert np.allclose(fam01.values(p), ghat.values(p), atol=1e-11)

    def test_closed_form_two_parameter_family(self, einstein_preset):
        # frozen closed form of the Einstein two-parameter family
        tr = einstein_preset
        lam = 1.0
        for al, be in ((1.5, 0.25), (1.0, 1.0), (0.5, 0.75)):
            fam = pj.family_metric(tr.g, tr.a, al, be)
            for p in tr.sample_points(3):
                u, v = p[0] ** 2, p[1] ** 2
                bb = (al * lam * u - 6 * be) * (al * lam * v + 6 * be)
                expected = np.zeros((4, 4))
                expected[0, 0] = -6 * lam**2 / bb * (u + v) * u / (al * lam * u - 6 * be)
                expected[1, 1] = -6 * lam**2 / bb * (u + v) * v / (al * lam * v + 6 * be)
                expected[2, 2] = (
                    24 * lam**2 / bb**2
                    * (al * lam * u**2 - al * lam * u * v + al * lam * v**2
                       - 6 * be * u + 6 * be * v)
                )
                expected[2, 3] = expected[3, 2] = (
                    -144 * lam / bb**2 * (al * lam * u - al * lam * v - 6 * be)
                )
                expected[3, 3] = 864 * lam / bb**2 * al
                assert np.max(np.abs(fam.values(p) - expected)) < 1e-8

    def test_closed_form_inverse_matches_gauss_jordan(self, einstein_preset):
        # the closed-form member g ((alpha + beta mu1) Id - beta A) / s^2 and
        # its inverse s (alpha Id + beta A) g^-1 agree with the member built
        # by Gauss-Jordan on alpha Id + beta A, and give its Christoffel symbols
        tr = einstein_preset
        geo = Geometry(tr, tr.sample_points(2))
        for al, be in ((1.5, 0.25), (0.0, 1.0), (2.0, 1.0)):
            for i in range(2):
                gj, aj, (mu1, mu2) = geo.jets(i, "g"), geo.jets(i, "a"), geo.jets(i, "mu")
                s = al * al + al * be * mu1 + be * be * mu2
                solved = mmul(gj, minv(al * np.eye(4) + be * aj)) * s.reciprocal()
                member = family_components(gj, aj, mu1, mu2, al, be)
                inverse = family_inverse_components(geo.jets(i, "ginv"), aj, mu1, mu2, al, be)
                for x, y in zip(split_jets(member), split_jets(solved)):
                    assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
                assert np.allclose(split_jets(mmul(member, inverse))[0], np.eye(4),
                                   rtol=0.0, atol=1e-12)
                closed = split_jets(christoffel_jets(member, inverse))
                reference = split_jets(christoffel_jets(solved))
                for x, y in zip(closed, reference):
                    assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_batched_member_curvature_matches_each_point(self, einstein_preset):
        # members built once over the points, from order-2 batches, have the
        # Christoffel symbols, partials and Riemann tensor of the order-3
        # member built at each point alone
        tr = einstein_preset
        geo = Geometry(tr, tr.sample_points(4))
        points = [0, 2, 3]
        al, be = 1.5, 0.75
        g, a, ginv, mu = (geo.stacked(n, points, 2) for n in ("g", "a", "ginv", "mu"))
        member = family_components(g, a, *mu, al, be)
        gamma, dgamma = split_jets(christoffel_jets(
            member, family_inverse_components(ginv, a, *mu, al, be)))
        batched_riemann = riemann(gamma, dgamma)
        assert batched_riemann.shape == (4, 4, 4, 4, len(points))
        for k, i in enumerate(points):
            args = (geo.jets(i, "a"), *geo.jets(i, "mu"), al, be)
            one = family_components(geo.jets(i, "g"), *args)
            g1, dg1 = split_jets(christoffel_jets(
                one, family_inverse_components(geo.jets(i, "ginv"), *args)))
            for x, y in ((gamma[..., k], g1), (dgamma[..., k], dg1),
                         (batched_riemann[..., k], riemann(g1, dg1))):
                assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_degenerate_combination_raises(self, triples):
        tr = triples["real-liouville"]  # rho = x1 in (2,3), sigma = x2 in (0.5,1.5)
        fam = pj.family_metric(tr.g, tr.a, -2.5, 1.0)  # alpha + beta*rho crosses 0
        with pytest.raises(DegenerateMetricError):
            fam.values([2.5, 1.0, 0.5, 0.5])


class TestSpectral:
    def test_block_eigenvalues(self):
        rows = np.zeros((4, 4))
        rows[0, 0], rows[1, 1] = 3.0, 5.0
        rows[2, 2], rows[2, 3], rows[3, 2] = 8.0, 15.0, -1.0
        a = const_field(rows.tolist())
        spec = pj.eigen_decompose(Geometry.at([0, 0, 0, 0], a=a), 0)
        assert spec.kind == "real"
        assert spec.mu1 == pytest.approx(8.0)
        assert spec.mu2 == pytest.approx(15.0)
        assert spec.rho.real == pytest.approx(5.0)
        assert spec.sigma.real == pytest.approx(3.0)

    def test_scaled_identity_degenerate(self):
        spec = pj.eigen_decompose(Geometry.at([0, 0, 0, 0], a=scaled_identity(2.0)), 0)
        assert spec.kind == "degenerate"
        assert spec.rho == spec.sigma == pytest.approx(2.0)

    def test_complex_pair(self, triples):
        tr = triples["complex-liouville"]
        p = tr.sample_points(1)[0]
        spec = pj.eigen_decompose(at(tr, p), 0)
        assert spec.kind == "complex"
        assert spec.rho.imag > 0
        assert spec.sigma == spec.rho.conjugate()

    def test_mu_polynomial(self, triples):
        rows = np.zeros((4, 4))
        rows[0, 0], rows[1, 1] = 3.0, 5.0
        rows[2, 2], rows[2, 3], rows[3, 2] = 8.0, 15.0, -1.0
        a = const_field(rows.tolist())
        m1, m2 = Geometry.at([0, 0, 0, 0], a=a).mu(0)
        # sqrt(det(A - t Id)) = t^2 - mu1 t + mu2
        assert 0.0**2 - m1 * 0.0 + m2 == pytest.approx(15.0)
        assert 3.0**2 - m1 * 3.0 + m2 == pytest.approx(0.0)
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        spec = pj.eigen_decompose(at(tr, p), 0)
        assert spec.mu1 == pytest.approx(spec.rho.real + spec.sigma.real, abs=1e-10)
        assert spec.mu2 == pytest.approx(spec.rho.real * spec.sigma.real, abs=1e-10)


class TestEigenGradients:
    def test_catalog(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            worst = max(pj.eigen_gradient_residual(geo, i) for i in range(4))
            assert worst < 1e-9, name

    def test_gradients_g_orthogonal_in_real_type(self, triples):
        for name in ("real-liouville", "dim-d2-2", "dim-d2-4"):
            geo = over(triples[name], 3)
            for i in range(3):
                # rho, sigma = (mu1 +- sqrt(mu1^2 - 4 mu2)) / 2, differentiated by hand
                (m1, m2), (d1, d2) = geo.mu(i), geo.vp(i, "mu")[1]
                root = np.sqrt(m1 * m1 - 4.0 * m2)
                droot = (m1 * d1 - 2.0 * d2) / root
                v1, v2 = (geo.ginv(i) @ (0.5 * (d1 + sign * droot)) for sign in (1.0, -1.0))
                assert abs(v1 @ geo.values(i, "g") @ v2) < 1e-9, name

    def test_perturbation_detected(self, triples):
        tr = triples["real-liouville"]

        def bad(*coords):
            arr = tr.a.components(coords).copy()
            arr[0, 0] = arr[0, 0] + 0.2 * coords[1]  # breaks rho = rho(x1)
            return arr

        p = tr.sample_points(1)[0]
        assert pj.eigen_gradient_residual(at(tr, p, a=TensorField((1, 1), bad)), 0) > 1e-4


class TestKillingMachinery:
    def test_fields_vanish_for_constant_a(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        kv = at(tr, p, a=scaled_identity(2.0)).values(0, "killing")  # V1, V2, TV1, TV2
        assert np.allclose(kv, 0.0, atol=1e-13)

    def test_rotated_gradients_are_killing(self, triples):
        for name in ("real-liouville", "complex-liouville", "dim-d2-1", "dim-d1"):
            tr = triples[name]
            geo = over(tr, 3)
            for i in range(3):  # both TV1 and TV2
                assert pj.killing_residual(geo, i) < 1e-9, name

    def test_hamiltonian_pairing(self, triples):
        tr = triples["real-liouville"]
        geo = over(tr, 3)
        for i in range(3):  # (mu1, TV1) and (mu2, TV2)
            assert pj.hamiltonian_pairing_residual(geo, i) < 1e-9

    def test_para_holomorphy_and_commutation(self, triples):
        tr = triples["complex-liouville"]
        geo = over(tr, 2)
        for i in range(2):
            assert pj.para_holomorphy_residual(geo, i) < 1e-9  # V1, V2, TV1, TV2
            assert pj.commutation_residual(geo, i) < 1e-8

    def test_gradient_and_rotated_gradient_orthogonal(self, triples):
        geo = over(triples["real-liouville"], 3)
        for i in range(3):
            gm, kv = geo.values(i, "g"), geo.values(i, "killing")  # V1, V2, TV1, TV2
            for vi in kv[:2]:
                for tvj in kv[2:]:
                    assert abs(vi @ gm @ tvj) < 1e-9

    def test_leaf_restriction_rank4(self, triples):
        for name in ("real-liouville", "complex-liouville"):
            tr = triples[name]
            geo = over(tr, 3)
            for i in range(3):
                assert pj.leaf_geodesic_residual(geo, i) < 1e-8


class TestClassification:
    def test_classify_gradient_hand_vectors(self):
        gm = np.array(FLAT)
        tm = np.diag([1.0, 1.0, -1.0, -1.0])
        cls, _ = pj.classify_gradient(gm, tm, np.zeros(4), 1.0)
        assert cls == "zero"
        cls, _ = pj.classify_gradient(gm, tm, np.array([1.0, 0, 0, 0]), 1.0)
        assert cls == "null-plus"
        cls, _ = pj.classify_gradient(gm, tm, np.array([0, 0, 1.0, 0]), 1.0)
        assert cls == "null-minus"
        cls, _ = pj.classify_gradient(gm, tm, np.array([1.0, 0, 1.0, 0]), 1.0)
        assert cls == "non-isotropic"
        # isotropic g(v,v) = 0 but not a T eigenvector
        cls, flags = pj.classify_gradient(gm, tm, np.array([1.0, 1.0, 1.0, -1.0]), 1.0)
        assert cls == "indeterminate" and flags

    def test_rank_and_configuration_per_family(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            for i in range(4):
                rank, config, _ = pj.distribution_d_rank(geo, i)
                assert rank == tr.meta["expected_rank"], name
                assert tuple(config) == tr.meta["expected_config"], name


class TestRicciDifference:
    def test_catalog_pairs(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            for i in range(3):
                primary, cross = pj.ricci_difference_residual(geo, i)
                assert primary < 1e-8, name
                assert cross < 1e-8, name

    def test_holds_off_einstein_locus(self, triples):
        # the comparison identity is unconditional, not an Einstein statement
        tr = triples["dim-d2-1"]
        geo = over(tr, 1)
        assert np.max(np.abs(geo.ricci(0))) > 1e-3  # generic instance, not Einstein
        primary, cross = pj.ricci_difference_residual(geo, 0)
        assert primary < 1e-8 and cross < 1e-8


class TestFamilyConstant:
    def test_endpoints(self, companion_einstein_preset):
        tr = companion_einstein_preset
        lam, lam_hat = tr.meta["einstein"], tr.meta["companion_einstein"]
        geo = over(tr, 5)
        out = pj.einstein_family_constant(geo, lam, lam_hat, 1.0, 0.0)
        assert out["constant"] == pytest.approx(lam, abs=1e-10)
        out = pj.einstein_family_constant(geo, lam, lam_hat, 0.0, 1.0)
        assert out["constant"] == pytest.approx(lam_hat, abs=1e-8)
        assert out["spread"] < 1e-8
        assert out["ricci_residual"] < 1e-8

    def test_alpha_cubed_rule(self, einstein_preset):
        tr = einstein_preset
        geo = over(tr, 6)
        for al, be in ((2.0, 1.0), (1.5, 0.25), (0.5, 0.5)):
            out = pj.einstein_family_constant(geo, 1.0, 0.0, al, be)
            assert out["constant"] == pytest.approx(al**3, rel=1e-9)
            assert out["spread"] < 1e-8
            assert out["ricci_residual"] < 1e-8

    def test_einstein_precondition_enforced(self, triples):
        tr = triples["real-liouville"]  # generic, not Einstein
        with pytest.raises(pj.EinsteinPreconditionError):
            pj.einstein_family_constant(over(tr, 2), 1.0, 0.0, 1.0, 0.5)
