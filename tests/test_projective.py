import dataclasses
import warnings

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
    metric_inverse_jets,
    objarray,
    split_jets,
    stacked,
)
from pklab import geometry
from pklab.catalog import PRESETS, preset_triple
from pklab.geometry import (
    Geometry,
    companion_components,
    companion_inverse_components,
    family_components,
    mu_invariants,
)
from pklab.jets import Jet, jlog, jpow
from pklab.linalg import mdet, minv, mmul, mscale
from pklab.suites import _GRID_A, _GRID_B

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


def column(x, i):
    """Point i of stacked batched jets, as one-point stacked jets."""
    return Jet(x.space, x.coeffs[..., i])


def mu_pair(geo):
    """mu1 and mu2 of a Geometry, each a scalar jet over its points."""
    mu = geo.batch("mu")
    return Jet(mu.space, mu.coeffs[:, 0]), Jet(mu.space, mu.coeffs[:, 1])


class TestLambdaField:
    def test_constant_multiple_of_identity_gives_zero(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        lam = at(tr, p, a=scaled_identity(3.0)).lam()
        assert np.allclose(lam, 0.0)

    def test_real_liouville_half_gradient_of_sum(self, triples):
        # tr A = 2(rho + sigma), so Lam = (1/2) grad(rho + sigma)
        tr = triples["real-liouville"]
        f = ScalarField(lambda x1, x2, x3, x4: x1 + x2)  # default profiles
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            expected = 0.5 * metric_inverse(tr.g.values(p)) @ f.gradient_covector(p)
            assert np.allclose(geo.lam()[:, i], expected, atol=1e-12)

    def test_duality_with_trace_differential(self, triples):
        # X(tr A) = 4 g(Lam, X), trace differenced independently
        tr = triples["dim-d2-1"]
        trace = ScalarField(lambda *c: np.trace(tr.a.components(c)))
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            lam = geo.lam()[:, i]
            gm = tr.g.values(p)
            for axis in range(4):
                fd = fd_of(lambda y: trace.jet(y, order=1).value, p, axis, 1e-5)
                assert 4 * (gm @ lam)[axis] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestBenentiResidual:
    def test_identity_endomorphism(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.benenti_residual(at(tr, p, a=scaled_identity(1.0)))[0] < 1e-14

    def test_catalog_families(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 6)
            worst = max(pj.benenti_residual(geo))
            assert worst < 1e-9, name

    def test_linearity_shift(self, triples):
        tr = triples["complex-liouville"]
        shifted = TensorField((1, 1), lambda *c: tr.a.components(c) - 0.7 * np.eye(4))
        geo = Geometry(dataclasses.replace(tr, a=shifted), tr.sample_points(3))
        assert max(pj.benenti_residual(geo)) < 1e-9

    def test_perturbation_detected(self, triples):
        tr = triples["real-liouville"]

        def bad(*coords):
            arr = tr.a.components(coords).copy()
            arr[2, 2] = arr[2, 2] + 0.1 * coords[0]
            return arr

        a_bad = TensorField((1, 1), bad)
        p = tr.sample_points(1)[0]
        assert pj.benenti_residual(at(tr, p, a=a_bad))[0] > 1e-3
        assert pj.hamiltonian_form_residual(at(tr, p, a=a_bad))[0] > 1e-4


class TestHamiltonianForm:
    def test_identity_trivial(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.hamiltonian_form_residual(at(tr, p, a=scaled_identity(2.0)))[0] < 1e-12

    def test_covanishes_with_defining_equation(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            assert max(pj.hamiltonian_form_residual(geo)) < 1e-9, name


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
            pts = tr.sample_points(3)
            for p in pts:
                rec = pj.a_from_pair(tr.g.values(p), ghat.values(p))
                assert np.max(np.abs(rec - tr.a.values(p))) < 1e-10, name
            # stacks of matrices on the leading axis give each one's A
            hv = pj.companion_values(tr.g, tr.a, pts)
            stacked = pj.a_from_pair(tr.g.batch_values(pts), hv)
            for rec, p, h in zip(stacked, pts, hv):
                assert np.array_equal(rec, pj.a_from_pair(tr.g.batch_values([p])[0], h)), name

    def test_companion_batch_path_matches_jets(self, triples):
        presets = [preset_triple(name) for name in sorted(PRESETS)]
        for tr in [*triples.values(), *presets]:
            ghat = pj.companion_metric(tr.g, tr.a)
            pts = tr.sample_points(4)
            # the batch values, from g and A, are those of ghat's jets
            vals = pj.companion_values(tr.g, tr.a, pts)
            for i, p in enumerate(pts):
                jv, _ = split_jets(ghat.jets(p, order=2))
                for idx in np.ndindex((4, 4)):
                    assert vals[(i,) + idx] == pytest.approx(jv[idx], rel=1e-12), tr.name


class TestPotential:
    def test_scaled_identity(self):
        c = 2.0
        psi, big_psi = Geometry.at([0, 0, 0, 0], a=scaled_identity(c)).vp("psi")
        assert psi[0] == pytest.approx(-np.log(c))
        assert np.allclose(big_psi, 0.0)

    def test_duality_with_lambda(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            for i, p in enumerate(geo.points):
                big_psi = geo.vp("psi")[1][:, i]
                lam = geo.lam()[:, i]
                gm = tr.g.values(p)
                ainv = np.linalg.inv(tr.a.values(p))
                assert np.max(np.abs(big_psi + gm @ ainv @ lam)) < 1e-9, name

    def test_block_determinant_exponential_identity(self, triples):
        # det of the half block equals exp(-2 psi) in adapted charts
        for name in ("dim-d2-2", "dim-d1"):
            tr = triples[name]
            geo = over(tr, 4)
            psi = geo.values("psi")
            m2 = geo.values("mu")[1]
            assert np.all(m2 > 0)
            assert np.max(np.abs(m2 - np.exp(-2 * psi)) / m2) < 1e-10, name


class TestConnectionDifference:
    def test_equal_metrics(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        assert pj.connection_difference_residual(at(tr, p, a=scaled_identity(1.0)))[0] < 1e-12

    def test_catalog_pairs(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            worst = max(pj.connection_difference_residual(geo))
            assert worst < 1e-9, name

    def test_unrelated_metric_fails(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]

        def pair(*coords):
            # the pair (g, flat) as a Benenti candidate: (det flat / det g)^(1/6) flat^-1 g
            gj = stacked(tr.g.components(coords), coords[0])
            flat = stacked(FLAT, coords[0])
            return mscale(mmul(flat, gj), jpow(1.0 / mdet(gj), 1.0 / 6.0))

        a = TensorField((1, 1), pair)
        assert pj.connection_difference_residual(at(tr, p, a=a))[0] > 1e-2

    def test_parallel_a_means_equal_connections(self, triples):
        # A = c Id is parallel, the companion is a constant rescaling,
        # and constant rescalings share their Levi-Civita connection
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        gamma = Geometry.at(p, g=tr.g).gamma()
        ghat = pj.companion_metric(tr.g, scaled_identity(2.0))
        assert np.allclose(Geometry.at(p, g=ghat).gamma(), gamma, atol=1e-11)
        ghat_np = pj.companion_metric(tr.g, tr.a)  # non-parallel catalog tensor
        assert np.max(np.abs(Geometry.at(p, g=ghat_np).gamma() - gamma)) > 1e-3

    def test_companion_inverse_matches_gauss_jordan(self, triples):
        # the cache's companion symbols use ghat^-1 = sqrt(det A) A g^-1 at
        # order 1; the general jet inverse (linalg.minv) of ghat cut to
        # order 1 gives the same jets
        for name, tr in triples.items():
            geo = over(tr, 3)
            ginv = companion_inverse_components(
                geo.batch("ginv"), *[geo.batch(k).truncated(1) for k in ("a", "det_a")])
            solved = minv(geo.batch("ghat").truncated(1))
            for x, y in ((ginv, solved),
                         (geo.batch("ghat_gamma"), christoffel_jets(geo.batch("ghat")))):
                cx, cy = x.coeffs, y.coeffs
                assert np.max(np.abs(cx - cy)) <= 1e-12 * max(1.0, np.max(np.abs(cy))), name

    def test_det_a_evaluated_once_per_geometry(self, triples, monkeypatch):
        # the companion metric, its inverse and psi read one cached det A
        # (and one cached A^-1) over all the points, and give the same bits
        # as evaluating det A and A^-1 at each point alone
        calls = [0]

        def counted(m):
            calls[0] += 1
            return mdet(m)

        monkeypatch.setattr(geometry, "mdet", counted)
        for name, tr in triples.items():
            geo = over(tr, 3)
            calls[0] = 0
            for quantity in ("ghat", "psi", "ghat_gamma"):
                geo.batch(quantity)
            assert calls[0] == 1, name
            for i in range(3):
                gj, aj = column(geo.batch("g"), i), column(geo.batch("a"), i)
                alone = (companion_components(gj, minv(aj), mdet(aj)), jlog(mdet(aj)) * (-0.25))
                for x, y in zip((column(geo.batch("ghat"), i), column(geo.batch("psi"), i)), alone):
                    assert np.array_equal(x.coeffs, y.coeffs), name


class TestWeightedTensors:
    def test_flat_sigma_constant_and_parallel(self):
        g = const_field(FLAT, valence=(0, 2))
        sig = pj.weighted_sigma_field(g)
        p = [0.3, 0.1, 0.9, 0.4]
        assert np.allclose(sig.values(p), np.array(FLAT))  # |det| = 1
        assert pj.sigma_parallel_residual(Geometry.at(p, g))[0] == 0.0

    def test_catalog_sigma_parallel_and_para_hermitian(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            assert max(pj.sigma_parallel_residual(geo)) < 1e-9, name
            assert max(pj.sigma_para_hermitian_residual(geo)) < 1e-10, name

    def test_mobility_solution_and_trivial_case(self, triples):
        for name, tr in triples.items():
            sig = pj.weighted_sigma_field(tr.g)
            sighat = pj.weighted_endo_sigma_field(tr.a, sig)
            geo = over(tr, 3)
            assert max(pj.mobility_residual(geo, sig.jets(geo.points))) < 1e-12, name
            assert max(pj.mobility_residual(geo, sighat.jets(geo.points))) < 1e-9, name

    def test_mobility_connection_invariance(self, triples):
        tr = triples["complex-liouville"]
        sig = pj.weighted_sigma_field(tr.g)
        probe = pj.scale_weighted_field(ScalarField(lambda x1, *r: x1, "x1"), sig)
        geo = over(tr, 3)
        e1 = pj.mobility_expression(geo, probe.jets(geo.points))
        e2 = pj.mobility_expression(geo, probe.jets(geo.points), metric="ghat")
        for i in range(3):
            scale = max(1.0, np.max(np.abs(e1[..., i])))
            assert np.max(np.abs(e1[..., i] - e2[..., i])) / scale < 1e-9
            assert np.max(np.abs(e1[..., i])) > 1e-3  # the probe is not a solution


class TestFamilyMetric:
    def test_endpoints(self, triples):
        tr = triples["real-liouville"]
        fam10 = pj.family_metric(tr.g, tr.a, 1.0, 0.0)
        fam01 = pj.family_metric(tr.g, tr.a, 0.0, 1.0)
        ghat = pj.companion_metric(tr.g, tr.a)
        geo = over(tr, 3)
        for i, p in enumerate(geo.points):
            assert np.allclose(fam10.values(p), tr.g.values(p), atol=1e-12)
            assert geo.values("mu")[1, i] > 0  # positive and signed roots coincide here
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
        # the closed-form member g ((alpha + beta mu1) Id - beta A) / s^2
        # agrees with the member built by the general jet inverse
        # (linalg.minv) of alpha Id + beta A, and gives its Christoffel symbols
        tr = einstein_preset
        geo = Geometry(tr, tr.sample_points(2))
        gj, aj, (mu1, mu2) = geo.batch("g"), geo.batch("a"), mu_pair(geo)
        for al, be in ((1.5, 0.25), (0.0, 1.0), (2.0, 1.0)):
            s = al * al + al * be * mu1 + be * be * mu2
            solved = mscale(mmul(gj, minv(stacked(al * np.eye(4), mu1) + be * aj)), s.reciprocal())
            member = family_components(gj, aj, mu1, mu2, al, be)
            for x, y in zip(geo.split(member), geo.split(solved)):
                assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
            closed = geo.split(christoffel_jets(member, metric_inverse_jets(member)))
            reference = geo.split(christoffel_jets(solved))
            for x, y in zip(closed, reference):
                assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_batched_member_curvature_matches_each_point(self, einstein_preset):
        # the pencil's member at some of the sample points has the Ricci
        # tensor and values of the order-3 member built at each point alone
        tr = einstein_preset
        geo = Geometry(tr, tr.sample_points(4))
        points = np.array([0, 2, 3])
        al, be = 1.5, 0.75
        ric, values = pj._member_curvature(geo, al, be, points)
        assert ric.shape == values.shape == (4, 4, len(points))
        for k, i in enumerate(points):
            gj, aj = tr.g.jets(geo.points[i]), tr.a.jets(geo.points[i])
            one = family_components(gj, aj, *mu_invariants(aj), al, be)
            v1 = split_jets(one)[0]
            r1 = np.einsum("klkj->lj", riemann(*split_jets(christoffel_jets(one))))
            for x, y in ((values[..., k], v1), (ric[..., k], r1)):
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
        spec = pj.eigen_decompose(Geometry.at([0, 0, 0, 0], a=a))
        assert spec.kind[0] == "real"
        assert spec.mu1[0] == pytest.approx(8.0)
        assert spec.mu2[0] == pytest.approx(15.0)
        assert spec.rho[0].real == pytest.approx(5.0)
        assert spec.sigma[0].real == pytest.approx(3.0)

    def test_scaled_identity_degenerate(self):
        spec = pj.eigen_decompose(Geometry.at([0, 0, 0, 0], a=scaled_identity(2.0)))
        assert spec.kind[0] == "degenerate"
        assert spec.rho[0] == spec.sigma[0] == pytest.approx(2.0)

    def test_complex_pair(self, triples):
        tr = triples["complex-liouville"]
        p = tr.sample_points(1)[0]
        spec = pj.eigen_decompose(at(tr, p))
        assert spec.kind[0] == "complex"
        assert spec.rho[0].imag > 0
        assert spec.sigma[0] == spec.rho[0].conjugate()

    def test_mu_polynomial(self, triples):
        rows = np.zeros((4, 4))
        rows[0, 0], rows[1, 1] = 3.0, 5.0
        rows[2, 2], rows[2, 3], rows[3, 2] = 8.0, 15.0, -1.0
        a = const_field(rows.tolist())
        (m1,), (m2,) = Geometry.at([0, 0, 0, 0], a=a).values("mu")
        # sqrt(det(A - t Id)) = t^2 - mu1 t + mu2
        assert 0.0**2 - m1 * 0.0 + m2 == pytest.approx(15.0)
        assert 3.0**2 - m1 * 3.0 + m2 == pytest.approx(0.0)
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        spec = pj.eigen_decompose(at(tr, p))
        assert spec.mu1[0] == pytest.approx(spec.rho[0].real + spec.sigma[0].real, abs=1e-10)
        assert spec.mu2[0] == pytest.approx(spec.rho[0].real * spec.sigma[0].real, abs=1e-10)


class TestEigenGradients:
    def test_catalog(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            worst = max(pj.eigen_gradient_residual(geo))
            assert worst < 1e-9, name

    def test_gradients_g_orthogonal_in_real_type(self, triples):
        for name in ("real-liouville", "dim-d2-2", "dim-d2-4"):
            geo = over(triples[name], 3)
            for i in range(3):
                # rho, sigma = (mu1 +- sqrt(mu1^2 - 4 mu2)) / 2, differentiated by hand
                (m1, m2), (d1, d2) = geo.values("mu")[:, i], geo.vp("mu")[1][..., i]
                root = np.sqrt(m1 * m1 - 4.0 * m2)
                droot = (m1 * d1 - 2.0 * d2) / root
                v1, v2 = (geo.values("ginv")[..., i] @ (0.5 * (d1 + sign * droot))
                          for sign in (1.0, -1.0))
                assert abs(v1 @ geo.values("g")[..., i] @ v2) < 1e-9, name

    def test_perturbation_detected(self, triples):
        tr = triples["real-liouville"]

        def bad(*coords):
            arr = tr.a.components(coords).copy()
            arr[0, 0] = arr[0, 0] + 0.2 * coords[1]  # breaks rho = rho(x1)
            return arr

        p = tr.sample_points(1)[0]
        assert pj.eigen_gradient_residual(at(tr, p, a=TensorField((1, 1), bad)))[0] > 1e-4


class TestKillingMachinery:
    def test_fields_vanish_for_constant_a(self, triples):
        tr = triples["real-liouville"]
        p = tr.sample_points(1)[0]
        kv = at(tr, p, a=scaled_identity(2.0)).values("killing")  # V1, V2, TV1, TV2
        assert np.allclose(kv, 0.0, atol=1e-13)

    def test_rotated_gradients_are_killing(self, triples):
        for name in ("real-liouville", "complex-liouville", "dim-d2-1", "dim-d1"):
            tr = triples[name]
            geo = over(tr, 3)
            assert max(pj.killing_residual(geo)) < 1e-9, name  # both TV1 and TV2

    def test_hamiltonian_pairing(self, triples):
        tr = triples["real-liouville"]
        geo = over(tr, 3)
        assert max(pj.hamiltonian_pairing_residual(geo)) < 1e-9  # (mu1, TV1) and (mu2, TV2)

    def test_para_holomorphy_and_commutation(self, triples):
        tr = triples["complex-liouville"]
        geo = over(tr, 2)
        assert max(pj.para_holomorphy_residual(geo)) < 1e-9  # V1, V2, TV1, TV2
        assert max(pj.commutation_residual(geo)) < 1e-8

    def test_gradient_and_rotated_gradient_orthogonal(self, triples):
        geo = over(triples["real-liouville"], 3)
        for i in range(3):
            gm, kv = geo.values("g")[..., i], geo.values("killing")[..., i]  # V1, V2, TV1, TV2
            for vi in kv[:2]:
                for tvj in kv[2:]:
                    assert abs(vi @ gm @ tvj) < 1e-9

    def test_leaf_restriction_rank4(self, triples):
        for name in ("real-liouville", "complex-liouville"):
            tr = triples[name]
            geo = over(tr, 3)
            assert max(pj.leaf_geodesic_residual(geo)) < 1e-8


class TestClassification:
    def test_classify_gradient_hand_vectors(self):
        gm = np.array(FLAT)[..., None]
        tm = np.diag([1.0, 1.0, -1.0, -1.0])[..., None]

        def classify(v):
            return pj.classify_gradient(gm, tm, np.array(v, dtype=float)[:, None], 1.0)

        assert classify([0, 0, 0, 0]) == (["zero"], [])
        assert classify([1, 0, 0, 0]) == (["null-plus"], [])
        assert classify([0, 0, 1, 0]) == (["null-minus"], [])
        assert classify([1, 0, 1, 0]) == (["non-isotropic"], [])
        # isotropic g(v,v) = 0 but not a T eigenvector
        cls, flags = classify([1, 1, 1, -1])
        assert cls == ["indeterminate"] and flags == ["isotropic-but-not-eigendirection"]
        # at several points at once: each point's class, and every point's flags
        both = np.array([[0, 0, 0, 0], [1, 1, 1, -1]], dtype=float).T
        cls, flags = pj.classify_gradient(gm[..., [0, 0]], tm[..., [0, 0]], both, 1.0)
        assert list(cls) == ["zero", "indeterminate"]
        assert flags == ["isotropic-but-not-eigendirection"]

    def test_rank_and_configuration_per_family(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 4)
            ranks, configs, _ = pj.distribution_d_rank(geo)
            for rank, config in zip(ranks, configs):
                assert rank == tr.meta["expected_rank"], name
                assert tuple(config) == tr.meta["expected_config"], name


class TestRicciDifference:
    def test_catalog_pairs(self, triples):
        for name, tr in triples.items():
            geo = over(tr, 3)
            primary, cross = pj.ricci_difference_residual(geo)
            assert max(primary) < 1e-8, name
            assert max(cross) < 1e-8, name

    def test_holds_off_einstein_locus(self, triples):
        # the comparison identity is unconditional, not an Einstein statement
        tr = triples["dim-d2-1"]
        geo = over(tr, 1)
        assert np.max(np.abs(geo.ricci())) > 1e-3  # generic instance, not Einstein
        (primary,), (cross,) = pj.ricci_difference_residual(geo)
        assert primary < 1e-8 and cross < 1e-8


class TestFamilyConstant:
    @staticmethod
    def oracle(tr, points, al, be):
        """(Ric, values) of the member built as jets over the points:
        family_components -> christoffel_jets -> riemann."""
        geo = Geometry(tr, points)
        member = family_components(geo.batch("g"), geo.batch("a"), *mu_pair(geo), al, be)
        ric = np.einsum("klkj...->lj...", riemann(*geo.split(christoffel_jets(member))))
        return ric, geo.split(member)[0]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_pencil_matches_the_jet_members(self, preset):
        tr = preset_triple(preset)
        geo = over(tr, 5)
        every = np.arange(len(geo))
        members = [(al, be) for al in _GRID_A for be in _GRID_B if (al, be) != (0.0, 0.0)]
        assert len(members) == 24
        for al, be in members:
            ric, values = pj._member_curvature(geo, al, be, every)
            ric_o, values_o = self.oracle(tr, geo.points, al, be)
            for x, y in ((ric, ric_o), (values, values_o)):
                scale = np.maximum(1.0, np.max(np.abs(y), axis=(0, 1)))
                assert np.all(np.max(np.abs(x - y), axis=(0, 1)) <= 1e-10 * scale), (al, be)

    def test_degenerate_member_skips_points_without_dividing_there(self, triples):
        # rho = x1 in (2, 3), sigma = x2: s = (x1 - 2.5)(x2 - 2.5) is 0.0
        # exactly at point 1, small at point 3 and of both signs elsewhere
        tr = triples["real-liouville"]
        points = tr.sample_points(5)
        points[1, :2] = 2.5, 1.0
        points[3, 0] = 2.5005
        points[4, 0] = 2.8
        geo = Geometry(tr, points)
        m1, m2 = geo.values("mu")
        s = 6.25 - 2.5 * m1 + m2
        assert s[1] == 0.0 and s[0] > 0.0 > s[4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pj.einstein_family_constant(geo, 1.0, 0.0, -2.5, 1.0)
        assert out["flags"] == ["degenerate-point-skipped"]
        assert out["points"] == 3 and np.isfinite(out["ricci_residual"])
        used = np.array([0, 2, 4])
        ric, values = pj._member_curvature(geo, -2.5, 1.0, used)
        ric_o, values_o = self.oracle(tr, points[used], -2.5, 1.0)
        for x, y in ((ric, ric_o), (values, values_o)):
            scale = np.maximum(1.0, np.max(np.abs(y), axis=(0, 1)))
            assert np.all(np.max(np.abs(x - y), axis=(0, 1)) <= 1e-10 * scale)

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
