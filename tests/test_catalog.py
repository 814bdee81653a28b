import inspect
import re

import numpy as np
import pytest

from pklab import catalog
from pklab import projective as pj
from pklab.catalog import (
    FAMILIES,
    PRESETS,
    FeasibilityError,
    build_complex_liouville,
    build_dimd1,
    build_dimd2_case1,
    build_dimd2_case4,
    build_real_liouville,
    default_triple,
    einstein_system_residual,
    preset_triple,
)
from pklab.curvature import covariant_derivative_endo, einstein_residual
from pklab.fields import Chart, TensorField, objarray, stacked
from pklab.geometry import Geometry
from pklab.jets import jlog, seed_point
from pklab.linalg import minv, mmul
from pklab.parakahler import validate


def real_liouville_omega(rho, sigma, **_):
    """The fundamental form omega = g(T., .) of the real Liouville family,
    kept as the reference for its T."""

    def omfn(x1, x2, x3, x4):
        r, s = rho(x1), sigma(x2)
        rp, sp = r.derivative(0), s.derivative(1)
        z = 0.0
        return objarray(
            [
                [z, z, rp, rp * s],
                [z, z, sp, sp * r],
                [-rp, -sp, z, z],
                [-rp * s, -sp * r, z, z],
            ]
        )

    return omfn


def complex_liouville_omega(re_part, im_part, **_):
    """The fundamental form of the complex Liouville family, the reference for its T."""

    def omfn(x1, x2, x3, x4):
        R, I = re_part(x1, x2), im_part(x1, x2)
        a, b = R.derivative(0), I.derivative(0)
        z = 0.0
        w13, w14 = 2.0 * a, 2.0 * (a * R + b * I)
        w23, w24 = -2.0 * b, 2.0 * (a * I - b * R)
        return objarray(
            [
                [z, z, w13, w14],
                [z, z, w23, w24],
                [-w13, -w23, z, z],
                [-w14, -w24, z, z],
            ]
        )

    return omfn


class TestConstructorRejections:
    def test_equal_eigenvalue_profiles_rejected(self):
        with pytest.raises(FeasibilityError, match="rho - sigma"):
            build_real_liouville(
                rho=lambda u: u, sigma=lambda u: u,
                box=((1.0, 2.0), (1.0, 2.0), (0.0, 1.0), (0.0, 1.0)),
            )

    def test_vanishing_profile_rejected(self):
        with pytest.raises(FeasibilityError, match="rho"):
            build_real_liouville(
                rho=lambda u: u, sigma=lambda u: u + 5.0,
                box=((-1.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
            )

    def test_vanishing_derivative_rejected(self):
        with pytest.raises(FeasibilityError, match="sigma'"):
            build_real_liouville(
                rho=lambda u: u, sigma=lambda u: 5.0 + 0.0 * u,
            )

    def test_cauchy_riemann_violation_rejected(self):
        with pytest.raises(FeasibilityError, match="dR/dx1"):
            build_complex_liouville(
                re_part=lambda x1, x2: x1,
                im_part=lambda x1, x2: 2.0 * x2 + 0.0 * x1,
            )

    def test_zero_constant_eigenvalue_rejected(self):
        with pytest.raises(FeasibilityError, match="nonzero"):
            build_dimd2_case1(
                rho=lambda u: u, mu=lambda u: 1.0 + 0.0 * u,
                nu=lambda x3, x4: x3 * x4, c=0.0,
            )
        with pytest.raises(FeasibilityError, match="nonzero"):
            build_dimd1(rho=lambda u: u, f_profile=lambda x2, ph: x2 * ph, c=0.0)

    def test_degenerate_second_profile_rejected(self):
        # F independent of the phase makes dF/dx4 vanish identically
        with pytest.raises(FeasibilityError, match="dF/dx4"):
            build_dimd1(
                rho=lambda u: u, f_profile=lambda x2, ph: x2 + 0.0 * ph, c=3.0,
            )

    def test_bad_eps_rejected(self):
        with pytest.raises(FeasibilityError, match="eps"):
            build_real_liouville(rho=lambda u: u, sigma=lambda u: u + 5.0, eps=2)


# (family, coordinate index of rho, of sigma) for the families whose
# constraints are those of two separable eigenvalue profiles
SEPARABLE = (("real-liouville", 0, 1), ("dim-d2-2", 2, 3), ("dim-d2-4", 2, 3))


def _breaking(name, rho_mid, sigma_mid):
    """(rho, sigma) that keep every separable constraint before ``name`` and
    break ``name``; ``*_mid`` is the middle of the profile's coordinate range."""
    if name == "rho":
        return (lambda u: u - rho_mid), (lambda u: u + 10.0)
    if name == "sigma":
        return (lambda u: u + 10.0), (lambda u: u - sigma_mid)
    if name == "rho'":
        return (lambda u: (u - rho_mid) ** 2 + 10.0), (lambda u: u + 20.0)
    if name == "sigma'":
        return (lambda u: u + 10.0), (lambda u: (u - sigma_mid) ** 2 + 20.0)
    # rho - sigma changes sign where both profiles are near 10
    return (lambda u: u - rho_mid + 10.0), (lambda u: u - sigma_mid + 10.0)


@pytest.mark.parametrize("name", ["rho", "sigma", "rho'", "sigma'", "rho - sigma"])
@pytest.mark.parametrize("family,i,j", SEPARABLE)
def test_separable_constraint_rejected_by_name(family, i, j, name):
    # each family reads rho at x_i and sigma at x_j, and differentiates each
    # along its own coordinate: a profile that breaks one constraint first is
    # rejected under that constraint's name
    box = default_triple(family).chart.box
    rho, sigma = _breaking(name, sum(box[i]) / 2.0, sum(box[j]) / 2.0)
    with pytest.raises(FeasibilityError, match=re.escape(f"constraint '{name} != 0' fails")):
        default_triple(family, rho=rho, sigma=sigma)


def test_certificate_values_are_those_of_second_order_coordinates(monkeypatch):
    # the certificate seeds first-order coordinates; a constraint's values keep their bits
    seen = []
    certify = catalog._certify

    def record(chart, constraints, label):
        seen.append((chart, constraints, label))
        return certify(chart, constraints, label)

    monkeypatch.setattr(catalog, "_certify", record)
    for name in FAMILIES:
        default_triple(name)
    for name in PRESETS:
        preset_triple(name)
    assert len(seen) == len(FAMILIES) + len(PRESETS)
    for chart, constraints, label in seen:
        pts = chart.sample_points(2000, seed=7, margin=1e-3)
        for cname, _, fn in constraints:
            field = TensorField((0, 0), fn)
            assert np.array_equal(field.batch_values(pts), field.batch_duals(pts)[0]), (label, cname)


def test_domain_error_names_its_constraint():
    # the constraints are read as one rule: the second one's domain error is
    # reported under its name, before the first one's non-finite values
    constraints = [
        ("infinite", "nonvanishing", lambda *x: x[0] * np.inf),
        ("log", "nonvanishing", lambda *x: jlog(x[1] - 1.5)),
        ("plain", "nonvanishing", lambda *x: x[2]),
    ]
    chart = Chart(((1.0, 2.0),) * 4)
    with pytest.raises(FeasibilityError, match="'log' is undefined on the box"):
        catalog._certify(chart, constraints, "test")
    with pytest.raises(FeasibilityError, match="'infinite' is not finite"):
        catalog._certify(chart, constraints[::2], "test")


class TestFamilyConformance:
    def test_every_family_validates(self, triples):
        for name, tr in triples.items():
            rep = validate(Geometry(tr, tr.sample_points(6)))
            assert rep.all_passed, (name, [c.name for c in rep.checks if not c.passed])

    def test_every_family_satisfies_defining_equation(self, triples):
        for name, tr in triples.items():
            geo = Geometry(tr, tr.sample_points(5))
            worst = max(pj.benenti_residual(geo))
            assert worst < 1e-9, name

    def test_non_parallel_tensor(self, triples):
        for name, tr in triples.items():
            geo = Geometry(tr, tr.sample_points(5))
            nabla = covariant_derivative_endo(geo.gamma(), *geo.vp("a"))
            assert np.max(np.abs(nabla)) > 1e-3, name

    def test_negated_twin_shares_g_and_a(self, triples):
        plus, minus = triples["dim-d2-2"], triples["dim-d2-2neg"]
        p = plus.sample_points(2)[1]
        assert np.allclose(plus.g.values(p), minus.g.values(p))
        assert np.allclose(plus.a.values(p), minus.a.values(p))
        assert np.allclose(plus.t.values(p), -minus.t.values(p))

    def test_epsilon_minus_variant(self):
        tr = build_real_liouville(
            rho=lambda u: u, sigma=lambda u: u, eps=-1,
            box=((2.0, 3.0), (0.5, 1.5), (0.0, 1.0), (0.0, 1.0)),
        )
        rep = validate(Geometry(tr, tr.sample_points(5)))
        assert rep.all_passed, [c.name for c in rep.checks if not c.passed]
        geo = Geometry(tr, tr.sample_points(4))
        assert max(pj.benenti_residual(geo)) < 1e-9
        assert max(pj.connection_difference_residual(geo)) < 1e-9
        assert np.max(pj.ricci_difference_residual(geo)) < 1e-8

    def test_dimd2_case4_k_zero(self):
        tr = build_dimd2_case4(
            rho=lambda u: u, sigma=lambda u: u, k=0.0,
            box=((0.0, 1.0), (0.0, 1.0), (0.5, 1.5), (3.5, 4.5)),
        )
        assert validate(Geometry(tr, tr.sample_points(4))).all_passed
        geo = Geometry(tr, tr.sample_points(4))
        assert max(pj.benenti_residual(geo)) < 1e-9
        # with k = 0 the endomorphism block-diagonalizes
        p = tr.sample_points(1)[0]
        am = tr.a.values(p)
        assert np.max(np.abs(am[:2, 2:])) < 1e-14

    def test_flat_families_are_flat(self, triples, dimd1_flat_preset):
        flats = [triples["dim-d2-2"], triples["dim-d2-2neg"], triples["dim-d2-4"],
                 dimd1_flat_preset]
        for tr in flats:
            geo = Geometry(tr, tr.sample_points(4))
            worst = np.max(np.abs(geo.riemann()))
            assert worst < 1e-9, tr.meta["family"]

    def test_separable_profile_with_additive_term_is_flat(self):
        # F = exp(phi) * x2 + 1/x2 is of the separable shape with all
        # three pieces nonzero; the metric must still be flat
        tr = build_dimd1(
            rho=lambda u: u,
            f_profile=lambda x2, ph: ph.exp() * x2 + 1.0 / x2,
            c=3.0,
        )
        geo = Geometry(tr, tr.sample_points(5))
        assert np.max(np.abs(geo.riemann())) < 1e-9
        assert max(pj.benenti_residual(geo)) < 1e-9

    def test_generic_dimd1_not_flat(self, triples):
        tr = triples["dim-d1"]
        geo = Geometry(tr, tr.sample_points(4))
        worst = np.max(np.abs(geo.riemann()))
        assert worst > 1e-3

    def test_real_liouville_leaf_blocks(self, triples):
        # the (x1, x2) block must be the separable leaf data
        # (rho - sigma) diag(1, eps) with A restricting to diag(rho, sigma)
        tr = triples["real-liouville"]
        for p in tr.sample_points(4):
            rho, sigma = p[0], p[1]  # default profiles are the coordinates
            gm = tr.g.values(p)
            am = tr.a.values(p)
            assert np.allclose(gm[:2, :2], (rho - sigma) * np.eye(2), atol=1e-12)
            assert np.allclose(am[:2, :2], np.diag([rho, sigma]), atol=1e-12)
            assert np.max(np.abs(gm[:2, 2:])) < 1e-14
            assert np.max(np.abs(am[:2, 2:])) < 1e-14

    def test_complex_liouville_leaf_blocks(self, triples):
        # leaf data [[0, I], [I, 0]] for the metric and [[R, -I], [I, R]]
        # for the endomorphism, with R + i I = (x1 + i x2)^2
        tr = triples["complex-liouville"]
        for p in tr.sample_points(4):
            R = p[0] ** 2 - p[1] ** 2
            I = 2.0 * p[0] * p[1]
            gm = tr.g.values(p)
            am = tr.a.values(p)
            assert np.allclose(gm[:2, :2], [[0.0, I], [I, 0.0]], atol=1e-12)
            assert np.allclose(am[:2, :2], [[R, -I], [I, R]], atol=1e-12)
            assert np.max(np.abs(gm[:2, 2:])) < 1e-14

    def test_liouville_t_is_minus_g_inverse_omega(self, monkeypatch):
        # each Liouville builder states T in closed form; it must be the
        # T = -g^{-1} omega of the family's fundamental form, with partials
        built = []
        for name, omega in (("build_real_liouville", real_liouville_omega),
                            ("build_complex_liouville", complex_liouville_omega)):
            def recorded(builder=getattr(catalog, name), omega=omega, **kw):
                built.append((builder(**kw), omega(**kw)))
                return built[-1][0]

            monkeypatch.setattr(catalog, name, recorded)
        default_triple("real-liouville")
        default_triple("real-liouville", eps=-1)
        default_triple("complex-liouville")
        for name in ("einstein-lambda1", "companion-einstein", "complex-einstein-linear"):
            preset_triple(name)
        assert len(built) == 6
        for tr, omfn in built:
            coords = seed_point(tr.sample_points(50, seed=4), 2)
            g, omega, t = (stacked(x, coords[0]) for x in (
                tr.g.components(coords), omfn(*coords), tr.t.components(coords)))
            ref, got = -mmul(minv(g), omega).coeffs, t.coeffs
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), tr.chart.label


class TestEinsteinSystems:
    def test_separable_preset_solves_system(self, einstein_preset):
        tr = einstein_preset
        residual = einstein_system_residual(
            "real-liouville",
            {"rho": lambda u: -6.0 / (u * u), "sigma": lambda u: 6.0 / (u * u), "eps": 1},
            tr.meta["constants"],
            tr.sample_points(6),
        )
        assert residual < 1e-10

    def test_generic_profile_fails_system(self, triples):
        residual = einstein_system_residual(
            "real-liouville",
            {"rho": lambda u: u, "sigma": lambda u: u, "eps": 1},
            {"lam": 1.0},
            triples["real-liouville"].sample_points(4),
        )
        assert residual > 1e-2

    def test_companion_einstein_preset_constants(self, companion_einstein_preset):
        tr = companion_einstein_preset
        residual = einstein_system_residual(
            "real-liouville",
            {
                "rho": lambda u: u.exp() + (-u).exp(),
                "sigma": lambda u: 2.0 * u.cos(),
                "eps": 1,
            },
            tr.meta["constants"],
            tr.sample_points(6),
        )
        assert residual < 1e-12

    def test_complex_system_linear_profile(self):
        # rho(z) = z, lam = 0: rho_z^2 = 1 solves it with d = -1
        pts = np.array([[0.5, 0.8, 0.0, 0.0], [1.0, 1.2, 0.0, 0.0]])
        res = einstein_system_residual(
            "complex-liouville",
            {"re_part": lambda x1, x2: x1, "im_part": lambda x1, x2: x2 + 0.0 * x1},
            {"lam": 0.0, "a": 0.0, "h": 0.0, "d": -1.0},
            pts,
        )
        assert res < 1e-14
        res_bad = einstein_system_residual(
            "complex-liouville",
            {"re_part": lambda x1, x2: x1, "im_part": lambda x1, x2: x2 + 0.0 * x1},
            {"lam": 1.0, "a": 0.0, "h": 0.0, "d": -1.0},
            pts,
        )
        assert res_bad > 1e-3

    def test_dimd2_1_preset_system(self, dimd2_1_einstein_preset):
        tr = dimd2_1_einstein_preset
        c = tr.meta["constant_eigenvalue"]
        res = einstein_system_residual(
            "dim-d2-1",
            {
                "rho": lambda u: u,
                "mu": lambda u: 1.5 / ((u - c) * (u - c)),
                "nu": lambda x3, x4: x3 + x4,
                "c": c,
            },
            {"lam": 1.0, "c1": 0.0, "c2": 0.0, "h": lambda x3: 1.0 + 0.0 * x3},
            tr.sample_points(5),
        )
        assert res < 1e-12

    def test_a_nan_point_fails_the_system(self, einstein_preset, dimd2_1_einstein_preset):
        # a point where the system cannot be evaluated makes the residual
        # non-finite, in front of a good point or behind it
        c = dimd2_1_einstein_preset.meta["constant_eigenvalue"]
        cases = [
            ("real-liouville",
             {"rho": lambda u: -6.0 / (u * u), "sigma": lambda u: 6.0 / (u * u)},
             einstein_preset.meta["constants"], einstein_preset.sample_points(1)[0]),
            ("complex-liouville",
             {"re_part": lambda x1, x2: x1, "im_part": lambda x1, x2: x2 + 0.0 * x1},
             {"lam": 0.0, "a": 0.0, "h": 0.0, "d": -1.0}, np.array([0.5, 0.8, 0.0, 0.0])),
            ("dim-d2-1",
             {"rho": lambda u: u, "mu": lambda u: 1.5 / ((u - c) * (u - c)),
              "nu": lambda x3, x4: x3 + x4, "c": c},
             {"lam": 1.0, "c1": 0.0, "c2": 0.0, "h": lambda x3: 1.0 + 0.0 * x3},
             dimd2_1_einstein_preset.sample_points(1)[0]),
        ]
        bad = np.full(4, np.nan)
        for family, params, constants, good in cases:
            assert einstein_system_residual(family, params, constants, [good]) < 1e-12, family
            for pts in ([bad, good], [good, bad]):
                with np.errstate(invalid="ignore"):
                    res = einstein_system_residual(family, params, constants, np.array(pts))
                assert not np.isfinite(res), (family, pts)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="no Einstein system"):
            einstein_system_residual("dim-d1", {}, {}, np.zeros((1, 4)))


class TestPresets:
    def test_registry_contents(self):
        assert set(FAMILIES) == {
            "real-liouville", "complex-liouville", "dim-d2-1", "dim-d2-2",
            "dim-d2-2neg", "dim-d2-4", "dim-d1", "dim-d1neg",
        }
        for name, preset in PRESETS.items():
            assert preset.family in FAMILIES, name

    def test_family_parameters_are_builder_arguments(self):
        for name, (builder, defaults, params) in FAMILIES.items():
            accepted = inspect.signature(getattr(catalog, builder)).parameters
            assert set(defaults) <= set(accepted), name
            for param, kind in params.items():
                arg = param if kind in (int, float) else kind[0]
                assert arg in accepted, (name, param)

    def test_preset_arguments_are_builder_arguments(self):
        for name, (family, args, _) in PRESETS.items():
            accepted = inspect.signature(getattr(catalog, FAMILIES[family].builder)).parameters
            assert set(args) <= set(accepted), name

    def test_preset_is_its_familys_default_triple_with_einstein_data(self):
        for name, (family, args, meta) in PRESETS.items():
            assert preset_triple(name).meta == {**default_triple(family, **args).meta, **meta}

    def test_every_builder_parameter_is_set_somewhere(self):
        # a builder parameter that no default, --param or preset sets is a
        # knob nothing uses
        builders = {name for name in dir(catalog) if name.startswith("build_")}
        assert builders == {f.builder for f in FAMILIES.values()}
        for builder in builders:
            used = {"box"}
            for family in FAMILIES.values():
                if family.builder == builder:
                    used |= set(family.defaults)
                    used |= {p if k in (int, float) else k[0] for p, k in family.params.items()}
            for preset in PRESETS.values():
                if FAMILIES[preset.family].builder == builder:
                    used |= set(preset.args)
            params = inspect.signature(getattr(catalog, builder)).parameters
            assert set(params) <= used, (builder, set(params) - used)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            default_triple("liouville")
        with pytest.raises(ValueError, match="unknown preset"):
            preset_triple("einstein")

    def test_declared_einstein_constants_hold(
        self, einstein_preset, companion_einstein_preset, dimd2_1_einstein_preset
    ):
        # the linear complex profile solves its first integral with real
        # h = 0, d = -1, so its companion constant is 6 d = -6
        complex_linear = preset_triple("complex-einstein-linear")
        for tr in (einstein_preset, companion_einstein_preset,
                   dimd2_1_einstein_preset, complex_linear):
            lam = tr.meta["einstein"]
            lam_hat = tr.meta["companion_einstein"]
            geo = Geometry(tr, tr.sample_points(3))
            res, res_hat = einstein_residual(geo, lam), einstein_residual(geo, lam_hat, "ghat")
            for i in range(3):
                gm, hm = geo.values("g")[..., i], geo.values("ghat")[..., i]
                assert np.max(np.abs(res[..., i])) < 1e-8 * max(1.0, np.max(np.abs(gm)))
                assert np.max(np.abs(res_hat[..., i])) < 1e-8 * max(1.0, np.max(np.abs(hm)))
