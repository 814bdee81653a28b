import dataclasses
import json
import sys
import warnings

import numpy as np
import pytest

from pklab import curvature, curves, geometry, suites
from pklab import projective as pj
from pklab.catalog import FAMILIES, PRESETS, default_triple, preset_triple
from pklab.exprs import compile_profile
from pklab.fields import DegenerateMetricError, TensorField, objarray
from pklab.geometry import Geometry
from pklab.jets import DualBatch, JetDomainError
from pklab.suites import CHECK_NAMES, demo_einstein, run_suite


def with_constant_a(triple, rows):
    """The triple with A replaced by constant components (plain numbers, no jets)."""
    return dataclasses.replace(triple, a=TensorField((1, 1), lambda *c: objarray(rows)))


def strict_json(report) -> dict:
    """The report's JSON read by a parser that refuses NaN and Infinity (RFC 8259)."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(report.to_json(), parse_constant=refuse)


def test_unknown_check_rejected(triples):
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(triples["dim-d2-2"], ["flatness", "nope"], n_points=3)


def test_nonpositive_tolerance_rejected(triples):
    with pytest.raises(ValueError, match="positive"):
        run_suite(triples["dim-d2-2"], ["flatness"], n_points=3,
                  tolerances={"flatness/riemann": 0.0})


def test_no_sample_points_rejected(triples):
    with pytest.raises(ValueError, match="n_points must be at least 1"):
        run_suite(triples["dim-d2-2"], ["rank"], n_points=0)


def test_unknown_tolerance_name_rejected(triples):
    with pytest.raises(ValueError, match="names no result.*flatness/riemann"):
        run_suite(triples["dim-d2-2"], ["flatness"], n_points=3,
                  tolerances={"flatness/riemman": 1e-30})


def test_full_check_list_runs_on_plain_family(triples):
    report = run_suite(triples["dim-d2-2"], list(CHECK_NAMES), n_points=4)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]
    by_name = {c.name: c for c in report.checks}
    # checks that need declared Einstein data are flagged, not failed
    assert "no-einstein-constant-declared" in by_name["einstein/metric"].flags
    assert by_name["flatness/riemann"].points == 4  # this family is flat, so it ran


def test_flatness_skipped_on_curved_family(triples):
    report = run_suite(triples["real-liouville"], ["flatness"], n_points=3)
    check = report.checks[0]
    assert check.passed and "not-declared-flat" in check.flags


def test_adapted_chart_extra_checks_present(triples):
    report = run_suite(triples["dim-d1"], ["benenti", "companion"], n_points=4)
    names = {c.name for c in report.checks}
    assert "benenti/adapted-block" in names
    assert "companion/potential-exponential" in names
    assert report.all_passed


def test_demo_passes_and_is_deterministic():
    a = demo_einstein(n_points=5, seed=1)
    b = demo_einstein(n_points=5, seed=1)
    assert a.all_passed
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("seed", [3, 6, 7])
def test_negative_control_detects_off_plane_curves(triples, seed):
    # seeds at which straight lines of a flat metric, a weaker control, come out
    # nearly T-planar
    report = run_suite(triples["dim-d2-2"], ["geodesic"], n_points=2, seed=seed)
    control = next(c for c in report.checks if c.name == "geodesic/negative-control")
    assert control.passed


def test_unevaluable_second_control_fails_the_negative_control(triples, monkeypatch):
    # min(0.5, nan) is 0.5: a NaN control must fail the control wherever it stands
    controls, control_curves, planarity = [], suites._control_curves, suites.t_planarity_residual

    def recorded(*args):
        controls[:] = control_curves(*args)
        return controls

    def nan_for_the_second(g, t, path):
        out = planarity(g, t, path)
        second = len(controls) > 1 and path is controls[1]
        return dataclasses.replace(out, max_residual=np.nan) if second else out

    monkeypatch.setattr(suites, "_control_curves", recorded)
    monkeypatch.setattr(suites, "t_planarity_residual", nan_for_the_second)
    report = run_suite(triples["dim-d2-2"], ["geodesic"], n_points=2)
    by_name = {c.name: c for c in report.checks}
    assert len(controls) == 3
    assert by_name["geodesic/planarity"].passed
    assert not by_name["geodesic/negative-control"].passed


def test_parakahler_checks_the_runs_points(triples, monkeypatch):
    seen = []
    original = suites.validate

    def spy(geo, tolerances):
        seen.append(geo.points.copy())
        return original(geo, tolerances)

    monkeypatch.setattr(suites, "validate", spy)
    for seed in (0, 1):
        assert run_suite(triples["dim-d2-4"], ["parakahler"], n_points=3, seed=seed).all_passed
    assert not np.array_equal(seen[0], seen[1])
    assert np.array_equal(seen[1], triples["dim-d2-4"].sample_points(3, seed=1))


def test_nan_at_a_later_point_fails_its_check(triples, monkeypatch):
    original = pj.benenti_residual

    def nan_at_2(geo):
        out = original(geo)
        out[2] = np.nan
        return out

    monkeypatch.setattr(pj, "benenti_residual", nan_at_2)
    report = run_suite(triples["dim-d2-4"], ["benenti"], n_points=4)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["benenti/equation"].passed
    assert by_name["benenti/hamiltonian-form"].passed


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every pklab global bound to it."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("pklab."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_christoffel_symbols_evaluated_once_per_metric_and_point(monkeypatch):
    triple = preset_triple("einstein-lambda1")
    calls = _count_calls(monkeypatch, curvature, "christoffel_jets")
    n_points = 2
    assert run_suite(triple, list(CHECK_NAMES), n_points=n_points).all_passed
    first = calls[0]
    # g, the companion and the 24 family members at each point
    assert 0 < first <= 26 * n_points
    run_suite(triple, list(CHECK_NAMES), n_points=n_points)
    assert calls[0] == 2 * first  # nothing cached across calls


def test_degenerate_spectrum_fails_closed(triples):
    # A = 2 Id has a double eigenvalue everywhere: no smooth eigenvalue fields
    triple = with_constant_a(triples["real-liouville"], (2.0 * np.eye(4)).tolist())
    report = run_suite(triple, ["benenti"], n_points=4)
    by_name = {c.name: c for c in report.checks}
    eig = by_name["benenti/eigen-gradient"]
    assert not eig.passed and any(f.startswith("eval-error:") for f in eig.flags)
    assert {"benenti/equation", "benenti/hamiltonian-form", "benenti/g-symmetric",
            "benenti/commutes-with-t", "benenti/det-positive",
            "benenti/non-parallel"} < set(by_name)


def test_constant_benenti_tensor_runs_benenti_and_rank(triples):
    rows = [[3.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0],
            [0.0, 0.0, 8.0, 15.0], [0.0, 0.0, -1.0, 0.0]]
    report = run_suite(with_constant_a(triples["real-liouville"], rows),
                       ["benenti", "rank"], n_points=3)
    names = {c.name for c in report.checks}
    assert {"benenti/eigen-gradient", "rank/dimension", "rank/configuration"} <= names


def test_nonpositive_det_a_fails_companion_closed(triples):
    triple = with_constant_a(triples["dim-d2-2"], np.diag([-1.0, 1.0, 1.0, 1.0]).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_suite(triple, ["companion", "ricci-diff"], n_points=3)
    by_name = {c.name: c for c in report.checks}
    for name in ("companion/connection-difference", "companion/potential-duality",
                 "companion/pair-roundtrip", "companion/symmetric",
                 "companion/para-hermitian", "companion/mobility-invariance",
                 "ricci-diff/identity", "ricci-diff/gradient-form"):
        assert not by_name[name].passed, name
        assert "eval-error:DegenerateMetricError" in by_name[name].flags, name
    written = {c["name"]: c for c in strict_json(report)["checks"]}
    assert written["companion/symmetric"]["residual"] is None
    assert not written["companion/symmetric"]["passed"]


def test_domain_error_in_ricci_difference_fails_both_results(triples, monkeypatch):
    calls = []

    def failing(geo):
        calls.append(len(geo))
        raise JetDomainError("outside the domain")

    monkeypatch.setattr(pj, "ricci_difference_residual", failing)
    report = run_suite(triples["dim-d2-4"], ["ricci-diff"], n_points=3)
    assert all(not c.passed and "eval-error:JetDomainError" in c.flags for c in report.checks)
    assert len(report.checks) == 2
    # one evaluation over all the points serves both results; its error is kept
    assert calls == [3]


def test_domain_error_in_rank_fails_both_rank_results(triples, monkeypatch):
    def failing(geo):
        raise DegenerateMetricError("degenerate at one point")

    monkeypatch.setattr(pj, "distribution_d_rank", failing)
    report = run_suite(triples["dim-d2-4"], ["rank"], n_points=3)
    assert len(report.checks) == 2
    assert all(not c.passed and "eval-error:DegenerateMetricError" in c.flags
               for c in report.checks)


def test_domain_error_in_non_parallel_fails_it(triples, monkeypatch):
    calls = [0]

    def failing(*args):
        calls[0] += 1
        raise DegenerateMetricError("degenerate at one point")

    monkeypatch.setattr(suites, "covariant_derivative_endo", failing)
    report = run_suite(triples["dim-d2-4"], ["benenti"], n_points=3)
    check = next(c for c in report.checks if c.name == "benenti/non-parallel")
    assert not check.passed and "eval-error:DegenerateMetricError" in check.flags
    assert calls[0] == 1  # one evaluation over all the points


def test_double_eigenvalue_at_one_point_fails_only_that_point(triples):
    # A = diag(x1, c, x1, c) commutes with T; its eigenvalues meet where x1 = c,
    # at sample point 1 alone
    tr = triples["dim-d2-2"]
    pts = tr.sample_points(3)
    c = pts[1, 0]

    def a_comps(x1, *rest):
        return objarray([[x1, 0.0, 0.0, 0.0], [0.0, c, 0.0, 0.0],
                         [0.0, 0.0, x1, 0.0], [0.0, 0.0, 0.0, c]])

    triple = dataclasses.replace(tr, a=TensorField((1, 1), a_comps))
    residual = pj.eigen_gradient_residual(Geometry(triple, pts))
    assert residual[1] == np.inf and np.all(np.isfinite(residual[[0, 2]]))
    report = run_suite(triple, ["benenti", "rank"], n_points=3)
    by_name = {c.name: c for c in report.checks}
    eig = by_name["benenti/eigen-gradient"]
    assert not eig.passed and eig.flags == ["eval-error:JetDomainError"]
    # the rank result keeps the flags of every point
    assert "degenerate-spectrum" in by_name["rank/dimension"].flags


def _declared_pointwise():
    """(name, check) of every declared result with a pointwise residual."""
    checks = [("parakahler/" + c.name, c) for c in suites.AXIOMS]
    for group in (suites._BENENTI, (suites._NON_PARALLEL,), suites._KILLING, suites._RANK,
                  suites._COMPANION, suites._RICCI_DIFF, suites._EINSTEIN, (suites._FLATNESS,)):
        checks += [(c.name, c) for c in group]
    return checks


@pytest.mark.parametrize("kind, name", [("family", f) for f in sorted(FAMILIES)]
                         + [("preset", p) for p in sorted(PRESETS)])
def test_batched_residuals_equal_one_point_residuals(kind, name):
    triple = default_triple(name) if kind == "family" else preset_triple(name)
    pts = triple.sample_points(4)
    geo = Geometry(triple, pts)
    alone = [Geometry(triple, pts[k:k + 1]) for k in range(4)]
    meta = triple.meta
    for label, check in _declared_pointwise():
        if label.startswith("einstein/") and meta.get(
                "einstein" if label == "einstein/metric" else "companion_einstein") is None:
            continue
        batched = check.residual(geo)
        assert batched.shape == (4,), label
        for k in range(4):
            one = check.residual(alone[k])
            assert one.shape == (1,), label
            assert abs(batched[k] - one[0]) <= 1e-15, (label, k, batched[k], one[0])


def test_nonpositive_det_a_fails_geodesic_closed(triples):
    triple = with_constant_a(triples["dim-d2-2"], np.diag([-1.0, 1.0, 1.0, 1.0]).tolist())
    report = run_suite(triple, ["geodesic"], n_points=3)
    assert [c.name for c in report.checks] == [
        "geodesic/energy-drift", "geodesic/negative-control", "geodesic/planarity"]
    for c in report.checks:
        assert not c.passed and c.residual == np.inf, c.name
        assert c.flags == ["eval-error:DegenerateMetricError"], c.name


def test_singular_metric_fails_geodesic_and_companion_closed(triples):
    # constant singular g: the geodesic symbols and A from the pair (g, companion)
    # invert singular matrices
    singular = np.diag([1.0, 1.0, -1.0, 0.0]).tolist()
    triple = dataclasses.replace(
        triples["dim-d2-2"], g=TensorField((0, 2), lambda *c: objarray(singular)))
    report = run_suite(triple, ["geodesic", "companion"], n_points=3)
    by_name = {c.name: c for c in report.checks}
    for name in ("geodesic/energy-drift", "geodesic/negative-control", "geodesic/planarity",
                 "companion/pair-roundtrip"):
        assert by_name[name].residual == np.inf, name
        assert by_name[name].flags == ["eval-error:ZeroDivisionError"], name
    # every other companion result that inverts g fails closed as well; the
    # three that read values of g, T and A alone are evaluated
    evaluated = {name for name, c in by_name.items() if not any("eval-error" in f for f in c.flags)}
    assert evaluated == {"companion/symmetric", "companion/para-hermitian",
                         "companion/potential-exponential"}
    written = {c["name"]: c for c in strict_json(report)["checks"]}
    assert written["geodesic/planarity"]["residual"] is None
    assert written["companion/symmetric"]["residual"] == by_name["companion/symmetric"].residual


def test_unsettled_geodesic_sweeps_fail_geodesic_closed(triples, monkeypatch):
    # a spray that changes at every call: the Picard sweeps never settle
    rng = np.random.default_rng(0)
    monkeypatch.setattr(curves, "geodesic_spray", lambda g, x, v: rng.normal(size=(len(x), 4)))
    report = run_suite(triples["dim-d2-2"], ["geodesic"], n_points=3)
    assert [c.name for c in report.checks] == [
        "geodesic/energy-drift", "geodesic/negative-control", "geodesic/planarity"]
    for c in report.checks:
        assert not c.passed and c.residual == np.inf, c.name
        assert c.flags == ["eval-error:GeodesicConvergenceError"], c.name


def test_programming_error_in_geodesic_propagates(triples, monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("bug in the integrator")

    monkeypatch.setattr(suites, "integrate_geodesic_bundle", bug)
    with pytest.raises(TypeError, match="bug in the integrator"):
        run_suite(triples["dim-d2-2"], ["geodesic"], n_points=3)


def test_domain_error_in_family_sweep_fails_its_results(monkeypatch):
    # Lam = V1 / 2 is read from the Killing batch over all the points
    def degenerate(geo):
        raise DegenerateMetricError("metric determinant 0")

    monkeypatch.setitem(geometry._BUILDERS, "killing", degenerate)
    report = run_suite(preset_triple("einstein-lambda1"), ["family-einstein"], n_points=4)
    assert [c.name for c in report.checks] == [
        "family-einstein/prediction", "family-einstein/ricci", "family-einstein/spread"]
    for c in report.checks:
        assert not c.passed and c.residual == np.inf, c.name
        assert c.flags == ["eval-error:DegenerateMetricError"], c.name


def test_programming_error_in_family_sweep_propagates(monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("bug in the family sweep")

    monkeypatch.setattr(pj, "einstein_family_constant", bug)
    with pytest.raises(TypeError, match="bug in the family sweep"):
        run_suite(preset_triple("einstein-lambda1"), ["family-einstein"], n_points=4)


def test_kinetic_energy_evaluates_no_companion_partials(triples, monkeypatch):
    # ghat's partials feed the Picard sweeps; its energy along a curve needs values only
    calls = []  # (field name, inside kinetic_energy) per batch_duals call
    inside = [False]
    energy_calls = [0]
    batch_duals, kinetic_energy = TensorField.batch_duals, suites.kinetic_energy

    def counted(field, points):
        calls.append((field.name, inside[0]))
        return batch_duals(field, points)

    def energy(g, path):
        energy_calls[0] += 1
        inside[0] = True
        try:
            return kinetic_energy(g, path)
        finally:
            inside[0] = False

    monkeypatch.setattr(TensorField, "batch_duals", counted)
    monkeypatch.setattr(suites, "kinetic_energy", energy)
    assert run_suite(triples["real-liouville"], ["geodesic"]).all_passed
    assert energy_calls[0] == 3
    assert ("companion", False) in calls
    assert ("companion", True) not in calls


def test_second_order_duals_are_seeded_only_for_partials(monkeypatch):
    # record the order of every coordinate batch and the readers it was seeded under
    seeds = []  # (order, readers) per DualBatch.variable call
    readers = []
    variable = DualBatch.variable

    def seeded(i, values, dim, order=2):
        seeds.append((order, tuple(readers)))
        return variable(i, values, dim, order)

    def reading(name, fn, label=None):
        def wrapper(*args, **kwargs):
            readers.append(name if label is None else label(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                readers.pop()
        return wrapper

    monkeypatch.setattr(DualBatch, "variable", staticmethod(seeded))
    triples = {name: default_triple(name) for name in FAMILIES}
    assert seeds and {order for order, _ in seeds} == {1}  # the certificates read values only

    seeds.clear()
    monkeypatch.setattr(TensorField, "batch_duals",
                        reading("duals", TensorField.batch_duals))
    monkeypatch.setattr(TensorField, "batch_values",
                        reading("values", TensorField.batch_values, lambda f, p: f"values:{f.name}"))
    monkeypatch.setattr(suites, "kinetic_energy", reading("energy", suites.kinetic_energy))
    spray = reading("spray", curvature.geodesic_spray)
    for module in (curves, suites):
        monkeypatch.setattr(module, "geodesic_spray", spray)
    assert run_suite(triples["real-liouville"], ["geodesic"]).all_passed
    second = [r for order, r in seeds if order == 2]
    assert second and all(r[:2] == ("spray", "duals") for r in second)
    assert all(order == 1 for order, r in seeds if "energy" in r or "values:T" in r)
    assert any("energy" in r for _, r in seeds) and any("values:T" in r for _, r in seeds)


def test_family_members_evaluated_once_over_all_points(monkeypatch):
    # the 24 members share one connection beyond the Geometry's own, G_K of
    # K = mu1 g - g A; building each member as jets took one per member
    tr = preset_triple("einstein-lambda1")
    geo = Geometry(tr, tr.sample_points(5))
    geo.batch("gamma")
    calls = _count_calls(monkeypatch, curvature, "christoffel_jets")
    results = suites._suite_family_einstein(geo, {})
    assert [c.name for c in results] == [c.name for c in suites._FAMILY]
    assert all(c.passed for c in results)
    assert calls[0] <= 1


def test_failed_batch_quantity_is_built_once(triples, monkeypatch):
    # det A = -1 < 0: the failure is kept, not rebuilt for every point and result
    triple = with_constant_a(triples["dim-d2-2"], np.diag([-1.0, 1.0, 1.0, 1.0]).tolist())
    calls = _count_calls(monkeypatch, geometry, "_det_a")
    report = run_suite(triple, ["companion", "ricci-diff"], n_points=20)
    assert calls[0] == 1
    # the verdicts of a rebuild at every read: only the two results that read
    # neither det A nor the companion metric are evaluated
    evaluated = {"companion/mobility-solution", "companion/sigma-parallel"}
    for c in report.checks:
        assert c.passed == (c.name == "companion/sigma-parallel"), c.name
        assert c.flags == ([] if c.name in evaluated else ["eval-error:DegenerateMetricError"])


def test_potential_exponential_reads_psi_where_mu2_is_negative():
    # rho = -x3 < 0 < sigma: mu2 = rho sigma < 0 and det A = mu2^2 > 0
    triple = default_triple("dim-d2-2", rho=compile_profile("-x3", ("x3",)))
    geo = Geometry(triple, triple.sample_points(20))
    assert np.all(geo.values("mu")[1] < 0)
    report = run_suite(triple, ["companion"], n_points=20)
    check = next(c for c in report.checks if c.name == "companion/potential-exponential")
    assert check.passed and 0.0 < check.residual < 1e-14


def test_potential_exponential_fails_where_psi_is_undefined(triples):
    triple = with_constant_a(triples["dim-d2-2"], np.diag([-1.0, 1.0, 1.0, 1.0]).tolist())
    report = run_suite(triple, ["companion"], n_points=3)
    check = next(c for c in report.checks if c.name == "companion/potential-exponential")
    assert not check.passed and check.flags == ["eval-error:DegenerateMetricError"]


def test_near_degenerate_metric_at_one_point_fails_every_inverse_reader(triples):
    # row and column 0 of g scaled by f = (x1 - x1 of point 1)^2 + 1e-8:
    # |det g| = f^2 |det g0| is under the guard at point 1 only, and nonzero
    # everywhere (a g scaled as a whole stays regular: the guard has no units)
    tr = triples["dim-d2-2"]
    x1 = tr.sample_points(4)[1, 0]

    def g_comps(*c):
        f = (c[0] - x1) * (c[0] - x1) + 1e-8
        out = tr.g.components(c).copy()
        out[0, :] = out[0, :] * f
        out[:, 0] = out[:, 0] * f
        return out

    triple = dataclasses.replace(tr, g=TensorField((0, 2), g_comps))
    report = run_suite(triple, ["parakahler", "benenti", "killing", "companion"], n_points=4)
    by_name = {c.name: c for c in report.checks}
    for name in ("parakahler/t-parallel", "benenti/equation", "benenti/eigen-gradient",
                 "killing/rotated-gradients", "killing/brackets",
                 "companion/connection-difference", "companion/potential-duality",
                 "companion/sigma-parallel", "companion/mobility-solution"):
        assert by_name[name].residual == np.inf, name
        assert by_name[name].flags == ["eval-error:DegenerateMetricError"], name
    # results that read only values of g, T and A are evaluated
    for name in ("parakahler/g-symmetric", "benenti/g-symmetric", "companion/symmetric"):
        assert np.isfinite(by_name[name].residual), name


def test_family_constant_inverts_once_per_member(monkeypatch):
    # one stacked (alpha Id + beta A)^-1 over all the points; A^-1 and Lam
    # come from the Geometry's batches
    calls = []
    monkeypatch.setattr(pj, "minv", lambda m: calls.append(m.shape) or np.linalg.inv(m))
    report = run_suite(preset_triple("einstein-lambda1"), ["family-einstein"], n_points=5)
    assert report.all_passed
    assert calls == [(5, 4, 4)] * 24  # the origin of the 5 x 5 grid is skipped


def test_nan_in_one_direction_fails_the_defining_equation(triples, monkeypatch):
    # the residual's maximum over directions keeps a NaN from any of them
    original = pj.covariant_derivative_endo

    def nan_in_direction_1(*args):
        out = original(*args)
        out[1] = np.nan
        return out

    monkeypatch.setattr(pj, "covariant_derivative_endo", nan_in_direction_1)
    report = run_suite(triples["dim-d2-4"], ["benenti"], n_points=3)
    check = next(c for c in report.checks if c.name == "benenti/equation")
    assert not check.passed and np.isnan(check.residual)
