import dataclasses
import sys
import warnings

import numpy as np
import pytest

from pklab import curvature, curves, suites
from pklab import projective as pj
from pklab.catalog import preset_triple
from pklab.fields import DegenerateMetricError, TensorField, objarray
from pklab.geometry import Geometry
from pklab.jets import JetDomainError
from pklab.suites import CHECK_NAMES, demo_einstein, run_suite


def with_constant_a(triple, rows):
    """The triple with A replaced by constant components (plain numbers, no jets)."""
    return dataclasses.replace(triple, a=TensorField((1, 1), lambda *c: objarray(rows)))


def test_unknown_check_rejected(triples):
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(triples["dim-d2-2"], ["flatness", "nope"], n_points=3)


def test_nonpositive_tolerance_rejected(triples):
    with pytest.raises(ValueError, match="positive"):
        run_suite(triples["dim-d2-2"], ["flatness"], n_points=3,
                  tolerances={"flatness/riemann": 0.0})


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
    monkeypatch.setattr(
        pj, "benenti_residual", lambda geo, i: np.nan if i == 2 else original(geo, i)
    )
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


def test_domain_error_in_ricci_difference_fails_both_results(triples, monkeypatch):
    original = pj.ricci_difference_residual
    calls = []

    def failing_at_1(geo, i):
        calls.append(i)
        if i == 1:
            raise JetDomainError("outside the domain")
        return original(geo, i)

    monkeypatch.setattr(pj, "ricci_difference_residual", failing_at_1)
    report = run_suite(triples["dim-d2-4"], ["ricci-diff"], n_points=3)
    assert all(not c.passed and "eval-error:JetDomainError" in c.flags for c in report.checks)
    assert len(report.checks) == 2
    # one evaluation per point serves both results; only the failed point is retried
    assert sorted(calls) == [0, 1, 1, 2]


def test_domain_error_in_rank_fails_both_rank_results(triples, monkeypatch):
    original = pj.distribution_d_rank

    def failing_at_1(geo, i):
        if i == 1:
            raise DegenerateMetricError("degenerate at one point")
        return original(geo, i)

    monkeypatch.setattr(pj, "distribution_d_rank", failing_at_1)
    report = run_suite(triples["dim-d2-4"], ["rank"], n_points=3)
    assert len(report.checks) == 2
    assert all(not c.passed and "eval-error:DegenerateMetricError" in c.flags
               for c in report.checks)


def test_domain_error_in_non_parallel_fails_it(triples, monkeypatch):
    original = suites.covariant_derivative_endo
    calls = [0]

    def failing_at_second_point(*args):
        calls[0] += 1
        if calls[0] == 2:
            raise DegenerateMetricError("degenerate at one point")
        return original(*args)

    monkeypatch.setattr(suites, "covariant_derivative_endo", failing_at_second_point)
    report = run_suite(triples["dim-d2-4"], ["benenti"], n_points=3)
    check = next(c for c in report.checks if c.name == "benenti/non-parallel")
    assert not check.passed and "eval-error:DegenerateMetricError" in check.flags


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


def test_unsettled_geodesic_sweeps_fail_geodesic_closed(triples, monkeypatch):
    # symbols that change at every call: the Picard sweeps never settle
    rng = np.random.default_rng(0)
    monkeypatch.setattr(curves, "christoffel_batch", lambda g, x: rng.normal(size=(len(x), 4, 4, 4)))
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
    original = Geometry.lam

    def degenerate_at_2(geo, i):
        if i == 2:
            raise DegenerateMetricError("metric determinant 0")
        return original(geo, i)

    monkeypatch.setattr(Geometry, "lam", degenerate_at_2)
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


def test_family_members_evaluated_once_over_all_points(monkeypatch):
    calls = _count_calls(monkeypatch, curvature, "christoffel_jets")
    report = run_suite(preset_triple("einstein-lambda1"), ["family-einstein"], n_points=5)
    assert report.all_passed
    assert calls[0] == 24  # one per grid member (the origin is skipped), not per point
