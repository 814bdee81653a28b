import numpy as np
import pytest

from pklab.fields import TensorField, objarray
from pklab.parakahler import (
    ParaKahlerTriple,
    fundamental_form,
    null_coordinate_check,
    signature_counts,
    validate,
)
from pklab.fields import Chart
from pklab.geometry import Geometry

FLAT = [
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
]
BLOCK_T = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()


def flat_triple(t_rows=None):
    chart = Chart(((0.0, 1.0),) * 4, label="flat")
    g = TensorField((0, 2), lambda *c: objarray(FLAT), name="g")
    t = TensorField((1, 1), lambda *c: objarray(t_rows or BLOCK_T), name="T")
    return ParaKahlerTriple(chart=chart, g=g, t=t)


def sampled(triple, n):
    """Geometry of a triple at its first n sample points."""
    return Geometry(triple, triple.sample_points(n))


def test_flat_block_triple_passes():
    rep = validate(sampled(flat_triple(), 5))
    assert rep.all_passed, [c.name for c in rep.checks if not c.passed]


def test_non_tracefree_involution_fails_eigendistribution_check():
    rep = validate(sampled(flat_triple(np.diag([1.0, 1.0, 1.0, -1.0]).tolist()), 5))
    failed = {c.name for c in rep.checks if not c.passed}
    assert "t-trace-free" in failed


def test_fundamental_form_flat_block_hand_values():
    # omega_ij = T^k_i g_kj: with the +/- block structure the top-right
    # entries keep the sign of g and the bottom-left flip it
    om = fundamental_form(Geometry(flat_triple(), [[0.2, 0.2, 0.2, 0.2]]), 0)
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    assert np.allclose(om, expected)
    assert np.max(np.abs(om + om.T)) == 0.0


def test_fundamental_form_matches_displayed_form(triples):
    # for the separable family omega was entered independently of T;
    # recomputing g(T., .) must reproduce it
    tr = triples["real-liouville"]
    geo = Geometry(tr, tr.sample_points(4))
    for i, p in enumerate(geo.points):
        r, s = p[0], p[1]  # rho = x1, sigma = x2 for the default profiles
        expected = np.zeros((4, 4))
        expected[0, 2], expected[0, 3] = 1.0, s  # rho' = 1
        expected[1, 2], expected[1, 3] = 1.0, r  # sigma' = 1
        expected[2, 0], expected[2, 1] = -1.0, -1.0
        expected[3, 0], expected[3, 1] = -s, -r
        assert np.allclose(fundamental_form(geo, i), expected, atol=1e-10)


def test_null_coordinate_check(triples):
    def check(name):
        tr = triples[name]
        return null_coordinate_check(Geometry(tr, tr.sample_points(20)))

    assert check("dim-d2-2")
    assert check("dim-d1")
    assert not check("dim-d2-2neg")
    assert not check("real-liouville")
    assert not check("dim-d2-1")


def test_signature_counts():
    assert signature_counts(np.array(FLAT)) == (2, 2, 0)
    assert signature_counts(np.diag([1.0, 2.0, 3.0, -1.0])) == (3, 1, 0)
    assert signature_counts(np.diag([1.0, 1e-14, -1.0, -1.0])) == (1, 2, 1)


def test_validate_all_catalog_families(triples):
    for name, tr in triples.items():
        rep = validate(sampled(tr, 8))
        assert rep.all_passed, (name, [c.name for c in rep.checks if not c.passed])


def test_isotropic_blocks_in_adapted_charts(triples):
    # in adapted coordinates g vanishes on T+ x T+ and T- x T-
    for name in ("dim-d2-2", "dim-d1"):
        tr = triples[name]
        for p in tr.sample_points(3):
            gm = tr.g.values(p)
            assert np.max(np.abs(gm[:2, :2])) < 1e-12
            assert np.max(np.abs(gm[2:, 2:])) < 1e-12


def test_validate_reports_evaluation_errors_as_flags():
    chart = Chart(((-1.0, 1.0),) * 4, label="bad")

    def gfn(x1, x2, x3, x4):
        rows = [[0.0, 0.0, x1.log(), 0.0], [0.0, 0.0, 0.0, 1.0],
                [x1.log(), 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        return objarray(rows)

    bad = ParaKahlerTriple(
        chart=chart,
        g=TensorField((0, 2), gfn),
        t=TensorField((1, 1), lambda *c: objarray(BLOCK_T)),
    )
    rep = validate(sampled(bad, 6))
    flagged = [c for c in rep.checks if any("eval-error" in f for f in c.flags)]
    assert flagged


def test_validate_fails_every_check_when_every_point_raises():
    # g and T both take log(x1), undefined on the whole box
    def gfn(x1, x2, x3, x4):
        rows = [[0.0, 0.0, x1.log(), 0.0], [0.0, 0.0, 0.0, 1.0],
                [x1.log(), 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        return objarray(rows)

    def tfn(x1, x2, x3, x4):
        x1.log()
        return objarray(BLOCK_T)

    bad = ParaKahlerTriple(
        chart=Chart(((-2.0, -1.0),) + ((0.0, 1.0),) * 3, label="bad"),
        g=TensorField((0, 2), gfn),
        t=TensorField((1, 1), tfn),
    )
    rep = validate(sampled(bad, 4))
    assert all(not c.passed for c in rep.checks)
    assert all(c.residual == np.inf for c in rep.checks)
    assert all("eval-error:JetDomainError" in c.flags for c in rep.checks)


def test_validate_propagates_programming_errors():
    def gfn(*coords):
        raise TypeError("bug in a field")

    triple = ParaKahlerTriple(
        chart=Chart(((0.0, 1.0),) * 4),
        g=TensorField((0, 2), gfn),
        t=TensorField((1, 1), lambda *c: objarray(BLOCK_T)),
    )
    with pytest.raises(TypeError, match="bug in a field"):
        validate(sampled(triple, 3))


def test_validate_rejects_unknown_tolerance_names():
    with pytest.raises(ValueError, match="names no result"):
        validate(sampled(flat_triple(), 2), {"t-paralel": 1e-3})
