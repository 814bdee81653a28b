import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_partial
from pklab.jets import (
    DualBatch,
    Jet,
    JetDomainError,
    dual_point,
    seed_point,
)


def test_space_size_grows_as_binomial():
    from pklab.jets import JetSpace

    assert JetSpace(4, 3).size == 35  # C(4+3, 3)
    assert JetSpace(2, 2).size == 6
    assert JetSpace(1, 3).size == 4


def test_seed_variable_basic():
    j = Jet.variable(0, 2.0, 2, 2)
    sp = j.space
    assert j.value == 2.0
    assert j.coeffs[sp.position[(1, 0)]] == 1.0
    assert j.coeffs[sp.position[(0, 1)]] == 0.0
    assert np.count_nonzero(j.coeffs) == 2


def test_seed_variable_zero_base():
    j = Jet.variable(1, 0.0, 2, 1)
    sp = j.space
    assert j.value == 0.0
    assert j.coeffs[sp.position[(0, 1)]] == 1.0
    assert j.coeffs[sp.position[(1, 0)]] == 0.0


def test_seed_variable_index_error():
    with pytest.raises(IndexError):
        Jet.variable(4, 0.0, 4, 2)


def test_square_taylor_at_three():
    # x^2 at x=3: value 9, first derivative 6, Taylor coefficient of t^2 is 1
    x = Jet.variable(0, 3.0, 1, 3)
    f = x * x
    assert f.value == 9.0
    assert f.partial([1]) == 6.0
    assert f.coeffs[f.space.position[(2,)]] == 1.0
    assert f.partial([2]) == 2.0


def test_polynomial_product_matches_symbolic():
    # (1 + 2x + 3y) (4 + 5xy) expanded by hand in d=2, K=3
    xs = seed_point([0.0, 0.0], 3)
    x, y = xs
    p = 1.0 + 2.0 * x + 3.0 * y
    q = 4.0 + 5.0 * x * y
    f = p * q
    expected = {
        (0, 0): 4.0,
        (1, 0): 8.0,
        (0, 1): 12.0,
        (1, 1): 5.0,
        (2, 1): 10.0,
        (1, 2): 15.0,
    }
    sp = f.space
    for alpha in sp.multi_indices:
        assert f.coeffs[sp.position[alpha]] == pytest.approx(
            expected.get(alpha, 0.0), abs=1e-15
        )


def test_log_expansion_at_one():
    x = Jet.variable(0, 1.0, 1, 2)
    lg = x.log()
    assert np.allclose(lg.coeffs, [0.0, 1.0, -0.5])
    assert lg.partial([2]) == pytest.approx(-1.0)


def test_sqrt_of_square_chain_rule():
    # d/dx sqrt(x^2) = 1 for x > 0
    x = Jet.variable(0, 2.0, 1, 1)
    f = (x * x).sqrt()
    assert f.value == pytest.approx(2.0)
    assert f.partial([1]) == pytest.approx(1.0)


def test_domain_errors_name_the_function():
    zero = Jet.constant(0.0, 1, 2)
    with pytest.raises(JetDomainError, match="reciprocal"):
        zero.reciprocal()
    neg = Jet.constant(-1.0, 1, 2)
    with pytest.raises(JetDomainError, match="log"):
        neg.log()
    with pytest.raises(JetDomainError, match="sqrt"):
        neg.sqrt()
    with pytest.raises(JetDomainError, match="pow"):
        neg.pow(0.5)


def test_partial_mixed_and_const():
    xs = seed_point([2.0, 5.0], 2)
    f = xs[0] * xs[1]
    assert f.partial([1, 1]) == pytest.approx(1.0)
    assert f.partial([0, 0]) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="order"):
        f.partial([2, 1])


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(av, bv, cv):
    def mk(vals):
        x, y = seed_point([vals[0], vals[1]], 2)
        return vals[2] + x * y + x

    a, b, c = mk(av), mk(bv), mk(cv)
    lhs = (a + b) + c
    rhs = a + (b + c)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


@given(st.floats(min_value=0.3, max_value=2.0), st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(x0, y0):
    x, y = seed_point([x0, y0], 2)
    a = x.exp() + y * y
    b = (x + 2.0 * y).sin() + 1.5
    prod = a * b
    for i in range(2):
        e = [0, 0]
        e[i] = 1
        lhs = prod.partial(e)
        rhs = a.value * b.partial(e) + b.value * a.partial(e)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _random_composition(rng):
    """A smooth random composition of eligible elementary functions on (0,2)^4."""
    from pklab.jets import jexp, jlog, jsin, jsqrt

    c = rng.uniform(0.3, 1.5, size=8)
    ops = rng.integers(0, 5, size=2)

    def f(x1, x2, x3, x4):
        u = c[0] * x1 + c[1] * x2 * x4 + c[2]
        v = c[3] * x3 + c[4] * x1 * x1 + 0.7
        w = u * v + c[5]
        for k, op in enumerate(ops):
            arg = w * c[6] if k == 0 else w + c[7]
            if op == 0:
                w = jexp(arg * 0.3)
            elif op == 1:
                w = jlog(arg * arg + 1.2)
            elif op == 2:
                w = jsqrt(arg * arg + 0.8)
            elif op == 3:
                w = jsin(arg)
            else:
                w = 1.0 / (arg * arg + 1.5)
        return w + u / v

    return f


@pytest.mark.parametrize("trial", range(20))
def test_jet_vs_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    f = _random_composition(rng)
    p = rng.uniform(0.4, 1.4, size=4)
    jet = f(*seed_point(p, 3))

    idxs = [(1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 2, 0), (3, 0, 0, 0)]
    for idx in idxs:
        exact = jet.partial(idx)
        approx = fd_partial(f, p, idx)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6)


def test_derivative_shifts_coefficients():
    x, y = seed_point([1.5, -0.5], 3)
    f = x * x * y + y * y
    fx = f.derivative(0)
    assert fx.value == pytest.approx(2 * 1.5 * -0.5)
    assert fx.partial([1, 0]) == pytest.approx(2 * -0.5)
    assert fx.partial([0, 1]) == pytest.approx(2 * 1.5)


def test_dual_batch_matches_jets():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.5, 1.5, size=(6, 4))
    f = _random_composition(rng)
    coords = dual_point(pts)
    out = f(*coords)
    assert isinstance(out, DualBatch)
    for i, p in enumerate(pts):
        jet = f(*seed_point(p, 2))
        assert out.val[i] == pytest.approx(jet.value, rel=1e-12)
        assert np.allclose(out.grad[i], jet.gradient(), rtol=1e-10, atol=1e-12)
        hess = np.array([[jet.partial([int(a == k) + int(a == l) for a in range(4)])
                          if k != l else jet.partial([2 * int(a == k) for a in range(4)])
                          for l in range(4)] for k in range(4)])
        assert np.allclose(out.hess[i], hess, rtol=1e-9, atol=1e-11)


def test_dual_batch_derivative_matches_jet_derivative():
    pts = np.array([[1.2, 0.7, 0.4, 0.9]])
    coords = dual_point(pts)

    def prof(x1):
        return (x1 * x1).sqrt() + x1 * 3.0

    db = prof(coords[0]).derivative(0)
    jet = prof(seed_point(pts[0], 3)[0]).derivative(0)
    assert db.val[0] == pytest.approx(jet.value)
    assert np.allclose(db.grad[0], jet.gradient(), rtol=1e-10)


def test_integer_power_matches_repeated_multiplication():
    x = Jet.variable(0, 1.3, 1, 3)
    assert np.allclose((x ** 4).coeffs, (x * x * x * x).coeffs)
    assert np.allclose((x ** -2).coeffs, (1.0 / (x * x)).coeffs)


def test_mismatched_spaces_rejected():
    a = Jet.variable(0, 1.0, 2, 2)
    b = Jet.variable(0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        _ = a + b


# -- batched jets: coefficients (size, n), column k is the jet at point k ----

_BATCH_POINTS = np.array([
    [1.3, 0.7, 0.4, 2.1],
    [0.2, 1.9, 1.1, 0.6],
    [2.5, 0.3, 0.8, 1.4],
])

_BATCH_OPS = {
    "add": lambda x, y: x + y,
    "radd": lambda x, y: 2.5 + x,
    "sub": lambda x, y: x - y,
    "rsub": lambda x, y: 1.0 - x,
    "neg": lambda x, y: -x,
    "mul": lambda x, y: x * y,
    "mul-number": lambda x, y: 3.0 * x,
    "div": lambda x, y: x / y,
    "rdiv": lambda x, y: 2.0 / x,
    "div-number": lambda x, y: x / 4.0,
    "pow-int": lambda x, y: (x + y) ** 3,
    "pow-negative-int": lambda x, y: y ** -2,
    "pow-float": lambda x, y: (x * y) ** 1.5,
    "exp": lambda x, y: (x * y).exp(),
    "log": lambda x, y: (x + y).log(),
    "sqrt": lambda x, y: y.sqrt(),
    "sin": lambda x, y: (x * y).sin(),
    "cos": lambda x, y: (x - y).cos(),
    "reciprocal": lambda x, y: (x + y).reciprocal(),
    "derivative": lambda x, y: (x * x * y).derivative(1),
}


def _batched_coordinates(points, order=3):
    per_point = [seed_point(p, order) for p in points]
    return [Jet.stack([coords[i] for coords in per_point], 4, order) for i in range(4)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("name", sorted(_BATCH_OPS))
def test_batch_column_equals_the_jet_at_its_point(name):
    op = _BATCH_OPS[name]
    bx = _batched_coordinates(_BATCH_POINTS)
    batch = op(bx[0], bx[1])
    assert batch.coeffs.shape == (35, len(_BATCH_POINTS))
    for k, p in enumerate(_BATCH_POINTS):
        x = seed_point(p, 3)
        single = op(x[0], x[1])
        assert np.array_equal(_bits(batch.coeffs[:, k]), _bits(single.coeffs)), (name, k)
        assert batch.value[k] == single.value
        assert np.array_equal(batch.gradient()[:, k], single.gradient())


def test_stack_cuts_to_the_lower_order():
    x = seed_point(_BATCH_POINTS[0], 3)
    f = (x[0] * x[1]).exp()
    batch = Jet.stack([f, 2.0], 4, 2)
    assert batch.space is seed_point(_BATCH_POINTS[0], 2)[0].space
    # graded order: the order-2 jet is the first 15 coefficients
    assert np.array_equal(batch.coeffs[:, 0], f.coeffs[:15])
    assert np.array_equal(batch.coeffs[:, 1], Jet.constant(2.0, 4, 2).coeffs)
    with pytest.raises(ValueError):
        Jet.stack([seed_point(_BATCH_POINTS[0], 1)[0]], 4, 2)


@pytest.mark.parametrize("bad", range(len(_BATCH_POINTS)))
@pytest.mark.parametrize("method, value", [
    ("log", -0.5), ("sqrt", 0.0), ("reciprocal", 0.0), ("pow", -1.0),
])
def test_domain_error_in_any_column_raises(bad, method, value):
    points = _BATCH_POINTS.copy()
    points[bad, 0] = value
    x = _batched_coordinates(points)[0]
    call = (lambda j: j.pow(0.5)) if method == "pow" else (lambda j: getattr(j, method)())
    with pytest.raises(JetDomainError, match=method):
        call(x)


def test_bincount_product_equals_the_add_at_formula():
    # the product's former formula, kept as the reference: np.add.at into
    # zeros over the multiplication table, one column at a time
    def add_at_product(space, a, b):
        out = np.zeros(space.size)
        np.add.at(out, space._mul_target, a[space._mul_left] * b[space._mul_right])
        return out

    rng = np.random.default_rng(7)
    for dim, order in ((4, 3), (4, 2), (2, 3), (1, 4)):
        space = Jet.variable(0, 0.0, dim, order).space
        for n in (None, 1, 5):
            shape = (space.size,) if n is None else (space.size, n)
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            b = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            prod = (Jet(space, a) * Jet(space, b)).coeffs
            assert prod.shape == shape
            cols = [(a, b, prod)] if n is None else [
                (a[:, k], b[:, k], prod[:, k]) for k in range(n)]
            for ak, bk, pk in cols:
                assert np.array_equal(_bits(pk), _bits(add_at_product(space, ak, bk)))
