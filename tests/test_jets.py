import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_partial
from pklab import jets
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


class _Carrier:
    """A derivative carrier of no pklab type that numpy refuses to operate
    on: each method returns its name and arguments."""

    __array_ufunc__ = None

    def __getattr__(self, name):
        if name not in ("exp", "log", "sqrt", "sin", "cos", "pow", "reciprocal"):
            raise AttributeError(name)
        return lambda *args: (name, *args)


DISPATCHERS = {"exp": jets.jexp, "log": jets.jlog, "sqrt": jets.jsqrt, "sin": jets.jsin,
               "cos": jets.jcos, "pow": lambda x: jets.jpow(x, 0.5),
               "reciprocal": jets.jreciprocal}
NUMPY = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
         "pow": lambda x: np.power(x, 0.5), "reciprocal": lambda x: 1.0 / x}


@pytest.mark.parametrize("method", sorted(DISPATCHERS))
def test_dispatchers_call_the_operands_own_method(method):
    # any operand with the method gets it called; numbers and arrays, object
    # arrays too, have none and go to numpy
    fn = DISPATCHERS[method]
    assert fn(_Carrier()) == ((method, 0.5) if method == "pow" else (method,))
    for x in (0.7, np.float64(0.7), np.array([0.7, 1.3])):
        assert np.array_equal(fn(x), NUMPY[method](x))
    j = Jet.variable(0, 0.7, 1, 2)
    got = fn(np.array([j], dtype=object))[0]
    assert np.array_equal(got.coeffs, NUMPY[method](j).coeffs)


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


def test_truncated_keeps_the_lower_degrees_bit_for_bit():
    # a polynomial's degree <= 1 coefficients sum the same table pairs at
    # any order, so computing at order 3 and cutting equals computing at order 1
    pts = np.array([[0.3, -1.2, 0.7, 2.0], [1.5, 0.1, -0.4, 0.9]])

    def f(order):
        x1, x2, x3, x4 = seed_point(pts, order)
        return x1 * x1 * x2 - x3 * x4 + 2.5

    cut = f(3).truncated(1)
    assert cut.space is f(1).space and cut.coeffs.tobytes() == f(1).coeffs.tobytes()
    assert f(2).truncated(2).coeffs.tobytes() == f(2).coeffs.tobytes()
    with pytest.raises(ValueError, match="cannot raise"):
        f(1).truncated(2)


def test_dual_batch_matches_jets():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.5, 1.5, size=(6, 4))
    f = _random_composition(rng)
    out = f(*dual_point(pts))
    assert isinstance(out, DualBatch) and out.order == 2
    for i, p in enumerate(pts):
        jet = f(*seed_point(p, 2))
        assert out.val[i] == pytest.approx(jet.value, rel=1e-12)
        assert np.allclose(out.grad[i], jet.gradient(), rtol=1e-10, atol=1e-12)
        hess = np.array([[jet.partial([int(a == k) + int(a == l) for a in range(4)])
                          if k != l else jet.partial([2 * int(a == k) for a in range(4)])
                          for l in range(4)] for k in range(4)])
        assert np.allclose(out.hess[i], hess, rtol=1e-9, atol=1e-11)
    # order 1 drops the Hessians; no operation reads them to form a value or a gradient
    first = f(*dual_point(pts, order=1))
    assert first.order == 1 and first.hess is None
    assert np.array_equal(first.val, out.val) and np.array_equal(first.grad, out.grad)


def test_dual_batch_operations_carry_the_lower_order():
    pts = np.array([[1.2, 0.7, 0.4, 0.9], [0.8, 1.1, 0.6, 1.3]])
    x2, x1 = dual_point(pts, 2)[0], dual_point(pts, 1)[1]
    assert (x2.order, x1.order) == (2, 1)
    for out in (x2 * x1, x1 * x2, x2 + x1, x2 - x1, x1 / x2, x2 ** 3 * x1.exp()):
        assert out.order == 1 and out.hess is None
    # a constant takes the order of the batch it meets
    for x in (x2, x1, x1.derivative(0)):
        for out in (2.0 * x, x + 1.5, 1.0 - x, 3.0 / x.exp(), x / 4.0):
            assert out.order == x.order
    assert (x2 * x2).order == 2


def test_dual_batch_derivative_lowers_the_order():
    pts = np.array([[1.2, 0.7, 0.4, 0.9]])
    for order in (2, 1):
        x = (dual_point(pts, order)[0] * 2.0).exp()
        d = x.derivative(0)
        assert d.order == order - 1
        assert np.array_equal(d.val, x.grad[:, 0])
    value_only = dual_point(pts, 1)[0].exp().derivative(0)
    assert value_only.order == 0 and value_only.grad is None
    # a rule that differentiates twice under a value reader fails loudly, not as a domain error
    with pytest.raises(ValueError, match="order-0") as err:
        value_only.derivative(0)
    assert not isinstance(err.value, JetDomainError)


def test_dual_batch_negative_power_is_the_reciprocal_power():
    x = dual_point(np.array([[0.7, 1.0, 1.0, 1.0], [1.9, 2.0, 1.0, 1.0]]))[0] * 1.3
    for got, want in ((x ** -2, 1.0 / (x * x)), (x ** -1, x.reciprocal())):
        assert np.allclose(got.val, want.val, rtol=1e-14)
        assert np.allclose(got.grad, want.grad, rtol=1e-14)
        assert np.allclose(got.hess, want.hess, rtol=1e-14)
    assert np.any((x ** -1).hess != 0.0)
    zero = dual_point(np.zeros((1, 4)))[0]
    with pytest.raises(JetDomainError):
        _ = zero ** -1
    one = zero ** 0
    assert one.order == 2 and np.array_equal(one.val, [1.0])
    assert not np.any(one.grad) and not np.any(one.hess)


def test_dual_batch_derivative_matches_jet_derivative():
    pts = np.array([[1.2, 0.7, 0.4, 0.9]])
    coords = dual_point(pts)

    def prof(x1):
        return (x1 * x1).sqrt() + x1 * 3.0

    db = prof(coords[0]).derivative(0)
    jet = prof(seed_point(pts[0], 3)[0]).derivative(0)
    assert db.val[0] == pytest.approx(jet.value)
    assert np.allclose(db.grad[0], jet.gradient(), rtol=1e-10)


def test_dual_batch_times_a_matrix_is_an_array_of_batches():
    d = dual_point(np.array([[0.5, 1.0, 2.0, 3.0], [1.5, 1.0, 2.0, 3.0], [2.5, 1.0, 2.0, 3.0]]))[0]
    eye = np.eye(4)
    for out in (d * eye, eye * d):
        assert out.dtype == object and out.shape == (4, 4)
        assert np.array_equal(out[1, 1].val, d.val) and np.array_equal(out[1, 1].grad, d.grad)
        assert np.array_equal(out[0, 1].val, np.zeros(3))


# -- deferred Hessians: each formed by the formula an eager batch runs ----


def _seeded_batch(rng, n=7):
    h = rng.normal(size=(n, 4, 4))
    return DualBatch(rng.uniform(0.5, 1.5, n), rng.normal(size=(n, 4)), h + np.swapaxes(h, 1, 2))


def _product(a, b):
    """(values, gradients, Hessians) of a product, each level formed at once."""
    (av, ag, ah), (bv, bg, bh) = a, b
    cross = ag[:, :, None] * bg[:, None, :]
    return (av * bv, ag * bv[:, None] + bg * av[:, None],
            ah * bv[:, None, None] + bh * av[:, None, None] + cross + np.swapaxes(cross, 1, 2))


def _compose(a, rows):
    """(values, gradients, Hessians) of f(a) from f, f', f'' at a's values."""
    (v, g, h), (f, df, d2f) = a, rows
    outer = g[:, :, None] * g[:, None, :]
    return f, df[:, None] * g, df[:, None, None] * h + d2f[:, None, None] * outer


def _elementary_case(method, rule, *args):
    return (lambda a, b: getattr(a, method)(*args),
            lambda A, B: _compose(A, rule(A[0], 2, *args))[2])


_HESSIAN_OPS = {
    "a*b": (lambda a, b: a * b, lambda A, B: _product(A, B)[2]),
    "a+b": (lambda a, b: a + b, lambda A, B: A[2] + B[2]),
    "a-b": (lambda a, b: a - b, lambda A, B: A[2] - B[2]),
    "-a": (lambda a, b: -a, lambda A, B: -A[2]),
    "a*3.0": (lambda a, b: a * 3.0, lambda A, B: A[2] * 3.0),
    "a+1.0": (lambda a, b: a + 1.0, lambda A, B: A[2] + np.zeros_like(A[2])),
    "2.0-a": (lambda a, b: 2.0 - a, lambda A, B: np.zeros_like(A[2]) - A[2]),
    "a/b": (lambda a, b: a / b,
            lambda A, B: _product(A, _compose(B, jets._reciprocal(B[0], 2)))[2]),
    "a**3": (lambda a, b: a ** 3, lambda A, B: _product(A, _product(A, A))[2]),  # binary powering
    "exp": _elementary_case("exp", jets._exp),
    "log": _elementary_case("log", jets._log),
    "sqrt": _elementary_case("sqrt", jets._sqrt),
    "pow": _elementary_case("pow", jets._pow, 1.5),
    "reciprocal": _elementary_case("reciprocal", jets._reciprocal),
    "sin": _elementary_case("sin", jets._sin),
    "cos": _elementary_case("cos", jets._cos),
}


@pytest.mark.parametrize("name", sorted(_HESSIAN_OPS))
def test_deferred_hessian_is_the_eager_formula_bit_for_bit(name):
    op, eager = _HESSIAN_OPS[name]
    rng = np.random.default_rng(25)
    a, b = _seeded_batch(rng), _seeded_batch(rng)
    out = op(a, b)
    assert out.order == 2 and isinstance(out._hess, tuple)  # not formed yet
    want = eager((a.val, a.grad, a.hess), (b.val, b.grad, b.hess))
    assert out.hess.tobytes() == want.tobytes()
    assert out.hess is out.hess  # formed once, then kept


def test_a_deep_chain_forms_its_hessians_without_recursion():
    # 2,000 steps leave a graph of 8,000 unformed Hessians under the
    # last one; forming them must not recurse once per step, and must give
    # the bits of the same chain whose Hessians were read as it went
    pts = np.random.default_rng(4).uniform(0.2, 0.8, size=(5, 4))

    def chain(read_each_step):
        y = dual_point(pts)[0]
        for _ in range(2000):
            y = (y * y) * 0.5 + 0.5
            if read_each_step:
                assert y.hess is not None
        return y

    lazy, eager = chain(False), chain(True)
    d_lazy, d_eager = lazy.derivative(0), eager.derivative(0)
    assert d_lazy.val.tobytes() == d_eager.val.tobytes()
    assert d_lazy.grad.tobytes() == d_eager.grad.tobytes()
    assert np.any(d_lazy.grad != 0.0)
    assert lazy.hess.tobytes() == eager.hess.tobytes()


def test_batch_duals_leave_unread_hessians_unformed(monkeypatch, triples):
    # a rule's entries are read as values and gradients: where the rule
    # differentiates nothing, none of its Hessians is formed
    derivatives = []
    derivative = DualBatch.derivative

    def counted(self, i):
        derivatives.append(i)
        return derivative(self, i)

    monkeypatch.setattr(DualBatch, "derivative", counted)
    undifferentiated = 0
    for name, tr in triples.items():
        for field in (tr.g, tr.a, tr.t):
            entries = []

            def recording(*coords, rule=field.fn):
                out = rule(*coords)
                entries.extend(x for x in np.asarray(out, dtype=object).flat
                               if isinstance(x, DualBatch))
                return out

            derivatives.clear()
            replace(field, fn=recording).batch_duals(tr.sample_points(6))
            if entries and not derivatives:
                undifferentiated += 1
                assert all(isinstance(x._hess, tuple) for x in entries), (name, field.name)
    assert undifferentiated >= 5


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
    return seed_point(points, order)


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
        assert batch.partial((1, 0, 1, 0))[k] == single.partial((1, 0, 1, 0))
        assert np.array_equal(batch.gradient()[:, k], single.gradient())


def test_batched_seed_columns_are_the_seeds_of_each_point():
    batch = seed_point(_BATCH_POINTS, 3)
    for k, p in enumerate(_BATCH_POINTS):
        for b, x in zip(batch, seed_point(p, 3)):
            assert b.space is x.space
            assert np.array_equal(b.coeffs[:, k], x.coeffs)


@pytest.mark.parametrize("bad", range(len(_BATCH_POINTS)))
@pytest.mark.parametrize("method, value", [
    ("log", -0.5), ("sqrt", 0.0), ("reciprocal", 0.0), ("pow", -1.0),
])
def test_domain_error_in_any_column_raises(bad, method, value):
    points = _BATCH_POINTS.copy()
    points[bad, 0] = value
    call = (lambda j: j.pow(0.5)) if method == "pow" else (lambda j: getattr(j, method)())
    # on both carriers the message names the function and the offending value
    for coordinates in (_batched_coordinates, dual_point):
        with pytest.raises(JetDomainError, match=rf"^{method}\b.* {re.escape(str(value))}$"):
            call(coordinates(points)[0])


_CARRIER_FUNCTIONS = {
    "exp": lambda u: u.exp(),
    "log": lambda u: u.log(),
    "sqrt": lambda u: u.sqrt(),
    "reciprocal": lambda u: u.reciprocal(),
    "sin": lambda u: u.sin(),
    "cos": lambda u: u.cos(),
    "pow(0.5)": lambda u: u.pow(0.5),
    "pow(-0.5)": lambda u: u.pow(-0.5),
    "pow(1/6)": lambda u: u.pow(1.0 / 6.0),
    "**3": lambda u: u**3,  # integer powers: the same products on both carriers
    "**4": lambda u: u**4,
    # a number acts on the value level alone, or scales every level
    "x+c": lambda u: u + 1.7,
    "x-c": lambda u: u - 1.7,
    "c-x": lambda u: 1.7 - u,
    "-x": lambda u: -u,
    "x/c": lambda u: u / 1.7,
    "c/x": lambda u: 1.7 / u,
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(_CARRIER_FUNCTIONS))
def test_both_carriers_compose_with_one_derivative_rule(name, order):
    # a dual batch and a batched jet take each elementary function from the
    # same rule, and each operation with a number from the same ring, so
    # their values and first partials agree bit for bit (adding 0.0 only
    # makes the signs of zeros alike)
    fn = _CARRIER_FUNCTIONS[name]
    points = np.random.default_rng(19).uniform(0.3, 1.7, size=(200, 4))

    def of(x):
        return fn(x[0] * x[1] + 0.3 * x[2])

    dual, jet = of(dual_point(points, order)), of(seed_point(points, order))
    assert np.array_equal(_bits(dual.val + 0.0), _bits(jet.coeffs[0] + 0.0))
    assert np.array_equal(_bits(dual.grad + 0.0), _bits(jet.gradient().T + 0.0))


def test_a_number_touches_the_value_level_only():
    points = np.random.default_rng(23).uniform(0.3, 1.7, size=(50, 4))
    d = dual_point(points)
    x = -(d[0] * d[1].exp())
    for out in (x + 1.7, 1.7 + x, x - 1.7):
        assert out.grad is x.grad
        hess = out.hess  # formed through the deferral, before x's is read
        assert np.array_equal(_bits(hess), _bits(x.hess))
    j = seed_point(points, 3)
    y = -(j[0] * j[1].exp())
    assert np.any((y.coeffs[1:] == 0.0) & np.signbit(y.coeffs[1:]))  # zeros of both signs
    for out in (y + 1.7, 1.7 + y, y - 1.7):
        assert np.array_equal(_bits(out.coeffs[1:]), _bits(y.coeffs[1:]))
    # a number over a jet scales its reciprocal, with no table product
    assert np.array_equal(_bits((1.7 / y).coeffs), _bits((y.reciprocal() * 1.7).coeffs))


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
