"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A :class:`Jet` stores the Taylor coefficients of a smooth function at a
point, up to a fixed total degree, and overloads arithmetic so that any
composition of rational operations and the supported elementary functions
propagates all partial derivatives exactly (to rounding).  Jets are the
derivative carrier for every field evaluation in this package: metric
components are evaluated on coordinate jets, and Christoffel symbols,
curvature tensors, gradients and Lie derivatives are read off from the
resulting coefficients.

A Jet holds one point's coefficients, or an array of them on trailing
axes: a batch of points (``seed_point`` of an (n, dim) array), or a
tensor of jets, coefficient shape ``(size, *entry_shape, *points)``, as
``pklab.fields.stacked`` builds from a field rule's entries and as every
``Geometry`` quantity is held.  Every operation acts entry by entry with
the arithmetic of the one-point jet, bit for bit, so one array operation
replaces a loop.  Products sum the surviving coefficient
pairs of a multiplication table per target and entry with one
``np.bincount``, in the table's order (the Taylor-coefficient tables of
Griewank & Walther, *Evaluating Derivatives*, ch. 13).

The module also provides :class:`DualBatch`, vectorized dual numbers
truncated at order 0, 1 or 2 like a jet, for values (order 1) or values
and first partials (order 2) at many points at once.  Only
``pklab.fields.TensorField`` seeds them, to evaluate a field rule over
many points; other modules read the arrays it returns.  Its
Hessian level is formed only when read: by ``derivative`` (a rule that
differentiates a profile) or by ``hess``.

Both carriers share one ring: each supplies its product, its elementary
functions and a few level-wise primitives, and the other operations are
written once.  A number is a constant of the value level alone: it
shifts the values or scales every level, and no constant jet or batch
is built for it.  Each elementary function is one derivative rule on
whole arrays, shared by both carriers, so they agree bit for bit in
values and first partials.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "JetSpace",
    "DualBatch",
    "dual_point",
    "seed_point",
    "jexp",
    "jlog",
    "jsqrt",
    "jsin",
    "jcos",
    "jpow",
    "jreciprocal",
]


class JetDomainError(ValueError):
    """Elementary function evaluated outside its domain at the base point."""


@lru_cache(maxsize=None)
def _space(dim: int, order: int) -> "JetSpace":
    return JetSpace(dim, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets of a given (dim, order).

    Coefficients are stored densely, indexed by all multi-indices of total
    degree <= order in graded lexicographic order.  The multiplication
    table lists every coefficient pair whose product survives truncation.
    """

    def __init__(self, dim: int, order: int):
        if dim < 1 or order < 0:
            raise ValueError(f"invalid jet space ({dim=}, {order=})")
        self.dim = dim
        self.order = order
        idxs = [
            alpha
            for deg in range(order + 1)
            for alpha in sorted(
                a for a in product(range(deg + 1), repeat=dim) if sum(a) == deg
            )
        ]
        self.multi_indices: tuple[tuple[int, ...], ...] = tuple(idxs)
        self.size = len(idxs)
        self.position = {alpha: k for k, alpha in enumerate(idxs)}
        self.factorials = np.array(
            [math.prod(math.factorial(ai) for ai in a) for a in idxs], dtype=float
        )
        # coefficient positions of the first partials d/dx_0 ... d/dx_{dim-1}
        self.first_positions = np.array(
            [self.position[tuple(int(k == i) for k in range(dim))] for i in range(dim)]
            if order >= 1 else [], dtype=np.intp
        )

        left, right, target = [], [], []
        for i, a in enumerate(idxs):
            for j, b in enumerate(idxs):
                if sum(a) + sum(b) <= order:
                    left.append(i)
                    right.append(j)
                    target.append(self.position[tuple(x + y for x, y in zip(a, b))])
        self._mul_left = np.array(left, dtype=np.intp)
        self._mul_right = np.array(right, dtype=np.intp)
        self._mul_target = np.array(target, dtype=np.intp)
        self._mul_bins: dict[int, np.ndarray] = {}  # by trailing size m, see Jet.__mul__

        # shift tables for d/dx_i: coefficient at beta picks up (beta_i+1) * c[beta+e_i]
        self._shift_src = []
        self._shift_dst = []
        self._shift_fac = []
        for i in range(dim):
            src, dst, fac = [], [], []
            for k, a in enumerate(idxs):
                if sum(a) + 1 <= order:
                    up = list(a)
                    up[i] += 1
                    src.append(self.position[tuple(up)])
                    dst.append(k)
                    fac.append(up[i])
            self._shift_src.append(np.array(src, dtype=np.intp))
            self._shift_dst.append(np.array(dst, dtype=np.intp))
            self._shift_fac.append(np.array(fac, dtype=float))

    def __repr__(self) -> str:  # pragma: no cover
        return f"JetSpace(dim={self.dim}, order={self.order}, size={self.size})"


# -- elementary functions: one derivative rule each --------------------
# ``rule(a, order, *args)`` lists the derivatives of orders 0..order at an
# array of base values, computed with numpy after one domain check.


def _domain(bad, a, what: str) -> None:
    """Raise JetDomainError naming ``what`` and the first base value where ``bad``."""
    if np.any(bad):
        raise JetDomainError(f"{what} {np.asarray(a)[bad][0]}")


def _inverse_rows(a, count: int) -> list:
    """Derivatives 0..count-1 of 1/a from one 1/a: d_k = -k d_{k-1} / a."""
    rows = [1.0 / a] if count else []
    for k in range(1, count):
        rows.append(-k * rows[-1] * rows[0])
    return rows


def _exp(a, order: int) -> list:
    return [np.exp(a)] * (order + 1)


def _log(a, order: int) -> list:
    _domain(a <= 0.0, a, "log of non-positive value")
    return [np.log(a)] + _inverse_rows(a, order)


def _sqrt(a, order: int) -> list:
    """d_k = c_k / (sqrt(a) a^(k-1)), with c_1 = 1/2 and c_k = c_{k-1} (3/2 - k)."""
    _domain(a <= 0.0, a, "sqrt of non-positive value")
    rows, c, den = [np.sqrt(a)], 0.5, None
    for k in range(1, order + 1):
        den = rows[0] if k == 1 else den * a
        rows.append(c / den)
        c *= 0.5 - k
    return rows


def _pow(a, order: int, r: float) -> list:
    _domain(a <= 0.0, a, f"pow({r}) of non-positive value")
    rows, fac = [a**r], r
    for k in range(1, order + 1):
        rows.append(fac * a ** (r - k))
        fac *= r - k
    return rows


def _reciprocal(a, order: int) -> list:
    _domain(a == 0.0, a, "reciprocal of zero value")
    return _inverse_rows(a, order + 1)


def _sin(a, order: int) -> list:
    s, c = np.sin(a), np.cos(a)
    return ([s, c, -s, -c] * (order // 4 + 1))[: order + 1]


def _cos(a, order: int) -> list:
    s, c = np.sin(a), np.cos(a)
    return ([c, -s, -c, s] * (order // 4 + 1))[: order + 1]


def _method(rule):
    """A method composing its carrier with ``rule``; each class makes its own."""

    def method(self, *args):
        return self._elementary(rule, *args)

    method.__name__ = rule.__name__[1:]
    return method


_NUMBERS = (int, float, np.floating, np.integer)


class _Ring:
    """The ring operations both derivative carriers share.

    A carrier supplies ``__mul__``/``__rmul__``, ``_elementary`` and three
    primitives: ``_levelwise(op, other)`` applies the ufunc ``op`` level by
    level, with a number or a carrier of its kind; ``_shift(c)`` adds the
    number c to the value level alone; ``_constant(c)`` is the constant c
    shaped like the carrier, for ``x ** 0`` only.
    """

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, type(self)):
            return self._levelwise(np.add, other)
        if isinstance(other, _NUMBERS):
            return self._shift(float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return self._levelwise(np.subtract, other)
        if isinstance(other, _NUMBERS):
            return self._shift(-float(other))
        return NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, _NUMBERS) else NotImplemented

    def __neg__(self):
        return self._levelwise(np.multiply, -1.0)  # the bits of a negation

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            return self._levelwise(np.divide, float(other))
        if isinstance(other, type(self)):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other if isinstance(other, _NUMBERS) else NotImplemented

    def __pow__(self, expo):
        """An integer power by binary powering, the same products on both
        carriers, so they agree bit for bit (x^0 is ``_constant(1.0)``, also
        where x = 0); any other exponent through ``pow``."""
        if not isinstance(expo, (int, np.integer)):
            return self.pow(float(expo))
        n, x = int(expo), self
        if n < 0:
            return self.reciprocal() ** (-n)
        result = None if n else self._constant(1.0)
        while n:
            if n & 1:
                result = x if result is None else result * x
            n >>= 1
            x = x * x if n else x
        return result


class Jet(_Ring):
    """Truncated Taylor expansions at one point, or at a batch of points.

    ``coeffs[k]`` is the Taylor coefficient of the monomial with multi-index
    ``space.multi_indices[k]``, i.e. the corresponding partial derivative
    divided by the multi-index factorial.  ``coeffs`` has shape ``(size,)``
    for one point, ``(size, n)`` for a batch whose column k is point k, or
    ``(size, *shape)`` for any array of jets: every operation acts entry
    by entry with the arithmetic of the one-point jet, so an entry equals,
    bit for bit, the jet computed alone.  Jets combine with numbers and
    with jets whose trailing shapes broadcast.  Immutable after construction.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int, order: int) -> "Jet":
        sp = _space(dim, order)
        c = np.zeros(sp.size)
        c[0] = float(value)
        return Jet(sp, c)

    @staticmethod
    def variable(i: int, value, dim: int, order: int) -> "Jet":
        """Jet of the i-th coordinate function at a point, or a batch over
        an array of values (one column per value)."""
        sp = _space(dim, order)
        if not 0 <= i < dim:
            raise IndexError(f"variable index {i} out of range for dim {dim}")
        v = np.asarray(value, dtype=float)
        c = np.zeros((sp.size,) + v.shape)
        c[0] = v
        if order >= 1:
            c[sp.first_positions[i]] = 1.0
        return Jet(sp, c)

    # -- basic queries -----------------------------------------------

    @property
    def value(self) -> float | np.ndarray:
        """The value (a float), or the values at the points of a batch."""
        v = self.coeffs[0]
        return float(v) if v.ndim == 0 else v.copy()

    def partial(self, multi_index: Sequence[int]) -> float | np.ndarray:
        """Partial derivative for the given multi-index (with factorials), or
        its values at the points of a batch."""
        alpha = tuple(int(a) for a in multi_index)
        if len(alpha) != self.space.dim or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dim {self.space.dim}")
        if sum(alpha) > self.space.order:
            raise ValueError(
                f"multi-index {alpha} exceeds truncation order {self.space.order}"
            )
        k = self.space.position[alpha]
        d = self.coeffs[k] * self.space.factorials[k]
        return float(d) if d.ndim == 0 else d

    def gradient(self) -> np.ndarray:
        """All first partials as a vector (one column per point of a batch)."""
        sp = self.space
        if sp.order < 1:
            raise ValueError("order-0 jet carries no first derivatives")
        return self.coeffs[sp.first_positions]

    def derivative(self, i: int) -> "Jet":
        """Jet of the partial derivative d/dx_i.

        The result lives in the same space but is only trustworthy through
        order ``order - 1``; its top-degree coefficients are set to zero.
        """
        sp = self.space
        if not 0 <= i < sp.dim:
            raise IndexError(f"variable index {i} out of range for dim {sp.dim}")
        src = self.coeffs[sp._shift_src[i]]
        c = np.zeros(self.coeffs.shape)
        c[sp._shift_dst[i]] = sp._shift_fac[i].reshape((-1,) + (1,) * (src.ndim - 1)) * src
        return Jet(sp, c)

    def truncated(self, order: int) -> "Jet":
        """The same jets through degree ``order`` (at most ours): a view of the
        leading coefficients, which graded order puts first."""
        sp = _space(self.space.dim, order)
        if order > self.space.order:
            raise ValueError(f"cannot raise truncation order {self.space.order} to {order}")
        return Jet(sp, self.coeffs[: sp.size])

    # -- ring arithmetic (the rest is _Ring's) ---------------------------

    def _operand(self, other: "Jet") -> np.ndarray:
        """The coefficients of a jet of our space."""
        if other.space is not self.space:
            raise ValueError("jets from different spaces")
        return other.coeffs

    def _levelwise(self, op, other) -> "Jet":
        if isinstance(other, Jet):
            other = self._operand(other)
        return Jet(self.space, op(self.coeffs, other))

    def _shift(self, c: float) -> "Jet":
        coeffs = self.coeffs.copy()
        coeffs[0] += c
        return Jet(self.space, coeffs)

    def _constant(self, c: float) -> "Jet":
        return Jet(self.space, np.zeros(self.coeffs.shape))._shift(c)

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            return self._levelwise(np.multiply, float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        sp = self.space
        # every surviving coefficient pair of every entry, summed into its
        # (target, entry) bin in table order
        terms = self.coeffs[sp._mul_left] * self._operand(other)[sp._mul_right]
        m = terms[0].size
        bins = sp._mul_bins.get(m)
        if bins is None:
            bins = (sp._mul_target[:, None] * m + np.arange(m)).ravel()
            if bins.size <= 1 << 16:  # kept while small: there they cost as much as the product
                sp._mul_bins[m] = bins
        out = np.bincount(bins, terms.ravel(), sp.size * m)
        return Jet(sp, out.reshape((sp.size,) + terms.shape[1:]))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        sp = self.space
        if self.coeffs.ndim == 1:
            return f"Jet(value={self.value:.6g}, dim={sp.dim}, order={sp.order})"
        return f"Jet(shape={self.coeffs.shape[1:]}, dim={sp.dim}, order={sp.order})"

    # -- analytic functions -------------------------------------------

    def _elementary(self, rule, *args) -> "Jet":
        """Compose with ``rule``'s derivatives at the base values a, by Horner
        in p = self - a: the first step scales p per column, the later ones
        are table products.  a is an array even for one point, so a column's
        bits do not depend on its batch."""
        sp, c = self.space, self.coeffs
        rows = rule(c[:1].reshape(c.shape[1:]), sp.order, *args)
        p = Jet(sp, c.copy())
        p.coeffs[0] = 0.0
        acc = Jet(sp, p.coeffs * (rows[-1] / math.factorial(sp.order)))
        for k in range(sp.order - 1, 0, -1):
            acc.coeffs[0] = rows[k] / math.factorial(k)
            acc = acc * p
        acc.coeffs[0] = rows[0]
        return acc

    exp = _method(_exp)
    log = _method(_log)
    sqrt = _method(_sqrt)
    pow = _method(_pow)
    reciprocal = _method(_reciprocal)
    sin = _method(_sin)
    cos = _method(_cos)


# -- coordinate jets --------------------------------------------------


def seed_point(point, order: int) -> list[Jet]:
    """Coordinate jets of a full point, one seeded variable per axis; an
    (n, dim) array of points gives batches whose column k is point k."""
    p = np.asarray(point, dtype=float)
    dim = p.shape[-1]
    return [Jet.variable(i, p[..., i], dim, order) for i in range(dim)]


# -- duck-typed math usable on floats, arrays, jets and dual batches ---


def _dispatch(x, method: str, float_fn, *args):
    """x's own ``method`` where it has one (a derivative carrier), else
    ``float_fn``: numbers and arrays, object arrays too, have none."""
    own = getattr(x, method, None)
    return float_fn(x, *args) if own is None else own(*args)


def jexp(x):
    return _dispatch(x, "exp", np.exp)


def jlog(x):
    return _dispatch(x, "log", np.log)


def jsqrt(x):
    return _dispatch(x, "sqrt", np.sqrt)


def jsin(x):
    return _dispatch(x, "sin", np.sin)


def jcos(x):
    return _dispatch(x, "cos", np.cos)


def jpow(x, r: float):
    return _dispatch(x, "pow", np.power, r)


def jreciprocal(x):
    return _dispatch(x, "reciprocal", lambda v: 1.0 / v)


class DualBatch(_Ring):
    """Vectorized dual numbers of order 0, 1 or 2 over a batch of points.

    ``val`` has shape (n,), ``grad`` (n, dim) and ``hess`` (n, dim, dim);
    a batch of order k carries the first k derivative levels and None for
    the rest, as a :class:`Jet` is truncated at its order.  A binary
    operation keeps the lower order of its operands and :meth:`derivative`
    lowers it by one, so field formulas that embed profile first
    derivatives evaluate in one vectorized pass: values on order-1
    coordinates, values and first partials on order 2.  No value reads a
    derivative level, so values have the same bits at every order.

    Values and gradients are formed as each operation runs; the Hessian
    level is formed only when read.  An operation records its Hessian as
    a formula of its operands' (see :func:`_defer`), and :meth:`derivative`
    or a ``hess`` read forms it, with every unformed Hessian it needs, by
    the same formula summed in the same order, so a formed Hessian has
    the bits of one formed at once.  A field rule's entries are read as
    values and gradients, so only the Hessians of the profiles a rule
    differentiates are ever formed (Griewank & Walther, *Evaluating
    Derivatives*, ch. 13: propagate the derivative levels that are read).

    The ring is :class:`_Ring`'s but for the product, and the elementary
    functions are the derivative rules a :class:`Jet` composes, so values
    and gradients equal a batched jet's bit for bit.  A number shifts the
    values alone: the sum keeps its operand's gradient array and Hessian.
    This type backs the fast paths (feasibility scans, geodesic right-hand
    sides); everything above second order goes through :class:`Jet`.
    """

    __slots__ = ("val", "grad", "_hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self._hess = None if hess is None else np.asarray(hess, dtype=float)

    @staticmethod
    def variable(i: int, values: np.ndarray, dim: int, order: int = 2) -> "DualBatch":
        """The i-th coordinate over a batch, carrying ``order`` derivative levels."""
        v = np.asarray(values, dtype=float)
        g = np.zeros(v.shape + (dim,))
        g[..., i] = 1.0
        return _batch(v, g if order >= 1 else None,
                      _defer(np.zeros, (), v.shape + (dim, dim)) if order >= 2 else None)

    @property
    def order(self) -> int:
        return 0 if self.grad is None else 1 if self._hess is None else 2

    @property
    def hess(self) -> np.ndarray | None:
        """The Hessians, formed on the first read; None below order 2."""
        if isinstance(self._hess, tuple):
            _form(self)
        return self._hess

    def derivative(self, i: int) -> "DualBatch":
        """First partial d/dx_i, one order lower."""
        if self.grad is None:
            raise ValueError("derivative() of an order-0 DualBatch")
        return _batch(self.grad[..., i], None if self._hess is None else self.hess[..., i, :])

    # -- ring arithmetic (the rest is _Ring's) ---------------------------

    def _levelwise(self, op, other) -> "DualBatch":
        if isinstance(other, DualBatch):
            grad = None if self.grad is None or other.grad is None else op(self.grad, other.grad)
            return _batch(op(self.val, other.val), grad, _defer(op, (self, other)))
        return _batch(op(self.val, other), None if self.grad is None else op(self.grad, other),
                      _defer(op, (self,), other))

    def _shift(self, c: float) -> "DualBatch":
        # np.asarray of the formed operand Hessian is that array itself
        return _batch(self.val + c, self.grad, _defer(np.asarray, (self,)))

    def _constant(self, c: float) -> "DualBatch":
        return _batch(np.full(self.val.shape, c),
                      None if self.grad is None else np.zeros_like(self.grad),
                      _defer(np.zeros_like, (self,)))

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):  # a constant scales every derivative level
            return self._levelwise(np.multiply, other)
        if not isinstance(other, DualBatch):
            return NotImplemented
        val = self.val * other.val
        if self.grad is None or other.grad is None:
            return _batch(val)
        grad = self.grad * other.val[..., None] + other.grad * self.val[..., None]
        hess = _defer(_product_hess, (self, other), self.val, other.val, self.grad, other.grad)
        return _batch(val, grad, hess)

    __rmul__ = __mul__

    def _elementary(self, rule, *args):
        """Compose with ``rule``'s derivatives of orders 0..our order."""
        v, *d = rule(self.val, self.order, *args)
        if self.grad is None:
            return _batch(v)
        return _batch(v, d[0][..., None] * self.grad, _defer(_chain_hess, (self,), self.grad, *d))

    exp = _method(_exp)
    log = _method(_log)
    sqrt = _method(_sqrt)
    pow = _method(_pow)
    reciprocal = _method(_reciprocal)
    sin = _method(_sin)
    cos = _method(_cos)


def dual_point(points: np.ndarray, order: int = 2) -> list[DualBatch]:
    """Coordinate dual batches of the given order for an (n, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    return [DualBatch.variable(i, pts[:, i], dim, order) for i in range(dim)]


def _batch(val, grad=None, hess=None) -> DualBatch:
    """A DualBatch of float arrays as they are (its Hessian formed or
    deferred): the operations' results skip the conversions of the public
    constructor."""
    out = object.__new__(DualBatch)
    out.val, out.grad, out._hess = val, grad, hess
    return out


# -- deferred Hessians ---------------------------------------------------
# An unformed Hessian is the tuple (fn, batches, extra): it is
# fn(*hessians of batches, *extra).


def _defer(fn, batches, *extra):
    """The Hessian ``fn(*hessians of batches, *extra)``, left unformed; None
    where one of ``batches`` has no Hessian level (an order below 2
    propagates)."""
    for b in batches:
        if b._hess is None:
            return None
    return fn, batches, extra


def _form(root: DualBatch) -> None:
    """Form ``root``'s Hessian and every unformed one it reads, operands
    first.  The stack is explicit, so a chain of thousands of operations
    does not recurse; a batch reached twice is formed once."""
    stack = [root]
    while stack:
        node = stack[-1]
        if not isinstance(node._hess, tuple):  # formed since it was pushed
            stack.pop()
            continue
        fn, batches, extra = node._hess
        pending = [b for b in batches if isinstance(b._hess, tuple)]
        if pending:
            stack += pending
            continue
        node._hess = fn(*[b._hess for b in batches], *extra)
        stack.pop()


def _product_hess(ha, hb, va, vb, ga, gb):
    """Hessian of a product from its operands' values, gradients and Hessians."""
    cross = ga[..., :, None] * gb[..., None, :]
    return ha * vb[..., None, None] + hb * va[..., None, None] + cross + np.swapaxes(cross, -1, -2)


def _chain_hess(h, grad, dv, d2v):
    """Hessian of f(a) from a's gradient and Hessian and f', f'' at its values."""
    outer = grad[..., :, None] * grad[..., None, :]
    return dv[..., None, None] * h + d2v[..., None, None] * outer
