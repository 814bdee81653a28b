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
truncated at order 0, 1 or 2 like a jet, used where values, or values
and first partials, are needed at many points at once (constructor
feasibility scans at order 1, geodesic integration at order 2).
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


_NUMBERS = (int, float, np.floating, np.integer)


class Jet:
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

    def partial(self, multi_index: Sequence[int]) -> float:
        """Partial derivative for the given multi-index (with factorials)."""
        alpha = tuple(int(a) for a in multi_index)
        if len(alpha) != self.space.dim or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha} for dim {self.space.dim}")
        if sum(alpha) > self.space.order:
            raise ValueError(
                f"multi-index {alpha} exceeds truncation order {self.space.order}"
            )
        k = self.space.position[alpha]
        return float(self.coeffs[k] * self.space.factorials[k])

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

    # -- ring arithmetic ----------------------------------------------

    def _lift(self, value) -> np.ndarray:
        """Coefficients of the constant ``value`` (or one value per column), shaped like ours."""
        c = np.zeros(self.coeffs.shape)
        c[0] = value
        return c

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces")
            return other
        if isinstance(other, _NUMBERS):
            return Jet(self.space, self._lift(float(other)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, o.coeffs - self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            return Jet(self.space, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sp = self.space
        # every surviving coefficient pair of every entry, summed into its
        # (target, entry) bin in table order
        terms = self.coeffs[sp._mul_left] * o.coeffs[sp._mul_right]
        m = terms[0].size
        bins = sp._mul_bins.get(m)
        if bins is None:
            bins = (sp._mul_target[:, None] * m + np.arange(m)).ravel()
            if bins.size <= 1 << 16:  # kept while small: there they cost as much as the product
                sp._mul_bins[m] = bins
        out = np.bincount(bins, terms.ravel(), sp.size * m)
        return Jet(sp, out.reshape((sp.size,) + terms.shape[1:]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            return Jet(self.space, self.coeffs / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, expo):
        if isinstance(expo, (int, np.integer)):
            n = int(expo)
            if n < 0:
                return self.reciprocal() ** (-n)
            result = Jet(self.space, self._lift(1.0))
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return self.pow(float(expo))

    def __repr__(self) -> str:  # pragma: no cover
        sp = self.space
        if self.coeffs.ndim == 1:
            return f"Jet(value={self.value:.6g}, dim={sp.dim}, order={sp.order})"
        return f"Jet(shape={self.coeffs.shape[1:]}, dim={sp.dim}, order={sp.order})"

    # -- analytic functions -------------------------------------------

    def _compose(self, series: np.ndarray) -> "Jet":
        """Horner evaluation of sum series[k] * (self - const)^k.

        For an array of jets, ``series[k]`` holds one coefficient per entry.
        """
        sp = self.space
        p = Jet(sp, self.coeffs.copy())
        p.coeffs[0] = 0.0
        acc = Jet(sp, self._lift(series[sp.order]))
        for k in range(sp.order - 1, -1, -1):
            acc = acc * p + Jet(sp, self._lift(series[k]))
        return acc

    def _elementary(self, derivs, undefined=None, what: str = "") -> "Jet":
        """Compose with the function whose derivatives of order 0..order at
        a base value a are ``derivs(a)``, evaluated entry by entry.

        A column whose base value a has ``undefined(a)`` raises
        JetDomainError with the message "<what> <a>".
        """
        base = self.coeffs[0]
        values = base.ravel().tolist()
        if undefined is not None:
            for a in values:
                if undefined(a):
                    raise JetDomainError(f"{what} {a}")
        series = np.array(
            [[d / math.factorial(k) for k, d in enumerate(derivs(a))] for a in values],
            dtype=float,
        ).T
        return self._compose(series.reshape((-1,) + base.shape))

    def exp(self) -> "Jet":
        return self._elementary(lambda a: [math.exp(a)] * (self.space.order + 1))

    def log(self) -> "Jet":
        def derivs(a):
            return [math.log(a)] + [
                (-1.0) ** (k + 1) * math.factorial(k - 1) / a**k
                for k in range(1, self.space.order + 1)
            ]

        return self._elementary(derivs, _nonpositive, "log of jet with non-positive value")

    def sqrt(self) -> "Jet":
        return self._pow(0.5, "sqrt of jet with non-positive value")

    def pow(self, r: float) -> "Jet":
        return self._pow(r, f"pow({r}) of jet with non-positive value")

    def _pow(self, r: float, what: str) -> "Jet":
        def derivs(a):
            out, fac = [], 1.0
            for k in range(self.space.order + 1):
                out.append(fac * a ** (r - k))
                fac *= r - k
            return out

        return self._elementary(derivs, _nonpositive, what)

    def reciprocal(self) -> "Jet":
        def derivs(a):
            return [
                (-1.0) ** k * math.factorial(k) / a ** (k + 1)
                for k in range(self.space.order + 1)
            ]

        return self._elementary(derivs, _zero, "reciprocal of jet with zero value")

    def sin(self) -> "Jet":
        def derivs(a):
            cycle = [math.sin(a), math.cos(a), -math.sin(a), -math.cos(a)]
            return [cycle[k % 4] for k in range(self.space.order + 1)]

        return self._elementary(derivs)

    def cos(self) -> "Jet":
        def derivs(a):
            cycle = [math.cos(a), -math.sin(a), -math.cos(a), math.sin(a)]
            return [cycle[k % 4] for k in range(self.space.order + 1)]

        return self._elementary(derivs)


def _nonpositive(a: float) -> bool:
    return a <= 0.0


def _zero(a: float) -> bool:
    return a == 0.0


# -- coordinate jets --------------------------------------------------


def seed_point(point, order: int) -> list[Jet]:
    """Coordinate jets of a full point, one seeded variable per axis; an
    (n, dim) array of points gives batches whose column k is point k."""
    p = np.asarray(point, dtype=float)
    dim = p.shape[-1]
    return [Jet.variable(i, p[..., i], dim, order) for i in range(dim)]


# -- duck-typed math usable on floats, arrays, jets and dual batches ---


def _dispatch(x, method: str, float_fn):
    if isinstance(x, (Jet, DualBatch)):
        return getattr(x, method)()
    return float_fn(x)


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
    if isinstance(x, (Jet, DualBatch)):
        return x.pow(r)
    return np.power(x, r)


def jreciprocal(x):
    if isinstance(x, (Jet, DualBatch)):
        return x.reciprocal()
    return 1.0 / x


class DualBatch:
    """Vectorized dual numbers of order 0, 1 or 2 over a batch of points.

    ``val`` has shape (n,), ``grad`` (n, dim) and ``hess`` (n, dim, dim);
    a batch of order k carries the first k derivative levels and None for
    the rest, as a :class:`Jet` is truncated at its order.  A binary
    operation keeps the lower order of its operands and :meth:`derivative`
    lowers it by one, so field formulas that embed profile first
    derivatives evaluate in one vectorized pass: values on order-1
    coordinates, values and first partials on order 2.  No value reads a
    derivative level, so values have the same bits at every order.  This
    type backs the fast paths (feasibility scans, geodesic right-hand
    sides); everything above second order goes through :class:`Jet`.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @staticmethod
    def variable(i: int, values: np.ndarray, dim: int, order: int = 2) -> "DualBatch":
        """The i-th coordinate over a batch, carrying ``order`` derivative levels."""
        v = np.asarray(values, dtype=float)
        g = np.zeros(v.shape + (dim,))
        g[..., i] = 1.0
        return _batch(v, g if order >= 1 else None,
                      np.zeros(v.shape + (dim, dim)) if order >= 2 else None)

    @property
    def order(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    def derivative(self, i: int) -> "DualBatch":
        """First partial d/dx_i, one order lower."""
        if self.grad is None:
            raise ValueError("derivative() of an order-0 DualBatch")
        return _batch(self.grad[..., i], None if self.hess is None else self.hess[..., i, :])

    def _lift(self, other):
        """``other`` as a batch of our order: a constant has zero derivatives."""
        if isinstance(other, DualBatch):
            return other
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            try:  # an array that is not one value per point is numpy's to broadcast
                v = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape)
            except (TypeError, ValueError):
                return None
            return _batch(v, *(None if d is None else np.zeros_like(d)
                               for d in (self.grad, self.hess)))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _batch(self.val + o.val, _join(np.add, self.grad, o.grad),
                      _join(np.add, self.hess, o.hess))

    __radd__ = __add__

    def __neg__(self):
        return _batch(-self.val, *(None if d is None else -d for d in (self.grad, self.hess)))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _batch(self.val - o.val, _join(np.subtract, self.grad, o.grad),
                      _join(np.subtract, self.hess, o.hess))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):  # a constant scales every derivative level
            return _batch(self.val * other, *(None if d is None else d * other
                                              for d in (self.grad, self.hess)))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        val = self.val * o.val
        if self.grad is None or o.grad is None:
            return _batch(val)
        grad = self.grad * o.val[..., None] + o.grad * self.val[..., None]
        h = None
        if self.hess is not None and o.hess is not None:
            cross = self.grad[..., :, None] * o.grad[..., None, :]
            h = (
                self.hess * o.val[..., None, None]
                + o.hess * self.val[..., None, None]
                + cross
                + np.swapaxes(cross, -1, -2)
            )
        return _batch(val, grad, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, expo):
        if isinstance(expo, (int, np.integer)):
            n = int(expo)
            if n <= 0:  # as for a Jet: x^0 is the constant 1, also where x = 0
                return self.reciprocal() ** (-n) if n else self._lift(1.0)
            return self._chain(
                self.val**n,
                n * self.val ** (n - 1),
                float(n * (n - 1)) * self.val ** (n - 2) if n >= 2 else np.zeros_like(self.val),
            )
        return self.pow(float(expo))

    def _chain(self, v, dv, d2v=None):
        if self.grad is None:
            return _batch(v)
        grad = dv[..., None] * self.grad
        h = None
        if self.hess is not None and d2v is not None:
            outer = self.grad[..., :, None] * self.grad[..., None, :]
            h = dv[..., None, None] * self.hess + d2v[..., None, None] * outer
        return _batch(v, grad, h)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        if np.any(self.val <= 0.0):
            raise JetDomainError("log of batch with non-positive value")
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, -inv * inv)

    def sqrt(self):
        if np.any(self.val <= 0.0):
            raise JetDomainError("sqrt of batch with non-positive value")
        s = np.sqrt(self.val)
        return self._chain(s, 0.5 / s, -0.25 / (s * self.val))

    def pow(self, r: float):
        if np.any(self.val <= 0.0):
            raise JetDomainError(f"pow({r}) of batch with non-positive value")
        return self._chain(
            self.val**r,
            r * self.val ** (r - 1.0),
            r * (r - 1.0) * self.val ** (r - 2.0),
        )

    def reciprocal(self):
        if np.any(self.val == 0.0):
            raise JetDomainError("reciprocal of batch with zero value")
        inv = 1.0 / self.val
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, -c)


def dual_point(points: np.ndarray, order: int = 2) -> list[DualBatch]:
    """Coordinate dual batches of the given order for an (n, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    return [DualBatch.variable(i, pts[:, i], dim, order) for i in range(dim)]


def _batch(val, grad=None, hess=None) -> DualBatch:
    """A DualBatch of float arrays as they are: the operations' results skip
    the conversions of the public constructor."""
    out = object.__new__(DualBatch)
    out.val, out.grad, out.hess = val, grad, hess
    return out


def _join(op, a, b):
    """``op(a, b)`` of two derivative levels, None unless both operands carry it."""
    return None if a is None or b is None else op(a, b)
