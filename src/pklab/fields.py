"""Charts, scalar/tensor fields and first-layer tensor calculus.

A field is an evaluation rule: a callable receiving the four coordinate
ring elements (jets, dual batches or plain arrays) and returning its
components built from them with ordinary arithmetic, as nested lists or
an object array of entries, or as one stacked Jet.  ``stacked`` is the
one place where a rule's entries become a Jet of coefficient shape
``(size, *entry_shape, *points)``, numbers becoming constants: that is
what ``TensorField.jets`` returns and what ``pklab.linalg``, ``Geometry``
and the residuals read.  Everything downstream (curvature, projective
machinery, verification suites) talks to fields through the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .jets import DualBatch, Jet, dual_point, seed_point

DIM = 4
DEFAULT_ORDER = 3

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13)


class DegenerateMetricError(ValueError):
    """Metric determinant vanished (or nearly so) at an evaluation point."""


class MalformedFormError(ValueError):
    """A 2-form input failed its antisymmetry validation."""


def _halton(n: int, base: int) -> np.ndarray:
    """Radical inverses of 1, ..., n, one digit position at a time."""
    i = np.arange(1, n + 1)
    f, x = 1.0, np.zeros(n)
    while i.any():
        f /= base
        x += f * (i % base)
        i //= base
    return x


@dataclass(frozen=True)
class Chart:
    """A single coordinate box declared safe for a family of fields.

    The box must exclude eigenvalue collisions, zeros of profile
    functions and metric degeneracies; constructors enforce that with a
    sampling certificate before handing the chart out.
    """

    box: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self):
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"empty or infinite box interval ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.box)

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.box])

    def sample_points(self, n: int, seed: int = 0, margin: float = 0.02) -> np.ndarray:
        """Deterministic low-discrepancy points in the (slightly shrunk) box.

        Halton sequence with a seeded Cranley-Patterson rotation; identical
        (n, seed) always yields identical points.
        """
        d = self.dim
        shift = np.random.default_rng(seed).uniform(size=d)
        u = np.empty((n, d))
        for i in range(d):
            u[:, i] = (_halton(n, _HALTON_PRIMES[i]) + shift[i]) % 1.0
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        width = hi - lo
        return lo + width * (margin + (1.0 - 2.0 * margin) * u)


ComponentsFn = Callable[..., np.ndarray]


def objarray(nested) -> np.ndarray:
    """Object ndarray from nested lists without numpy auto-coercion."""
    if isinstance(nested, np.ndarray):
        return nested if nested.dtype == object else nested.astype(object)
    probe = nested
    shape = []
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0]
    out = np.empty(tuple(shape), dtype=object)
    for idx in np.ndindex(out.shape):
        x = nested
        for k in idx:
            x = x[k]
        out[idx] = x
    return out


def stacked(entries, like: Jet) -> Jet:
    """A rule's entries (nested lists or an array of Jets and numbers, or
    already one Jet) as one Jet of coefficient shape ``(size, *entry_shape,
    *points)``: numbers become constants of the space of ``like``, a jet at
    the same points (a coordinate jet)."""
    if isinstance(entries, Jet):
        return entries
    arr = objarray(entries)
    out = np.zeros((like.space.size,) + arr.shape + like.coeffs.shape[1:])
    for idx, x in np.ndenumerate(arr):
        if isinstance(x, Jet):
            out[(slice(None),) + idx] = x.coeffs
        else:
            out[(0,) + idx] = x
    return Jet(like.space, out)


@dataclass(frozen=True)
class ScalarField:
    """Map from coordinate ring elements to one ring element."""

    fn: Callable
    name: str = ""

    def __call__(self, *coords):
        return self.fn(*coords)

    def jet(self, point: Sequence[float], order: int = DEFAULT_ORDER) -> Jet:
        out = self.fn(*seed_point(point, order))
        if not isinstance(out, Jet):
            out = Jet.constant(float(out), len(point), order)
        return out

    def value(self, point: Sequence[float]) -> float:
        return self.jet(point, order=1).value

    def gradient_covector(self, point: Sequence[float]) -> np.ndarray:
        """Coordinate partials (df)_i, no metric involved."""
        return self.jet(point, order=2).gradient()


@dataclass(frozen=True)
class TensorField:
    """Components of fixed valence produced by one evaluation rule.

    ``valence`` is (contravariant, covariant); the component array has
    shape (4,)**(r+s) with contravariant indices first.  ``batch_fn``,
    when set, is an equivalent vectorized evaluator used by the fast
    paths: (points, partials) -> (values, first partials), with None for
    the partials unless ``partials`` is true; correctness tests pin it
    against the generic rule.
    """

    valence: tuple[int, int]
    fn: ComponentsFn
    name: str = ""
    batch_fn: Callable | None = None

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def components(self, coords) -> np.ndarray | Jet:
        """The rule's entries at coordinate ring elements: an object array,
        or the stacked Jet a rule built from stacked operands."""
        arr = self.fn(*coords)
        return arr if isinstance(arr, Jet) else objarray(arr)

    def jets(self, point: Sequence[float], order: int = DEFAULT_ORDER) -> Jet:
        """The stacked component jets at a point, or batched over an (n, 4)
        array of points: coefficient shape (size, 4, ..., 4[, n])."""
        coords = seed_point(point, order)
        return stacked(self.components(coords), coords[0])

    def values(self, point: Sequence[float]) -> np.ndarray:
        return self.jets(point, order=1).coeffs[0]

    def batch_values(self, points: np.ndarray) -> np.ndarray:
        """Component values at an (n, 4) array of points, shape (n, ...)."""
        if self.batch_fn is not None:
            return self.batch_fn(np.asarray(points, dtype=float), False)[0]
        return self._dual_batch(points, order=1)[0]

    def batch_duals(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials over a batch, shapes (n, ...) / (n, ..., 4)."""
        if self.batch_fn is not None:
            return self.batch_fn(np.asarray(points, dtype=float), True)
        return self._dual_batch(points, order=2)

    def _dual_batch(self, points, order: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, first partials or None) of the rule on dual coordinates of ``order``:
        rules read profile first derivatives, so values need order 1, partials 2."""
        pts = np.asarray(points, dtype=float)
        arr = self.components(dual_point(pts, order))
        n = pts.shape[0]
        vals = np.empty((n, arr.size))
        grads = np.zeros((n, arr.size, DIM)) if order == 2 else None
        for k, x in enumerate(arr.flat):
            if isinstance(x, DualBatch):
                vals[:, k] = x.val
                if grads is not None:
                    grads[:, k] = x.grad
            else:
                vals[:, k] = float(x)
        shape = (n,) + arr.shape
        return vals.reshape(shape), None if grads is None else grads.reshape(shape + (DIM,))


def split_jets(x: Jet, points: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) of stacked jets with ``points`` trailing point axes:
    values[...] and partials[..., k] = d_k at one point, values[..., p] and
    partials[..., k, p] over a batch."""
    c = x.coeffs
    return c[0], np.moveaxis(c[x.space.first_positions], 0, c.ndim - 1 - points)


def tensor_values_and_partials(
    field: TensorField, point: Sequence[float], order: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) with partials[..., k] = d_k of each component (and a
    trailing point axis for an (n, 4) array of points)."""
    return split_jets(field.jets(point, order=order), np.ndim(point) - 1)


# -- metric algebra ----------------------------------------------------


# |det g| at most this times max |g_ij|^4 counts as a degenerate metric: a
# bound without units, so a regular metric at any scale passes, and the zero
# matrix fails
_DEGENERATE_DET = 1e-12


def metric_inverse(gm: np.ndarray) -> np.ndarray:
    """Inverse g^{ij} of a metric value matrix, with the guard of ``metric_inverse_jets``."""
    return metric_inverse_jets(gm)


def metric_inverse_jets(gjets: Jet | np.ndarray) -> Jet | np.ndarray:
    """Inverse of a metric's stacked jets (or of its values), with a determinant
    guard at every point of a batch: DegenerateMetricError where
    |det g| <= 1e-12 max |g_ij|^4."""
    gm = gjets.coeffs[0] if isinstance(gjets, Jet) else gjets
    gm = np.moveaxis(gm, (0, 1), (-2, -1))  # (..., 4, 4) values
    det = np.linalg.det(gm)
    small = np.abs(det) <= _DEGENERATE_DET * np.abs(gm).max(axis=(-2, -1)) ** DIM
    if np.any(small):
        raise DegenerateMetricError(f"metric determinant {det[small].flat[0]:.3e}")
    return linalg.minv(gjets)


def gradient(g: TensorField, f: ScalarField, point: Sequence[float]) -> np.ndarray:
    """(grad f)^i = g^{ij} d_j f at a point."""
    ginv = metric_inverse(g.values(point))
    return ginv @ f.gradient_covector(point)


# -- derivative operations --------------------------------------------
#
# These act on component values and first partials (see ``split_jets``),
# so callers holding cached jets pay no re-evaluation.  Inputs may carry a
# trailing point axis, which the result then carries too.


def lie_derivative_metric(
    gv: np.ndarray, gp: np.ndarray, xv: np.ndarray, xp: np.ndarray
) -> np.ndarray:
    """(L_X g)_{ij} = X^k d_k g_{ij} + g_{kj} d_i X^k + g_{ik} d_j X^k."""
    out = np.einsum("k...,ijk...->ij...", xv, gp)
    out += np.einsum("kj...,ki...->ij...", gv, xp)
    out += np.einsum("ik...,kj...->ij...", gv, xp)
    return out


def lie_derivative_endo(
    tv: np.ndarray, tp: np.ndarray, xv: np.ndarray, xp: np.ndarray
) -> np.ndarray:
    """(L_X T)^i_j = X^k d_k T^i_j - T^k_j d_k X^i + T^i_k d_j X^k."""
    out = np.einsum("k...,ijk...->ij...", xv, tp)
    out -= np.einsum("kj...,ik...->ij...", tv, xp)
    out += np.einsum("ik...,kj...->ij...", tv, xp)
    return out


def lie_bracket(
    xv: np.ndarray, xp: np.ndarray, yv: np.ndarray, yp: np.ndarray
) -> np.ndarray:
    """[X, Y]^i = X^k d_k Y^i - Y^k d_k X^i."""
    return np.einsum("k...,ik...->i...", xv, yp) - np.einsum("k...,ik...->i...", yv, xp)


# largest |w + w^T|, relative to max |w| where that exceeds 1, of a 2-form input
_ASYM_TOL = 1e-12


def exterior_derivative_2form(wv: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """(d omega)_{ijk} as the cyclic sum of coordinate partials.

    Rejects inputs whose antisymmetry fails beyond ``_ASYM_TOL`` (scaled)
    at any point; validation rather than silent antisymmetrization.
    """
    scale = np.maximum(1.0, np.max(np.abs(wv), axis=(0, 1)))
    if np.any(np.max(np.abs(wv + np.swapaxes(wv, 0, 1)), axis=(0, 1)) > _ASYM_TOL * scale):
        raise MalformedFormError("2-form input is not antisymmetric at the point")
    # (d omega)_{ijk} = d_i w_{jk} + d_j w_{ki} + d_k w_{ij}
    dw = (
        np.einsum("jki...->ijk...", wp)
        + np.einsum("kij...->ijk...", wp)
        + np.einsum("ijk...->ijk...", wp)
    )
    return dw


def nijenhuis(tv: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """N^i_{jk} of an endomorphism field from its values and partials.

    N(X,Y) = [TX,TY] - T[TX,Y] - T[X,TY] + T^2 [X,Y] on coordinate fields.
    """
    n = np.einsum("mj...,ikm...->ijk...", tv, tp)
    n -= np.einsum("mk...,ijm...->ijk...", tv, tp)
    n += np.einsum("im...,mjk...->ijk...", tv, tp)
    n -= np.einsum("im...,mkj...->ijk...", tv, tp)
    return n
