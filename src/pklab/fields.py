"""Charts, scalar/tensor fields and first-layer tensor calculus.

A field is an evaluation rule: a callable receiving the four coordinate
ring elements (jets, dual batches or plain arrays) and returning its
components built from them with ordinary arithmetic.  Everything
downstream (curvature, projective machinery, verification suites) talks
to fields through the helpers here.
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


def ring_value(x) -> float:
    if isinstance(x, Jet):
        return x.value
    if isinstance(x, DualBatch):
        raise TypeError("batch element has no single value")
    return float(x)


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
    when set, is an equivalent vectorized evaluator (points -> values
    and first partials) used by the fast paths; correctness tests pin it
    against the generic rule.
    """

    valence: tuple[int, int]
    fn: ComponentsFn
    name: str = ""
    batch_fn: Callable | None = None

    @property
    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def components(self, coords) -> np.ndarray:
        arr = self.fn(*coords)
        if isinstance(arr, np.ndarray) and arr.dtype == object:
            return arr
        return objarray(arr) if not isinstance(arr, np.ndarray) else arr.astype(object)

    def jets(self, point: Sequence[float], order: int = DEFAULT_ORDER) -> np.ndarray:
        return self.components(seed_point(point, order))

    def values(self, point: Sequence[float]) -> np.ndarray:
        return split_jets(self.jets(point, order=1))[0]

    def batch_values(self, points: np.ndarray) -> np.ndarray:
        """Component values at an (n, 4) array of points, shape (n, ...)."""
        vals, _ = self.batch_duals(points)
        return vals

    def batch_duals(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and first partials over a batch, shapes (n, ...) / (n, ..., 4)."""
        pts = np.asarray(points, dtype=float)
        if self.batch_fn is not None:
            return self.batch_fn(pts)
        arr = self.components(dual_point(pts))
        n = pts.shape[0]
        vals = np.empty((n,) + arr.shape)
        grads = np.zeros((n,) + arr.shape + (DIM,))
        for idx in np.ndindex(arr.shape):
            x = arr[idx]
            if isinstance(x, DualBatch):
                vals[(slice(None),) + idx] = x.val
                grads[(slice(None),) + idx + (slice(None),)] = x.grad
            else:
                vals[(slice(None),) + idx] = float(x)
        return vals, grads


def split_jets(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) of an array of jets, partials[..., k] = d_k.

    Plain-number entries are constants: their partials are zero.  Batched
    jets give both a trailing point axis: values[..., p] and
    partials[..., k, p].
    """
    batch = next((x.coeffs.shape[1:] for x in arr.flat if isinstance(x, Jet)), ())
    vals = np.empty(arr.shape + batch)
    parts = np.zeros(arr.shape + (DIM,) + batch)
    for idx in np.ndindex(arr.shape):
        x = arr[idx]
        if isinstance(x, Jet):
            vals[idx] = x.coeffs[0]
            parts[idx] = x.coeffs[x.space.first_positions]
        else:
            vals[idx] = ring_value(x)
    return vals, parts


def tensor_values_and_partials(
    field: TensorField, point: Sequence[float], order: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) with partials[..., k] = d_k of each component."""
    return split_jets(field.jets(point, order=order))


# -- metric algebra ----------------------------------------------------


# |det g| below this, relative to max |g_ij|^4, counts as a degenerate metric
_DEGENERATE_DET = 1e-12


def metric_inverse(gm: np.ndarray) -> np.ndarray:
    """Inverse g^{ij} of a metric value matrix, with a determinant guard."""
    det = float(np.linalg.det(gm))
    if abs(det) < _DEGENERATE_DET * max(1.0, float(np.max(np.abs(gm))) ** DIM):
        raise DegenerateMetricError(f"metric determinant {det:.3e}")
    return linalg.minv(gm)


def metric_inverse_jets(gjets: np.ndarray) -> np.ndarray:
    try:
        return linalg.minv(gjets)
    except ZeroDivisionError as e:
        raise DegenerateMetricError(str(e)) from e


def gradient(g: TensorField, f: ScalarField, point: Sequence[float]) -> np.ndarray:
    """(grad f)^i = g^{ij} d_j f at a point."""
    ginv = metric_inverse(g.values(point))
    return ginv @ f.gradient_covector(point)


def jet_differential(f) -> list:
    """[d_0 f, ..., d_3 f] of a jet or dual batch; zeros for a constant."""
    if isinstance(f, (Jet, DualBatch)):
        return [f.derivative(i) for i in range(DIM)]
    return [0.0] * DIM


# -- derivative operations --------------------------------------------
#
# These act on component values and first partials (see ``split_jets``),
# so callers holding cached jets pay no re-evaluation.


def lie_derivative_metric(
    gv: np.ndarray, gp: np.ndarray, xv: np.ndarray, xp: np.ndarray
) -> np.ndarray:
    """(L_X g)_{ij} = X^k d_k g_{ij} + g_{kj} d_i X^k + g_{ik} d_j X^k."""
    out = np.einsum("k,ijk->ij", xv, gp)
    out += np.einsum("kj,ki->ij", gv, xp)
    out += np.einsum("ik,kj->ij", gv, xp)
    return out


def lie_derivative_endo(
    tv: np.ndarray, tp: np.ndarray, xv: np.ndarray, xp: np.ndarray
) -> np.ndarray:
    """(L_X T)^i_j = X^k d_k T^i_j - T^k_j d_k X^i + T^i_k d_j X^k."""
    out = np.einsum("k,ijk->ij", xv, tp)
    out -= np.einsum("kj,ik->ij", tv, xp)
    out += np.einsum("ik,kj->ij", tv, xp)
    return out


def lie_bracket(
    xv: np.ndarray, xp: np.ndarray, yv: np.ndarray, yp: np.ndarray
) -> np.ndarray:
    """[X, Y]^i = X^k d_k Y^i - Y^k d_k X^i."""
    return np.einsum("k,ik->i", xv, yp) - np.einsum("k,ik->i", yv, xp)


# largest |w + w^T|, relative to max |w| where that exceeds 1, of a 2-form input
_ASYM_TOL = 1e-12


def exterior_derivative_2form(wv: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """(d omega)_{ijk} as the cyclic sum of coordinate partials.

    Rejects inputs whose antisymmetry fails beyond ``_ASYM_TOL`` (scaled);
    validation rather than silent antisymmetrization.
    """
    scale = max(1.0, float(np.max(np.abs(wv))))
    if np.max(np.abs(wv + wv.T)) > _ASYM_TOL * scale:
        raise MalformedFormError("2-form input is not antisymmetric at the point")
    # (d omega)_{ijk} = d_i w_{jk} + d_j w_{ki} + d_k w_{ij}
    dw = (
        np.einsum("jki->ijk", wp)
        + np.einsum("kij->ijk", wp)
        + np.einsum("ijk->ijk", wp)
    )
    return dw


def nijenhuis(tv: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """N^i_{jk} of an endomorphism field from its values and partials.

    N(X,Y) = [TX,TY] - T[TX,Y] - T[X,TY] + T^2 [X,Y] on coordinate fields.
    """
    n = np.einsum("mj,ikm->ijk", tv, tp)
    n -= np.einsum("mk,ijm->ijk", tv, tp)
    n += np.einsum("im,mjk->ijk", tv, tp)
    n -= np.einsum("im,mkj->ijk", tv, tp)
    return n
