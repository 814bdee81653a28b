"""Geodesic integration and T-planarity of curves.

The operational meaning of the projective equivalence: geodesics of the
companion metric are T-planar for the original pair (g, T), i.e. their
g-covariant acceleration stays in span{velocity, T velocity}.  Curves are
integrated by Chebyshev-Picard iteration (Clenshaw & Norton 1963; Bai &
Junkins 2011) and sampled on a uniform grid; each Picard sweep makes one
call of the metric's spray G(v, v), a callable (points, velocities) ->
(n, 4), for the acceleration -G(v, v) at every node of every unsettled
curve: ``functools.partial(geodesic_spray, g)`` for a metric field g, or
``functools.partial(projective.companion_spray, g, a)`` for the companion
of (g, A).  Covariant acceleration along a sampled curve is
recovered with an order-4 finite-difference stencil plus the spray of the
test metric, so the planarity residual converges as O(h^4) in the sample
spacing h.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .curvature import geodesic_spray
from .fields import Chart, DegenerateMetricError, TensorField
from .jets import JetDomainError

__all__ = [
    "GeodesicPath",
    "DegenerateVelocityError",
    "ShortCurveError",
    "GeodesicConvergenceError",
    "integrate_geodesic_bundle",
    "kinetic_energy",
    "t_planarity_residual",
    "export_curve_csv",
]


class DegenerateVelocityError(ValueError):
    """Curve velocity too small for a planarity test."""


class ShortCurveError(ValueError):
    """Curve has fewer samples than the acceleration stencil needs."""


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation of one metric."""

    times: np.ndarray  # (m,)
    positions: np.ndarray  # (m, 4)
    velocities: np.ndarray  # (m, 4)
    step: float
    exited_box: bool = False

    def __len__(self) -> int:
        return len(self.times)


# a metric's spray: (points, velocities) -> G(v, v), each of shape (n, 4)
Spray = Callable[[np.ndarray, np.ndarray], np.ndarray]


class GeodesicConvergenceError(ArithmeticError):
    """Picard sweeps on a geodesic did not settle, or turned non-finite."""


# Chebyshev-Lobatto nodes -1 = tau_0 < ... < tau_N = 1 of a window on [-1, 1];
# _TO_COEF maps node values to Chebyshev coefficients, and _INTEGRATE maps
# node values to their integral from -1 at the nodes
_DEGREE = 40
_TAU = cheb.chebpts2(_DEGREE + 1)
_TO_COEF = np.linalg.inv(cheb.chebvander(_TAU, _DEGREE))
_INTEGRATE = cheb.chebvander(_TAU, _DEGREE + 1) @ cheb.chebint(_TO_COEF, lbnd=-1)
# window length in curve time, sweeps per window, halvings of a window one
# row cannot be integrated over, and the relative update at which a row
# settles: 32 ulp, well above the rounding floor an update stalls at
_WINDOW = 0.4
_MAX_SWEEPS = 60
_MAX_HALVINGS = 10
_SETTLED = 32 * np.finfo(float).eps


def _picard(spray: Spray, x0: np.ndarray, v0: np.ndarray, span: float):
    """x and v, shape (nodes, m, 4), over a window of length span from rows (x0, v0).

    Each sweep evaluates the acceleration -G(v, v) at every node of every
    unsettled row in one ``spray`` call and integrates it twice
    with the spectral matrix.  A row stops once its own update is at rounding
    level, so its nodes do not depend on the other rows.
    """
    s = 0.5 * span * _INTEGRATE
    x = x0 + np.multiply.outer(0.5 * span * (_TAU + 1.0), v0)
    v = np.broadcast_to(v0, x.shape).copy()
    todo = np.arange(len(x0))
    for _ in range(_MAX_SWEEPS):
        xo, vo = x[:, todo], v[:, todo]
        acc = -spray(xo.reshape(-1, 4), vo.reshape(-1, 4)).reshape(xo.shape)
        vn = v0[todo] + np.einsum("jk,kri->jri", s, acc)
        xn = x0[todo] + np.einsum("jk,kri->jri", s, vn)
        delta = np.max(np.abs(xn - xo) + np.abs(vn - vo), axis=(0, 2))
        if not np.all(np.isfinite(delta)):
            raise GeodesicConvergenceError("Picard sweep on a geodesic turned non-finite")
        x[:, todo], v[:, todo] = xn, vn
        todo = todo[delta > _SETTLED * (1.0 + np.max(np.abs(xn) + np.abs(vn), axis=(0, 2)))]
        if not todo.size:
            return x, v
    raise GeodesicConvergenceError(f"{todo.size} geodesic(s) not settled in {_MAX_SWEEPS} sweeps")


def integrate_geodesic_bundle(
    spray: Spray,
    p0: np.ndarray,
    v0: np.ndarray,
    step: float,
    n_steps: int,
    chart: Chart | None = None,
) -> list[GeodesicPath]:
    """Geodesics of the metric whose spray G(v, v) is ``spray``, from rows
    (m, 4) + (m, 4), sampled every ``step``.

    Chebyshev-Picard iteration of all rows at once over windows of length
    _WINDOW; each window's Chebyshev interpolant gives the samples on the
    uniform grid.  A row is truncated, and flagged, at its first sample
    after the start outside the chart's box; a non-finite sample
    counts as outside.  The rows of a window that fails are integrated one
    by one, halving the window where a row fails, so a row stops where it
    leaves the chart even if the metric is undefined past the exit.  The
    chart only truncates: the samples kept depend neither on it nor on the
    other rows.
    """
    p0, v0 = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (p0, v0))
    times = step * np.arange(n_steps + 1)
    xs, vs = np.full((2, n_steps + 1, len(p0), 4), np.nan)
    xs[0], vs[0] = p0, v0
    lo, hi = (-np.inf, np.inf) if chart is None else np.array(chart.box, dtype=float).T

    def inside(x):
        # inside the closed box, on the last axis; a NaN coordinate is outside
        return np.all((x >= lo) & (x <= hi), axis=-1)

    n_win = int(np.ceil(times[-1] / _WINDOW - 1e-9))
    edges = np.append(_WINDOW * np.arange(n_win), times[-1])
    # windows (start, end, rows) to do, the next one last; rows None: all live
    todo = [(a, b, None) for a, b in zip(edges[-2::-1], edges[:0:-1])]
    x, v = p0.copy(), v0.copy()
    while todo:
        a, b, rows = todo.pop()
        live = np.isfinite(x + v).all(axis=1)  # a row with a NaN state has stopped
        rows = np.flatnonzero(live) if rows is None else rows[live[rows]]
        if not rows.size:
            continue
        try:  # the metric undefined or singular at a node, or sweeps that do not settle
            xn, vn = _picard(spray, x[rows], v[rows], b - a)
        except (ArithmeticError, JetDomainError, DegenerateMetricError):
            if rows.size > 1:
                todo += [(a, b, row) for row in rows[::-1, None]]
            elif b - a > _WINDOW / 2**_MAX_HALVINGS:
                todo += [(0.5 * (a + b), b, rows), (a, 0.5 * (a + b), rows)]
            else:
                raise
            continue
        sel = np.flatnonzero((times > a) & (times <= b))
        tau = np.clip(2.0 * (times[sel] - a) / (b - a) - 1.0, -1.0, 1.0)
        interp = cheb.chebvander(tau, _DEGREE) @ _TO_COEF
        # interpolating the change over the window keeps the samples' rounding small
        xs[sel[:, None], rows] = x[rows] + np.einsum("sk,kri->sri", interp, xn - x[rows])
        vs[sel[:, None], rows] = v[rows] + np.einsum("sk,kri->sri", interp, vn - v[rows])
        x[rows], v[rows] = xn[-1], vn[-1]
        x[rows[~inside(xs[sel[:, None], rows]).all(axis=0)]] = np.nan  # left: stops

    # a row ends before its first sample outside the chart; the last row is a sentinel
    stop = np.ones((n_steps + 1, len(p0)), bool)
    stop[:-1] = False if chart is None else ~inside(xs[1:])
    length = 1 + np.argmax(stop, axis=0)
    return [
        GeodesicPath(times[:n].copy(), xs[:n, i].copy(), vs[:n, i].copy(), step, bool(n <= n_steps))
        for i, n in enumerate(length)
    ]


def kinetic_energy(metric: Callable[[np.ndarray], np.ndarray],
                   paths: list[GeodesicPath]) -> list[np.ndarray]:
    """g(velocity, velocity) along each path, constant on geodesics.  ``metric``
    gives g's values at an (n, 4) array of points, shape (n, 4, 4), and is
    called once for all paths: ``g.batch_values`` for a metric field g, or
    ``functools.partial(projective.companion_values, g, a)`` for the companion."""
    x = np.concatenate([p.positions for p in paths])
    v = np.concatenate([p.velocities for p in paths])
    en = np.einsum("nij,ni,nj->n", metric(x), v, v)
    return np.split(en, np.cumsum([len(p) for p in paths])[:-1])


def off_span(v: np.ndarray, tv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x less its least-squares projection onto span{v, Tv}, row by row, by
    two-column Gram-Schmidt.  lstsq's default rank cutoff s1 <= 4 eps s0 drops
    a Tv within rounding of span{v}: the singular values of [v, Tv] have
    s0^2 + s1^2 = f and s0 s1 = d, so the cutoff reads d <= 4 eps s0^2."""
    dot = lambda a, b: np.einsum("ni,ni->n", a, b)[:, None]  # noqa: E731
    r11 = np.sqrt(dot(v, v))
    q1 = v / r11
    w = tv - dot(q1, tv) * q1
    r22 = np.sqrt(dot(w, w))
    f, d = dot(v, v) + dot(tv, tv), r11 * r22
    keep = d > 4.0 * np.finfo(float).eps * (0.5 * f + np.sqrt(np.maximum(0.25 * f * f - d * d, 0.0)))
    q2 = np.divide(w, r22, out=np.zeros_like(w), where=keep)
    x = x - dot(q1, x) * q1
    return x - dot(q2, x) * q2


def t_planarity_residual(
    g: TensorField, t: TensorField, paths: list[GeodesicPath]
) -> list[np.ndarray]:
    """Distance of the g-covariant acceleration from span{velocity, T velocity}.

    Coordinate acceleration is estimated with the 5-point order-4 stencil on
    each path's sampled velocities, then corrected with the spray G(v, v) of
    the test metric g, one spray call and one evaluation of T over all the
    paths.  The distance is the Euclidean least-squares residual, normalized
    by max(|velocity|^2, 1); one array per path, over its interior samples.
    """
    accs = []
    for path in paths:
        m, v = len(path), path.velocities
        if m < 5:
            raise ShortCurveError(f"{m} samples; the acceleration stencil needs at least 5")
        if np.min(np.einsum("ni,ni->n", v, v)) < 1e-20:
            raise DegenerateVelocityError("velocity norm below 1e-10 along the curve")
        accs.append((-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * path.step))
    xs = np.concatenate([p.positions[2:-2] for p in paths])
    vels = np.concatenate([p.velocities[2:-2] for p in paths])
    cov_acc = np.concatenate(accs) + geodesic_spray(g, xs, vels)
    tv = np.einsum("nki,ni->nk", t.batch_values(xs), vels)
    residuals = np.linalg.norm(off_span(vels, tv, cov_acc), axis=1)
    residuals /= np.maximum(np.einsum("ni,ni->n", vels, vels), 1.0)
    return np.split(residuals, np.cumsum([len(a) for a in accs])[:-1])


def export_curve_csv(
    path_obj: GeodesicPath,
    out_path,
    residuals: np.ndarray | None = None,
) -> None:
    """Write t, x1..x4, v1..v4, residual rows for one curve.

    The residual column aligns interior planarity residuals with their
    samples; boundary samples get an empty field.
    """
    m = len(path_obj)
    res_col = [""] * m
    if residuals is not None:
        res_col[2 : 2 + len(residuals)] = [f"{r:.12e}" for r in residuals]
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "x2", "x3", "x4", "v1", "v2", "v3", "v4", "residual"])
        for i in range(m):
            w.writerow(
                [f"{path_obj.times[i]:.12e}"]
                + [f"{x:.12e}" for x in path_obj.positions[i]]
                + [f"{x:.12e}" for x in path_obj.velocities[i]]
                + [res_col[i]]
            )
