"""Geodesic integration and T-planarity of curves.

The operational meaning of the projective equivalence: geodesics of the
companion metric are T-planar for the original pair (g, T), i.e. their
g-covariant acceleration stays in span{velocity, T velocity}.  Curves are
integrated by Chebyshev-Picard iteration (Clenshaw & Norton 1963; Bai &
Junkins 2011) and sampled on a uniform grid; each Picard sweep makes one
``geodesic_spray`` call, the acceleration -G(v, v) at every node of every
unsettled curve.  Covariant acceleration along a sampled curve is
recovered with an order-4 finite-difference stencil plus the spray of the
test metric, so the planarity residual converges as O(h^4) in the sample
spacing h.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
    "TPlanarityResult",
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


def _picard(g: TensorField, x0: np.ndarray, v0: np.ndarray, span: float):
    """x and v, shape (nodes, m, 4), over a window of length span from rows (x0, v0).

    Each sweep evaluates the acceleration -G(v, v) at every node of every
    unsettled row in one ``geodesic_spray`` call and integrates it twice
    with the spectral matrix.  A row stops once its own update is at rounding
    level, so its nodes do not depend on the other rows.
    """
    s = 0.5 * span * _INTEGRATE
    x = x0 + np.multiply.outer(0.5 * span * (_TAU + 1.0), v0)
    v = np.broadcast_to(v0, x.shape).copy()
    todo = np.arange(len(x0))
    for _ in range(_MAX_SWEEPS):
        xo, vo = x[:, todo], v[:, todo]
        acc = -geodesic_spray(g, xo.reshape(-1, 4), vo.reshape(-1, 4)).reshape(xo.shape)
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
    g: TensorField,
    p0: np.ndarray,
    v0: np.ndarray,
    step: float,
    n_steps: int,
    chart: Chart | None = None,
) -> list[GeodesicPath]:
    """Geodesics of g from rows (m, 4) + (m, 4), sampled every ``step``.

    Chebyshev-Picard iteration of all rows at once over windows of length
    _WINDOW; each window's Chebyshev interpolant gives the samples on the
    uniform grid.  A row is truncated, and flagged, at its first sample
    after the start that ``chart.contains`` rejects; a non-finite sample
    counts as outside.  The rows of a window that fails are integrated one
    by one, halving the window where a row fails, so a row stops where it
    leaves the chart even if g is undefined past the exit.  The chart only
    truncates: the samples kept depend neither on it nor on the other rows.
    """
    p0, v0 = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (p0, v0))
    times = step * np.arange(n_steps + 1)
    xs, vs = np.full((2, n_steps + 1, len(p0), 4), np.nan)
    xs[0], vs[0] = p0, v0
    lo, hi = (-np.inf, np.inf) if chart is None else np.array(chart.box, dtype=float).T

    def inside(x):
        # Chart.contains on the last axis; a NaN coordinate is outside
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
        try:  # g undefined or singular at some node, or sweeps that do not settle
            xn, vn = _picard(g, x[rows], v[rows], b - a)
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


def kinetic_energy(g: TensorField, path: GeodesicPath) -> np.ndarray:
    """g(velocity, velocity) along the path; constant for true geodesics."""
    gv = g.batch_values(path.positions)
    return np.einsum("nij,ni,nj->n", gv, path.velocities, path.velocities)


@dataclass
class TPlanarityResult:
    max_residual: float
    residuals: np.ndarray  # per interior sample


def t_planarity_residual(g: TensorField, t: TensorField, path: GeodesicPath) -> TPlanarityResult:
    """Distance of the g-covariant acceleration from span{velocity, T velocity}.

    Coordinate acceleration is estimated with the 5-point order-4
    stencil on the sampled velocities, then corrected with the spray
    G(v, v) of the test metric g.  The distance is the
    Euclidean least-squares residual, normalized by max(|velocity|^2, 1);
    returns the maximum over interior samples.
    """
    m = len(path)
    if m < 5:
        raise ShortCurveError(f"{m} samples; the acceleration stencil needs at least 5")
    v = path.velocities
    speed2 = np.einsum("ni,ni->n", v, v)
    if np.min(speed2) < 1e-20:
        raise DegenerateVelocityError("velocity norm below 1e-10 along the curve")

    acc = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * path.step)
    interior = slice(2, m - 2)
    xs = path.positions[interior]
    vels = v[interior]
    cov_acc = acc + geodesic_spray(g, xs, vels)
    tv = np.einsum("nki,ni->nk", t.batch_values(xs), vels)

    # least squares onto span{v, Tv} by stacked QR, with lstsq's default
    # rank cutoff: a Tv within rounding of span{v} adds no direction
    q, r = np.linalg.qr(np.stack([vels, tv], axis=2))
    sv = np.linalg.svd(r, compute_uv=False)
    q[..., 1] *= (sv[:, 1] > 4.0 * np.finfo(float).eps * sv[:, 0])[:, None]
    resid = cov_acc - np.einsum("nij,nkj,nk->ni", q, q, cov_acc)
    residuals = np.linalg.norm(resid, axis=1) / np.maximum(speed2[interior], 1.0)

    return TPlanarityResult(float(np.max(residuals)), residuals)


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
