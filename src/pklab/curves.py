"""Geodesic integration and T-planarity of curves.

The operational meaning of the projective equivalence: geodesics of the
companion metric are T-planar for the original pair (g, T), i.e. their
g-covariant acceleration stays in span{velocity, T velocity}.  Curves
are integrated with fixed-step classical RK4; covariant acceleration
along a sampled curve is recovered with an order-4 finite-difference
stencil so the planarity residual inherits the integrator's O(h^4)
convergence.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curvature import christoffel_batch
from .fields import Chart, TensorField

__all__ = [
    "CurveSample",
    "GeodesicPath",
    "DegenerateVelocityError",
    "integrate_geodesic",
    "integrate_geodesic_bundle",
    "kinetic_energy",
    "momentum_along",
    "t_planarity_residual",
    "TPlanarityResult",
    "export_curve_csv",
]


class DegenerateVelocityError(ValueError):
    """Curve velocity too small for a planarity test."""


@dataclass(frozen=True)
class CurveSample:
    time: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration_cov: np.ndarray  # covariant acceleration w.r.t. the designated metric


@dataclass
class GeodesicPath:
    """Sampled solution of the geodesic equation of one metric."""

    times: np.ndarray  # (m,)
    positions: np.ndarray  # (m, 4)
    velocities: np.ndarray  # (m, 4)
    step: float
    exited_box: bool = False
    metric_name: str = ""

    def __len__(self) -> int:
        return len(self.times)


def _rhs(g: TensorField, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    gamma = christoffel_batch(g, xs)
    return -np.einsum("nkij,ni,nj->nk", gamma, vs, vs)


def integrate_geodesic_bundle(
    g: TensorField,
    p0: np.ndarray,
    v0: np.ndarray,
    step: float,
    n_steps: int,
    chart: Chart | None = None,
) -> list[GeodesicPath]:
    """Lockstep RK4 for a bundle of initial conditions (m, 4) + (m, 4).

    Trajectories are truncated (and flagged) at the first step that
    would leave the chart box.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    m = p0.shape[0]
    xs = np.empty((n_steps + 1, m, 4))
    vs = np.empty((n_steps + 1, m, 4))
    xs[0], vs[0] = p0, v0
    active = np.ones(m, dtype=bool)
    length = np.full(m, n_steps + 1, dtype=int)
    h = float(step)
    if chart is not None:
        lo, hi = np.array(chart.box, dtype=float).T

    for s in range(n_steps):
        x, v = xs[s], vs[s]
        k1x, k1v = v, _rhs(g, x, v)
        k2x = v + 0.5 * h * k1v
        k2v = _rhs(g, x + 0.5 * h * k1x, k2x)
        k3x = v + 0.5 * h * k2v
        k3v = _rhs(g, x + 0.5 * h * k2x, k3x)
        k4x = v + h * k3v
        k4v = _rhs(g, x + h * k3x, k4x)
        xn = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        vn = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if chart is not None:
            # Chart.contains row by row; a NaN coordinate is outside
            inside = np.all((xn >= lo) & (xn <= hi), axis=1)
            newly_out = active & ~inside
            length[newly_out] = s + 1
            active &= inside
            xn[~active] = x[~active]
            vn[~active] = v[~active]
            if not active.any():
                xs[s + 1 :] = xn
                vs[s + 1 :] = vn
                break
        xs[s + 1], vs[s + 1] = xn, vn

    times = h * np.arange(n_steps + 1)
    out = []
    for i in range(m):
        li = length[i]
        out.append(
            GeodesicPath(
                times=times[:li].copy(),
                positions=xs[:li, i].copy(),
                velocities=vs[:li, i].copy(),
                step=h,
                exited_box=bool(li <= n_steps),
                metric_name=g.name,
            )
        )
    return out


def integrate_geodesic(
    g: TensorField,
    p0: Sequence[float],
    v0: Sequence[float],
    step: float,
    n_steps: int,
    chart: Chart | None = None,
) -> GeodesicPath:
    """RK4 solution of d2x/dt2 + Gamma(x) dx dx = 0 from one initial condition."""
    return integrate_geodesic_bundle(
        g, np.asarray(p0)[None, :], np.asarray(v0)[None, :], step, n_steps, chart
    )[0]


def kinetic_energy(g: TensorField, path: GeodesicPath) -> np.ndarray:
    """g(velocity, velocity) along the path; constant for true geodesics."""
    gv = g.batch_values(path.positions)
    return np.einsum("nij,ni,nj->n", gv, path.velocities, path.velocities)


def momentum_along(
    g: TensorField, x_field: TensorField, path: GeodesicPath, stride: int = 25
) -> np.ndarray:
    """g(velocity, X) at every ``stride``-th sample (conserved for Killing X)."""
    idx = np.arange(0, len(path), stride)
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        p = path.positions[i]
        out[k] = path.velocities[i] @ g.values(p) @ x_field.values(p)
    return out


@dataclass
class TPlanarityResult:
    max_residual: float
    residuals: np.ndarray  # per interior sample
    samples: list[CurveSample] = field(default_factory=list)


def t_planarity_residual(
    g: TensorField,
    t: TensorField,
    path: GeodesicPath,
    keep_samples: bool = False,
) -> TPlanarityResult:
    """Distance of the g-covariant acceleration from span{velocity, T velocity}.

    Coordinate acceleration is estimated with the 5-point order-4
    stencil on the sampled velocities, then corrected with the
    Christoffel term of the test metric g.  The distance is the
    Euclidean least-squares residual, normalized by max(|velocity|^2, 1);
    returns the maximum over interior samples.
    """
    m = len(path)
    if m < 5:
        raise ValueError("need at least 5 samples for the acceleration stencil")
    h = path.step
    v = path.velocities
    speed2 = np.einsum("ni,ni->n", v, v)
    if np.min(speed2) < 1e-20:
        raise DegenerateVelocityError("velocity norm below 1e-10 along the curve")

    acc = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    interior = slice(2, m - 2)
    xs = path.positions[interior]
    vels = v[interior]
    gamma = christoffel_batch(g, xs)
    cov_acc = acc + np.einsum("nkij,ni,nj->nk", gamma, vels, vels)
    tv = np.einsum("nki,ni->nk", t.batch_values(xs), vels)

    residuals = np.empty(len(xs))
    for i in range(len(xs)):
        basis = np.stack([vels[i], tv[i]], axis=1)
        coef, *_ = np.linalg.lstsq(basis, cov_acc[i], rcond=None)
        resid = cov_acc[i] - basis @ coef
        residuals[i] = np.linalg.norm(resid) / max(speed2[interior][i], 1.0)

    samples = []
    if keep_samples:
        ts = path.times[interior]
        for i in range(len(xs)):
            samples.append(
                CurveSample(
                    time=float(ts[i]),
                    position=xs[i].copy(),
                    velocity=vels[i].copy(),
                    acceleration_cov=cov_acc[i].copy(),
                )
            )
    return TPlanarityResult(
        max_residual=float(np.max(residuals)), residuals=residuals, samples=samples
    )


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
        for i, r in enumerate(residuals):
            res_col[i + 2] = f"{r:.12e}"
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
