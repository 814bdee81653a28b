"""Constructors for the local normal forms of para-Kahler surface triples.

Eight constructible families, organized by the rank of the canonical
distribution spanned by the invariant gradients and their T-images:

  rank 4: real Liouville, complex Liouville
  rank 2: one family with a constant eigenvalue, the adapted-chart
          family (with its T-negated twin), and the mixed-null family
  rank 1: the adapted-chart family with constant second eigenvalue
          (and its T-negated twin)

Each constructor takes profile functions (callables over ring elements,
one positional argument per declared coordinate), validates its
parameter constraints on a dense sampling certificate, and returns a
:class:`~pklab.parakahler.ParaKahlerTriple` whose metadata records the
expected rank, gradient configuration and flatness/Einstein data.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .fields import Chart, TensorField, objarray
from .jets import DualBatch, Jet, dual_point
from .linalg import minv, mmul
from .parakahler import DOMAIN_ERRORS, ParaKahlerTriple

__all__ = [
    "FeasibilityError",
    "build_real_liouville",
    "build_complex_liouville",
    "build_dimd2_case1",
    "build_dimd2_case2",
    "build_dimd2_case4",
    "build_dimd1",
    "einstein_system_residual",
    "default_triple",
    "preset_triple",
    "FAMILIES",
    "PRESETS",
]

CERTIFICATE_POINTS = 10_000


class FeasibilityError(ValueError):
    """A constructor constraint failed on the declared box."""


def _values(out, n: int) -> np.ndarray:
    """Values of a constraint over n points; a constant counts at every point."""
    if isinstance(out, DualBatch):
        return out.val
    return np.broadcast_to(np.asarray(out, dtype=float), (n,))


def _certify(chart: Chart, constraints, label: str) -> None:
    """Dense-sampling feasibility certificate.

    ``constraints`` is a list of (name, kind, fn) with fn evaluated on
    second-order dual coordinates; kind 'nonvanishing' fails on sign
    changes or near-zeros, kind 'vanishing' fails on values above
    tolerance.  A constraint that raises a domain error or takes a
    non-finite value anywhere fails too.
    """
    pts = chart.sample_points(CERTIFICATE_POINTS, seed=7, margin=1e-3)
    # a fifth of the points at a time: the dual batches of all of them would
    # hold several MB at once
    chunks = [dual_point(part) for part in np.array_split(pts, 5)]
    for name, kind, fn in constraints:
        try:
            with np.errstate(all="ignore"):  # non-finite values are rejected below
                vals = np.concatenate([_values(fn(*c), len(c[0].val)) for c in chunks])
        except DOMAIN_ERRORS as e:
            raise FeasibilityError(
                f"{label}: constraint '{name}' is undefined on the box ({e})"
            ) from e
        if not np.all(np.isfinite(vals)):
            raise FeasibilityError(f"{label}: constraint '{name}' is not finite on the box")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if kind == "nonvanishing":
            crosses = vals.max() > 1e-12 * scale and vals.min() < -1e-12 * scale
            if crosses or np.min(np.abs(vals)) < 1e-9 * scale:
                raise FeasibilityError(
                    f"{label}: constraint '{name} != 0' fails on the box "
                    f"(range [{vals.min():.3e}, {vals.max():.3e}])"
                )
        elif kind == "vanishing":
            if np.max(np.abs(vals)) > 1e-10 * scale:
                raise FeasibilityError(
                    f"{label}: constraint '{name} = 0' fails on the box "
                    f"(max |.| = {np.max(np.abs(vals)):.3e})"
                )
        else:  # pragma: no cover
            raise ValueError(f"unknown constraint kind {kind}")


def _triple(box, label, constraints, gfn, tfn, afn, meta, meta_extra) -> ParaKahlerTriple:
    """A constructor's triple on ``box``, once ``constraints`` are certified there.

    ``gfn``, ``tfn`` and ``afn`` are the evaluation rules of g, T and A;
    ``meta_extra`` updates the family's ``meta``.
    """
    chart = Chart(tuple(tuple(b) for b in box), label=label)
    _certify(chart, constraints, label)
    return ParaKahlerTriple(
        chart=chart,
        g=TensorField((0, 2), gfn, name="g"),
        t=TensorField((1, 1), tfn, name="T"),
        a=TensorField((1, 1), afn, name="A"),
        meta={**meta, **(meta_extra or {})},
    )


def _t_from_g_omega(gfn, omfn) -> Callable:
    """T = g^{-1} omega: T^k_i = omega_{ij} g^{jk}."""

    def tfn(*coords):
        gj = objarray(gfn(*coords))
        om = objarray(omfn(*coords))
        return mmul(om, minv(gj)).T

    return tfn


_BLOCK_T = [
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
]


# -- rank 4: real Liouville ---------------------------------------------


def build_real_liouville(
    rho: Callable,
    sigma: Callable,
    eps: int = 1,
    box: Sequence[tuple[float, float]] = ((2.0, 3.0), (0.5, 1.5), (0.0, 1.0), (0.0, 1.0)),
    label: str = "real-liouville",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Separable family with two real, distinct eigenvalue profiles.

    rho = rho(x1) and sigma = sigma(x2); both nonzero with nonvanishing
    derivative and disjoint ranges on the box; eps = +-1 flips the
    signature of the x2 block.
    """
    if eps not in (1, -1):
        raise FeasibilityError("eps must be +1 or -1")
    constraints = [
        ("rho", "nonvanishing", lambda x1, x2, x3, x4: rho(x1)),
        ("sigma", "nonvanishing", lambda x1, x2, x3, x4: sigma(x2)),
        ("rho'", "nonvanishing", lambda x1, x2, x3, x4: rho(x1).derivative(0)),
        ("sigma'", "nonvanishing", lambda x1, x2, x3, x4: sigma(x2).derivative(1)),
        ("rho - sigma", "nonvanishing", lambda x1, x2, x3, x4: rho(x1) - sigma(x2)),
    ]

    def gfn(x1, x2, x3, x4):
        r, s = rho(x1), sigma(x2)
        rp, sp = r.derivative(0), s.derivative(1)
        d = r - s
        a = rp * rp / d
        b = sp * sp / d * eps
        z = 0.0
        return objarray(
            [
                [d, z, z, z],
                [z, d * eps, z, z],
                [z, z, -(a + b), -(a * s + b * r)],
                [z, z, -(a * s + b * r), -(a * s * s + b * r * r)],
            ]
        )

    def omfn(x1, x2, x3, x4):
        r, s = rho(x1), sigma(x2)
        rp, sp = r.derivative(0), s.derivative(1)
        z = 0.0
        return objarray(
            [
                [z, z, rp, rp * s],
                [z, z, sp, sp * r],
                [-rp, -sp, z, z],
                [-rp * s, -sp * r, z, z],
            ]
        )

    def afn(x1, x2, x3, x4):
        r, s = rho(x1), sigma(x2)
        z = 0.0
        return objarray(
            [
                [r, z, z, z],
                [z, s, z, z],
                [z, z, r + s, r * s],
                [z, z, -1.0, z],
            ]
        )

    meta = {
        "family": "real-liouville",
        "expected_rank": 4,
        "expected_config": ("non-isotropic", "non-isotropic"),
        "flat": False,
        "adapted": False,
    }
    return _triple(box, label, constraints, gfn, _t_from_g_omega(gfn, omfn), afn, meta, meta_extra)


# -- rank 4: complex Liouville ------------------------------------------


def build_complex_liouville(
    re_part: Callable,
    im_part: Callable,
    box: Sequence[tuple[float, float]] = ((0.25, 1.25), (0.5, 1.5), (0.0, 1.0), (0.0, 1.0)),
    label: str = "complex-liouville",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Separable family with complex-conjugate eigenvalues rho, conj(rho).

    re_part(x1, x2) and im_part(x1, x2) are the real and imaginary parts
    of a holomorphic rho(x1 + i x2); the Cauchy-Riemann equations are
    validated on the certificate.  Requires im_part != 0 and rho,
    d rho/dz nonvanishing.
    """
    constraints = [
        (
            "dR/dx1 - dI/dx2",
            "vanishing",
            lambda x1, x2, x3, x4: re_part(x1, x2).derivative(0)
            - im_part(x1, x2).derivative(1),
        ),
        (
            "dR/dx2 + dI/dx1",
            "vanishing",
            lambda x1, x2, x3, x4: re_part(x1, x2).derivative(1)
            + im_part(x1, x2).derivative(0),
        ),
        ("Im rho", "nonvanishing", lambda x1, x2, x3, x4: im_part(x1, x2)),
        (
            "|rho|^2",
            "nonvanishing",
            lambda x1, x2, x3, x4: re_part(x1, x2) ** 2 + im_part(x1, x2) ** 2,
        ),
        (
            "|d rho/dz|^2",
            "nonvanishing",
            lambda x1, x2, x3, x4: re_part(x1, x2).derivative(0) ** 2
            + im_part(x1, x2).derivative(0) ** 2,
        ),
    ]

    def gfn(x1, x2, x3, x4):
        R, I = re_part(x1, x2), im_part(x1, x2)
        a, b = R.derivative(0), I.derivative(0)  # Re, Im of d rho/dz
        z = 0.0
        g33 = 8.0 * a * b / I
        g34 = -4.0 * (a * a - b * b) + 8.0 * R * a * b / I
        g44 = -8.0 * R * (a * a - b * b) + 8.0 * a * b * (R * R - I * I) / I
        return objarray(
            [
                [z, I, z, z],
                [I, z, z, z],
                [z, z, g33, g34],
                [z, z, g34, g44],
            ]
        )

    def omfn(x1, x2, x3, x4):
        R, I = re_part(x1, x2), im_part(x1, x2)
        a, b = R.derivative(0), I.derivative(0)
        z = 0.0
        w13 = 2.0 * a
        w14 = 2.0 * (a * R + b * I)
        w23 = -2.0 * b
        w24 = 2.0 * (a * I - b * R)
        return objarray(
            [
                [z, z, w13, w14],
                [z, z, w23, w24],
                [-w13, -w23, z, z],
                [-w14, -w24, z, z],
            ]
        )

    def afn(x1, x2, x3, x4):
        R, I = re_part(x1, x2), im_part(x1, x2)
        z = 0.0
        return objarray(
            [
                [R, -I, z, z],
                [I, R, z, z],
                [z, z, 2.0 * R, R * R + I * I],
                [z, z, -1.0, z],
            ]
        )

    meta = {
        "family": "complex-liouville",
        "expected_rank": 4,
        "expected_config": ("non-isotropic-complex", "conjugate"),
        "flat": False,
        "adapted": False,
    }
    return _triple(box, label, constraints, gfn, _t_from_g_omega(gfn, omfn), afn, meta, meta_extra)


# -- rank 2, constant second eigenvalue ----------------------------------


def build_dimd2_case1(
    rho: Callable,
    mu: Callable,
    nu: Callable,
    c: float,
    box: Sequence[tuple[float, float]] = ((0.0, 1.0), (2.0, 3.0), (1.0, 2.0), (1.0, 2.0)),
    label: str = "dim-d2-1",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Rank-2 family with one non-isotropic gradient and sigma = c constant.

    rho = rho(x2), mu = mu(x2), nu = nu(x3, x4); requires mu != 0,
    rho' != 0, d nu/dx4 != 0, rho != c and a nonzero constant c.
    """
    if c == 0.0:
        raise FeasibilityError("constant eigenvalue c must be nonzero")
    constraints = [
        ("mu", "nonvanishing", lambda x1, x2, x3, x4: mu(x2)),
        ("rho", "nonvanishing", lambda x1, x2, x3, x4: rho(x2)),
        ("rho'", "nonvanishing", lambda x1, x2, x3, x4: rho(x2).derivative(1)),
        (
            "d nu/dx4",
            "nonvanishing",
            lambda x1, x2, x3, x4: nu(x3, x4).derivative(3),
        ),
        ("rho - c", "nonvanishing", lambda x1, x2, x3, x4: rho(x2) - c),
    ]

    def gfn(x1, x2, x3, x4):
        r, m, n = rho(x2), mu(x2), nu(x3, x4)
        rp = r.derivative(1)
        n4 = n.derivative(3)
        z = 0.0
        return objarray(
            [
                [rp / m, z, -(n * rp) / m, z],
                [z, -(m * rp), z, z],
                [-(n * rp) / m, z, (n * n * rp) / m, (c - r) * n4],
                [z, z, (c - r) * n4, z],
            ]
        )

    def tfn(x1, x2, x3, x4):
        m, n = mu(x2), nu(x3, x4)
        z = 0.0
        return objarray(
            [
                [z, -m, n, z],
                [-1.0 / m, z, n / m, z],
                [z, z, 1.0, z],
                [z, z, z, -1.0],
            ]
        )

    def afn(x1, x2, x3, x4):
        r, n = rho(x2), nu(x3, x4)
        z = 0.0
        return objarray(
            [
                [r, z, (c - r) * n, z],
                [z, r, z, z],
                [z, z, c + 0.0 * r, z],
                [z, z, z, c + 0.0 * r],
            ]
        )

    meta = {
        "family": "dim-d2-1",
        "expected_rank": 2,
        "expected_config": ("non-isotropic", "zero"),
        "flat": False,
        "adapted": False,
        "constant_eigenvalue": c,
    }
    return _triple(box, label, constraints, gfn, tfn, afn, meta, meta_extra)


# -- rank 2, adapted chart ------------------------------------------------


def build_dimd2_case2(
    rho: Callable,
    sigma: Callable,
    box: Sequence[tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0), (0.5, 1.5), (0.5, 1.5)),
    negate_t: bool = False,
    label: str = "dim-d2-2",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Adapted-chart rank-2 family; both eigenvalue gradients are null.

    rho = rho(x3), sigma = sigma(x4), both nonzero with nonvanishing
    derivatives and rho != sigma.  T is the block structure (or its
    negative for the twin family); the metric is flat.
    """
    constraints = [
        ("rho", "nonvanishing", lambda x1, x2, x3, x4: rho(x3)),
        ("sigma", "nonvanishing", lambda x1, x2, x3, x4: sigma(x4)),
        ("rho'", "nonvanishing", lambda x1, x2, x3, x4: rho(x3).derivative(2)),
        ("sigma'", "nonvanishing", lambda x1, x2, x3, x4: sigma(x4).derivative(3)),
        ("rho - sigma", "nonvanishing", lambda x1, x2, x3, x4: rho(x3) - sigma(x4)),
    ]

    def gfn(x1, x2, x3, x4):
        r, s = rho(x3), sigma(x4)
        rp, sp = r.derivative(2), s.derivative(3)
        z = 0.0
        return objarray(
            [
                [z, z, rp, sp],
                [z, z, s * rp, r * sp],
                [rp, s * rp, z, z],
                [sp, r * sp, z, z],
            ]
        )

    sign = -1.0 if negate_t else 1.0

    def tfn(x1, x2, x3, x4):
        return objarray([[sign * v for v in row] for row in _BLOCK_T])

    def afn(x1, x2, x3, x4):
        r, s = rho(x3), sigma(x4)
        z = 0.0
        return objarray(
            [
                [r + s, r * s, z, z],
                [-1.0, z, z, z],
                [z, z, r, z],
                [z, z, z, s],
            ]
        )

    null_kind = "null-minus" if negate_t else "null-plus"
    meta = {
        "family": "dim-d2-2neg" if negate_t else "dim-d2-2",
        "expected_rank": 2,
        "expected_config": (null_kind, null_kind),
        "flat": True,
        "adapted": not negate_t,
    }
    return _triple(box, label, constraints, gfn, tfn, afn, meta, meta_extra)


# -- rank 2, mixed null gradients ----------------------------------------


def build_dimd2_case4(
    rho: Callable,
    sigma: Callable,
    k: float = 0.0,
    box: Sequence[tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0), (0.5, 1.5), (3.5, 4.5)),
    label: str = "dim-d2-4",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Rank-2 family whose eigenvalue gradients are null of opposite type.

    rho = rho(x3), sigma = sigma(x4) as in the adapted family; k is a
    free real constant entering the endomorphism.  T depends on the
    eigenvalue profiles; the metric is flat.
    """
    constraints = [
        ("rho", "nonvanishing", lambda x1, x2, x3, x4: rho(x3)),
        ("sigma", "nonvanishing", lambda x1, x2, x3, x4: sigma(x4)),
        ("rho'", "nonvanishing", lambda x1, x2, x3, x4: rho(x3).derivative(2)),
        ("sigma'", "nonvanishing", lambda x1, x2, x3, x4: sigma(x4).derivative(3)),
        ("rho - sigma", "nonvanishing", lambda x1, x2, x3, x4: rho(x3) - sigma(x4)),
    ]

    def gfn(x1, x2, x3, x4):
        r, s = rho(x3), sigma(x4)
        rp, sp = r.derivative(2), s.derivative(3)
        z = 0.0
        return objarray(
            [
                [z, z, rp, -sp],
                [z, z, s * rp, -(r * sp)],
                [rp, s * rp, z, z],
                [-sp, -(r * sp), z, z],
            ]
        )

    def tfn(x1, x2, x3, x4):
        r, s = rho(x3), sigma(x4)
        d = r - s
        z = 0.0
        return objarray(
            [
                [(r + s) / d, 2.0 * r * s / d, z, z],
                [-2.0 / d, -((r + s) / d), z, z],
                [z, z, -1.0, z],
                [z, z, z, 1.0],
            ]
        )

    def afn(x1, x2, x3, x4):
        r, s = rho(x3), sigma(x4)
        rp, sp = r.derivative(2), s.derivative(3)
        d = r - s
        z = 0.0
        return objarray(
            [
                [r + s, r * s, -(k * s * rp) / d, -(k * r * sp) / d],
                [-1.0, z, k * rp / d, k * sp / d],
                [z, z, r, z],
                [z, z, z, s],
            ]
        )

    meta = {
        "family": "dim-d2-4",
        "expected_rank": 2,
        "expected_config": ("null-plus", "null-minus"),
        "flat": True,
        "adapted": False,
        "k": k,
    }
    return _triple(box, label, constraints, gfn, tfn, afn, meta, meta_extra)


# -- rank 1 ---------------------------------------------------------------


def build_dimd1(
    rho: Callable,
    f_profile: Callable,
    c: float,
    phi: Callable | None = None,
    box: Sequence[tuple[float, float]] = ((0.0, 1.0), (1.0, 2.0), (0.5, 1.5), (0.5, 1.5)),
    negate_t: bool = False,
    label: str = "dim-d1",
    meta_extra: dict | None = None,
) -> ParaKahlerTriple:
    """Rank-1 family: one null gradient, constant second eigenvalue c.

    rho = rho(x3); the second profile is F(x2, phi(x3, x4)) with a free
    phase function phi (default x3 + x4).  Requires rho != 0, rho' != 0,
    dF/dx4 != 0, rho != c, c != 0.
    """
    if c == 0.0:
        raise FeasibilityError("constant eigenvalue c must be nonzero")
    if phi is None:
        phi = lambda x3, x4: x3 + x4  # noqa: E731

    def F(x2, x3, x4):
        return f_profile(x2, phi(x3, x4))

    constraints = [
        ("rho", "nonvanishing", lambda x1, x2, x3, x4: rho(x3)),
        ("rho'", "nonvanishing", lambda x1, x2, x3, x4: rho(x3).derivative(2)),
        (
            "dF/dx4",
            "nonvanishing",
            lambda x1, x2, x3, x4: F(x2, x3, x4).derivative(3),
        ),
        ("rho - c", "nonvanishing", lambda x1, x2, x3, x4: rho(x3) - c),
    ]

    def gfn(x1, x2, x3, x4):
        r = rho(x3)
        rp = r.derivative(2)
        fv = F(x2, x3, x4)
        f3, f4 = fv.derivative(2), fv.derivative(3)
        z = 0.0
        g23 = rp * fv + (r - c) * f3
        g24 = (r - c) * f4
        return objarray(
            [
                [z, z, rp, z],
                [z, z, g23, g24],
                [rp, g23, z, z],
                [z, g24, z, z],
            ]
        )

    sign = -1.0 if negate_t else 1.0

    def tfn(x1, x2, x3, x4):
        return objarray([[sign * v for v in row] for row in _BLOCK_T])

    def afn(x1, x2, x3, x4):
        r = rho(x3)
        fv = F(x2, x3, x4)
        f3, f4 = fv.derivative(2), fv.derivative(3)
        z = 0.0
        return objarray(
            [
                [r, (r - c) * fv, z, z],
                [z, c + 0.0 * r, z, z],
                [z, z, r, z],
                [z, z, (c - r) * f3 / f4, c + 0.0 * r],
            ]
        )

    null_kind = "null-minus" if negate_t else "null-plus"
    meta = {
        "family": "dim-d1neg" if negate_t else "dim-d1",
        "expected_rank": 1,
        "expected_config": (null_kind, "zero"),
        "flat": False,
        "adapted": not negate_t,
        "constant_eigenvalue": c,
    }
    return _triple(box, label, constraints, gfn, tfn, afn, meta, meta_extra)


# -- Einstein systems ------------------------------------------------------


def einstein_system_residual(
    family: str, params: dict, constants: dict, points: np.ndarray
) -> float:
    """Residual of the family's Einstein first-integral system.

    Supported families: real-liouville, complex-liouville, dim-d2-1.
    ``params`` carries the profile callables, ``constants`` the system
    constants (see the per-family helpers).
    """
    if family == "real-liouville":
        return _einstein_system_real(params, constants, points)
    if family == "complex-liouville":
        return _einstein_system_complex(params, constants, points)
    if family == "dim-d2-1":
        return _einstein_system_dimd2_1(params, constants, points)
    raise ValueError(f"no Einstein system for family {family!r}")


def _einstein_system_real(params, constants, points) -> float:
    rho, sigma, eps = params["rho"], params["sigma"], params.get("eps", 1)
    lam = constants["lam"]
    h, k = constants.get("h", 0.0), constants.get("k", 0.0)
    c1, c2 = constants.get("c1", 0.0), constants.get("c2", 0.0)
    worst = 0.0
    for p in np.asarray(points, dtype=float):
        r = rho(Jet.variable(0, p[0], 1, 3))
        s = sigma(Jet.variable(0, p[1], 1, 3))
        rv, rp = r.value, r.partial([1])
        sv, sp = s.value, s.partial([1])
        r1 = 3 * rp**2 + 2 * lam * rv**3 - 3 * k * rv**2 - 6 * h * rv - c1
        r2 = 3 * sp**2 - eps * (2 * lam * sv**3 - 3 * k * sv**2 - 6 * h * sv) - c2
        scale = max(1.0, abs(3 * rp**2), abs(3 * sp**2))
        worst = max(worst, abs(r1) / scale, abs(r2) / scale)
    return worst


def _einstein_system_complex(params, constants, points) -> float:
    re_part, im_part = params["re_part"], params["im_part"]
    lam = constants["lam"]
    a = constants.get("a", 0.0)
    h = complex(constants.get("h", 0.0))
    d = complex(constants.get("d", 0.0))
    worst = 0.0
    for p in np.asarray(points, dtype=float):
        x1 = Jet.variable(0, p[0], 2, 2)
        x2 = Jet.variable(1, p[1], 2, 2)
        R, I = re_part(x1, x2), im_part(x1, x2)
        rho = complex(R.value, I.value)
        rho_z = complex(R.partial([1, 0]), I.partial([1, 0]))
        res = rho_z**2 - lam / 6.0 * rho**3 - a * rho**2 - 2 * h * rho + d
        worst = max(worst, abs(res) / max(1.0, abs(rho_z) ** 2))
    return worst


def _einstein_system_dimd2_1(params, constants, points) -> float:
    rho, mu, nu = params["rho"], params["mu"], params["nu"]
    c = params["c"]
    lam = constants["lam"]
    c1, c2 = constants.get("c1", 0.0), constants.get("c2", 0.0)
    f = constants.get("f", lambda x3: 0.0 * x3)
    h = constants.get("h", lambda x3: 0.0 * x3)
    worst = 0.0
    for p in np.asarray(points, dtype=float):
        r = rho(Jet.variable(0, p[1], 1, 3))
        m = mu(Jet.variable(0, p[1], 1, 3))
        rv, rp = r.value, r.partial([1])
        mv = m.value
        denom = 2 * lam * (rv - c) ** 3 + c2 * (rv - c) ** 2 + c1
        r1 = mv * denom - 3 * (rv - c) * rp
        x3 = Jet.variable(0, p[2], 2, 2)
        x4 = Jet.variable(1, p[3], 2, 2)
        n = nu(x3, x4)
        nv, n3 = n.value, n.partial([1, 0])
        fv = f(p[2])
        hv = h(p[2])
        r2 = n3 + c2 / 6.0 * nv**2 - fv * nv - hv
        scale = max(1.0, abs(denom), abs(n3))
        worst = max(worst, abs(r1) / scale, abs(r2) / scale)
    return worst


# -- registry --------------------------------------------------------------


def _default_real_liouville(**kw):
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("sigma", lambda u: u)
    kw.setdefault("eps", 1)
    return build_real_liouville(**kw)


def _default_complex_liouville(**kw):
    # rho(z) = z^2: non-flat, spectral type complex everywhere on the box
    kw.setdefault("re_part", lambda x1, x2: x1 * x1 - x2 * x2)
    kw.setdefault("im_part", lambda x1, x2: 2.0 * x1 * x2)
    return build_complex_liouville(**kw)


def _default_dimd2_1(**kw):
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("mu", lambda u: 1.0 + 0.0 * u)
    kw.setdefault("nu", lambda x3, x4: x3 * x4)
    kw.setdefault("c", 1.0)
    return build_dimd2_case1(**kw)


def _default_dimd2_2(**kw):
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("sigma", lambda u: u + 2.0)
    return build_dimd2_case2(**kw)


def _default_dimd2_2neg(**kw):
    kw.setdefault("label", "dim-d2-2neg")
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("sigma", lambda u: u + 2.0)
    return build_dimd2_case2(negate_t=True, **kw)


def _default_dimd2_4(**kw):
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("sigma", lambda u: u)
    kw.setdefault("k", 1.0)
    return build_dimd2_case4(**kw)


def _default_dimd1(**kw):
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("f_profile", lambda x2, ph: x2 * ph + ph * ph)
    kw.setdefault("c", 3.0)
    return build_dimd1(**kw)


def _default_dimd1neg(**kw):
    kw.setdefault("label", "dim-d1neg")
    kw.setdefault("rho", lambda u: u)
    kw.setdefault("f_profile", lambda x2, ph: x2 * ph + ph * ph)
    kw.setdefault("c", 3.0)
    return build_dimd1(negate_t=True, **kw)


FAMILIES: dict[str, Callable[..., ParaKahlerTriple]] = {
    "real-liouville": _default_real_liouville,
    "complex-liouville": _default_complex_liouville,
    "dim-d2-1": _default_dimd2_1,
    "dim-d2-2": _default_dimd2_2,
    "dim-d2-2neg": _default_dimd2_2neg,
    "dim-d2-4": _default_dimd2_4,
    "dim-d1": _default_dimd1,
    "dim-d1neg": _default_dimd1neg,
}


def _preset_einstein_lambda1() -> ParaKahlerTriple:
    """Separable Einstein instance with unit constant and Ricci-flat companion."""
    lam = 1.0
    return build_real_liouville(
        rho=lambda u: -6.0 / (lam * u * u),
        sigma=lambda u: 6.0 / (lam * u * u),
        eps=1,
        box=((1.5, 2.5), (0.5, 1.0), (0.0, 1.0), (0.0, 1.0)),
        label="real-liouville einstein preset",
        meta_extra={
            "einstein": lam,
            "companion_einstein": 0.0,
            "family_constant_rule": "lam*alpha^3",
            "constants": {"lam": lam, "h": 0.0, "k": 0.0, "c1": 0.0, "c2": 0.0},
        },
    )


def _preset_companion_einstein() -> ParaKahlerTriple:
    """Ricci-flat instance whose companion is Einstein with constant -6.

    First integrals: 3 rho'^2 - 3 rho^2 = c1 = -12 (rho = 2 cosh x1) and
    3 sigma'^2 + 3 sigma^2 = c2 = 12 (sigma = 2 cos x2); the companion
    constant is c1 / 2.
    """
    return build_real_liouville(
        rho=lambda u: u.exp() + (-u).exp(),  # 2 cosh u
        sigma=lambda u: 2.0 * u.cos(),
        eps=1,
        box=((0.5, 1.0), (0.6, 1.0), (0.0, 1.0), (0.0, 1.0)),
        label="real-liouville companion-einstein preset",
        meta_extra={
            "einstein": 0.0,
            "companion_einstein": -6.0,
            "constants": {"lam": 0.0, "h": 0.0, "k": 1.0, "c1": -12.0, "c2": 12.0},
        },
    )


def _preset_dimd2_1_einstein() -> ParaKahlerTriple:
    """Constant-eigenvalue family tuned Einstein; companion constant c^3 lam."""
    lam, c = 1.0, 2.0
    return build_dimd2_case1(
        rho=lambda u: u,
        mu=lambda u: 1.5 / ((u - c) * (u - c)),
        nu=lambda x3, x4: x3 + x4,
        c=c,
        box=((0.0, 1.0), (3.0, 4.0), (0.5, 1.5), (0.5, 1.5)),
        label="dim-d2-1 einstein preset",
        meta_extra={
            "einstein": lam,
            "companion_einstein": c * c * (lam * c - 0.0 / 2.0),
            "constants": {"lam": lam, "c1": 0.0, "c2": 0.0},
        },
    )


def _preset_dimd1_flat() -> ParaKahlerTriple:
    """Rank-1 family with separable second profile; the metric is flat."""
    return build_dimd1(
        rho=lambda u: u,
        f_profile=lambda x2, ph: x2 * ph,
        c=3.0,
        label="dim-d1 flat preset",
        meta_extra={"flat": True, "einstein": 0.0},
    )


def _preset_complex_einstein_linear() -> ParaKahlerTriple:
    """Linear complex eigenvalue profile: flat, with companion constant -6.

    The first integral for the complex family holds with lam = 0, a = 0,
    h = 0, d = -1 (both real), so the companion constant is 6 d.
    """
    return build_complex_liouville(
        re_part=lambda x1, x2: x1,
        im_part=lambda x1, x2: x2 + 0.0 * x1,
        label="complex-liouville einstein preset",
        meta_extra={
            "flat": True,
            "einstein": 0.0,
            "companion_einstein": -6.0,
            "constants": {"lam": 0.0, "a": 0.0, "h": 0.0, "d": -1.0},
        },
    )


PRESETS: dict[str, tuple[str, Callable[[], ParaKahlerTriple]]] = {
    "einstein-lambda1": ("real-liouville", _preset_einstein_lambda1),
    "companion-einstein": ("real-liouville", _preset_companion_einstein),
    "dim-d2-1-einstein": ("dim-d2-1", _preset_dimd2_1_einstein),
    "dim-d1-flat": ("dim-d1", _preset_dimd1_flat),
    "complex-einstein-linear": ("complex-liouville", _preset_complex_einstein_linear),
}


def default_triple(family: str, **kw) -> ParaKahlerTriple:
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return builder(**kw)


def preset_triple(name: str) -> ParaKahlerTriple:
    try:
        _, builder = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}") from None
    return builder()
