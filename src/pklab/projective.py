"""Para-complex projective machinery: Benenti tensors and their identities.

Central objects: a para-Kahler triple (g, T) together with an
endomorphism field A that is g-symmetric, commutes with T and satisfies

    nabla_X A = g(X,.) Lam + g(Lam,.) X - g(TX,.) TLam - g(TLam,.) TX,
    Lam = (1/4) grad tr A.

Nondegenerate solutions ("Benenti tensors") encode a second metric with
the same T-planar curves through

    ghat = (det A)^(-1/2) g A^(-1),

and the whole two-parameter family alpha*g-side + beta*ghat-side.  This
module evaluates every residual of that story: the defining equation,
its symplectic (Hamiltonian 2-form) reformulation, connection and Ricci
differences, the weighted-tensor mobility equation, eigenvalue
invariants with their canonical Killing fields, and the rank
classification of the canonical distribution.

Field constructors return TensorFields; residuals take a
``pklab.geometry.Geometry`` and read every jet, connection and curvature
tensor from its cache.  They return one residual per sample point,
evaluated at all the points at once on arrays whose last axis is the
point (see ``pklab.parakahler.amax``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    christoffel_jets,
    covariant_derivative_endo,
    covariant_derivative_vector,
    riemann,
    scalar_hessian,
)
from .fields import (
    DIM,
    DegenerateMetricError,
    ScalarField,
    TensorField,
    lie_bracket,
    lie_derivative_endo,
    lie_derivative_metric,
    stacked,
)
from .geometry import (
    Geometry,
    companion_components,
    det_a,
    family_components,
    mu_invariants,
    weighted_sigma_components,
)
from .jets import Jet, jsqrt
from .linalg import minv, mmul, msolve, mscale
from .parakahler import amax, fundamental_form, mm, relative, transposed
from .report import worst

__all__ = [
    "N_COMPLEX",
    "benenti_residual",
    "hamiltonian_form_residual",
    "a_from_pair",
    "companion_metric",
    "companion_values",
    "companion_spray",
    "family_metric",
    "connection_difference_residual",
    "weighted_sigma_field",
    "weighted_endo_sigma_field",
    "scale_weighted_field",
    "weighted_covariant_derivative",
    "sigma_parallel_residual",
    "sigma_para_hermitian_residual",
    "mobility_residual",
    "mobility_expression",
    "SpectralData",
    "eigen_decompose",
    "eigen_gradient_residual",
    "killing_residual",
    "hamiltonian_pairing_residual",
    "para_holomorphy_residual",
    "commutation_residual",
    "leaf_geodesic_residual",
    "GradClass",
    "classify_gradient",
    "distribution_d_rank",
    "ricci_difference_residual",
    "einstein_family_constant",
]

# para-complex dimension of a 4-manifold; the constant 2(n+1) recurs in
# the trace normalizations of the projective identities
N_COMPLEX = 2
_K = 2.0 * (N_COMPLEX + 1)


# -- the defining equation ---------------------------------------------


def benenti_residual(geo: Geometry) -> np.ndarray:
    """Deviation of nabla A from the canonical right-hand side built from Lam.

    Maximum over coordinate directions X of the matrix mismatch, scaled
    by the magnitude of the quantities compared.
    """
    gm = geo.values("g")
    tm = geo.values("t")
    lam = geo.lam()
    tlam = mm(tm, lam)
    nabla = covariant_derivative_endo(geo.gamma(), *geo.vp("a"))  # [k, i, j]
    # the right-hand side for X = e_k, at index k
    rhs = (np.einsum("i...,jk...->kij...", lam, gm)
           + np.einsum("ik,j...->kij...", np.eye(DIM), mm(gm, lam))
           - np.einsum("i...,jk...->kij...", tlam, mm(gm, tm))
           - np.einsum("ik...,j...->kij...", tm, mm(gm, tlam)))
    return relative(nabla - rhs, rhs, nabla)


def hamiltonian_form_residual(geo: Geometry) -> np.ndarray:
    """Residual of the Hamiltonian-2-form shape of the defining equation.

    With phi = g(AT., .) and kappa = tr_omega phi the equation reads

        2 nabla_X phi = d kappa ^ (TX)^flat - (T d kappa) ^ X^flat .

    Normalization is pinned so this is equivalent to the Lam form:
    tr_omega phi = (1/2) tr A = mu1, and T acts on 1-forms through the
    metric duality, (T alpha)(Y) = -alpha(TY).
    """
    gm, gp = geo.vp("g")
    tm, tp = geo.vp("t")
    av, ap = geo.vp("a")
    # phi_ij = (AT)^k_i g_kj, partials by the product rule
    at = mm(av, tm)
    dat = np.einsum("ikm...,kj...->ijm...", ap, tm) + np.einsum("ik...,kjm...->ijm...", av, tp)
    phv = mm(transposed(at), gm)
    php = np.einsum("kim...,kj...->ijm...", dat, gm) + np.einsum("ki...,kjm...->ijm...", at, gp)
    gamma = geo.gamma()
    nphi = np.moveaxis(php, 2, 0) - np.einsum("mki...,mj...->kij...", gamma, phv)
    nphi -= np.einsum("mkj...,im...->kij...", gamma, phv)

    dk = geo.vp("mu")[1][0]
    tdk = -mm(transposed(tm), dk)  # (T dkappa)_i = -dkappa_p T^p_i

    # the right-hand side for X = e_k, at index k; g T e_k = (g T)[:, k]
    gt = mm(gm, tm)
    rhs = (np.einsum("i...,jk...->kij...", dk, gt) - np.einsum("ik...,j...->kij...", gt, dk)
           - np.einsum("i...,jk...->kij...", tdk, gm) + np.einsum("ik...,j...->kij...", gm, tdk))
    return relative(2.0 * nphi - rhs, rhs, 2.0 * nphi)


# -- pair <-> Benenti tensor -------------------------------------------


def a_from_pair(gm: np.ndarray, hm: np.ndarray) -> np.ndarray:
    """A = (det ghat / det g)^(1/6) ghat^{-1} g from the two metrics' values,
    or from stacks of them on the leading axes (numpy's convention)."""
    hinv = minv(hm)
    ratio = np.asarray(np.linalg.det(hm) / np.linalg.det(gm))
    if not np.all(ratio > 0.0):
        raise DegenerateMetricError(f"determinant ratio {np.min(ratio):.3e} is not positive")
    return ratio[..., None, None] ** (1.0 / 6.0) * hinv @ gm


def _stacked(coords, *fields: TensorField) -> list[Jet]:
    """Each field's components at the coordinate jets, stacked (``fields.stacked``)."""
    return [stacked(f.components(coords), coords[0]) for f in fields]


def companion_metric(g: TensorField, a: TensorField) -> TensorField:
    """ghat = (det A)^(-1/2) g A^(-1), positive square root.

    det A must be positive on the region of use; evaluation raises a
    domain error otherwise.  A jet field: over many points,
    ``companion_values`` gives its values and ``companion_spray``
    contracts its geodesic equation, both from g and A, and ``Geometry``
    reads its partials from jets.
    """

    def comps(*coords):
        gj, aj = _stacked(coords, g, a)
        return companion_components(gj, minv(aj), det_a(aj))

    return TensorField((0, 2), comps, name="companion")


def companion_values(g: TensorField, a: TensorField, points: np.ndarray) -> np.ndarray:
    """ghat's values over an (n, 4) batch, shape (n, 4, 4), with ghat =
    companion_metric(g, a), from the values of g and A alone, so no partials
    are evaluated.  det A <= 0 raises DegenerateMetricError."""
    gv, av = g.batch_values(points), a.batch_values(points)
    det = np.linalg.det(av)
    if np.any(det <= 0.0):
        raise DegenerateMetricError("det A <= 0 in companion metric batch")
    return det[:, None, None] ** -0.5 * (gv @ minv(av))


def companion_spray(g: TensorField, a: TensorField, points: np.ndarray,
                    velocities: np.ndarray) -> np.ndarray:
    """ghat's spray Ghat^k_ij v^i v^j over an (n, 4) batch, shape (n, 4), with
    ghat = companion_metric(g, a), from the values and partials of g and A.

    The chain rule on ghat's definition, with w = A^-1 v and
    lam_l = -1/2 tr(A^-1 d_l A) = d_l log (det A)^(-1/2), gives

        Ghat(v, v) = (lam.v) v - (d_v A) w + A g^-1 [(d_v g) w
                     - 1/2 (lam g(v, w) + (dg)(v, w) - (dA)(A^-T g v, w))],

    where (dg)(v, w)_l = v^i w^j d_l g_ij; the factor (det A)^(-1/2)
    cancels.  One ``batch_duals`` call each for g and A, one float inverse
    (of A) and one solve with g, so ghat's (n, 4, 4, 4) partials and its
    inverse are never formed.  det A <= 0 (or so large that ghat's values
    are zero) raises DegenerateMetricError and a singular g ZeroDivisionError.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    col = np.asarray(velocities, dtype=float)[:, :, None]
    (gv, gd), (av, ad) = g.batch_duals(pts), a.batch_duals(pts)
    det = np.linalg.det(av)
    # an infinite det A makes ghat's values zeros: a degenerate companion
    if np.any((det <= 0.0) | (det == np.inf)):
        raise DegenerateMetricError("det A <= 0 or infinite in companion spray")
    ainv_t = np.swapaxes(minv(av), 1, 2)
    # rows (i, j), columns l: d_l g_ij and d_l A^i_j
    gd, ad = gd.reshape(n, DIM * DIM, DIM), ad.reshape(n, DIM * DIM, DIM)
    w = col.swapaxes(1, 2) @ ainv_t  # w = A^-1 v, a row
    gvv = gv @ col
    lam = -0.5 * ainv_t.reshape(n, 1, DIM * DIM) @ ad  # a row
    # lam g(v, w) + (dg)(v, w) - (dA)(A^-T g v, w), a row
    row = (lam * (w @ gvv) + (col * w).reshape(n, 1, DIM * DIM) @ gd
           - ((ainv_t @ gvv) * w).reshape(n, 1, DIM * DIM) @ ad)
    wc = w.swapaxes(1, 2)
    rhs = (gd @ col).reshape(n, DIM, DIM) @ wc - 0.5 * row.swapaxes(1, 2)
    out = (lam @ col) * col - (ad @ col).reshape(n, DIM, DIM) @ wc
    return (out + av @ msolve(gv, rhs[..., 0])[..., None])[..., 0]


def family_metric(g: TensorField, a: TensorField, alpha: float, beta: float) -> TensorField:
    """Member of the projective family weighting g by alpha and ghat by beta.

    Equals the companion construction applied to alpha*Id + beta*A, with
    the smooth signed square root alpha^2 + alpha*beta*mu1 + beta^2*mu2
    in place of the positive root, which keeps the family polynomial in
    (alpha, beta).  (alpha, beta) = (1, 0) returns g itself; (0, 1)
    returns the companion up to the sign of that root.
    """

    def comps(*coords):
        gj, aj = _stacked(coords, g, a)
        return family_components(gj, aj, *mu_invariants(aj), alpha, beta)

    return TensorField((0, 2), comps, name=f"family[{alpha},{beta}]")


# -- potential and connection difference --------------------------------


def connection_difference_residual(geo: Geometry) -> np.ndarray:
    """Mismatch of Gammahat - Gamma against the projective-shift formula.

    The shift is Psi_i d^k_j + Psi_j d^k_i + Psi_p T^p_i T^k_j
    + Psi_p T^p_j T^k_i with Psi = d psi, psi = -(1/4) log det A.
    """
    psi = geo.vp("psi")[1]
    gm_hat = geo.gamma("ghat")
    gm = geo.gamma()
    tm = geo.values("t")
    psit = mm(transposed(tm), psi)
    eye = np.eye(DIM)
    rhs = (
        np.einsum("i...,kj->kij...", psi, eye)
        + np.einsum("j...,ki->kij...", psi, eye)
        + np.einsum("i...,kj...->kij...", psit, tm)
        + np.einsum("j...,ki...->kij...", psit, tm)
    )
    diff = gm_hat - gm
    return relative(diff - rhs, diff, rhs)


# -- weighted (2,0) tensors and the mobility equation -------------------


def weighted_sigma_field(g: TensorField) -> TensorField:
    """sigma^{ij} = |det g|^(1/6) g^{ij}, the weighted tensor of the metric."""
    return TensorField(
        (2, 0), lambda *c: weighted_sigma_components(*_stacked(c, g)), name="sigma(g)"
    )


def weighted_endo_sigma_field(a: TensorField, sigma: TensorField) -> TensorField:
    """(A sigma)^{jk} = A^j_p sigma^{pk}; stays symmetric and para-Hermitian."""

    def comps(*coords):
        return mmul(*_stacked(coords, a, sigma))

    return TensorField((2, 0), comps, name="A.sigma")


def scale_weighted_field(f: ScalarField, sigma: TensorField) -> TensorField:
    """f * sigma for a scalar field f (a non-solution probe for invariance)."""

    def comps(*coords):
        return mscale(*_stacked(coords, sigma), f(*coords))

    return TensorField((2, 0), comps, name=f"{f.name}.sigma")


def weighted_covariant_derivative(geo: Geometry, s_jets: Jet, metric: str = "g") -> np.ndarray:
    """nabla_i sigma^{jk} for a (2,0) tensor of volume weight 1/(n+1).

    ``s_jets`` are the tensor's stacked jets batched over geo's points;
    the connection is that of ``metric`` ('g' or 'ghat').

    nabla_i s^{jk} = d_i s^{jk} + G^j_{im} s^{mk} + G^k_{im} s^{mj}
                     - (1/(n+1)) G^p_{ip} s^{jk}
    """
    sv, sp = geo.split(s_jets)
    gamma = geo.gamma(metric)
    out = np.moveaxis(sp, 2, 0) + np.einsum("jim...,mk...->ijk...", gamma, sv)
    out += np.einsum("kim...,mj...->ijk...", gamma, sv)
    out -= np.einsum("pip...,jk...->ijk...", gamma, sv) / (N_COMPLEX + 1.0)
    return out


def sigma_parallel_residual(geo: Geometry) -> np.ndarray:
    """|nabla sigma(g)| for the Levi-Civita connection of g."""
    nabla = weighted_covariant_derivative(geo, geo.batch("sigma"))
    return relative(nabla, geo.values("sigma"))


def sigma_para_hermitian_residual(geo: Geometry) -> np.ndarray:
    """T^j_p sigma^{pk} + sigma^{jp} T^k_p should vanish for sigma(g)."""
    tm = geo.values("t")
    sv = geo.values("sigma")
    return relative(mm(tm, sv) + mm(sv, transposed(tm)), sv)


def _mobility_terms(geo, s_jets, metric):
    nabla = weighted_covariant_derivative(geo, s_jets, metric)
    d = np.einsum("llk...->k...", nabla)
    tm = geo.values("t")
    eye = np.eye(DIM)
    corr = (
        np.einsum("ij,k...->ijk...", eye, d)
        + np.einsum("ik,j...->ijk...", eye, d)
        - np.einsum("ji...,kp...,p...->ijk...", tm, tm, d)
        - np.einsum("ki...,jp...,p...->ijk...", tm, tm, d)
    ) / (2.0 * N_COMPLEX)
    return nabla, corr


def mobility_residual(geo: Geometry, s_jets: Jet, metric: str = "g") -> np.ndarray:
    """Residual of the projectively invariant first-order system.

    nabla_i s^{jk} - (1/(2n)) (d^j_i D^k + d^k_i D^j
        - T^j_i T^k_p D^p - T^k_i T^j_p D^p),  D^k = nabla_l s^{lk}.

    The expression does not depend on which metric of the projective
    class supplies the connection; solutions make it vanish.
    """
    nabla, corr = _mobility_terms(geo, s_jets, metric)
    return relative(nabla - corr, nabla, corr)


def mobility_expression(geo: Geometry, s_jets: Jet, metric: str = "g") -> np.ndarray:
    """The full invariant expression (not just its norm), for invariance tests."""
    nabla, corr = _mobility_terms(geo, s_jets, metric)
    return nabla - corr


# -- eigenvalues, Killing fields, rank classification --------------------


@dataclass(frozen=True)
class SpectralData:
    """Spectral type and double eigenvalues at each sample point (arrays)."""

    kind: np.ndarray  # "real", "complex" or "degenerate"
    mu1: np.ndarray
    mu2: np.ndarray
    rho: np.ndarray  # complex
    sigma: np.ndarray  # complex


# relative size of the discriminant below which the spectrum counts as degenerate
_DEGENERATE_TOL = 1e-10


def eigen_decompose(geo: Geometry) -> SpectralData:
    """Spectral type and double eigenvalues of a T-commuting endomorphism.

    Roots of t^2 - mu1 t + mu2; rho is the larger real root, or the root
    with positive imaginary part in the complex case.
    """

    def build():
        m1, m2 = geo.values("mu")
        disc = m1 * m1 - 4.0 * m2
        scale = np.maximum(np.maximum(1.0, m1 * m1), np.abs(m2))
        kind = np.where(np.abs(disc) < _DEGENERATE_TOL * scale, "degenerate",
                        np.where(disc > 0, "real", "complex"))
        root = np.where(kind == "degenerate", 0.0, np.sqrt(disc + 0j))
        return SpectralData(kind, m1, m2, (m1 + root) / 2.0, (m1 - root) / 2.0)

    return geo.cached("spectrum", build)


def _eigenvalue_pair(m1, m2, kind: str):
    """(rho, sigma) for kind 'real', (Re rho, Im rho) for kind 'complex'."""
    if kind == "real":
        root = jsqrt(m1 * m1 - 4.0 * m2)
        return (m1 + root) * 0.5, (m1 - root) * 0.5
    if kind == "complex":
        return m1 * 0.5, jsqrt(4.0 * m2 - m1 * m1) * 0.5
    raise ValueError(f"no smooth eigenvalue fields for spectral kind {kind!r}")


def _eigenvalue_gradients(geo: Geometry) -> np.ndarray:
    """Metric gradients, shape (2, 4, points), of each point's two eigenvalue
    functions (``_eigenvalue_pair``); NaN at a double eigenvalue, which has none."""

    def build():
        kinds, ginv = eigen_decompose(geo).kind, geo.values("ginv")
        out = np.full((2, DIM, len(geo)), np.nan)
        for kind in ("real", "complex"):
            cols = np.flatnonzero(kinds == kind)
            if cols.size:
                mu = geo.batch("mu")
                c = mu.coeffs[..., cols]
                for k, f in enumerate(_eigenvalue_pair(Jet(mu.space, c[:, 0]),
                                                       Jet(mu.space, c[:, 1]), kind)):
                    out[k][:, cols] = mm(ginv[..., cols], f.gradient())
        return out

    return geo.cached("eigen-gradients", build)


def eigen_gradient_residual(geo: Geometry) -> np.ndarray:
    """How far grad(rho), grad(sigma) are from being eigenvectors of A.

    In the complex case the eigenvector relation is taken for the
    complexified gradient grad(Re rho) + i grad(Im rho).  At a double
    eigenvalue the eigenvalue functions have no jets: the residual is inf
    there.
    """
    spec = eigen_decompose(geo)
    am = geo.values("a")
    v1, v2 = _eigenvalue_gradients(geo)
    scale = np.maximum(1.0, amax(am) * np.maximum(amax(v1), amax(v2)))
    re, im = spec.rho.real, spec.rho.imag
    real = spec.kind == "real"
    r1 = mm(am, v1) - np.where(real, re * v1, re * v1 - im * v2)
    r2 = mm(am, v2) - np.where(real, spec.sigma.real * v2, re * v2 + im * v1)
    return np.where(spec.kind == "degenerate", np.inf, np.maximum(amax(r1), amax(r2)) / scale)


def _killing_fields(geo: Geometry, idx) -> tuple:
    """Values and partials of the Killing fields ``idx`` (of V1, V2, TV1, TV2),
    the field axis moved next to the point axis, so that one ``fields`` call
    serves them all."""
    kv, kp = geo.vp("killing")
    return np.moveaxis(kv[idx], 0, -2), np.moveaxis(kp[idx], 0, -2)


def killing_residual(geo: Geometry) -> np.ndarray:
    """max over TV1, TV2 of |L_{TV} g|, scaled by |g|."""
    gv, gp = geo.vp("g")
    return relative(lie_derivative_metric(gv, gp, *_killing_fields(geo, [2, 3])), gv)


def hamiltonian_pairing_residual(geo: Geometry) -> np.ndarray:
    """max over i of |omega(TV_i, .) - d mu_i|, each scaled by |d mu_i|."""
    om = fundamental_form(geo)
    kv = geo.values("killing")
    dmu = geo.vp("mu")[1]
    return np.maximum(*(relative(mm(transposed(om), kv[2 + k]) - dmu[k], dmu[k]) for k in (0, 1)))


def para_holomorphy_residual(geo: Geometry) -> np.ndarray:
    """max over X in {V1, V2, TV1, TV2} of |L_X T|."""
    tv, tp = geo.vp("t")
    return amax(lie_derivative_endo(tv, tp, *_killing_fields(geo, slice(None))))


def commutation_residual(geo: Geometry) -> np.ndarray:
    """max |[X, Y]| over pairs of {V1, V2, TV1, TV2}."""
    a, b = np.triu_indices(4, 1)
    return amax(lie_bracket(*_killing_fields(geo, a), *_killing_fields(geo, b)))


def leaf_geodesic_residual(geo: Geometry) -> np.ndarray:
    """g(nabla_{V_i} V_j, T V_h): zero means the V-leaves are totally geodesic."""
    gm = geo.values("g")
    kv, kp = geo.vp("killing")
    gamma = geo.gamma()
    nabla = [covariant_derivative_vector(gamma, kv[b], kp[b]) for b in (0, 1)]  # [k, i]
    terms = []
    for a in (0, 1):
        for b in (0, 1):
            acc = mm(transposed(nabla[b]), kv[a])  # (nabla_{V_a} V_b)^i
            terms += [np.abs(np.einsum("i...,i...->...", mm(transposed(gm), acc), kv[h]))
                      for h in (2, 3)]
    return relative(np.array(terms), gm)


GradClass = str  # "zero", "null-plus", "null-minus", "non-isotropic", ...

# relative size below which a gradient, an isotropy norm or a singular value
# counts as zero; values within a factor 10 of it are flagged
_THRESHOLD = 1e-8

_CLASS_ORDER = {
    "non-isotropic-complex": 0,
    "conjugate": 1,
    "non-isotropic": 2,
    "null-plus": 3,
    "null-minus": 4,
    "zero": 5,
    "indeterminate": 6,
}


def classify_gradient(gm: np.ndarray, tm: np.ndarray, v: np.ndarray, scale) -> tuple:
    """Classify an eigenvalue gradient: zero / null in T+ or T- / non-isotropic.

    Values within a factor 10 of the decision threshold are flagged
    indeterminate instead of being forced into a class.  gm, tm and v carry
    the point axis; the class at each point and the flags raised at any point.
    """
    vnorm = amax(v)
    zero = vnorm < _THRESHOLD * scale
    norm2 = np.abs(np.einsum("i...,i...->...", mm(transposed(gm), v), v))
    iso_scale = amax(gm) * vnorm * vnorm
    isotropic = norm2 < _THRESHOLD * iso_scale
    borderline = (_THRESHOLD * iso_scale * 0.1 < norm2) & (norm2 < _THRESHOLD * iso_scale * 10.0)
    plus = amax(mm(tm, v) - v) < _THRESHOLD * vnorm
    minus = amax(mm(tm, v) + v) < _THRESHOLD * vnorm
    cls = np.select([zero, borderline, ~isotropic, plus, minus],
                    ["zero", "indeterminate", "non-isotropic", "null-plus", "null-minus"],
                    "indeterminate")
    flags = []
    if np.any(zero & (vnorm > 0.1 * _THRESHOLD * scale)):
        flags.append("near-zero-gradient")
    if np.any(~zero & borderline):
        flags.append("borderline-isotropy")
    if np.any(~zero & ~borderline & isotropic & ~plus & ~minus):
        flags.append("isotropic-but-not-eigendirection")
    return cls, flags


def distribution_d_rank(geo: Geometry) -> tuple[np.ndarray, list[tuple[GradClass, GradClass]], set]:
    """Rank of span{grad mu1, grad mu2, T grad mu1, T grad mu2} + configuration
    at each sample point, and the flags raised at any point.

    The configuration is the canonically ordered pair of gradient
    classes of the two eigenvalue functions (order-free, since the
    eigenvalue labels are only defined up to exchange).
    """
    gm, tm = geo.values("g"), geo.values("t")
    gens = geo.values("killing")  # V1, V2, TV1, TV2 with V_k = grad mu_k
    svals = np.linalg.svd(np.moveaxis(gens, -1, 0), compute_uv=False)
    smax = np.maximum(svals[:, :1], 1e-30)
    ranks = np.sum(svals > _THRESHOLD * smax, axis=1)
    flags = set()
    if np.any((svals > 0.1 * _THRESHOLD * smax) & (svals < 10.0 * _THRESHOLD * smax)):
        flags.add("borderline-rank")

    kind = eigen_decompose(geo).kind
    grads = _eigenvalue_gradients(geo)
    config = np.full((2, len(geo)), "indeterminate", dtype=object)
    if np.any(kind == "degenerate"):
        flags.add("degenerate-spectrum")

    cols = np.flatnonzero(kind == "complex")
    if cols.size:
        # complex bilinear norm of grad rho = grad R + i grad I
        gr, gi = (v[:, cols] for v in grads)
        gmc = transposed(gm[..., cols])
        re_part = (np.einsum("i...,i...->...", mm(gmc, gr), gr)
                   - np.einsum("i...,i...->...", mm(gmc, gi), gi))
        im_part = np.einsum("i...,i...->...", mm(gmc, 2.0 * gr), gi)
        vnorm = np.maximum(amax(gr), amax(gi))
        isotropic = np.hypot(re_part, im_part) < _THRESHOLD * amax(gmc) * vnorm * vnorm
        config[0, cols] = np.where(isotropic, "indeterminate", "non-isotropic-complex")
        config[1, cols] = "conjugate"
        if np.any(isotropic):
            flags.add("complex-gradient-isotropic")

    cols = np.flatnonzero(kind == "real")
    if cols.size:
        scale_v = np.maximum(np.maximum(amax(gens[0]), amax(gens[1])), 1.0)[cols]
        (c1, fl1), (c2, fl2) = (classify_gradient(gm[..., cols], tm[..., cols], v[:, cols], scale_v)
                                for v in grads)
        flags.update(fl1 + fl2)
        swap = np.array([_CLASS_ORDER[a] > _CLASS_ORDER[b] for a, b in zip(c1, c2)], dtype=bool)
        config[0, cols] = np.where(swap, c2, c1)
        config[1, cols] = np.where(swap, c1, c2)
    return ranks, [(str(a), str(b)) for a, b in config.T], flags


# -- curvature comparison ------------------------------------------------


def ricci_difference_residual(geo: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """(primary, cross-check) residuals of the Ricci comparison identity.

    Primary form:  Ric(ghat) - Ric(g)
        = -2(n+1) (nabla Psi - Psi x Psi - (Psi o T) x (Psi o T)).

    Cross-check (Lam form):  (Ric(ghat) - Ric(g)) / (2(n+1))
        = g(A^{-1} Y, nabla_X Lam) - g(A^{-1} Lam, Lam) g(Y, A^{-1} X).
    """
    gm = geo.values("g")
    tm = geo.values("t")
    ric_g = geo.ricci()
    lhs = geo.ricci("ghat") - ric_g

    _, psi, hess = scalar_hessian(geo.batch("psi"))
    gamma = geo.gamma()
    npsi = hess - np.einsum("mkj...,m...->kj...", gamma, psi)
    psit = mm(transposed(tm), psi)
    m = (npsi - np.einsum("i...,j...->ij...", psi, psi)
         - np.einsum("i...,j...->ij...", psit, psit))
    primary = relative(lhs + _K * m, lhs, ric_g)

    kv, kp = geo.vp("killing")
    lam, lam_p = 0.5 * kv[0], 0.5 * kp[0]  # Lam = V1 / 2
    nlam = covariant_derivative_vector(gamma, lam, lam_p)  # [x, i]
    ainv = geo.values("ainv")
    const = np.einsum("j...,j...->...", mm(transposed(gm), mm(ainv, lam)), lam)
    gainv = mm(gm, ainv)  # symmetric since A is g-symmetric
    rhs = np.einsum("ym...,xm...->xy...", gainv, nlam) - const * gainv
    return primary, relative(lhs / _K - rhs, rhs)


# the margin of |s| below which a point is skipped
_DEGENERATE_MARGIN = 1e-3


def _pencil(geo: Geometry) -> dict:
    """The family members' shared pieces over all of geo's points, stacked for
    ``_member_curvature`` to weight: (values, partials) of Gamma(g), G_K,
    A.Gamma(g), A.G_K ('gamma'), of g, K ('h') and of g^-1, A g^-1 ('hinv'),
    and (values, gradients, Hessians) of mu1, mu2 ('mu')."""
    g, mu = geo.batch("g"), geo.batch("mu")
    k = mscale(g, Jet(mu.space, mu.coeffs[:, 0])) - mmul(g, geo.batch("a"))
    av, ap = geo.vp("a")

    def a_dot(v, p):  # A^k_m X^m... with its partials, from those of X
        vm, pm = v.reshape(DIM, -1, len(geo)), p.reshape(DIM, -1, DIM, len(geo))
        return (np.einsum("kmn,mrn->krn", av, vm).reshape(v.shape),
                (np.einsum("kmdn,mrn->krdn", ap, vm)
                 + np.einsum("kmn,mrdn->krdn", av, pm)).reshape(p.shape))

    def pieces(*xs):
        return [np.stack(x) for x in zip(*xs)]

    gamma, gk = geo.vp("gamma"), geo.split(christoffel_jets(k, geo.batch("ginv")))
    ginv = geo.vp("ginv")
    return {"gamma": pieces(gamma, gk, a_dot(*gamma), a_dot(*gk)),
            "h": pieces(geo.vp("g"), geo.split(k)), "hinv": pieces(ginv, a_dot(*ginv)),
            "mu": pieces(*(scalar_hessian(Jet(mu.space, mu.coeffs[:, i])) for i in (0, 1)))}


def _member_curvature(geo: Geometry, alpha: float, beta: float, used: np.ndarray):
    """(Ric, metric values) of the family member at the sample points ``used``.

    The member is m = h / s^2 with h = alpha g + beta K, K = mu1 g - g A, and
    h^-1 = (alpha Id + beta A) g^-1 / s since A^2 - mu1 A + mu2 Id = 0.  The
    Christoffel bracket c is linear in the metric, so with G_K = (1/2) g^-1 c(K)

        Gamma(h) = [alpha^2 Gamma(g) + alpha beta (G_K + A.Gamma(g)) + beta^2 A.G_K] / s,

    and m = exp(2 phi) h, phi = -log|s|, adds d^k_i phi_j + d^k_j phi_i
    - h_ij h^kl phi_l (Besse, *Einstein Manifolds*, 1.159).  The pieces are
    weighted over all points, then cut to the points used, where alone s is
    divided.
    """
    p = geo.cached("pencil", lambda: _pencil(geo))
    ab = alpha * beta

    def weighted(weights, group):
        # np.take gives C-ordered arrays; x[..., used] would not, and the
        # einsums below, riemann's among them, run about 3x slower on those
        return [np.take(np.tensordot(weights, x, 1), used, -1) for x in group]

    s, ds, hs = weighted([ab, beta * beta], p["mu"])
    s += alpha * alpha
    phi = -ds / s
    dphi = phi[:, None] * phi - hs / s  # dphi[l, m] = d_m phi_l
    nv, npart = weighted([alpha * alpha, ab, ab, beta * beta], p["gamma"])  # s Gamma(h)
    hv, hp = weighted([alpha, beta], p["h"])
    iv, ip = weighted([alpha, beta], p["hinv"])  # s h^-1
    u = np.einsum("kl...,l...->k...", iv, phi) / s  # h^kl phi_l, and its partials:
    du = np.einsum("klm...,l...->km...", ip, phi) + np.einsum("kl...,lm...->km...", iv, dphi)
    du = (du - u[:, None] * ds) / s
    eye = np.eye(DIM)
    shift = np.einsum("ki,j...->kij...", eye, phi)
    gamma = nv / s + shift + np.swapaxes(shift, 1, 2) - np.einsum("ij...,k...->kij...", hv, u)
    shift = np.einsum("ki,jm...->kijm...", eye, dphi)
    dgamma = (npart - nv[..., None, :] * (ds / s)) / s + shift + np.swapaxes(shift, 1, 2)
    dgamma -= np.einsum("ijm...,k...->kijm...", hp, u) + np.einsum("ij...,km...->kijm...", hv, du)
    return np.einsum("klkj...->lj...", riemann(gamma, dgamma)), hv / (s * s)


def einstein_family_constant(
    geo: Geometry,
    lam: float,
    lam_hat: float,
    alpha: float,
    beta: float,
) -> dict:
    """Einstein constant of the (alpha, beta) family member over geo's points.

    Evaluates the closed-form constant

        lt = 2(n+1) s * ( lam_hat*beta/(2(n+1)) * (det A)^(-1/2)
             + beta g(A^{-1}Lam, Lam) - beta^2 g(At^{-1}Lam, Lam)
             + lam*alpha/(2(n+1)) ),
        At = alpha Id + beta A,   s = signed sqrt det At,

    at every sample point at once (det A, A^{-1} and Lam read from geo,
    At^{-1} one stacked inverse), reports its spread, and verifies
    Ric = lt * gtilde for the family member, in float arithmetic on the
    pencil of connections that all members share (``_member_curvature``).
    Sample points where the combination degenerates are skipped and flagged.
    """
    m1, m2 = geo.values("mu")
    s = alpha * alpha + alpha * beta * m1 + beta * beta * m2
    skip = np.abs(s) < _DEGENERATE_MARGIN * np.maximum(1.0, alpha**2 + beta**2 * np.abs(m2))
    flags = ["degenerate-point-skipped"] if np.any(skip) else []
    used = np.flatnonzero(~skip)
    if not used.size:
        return {"constant": np.nan, "spread": np.inf, "ricci_residual": np.inf,
                "points": 0, "flags": flags + ["no-valid-points"]}
    # (k, 4, 4) matrices and (k, 4, 1) columns Lam = V1 / 2 at the used points
    am, gm, ainv = (np.moveaxis(geo.values(q)[..., used], -1, 0) for q in ("a", "g", "ainv"))
    lamv = 0.5 * geo.values("killing")[0][:, used].T[..., None]
    g_ainv, g_atinv = ((np.swapaxes(inv @ lamv, 1, 2) @ gm @ lamv)[:, 0, 0]
                       for inv in (ainv, minv(alpha * np.eye(DIM) + beta * am)))
    values = _K * s[used] * (
        lam_hat * beta / _K / np.sqrt(geo.values("det_a")[used])
        + beta * g_ainv
        - beta * beta * g_atinv
        + lam * alpha / _K
    )
    const = float(np.mean(values))
    spread = float(np.max(np.abs(values - const))) / max(1.0, abs(const))

    ric, gtv = _member_curvature(geo, alpha, beta, used)
    return {
        "constant": const,
        "spread": spread,
        "ricci_residual": worst(relative(ric - const * gtv, gtv)),
        "points": len(used),
        "flags": flags,
    }
