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
``pklab.geometry.Geometry`` and a sample-point index and read every
jet, connection and curvature tensor from its cache.
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
    split_jets,
)
from .geometry import (
    Geometry,
    _det_a,
    companion_components,
    family_components,
    family_inverse_components,
    mu_invariants,
    weighted_sigma_components,
)
from .jets import JetDomainError, jsqrt
from .linalg import minv, mmul
from .parakahler import fundamental_form, relative
from .report import worst

__all__ = [
    "N_COMPLEX",
    "benenti_residual",
    "hamiltonian_form_residual",
    "a_from_pair",
    "companion_metric",
    "family_metric",
    "psi_potential",
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


def benenti_residual(geo: Geometry, i: int) -> float:
    """Deviation of nabla A from the canonical right-hand side built from Lam.

    Maximum over coordinate directions X of the matrix mismatch, scaled
    by the magnitude of the quantities compared.
    """
    gm = geo.values(i, "g")
    tm = geo.values(i, "t")
    lam = geo.lam(i)
    tlam = tm @ lam
    nabla = covariant_derivative_endo(geo.gamma(i), *geo.vp(i, "a"))  # [k, i, j]
    # the right-hand side for X = e_k, at index k
    rhs = (np.einsum("i,jk->kij", lam, gm) + np.einsum("ik,j->kij", np.eye(DIM), gm @ lam)
           - np.einsum("i,jk->kij", tlam, gm @ tm) - np.einsum("ik,j->kij", tm, gm @ tlam))
    scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(nabla))))
    return float(np.max(np.abs(nabla - rhs))) / scale


def hamiltonian_form_residual(geo: Geometry, i: int) -> float:
    """Residual of the Hamiltonian-2-form shape of the defining equation.

    With phi = g(AT., .) and kappa = tr_omega phi the equation reads

        2 nabla_X phi = d kappa ^ (TX)^flat - (T d kappa) ^ X^flat .

    Normalization is pinned so this is equivalent to the Lam form:
    tr_omega phi = (1/2) tr A = mu1, and T acts on 1-forms through the
    metric duality, (T alpha)(Y) = -alpha(TY).
    """
    gm, gp = geo.vp(i, "g")
    tm, tp = geo.vp(i, "t")
    av, ap = geo.vp(i, "a")
    # phi_ij = (AT)^k_i g_kj, partials by the product rule
    at = av @ tm
    dat = np.einsum("ikm,kj->ijm", ap, tm) + np.einsum("ik,kjm->ijm", av, tp)
    phv = at.T @ gm
    php = np.einsum("kim,kj->ijm", dat, gm) + np.einsum("ki,kjm->ijm", at, gp)
    gamma = geo.gamma(i)
    nphi = np.transpose(php, (2, 0, 1)).copy()
    nphi -= np.einsum("mki,mj->kij", gamma, phv)
    nphi -= np.einsum("mkj,im->kij", gamma, phv)

    dk = geo.vp(i, "mu")[1][0]
    tdk = -(tm.T @ dk)  # (T dkappa)_i = -dkappa_p T^p_i

    # the right-hand side for X = e_k, at index k; g T e_k = (g T)[:, k]
    gt = gm @ tm
    rhs = (np.einsum("i,jk->kij", dk, gt) - np.einsum("ik,j->kij", gt, dk)
           - np.einsum("i,jk->kij", tdk, gm) + np.einsum("ik,j->kij", gm, tdk))
    scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(2 * nphi))))
    return float(np.max(np.abs(2.0 * nphi - rhs))) / scale


# -- pair <-> Benenti tensor -------------------------------------------


def a_from_pair(gm: np.ndarray, hm: np.ndarray) -> np.ndarray:
    """A = (det ghat / det g)^(1/6) ghat^{-1} g from the two metrics' values."""
    hinv = minv(hm)
    ratio = np.linalg.det(hm) / np.linalg.det(gm)
    if not ratio > 0.0:
        raise DegenerateMetricError(f"determinant ratio {ratio:.3e} is not positive")
    return ratio ** (1.0 / 6.0) * hinv @ gm


def companion_metric(g: TensorField, a: TensorField) -> TensorField:
    """ghat = (det A)^(-1/2) g A^(-1), positive square root.

    det A must be positive on the region of use; evaluation raises a
    domain error otherwise.  Carries an analytic vectorized evaluator
    (matrix calculus for the inverse and determinant derivatives) so it
    can sit inside the geodesic integrator loop.  Its value stage reads
    only the values of g and A, so ``batch_values`` (kinetic energy)
    evaluates no partials of ghat; the partials stage contracts the 4x4
    products over the batch axis with ``@``.
    """

    def comps(*coords):
        aj = a.components(coords)
        return companion_components(g.components(coords), minv(aj), _det_a(aj))

    def batch(points, partials):
        if partials:
            (gv, gd), (av, ad) = g.batch_duals(points), a.batch_duals(points)
        else:
            gv, av = g.batch_values(points), a.batch_values(points)
        det = np.linalg.det(av)
        if np.any(det <= 0.0):
            raise DegenerateMetricError("det A <= 0 in companion metric batch")
        ainv = minv(av)
        s = det ** (-0.5)
        ga = np.einsum("nim,nmj->nij", gv, ainv)
        vals = s[:, None, None] * ga
        if not partials:
            return vals, None
        # d s = -1/2 s tr(A^{-1} dA);  d(G A^{-1}) = dG A^{-1} - G A^{-1} dA A^{-1},
        # one matrix product per direction k, moved to axis 1 and back
        ds = -0.5 * s[:, None] * np.einsum("nij,njik->nk", ainv, ad)
        dga = np.moveaxis(gd, 3, 1) @ ainv[:, None]
        dga -= ga[:, None] @ np.moveaxis(ad, 3, 1) @ ainv[:, None]
        dga = np.moveaxis(dga, 1, 3)
        grads = s[:, None, None, None] * dga + np.einsum("nk,nij->nijk", ds, ga)
        return vals, grads

    return TensorField((0, 2), comps, name="companion", batch_fn=batch)


def family_metric(g: TensorField, a: TensorField, alpha: float, beta: float) -> TensorField:
    """Member of the projective family weighting g by alpha and ghat by beta.

    Equals the companion construction applied to alpha*Id + beta*A, with
    the smooth signed square root alpha^2 + alpha*beta*mu1 + beta^2*mu2
    in place of the positive root, which keeps the family polynomial in
    (alpha, beta).  (alpha, beta) = (1, 0) returns g itself; (0, 1)
    returns the companion up to the sign of that root.
    """

    def comps(*coords):
        gj = g.components(coords)
        aj = a.components(coords)
        return family_components(gj, aj, *mu_invariants(aj), alpha, beta)

    return TensorField((0, 2), comps, name=f"family[{alpha},{beta}]")


# -- potential and connection difference --------------------------------


def psi_potential(geo: Geometry, i: int) -> tuple[float, np.ndarray]:
    """(psi, Psi) with psi = -(1/4) log det A and Psi = d psi as a covector."""
    jet = geo.psi_jet(i)
    return jet.value, jet.gradient()


def connection_difference_residual(geo: Geometry, i: int) -> float:
    """Mismatch of Gammahat - Gamma against the projective-shift formula.

    The shift is Psi_i d^k_j + Psi_j d^k_i + Psi_p T^p_i T^k_j
    + Psi_p T^p_j T^k_i with Psi = d psi, psi from det A.
    """
    _, psi = psi_potential(geo, i)
    gm_hat = geo.gamma(i, "ghat")
    gm = geo.gamma(i)
    tm = geo.values(i, "t")
    psit = tm.T @ psi
    eye = np.eye(DIM)
    rhs = (
        np.einsum("i,kj->kij", psi, eye)
        + np.einsum("j,ki->kij", psi, eye)
        + np.einsum("i,kj->kij", psit, tm)
        + np.einsum("j,ki->kij", psit, tm)
    )
    diff = gm_hat - gm
    scale = max(1.0, float(np.max(np.abs(diff))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(diff - rhs))) / scale


# -- weighted (2,0) tensors and the mobility equation -------------------


def weighted_sigma_field(g: TensorField) -> TensorField:
    """sigma^{ij} = |det g|^(1/6) g^{ij}, the weighted tensor of the metric."""
    return TensorField(
        (2, 0), lambda *c: weighted_sigma_components(g.components(c)), name="sigma(g)"
    )


def weighted_endo_sigma_field(a: TensorField, sigma: TensorField) -> TensorField:
    """(A sigma)^{jk} = A^j_p sigma^{pk}; stays symmetric and para-Hermitian."""

    def comps(*coords):
        return mmul(a.components(coords), sigma.components(coords))

    return TensorField((2, 0), comps, name="A.sigma")


def scale_weighted_field(f: ScalarField, sigma: TensorField) -> TensorField:
    """f * sigma for a scalar field f (a non-solution probe for invariance)."""

    def comps(*coords):
        return sigma.components(coords) * f(*coords)

    return TensorField((2, 0), comps, name=f"{f.name}.sigma")


def weighted_covariant_derivative(
    geo: Geometry, i: int, s_jets: np.ndarray, metric: str = "g"
) -> np.ndarray:
    """nabla_i sigma^{jk} for a (2,0) tensor of volume weight 1/(n+1).

    ``s_jets`` are the tensor's component jets at sample point i; the
    connection is that of ``metric`` ('g' or 'ghat').

    nabla_i s^{jk} = d_i s^{jk} + G^j_{im} s^{mk} + G^k_{im} s^{mj}
                     - (1/(n+1)) G^p_{ip} s^{jk}
    """
    sv, sp = split_jets(s_jets)
    gamma = geo.gamma(i, metric)
    out = np.transpose(sp, (2, 0, 1)).copy()
    out += np.einsum("jim,mk->ijk", gamma, sv)
    out += np.einsum("kim,mj->ijk", gamma, sv)
    out -= np.einsum("pip,jk->ijk", gamma, sv) / (N_COMPLEX + 1.0)
    return out


def sigma_parallel_residual(geo: Geometry, i: int) -> float:
    """|nabla sigma(g)| for the Levi-Civita connection of g."""
    nabla = weighted_covariant_derivative(geo, i, geo.jets(i, "sigma"))
    return float(np.max(np.abs(nabla))) / max(
        1.0, float(np.max(np.abs(geo.values(i, "sigma"))))
    )


def sigma_para_hermitian_residual(geo: Geometry, i: int) -> float:
    """T^j_p sigma^{pk} + sigma^{jp} T^k_p should vanish for sigma(g)."""
    tm = geo.values(i, "t")
    sv = geo.values(i, "sigma")
    return relative(tm @ sv + sv @ tm.T, sv)


def _mobility_terms(geo, i, s_jets, metric):
    nabla = weighted_covariant_derivative(geo, i, s_jets, metric)
    d = np.einsum("llk->k", nabla)
    tm = geo.values(i, "t")
    eye = np.eye(DIM)
    corr = (
        np.einsum("ij,k->ijk", eye, d)
        + np.einsum("ik,j->ijk", eye, d)
        - np.einsum("ji,kp,p->ijk", tm, tm, d)
        - np.einsum("ki,jp,p->ijk", tm, tm, d)
    ) / (2.0 * N_COMPLEX)
    return nabla, corr


def mobility_residual(
    geo: Geometry, i: int, s_jets: np.ndarray, metric: str = "g"
) -> float:
    """Residual of the projectively invariant first-order system.

    nabla_i s^{jk} - (1/(2n)) (d^j_i D^k + d^k_i D^j
        - T^j_i T^k_p D^p - T^k_i T^j_p D^p),  D^k = nabla_l s^{lk}.

    The expression does not depend on which metric of the projective
    class supplies the connection; solutions make it vanish.
    """
    nabla, corr = _mobility_terms(geo, i, s_jets, metric)
    scale = max(1.0, float(np.max(np.abs(nabla))), float(np.max(np.abs(corr))))
    return float(np.max(np.abs(nabla - corr))) / scale


def mobility_expression(
    geo: Geometry, i: int, s_jets: np.ndarray, metric: str = "g"
) -> np.ndarray:
    """The full invariant expression (not just its norm), for invariance tests."""
    nabla, corr = _mobility_terms(geo, i, s_jets, metric)
    return nabla - corr


# -- eigenvalues, Killing fields, rank classification --------------------


@dataclass(frozen=True)
class SpectralData:
    kind: str  # "real", "complex", "degenerate"
    mu1: float
    mu2: float
    discriminant: float
    rho: complex
    sigma: complex


# relative size of the discriminant below which the spectrum counts as degenerate
_DEGENERATE_TOL = 1e-10


def eigen_decompose(geo: Geometry, i: int) -> SpectralData:
    """Spectral type and double eigenvalues of a T-commuting endomorphism.

    Roots of t^2 - mu1 t + mu2; rho is the larger real root, or the root
    with positive imaginary part in the complex case.
    """
    m1, m2 = (float(x) for x in geo.mu(i))
    disc = m1 * m1 - 4.0 * m2
    scale = max(1.0, m1 * m1, abs(m2))
    if abs(disc) < _DEGENERATE_TOL * scale:
        kind = "degenerate"
        rho = sigma = complex(m1 / 2.0, 0.0)
    elif disc > 0:
        kind = "real"
        root = np.sqrt(disc)
        rho = complex((m1 + root) / 2.0, 0.0)
        sigma = complex((m1 - root) / 2.0, 0.0)
    else:
        kind = "complex"
        root = np.sqrt(-disc)
        rho = complex(m1 / 2.0, root / 2.0)
        sigma = rho.conjugate()
    return SpectralData(kind, m1, m2, disc, rho, sigma)


def _eigenvalue_pair(m1, m2, kind: str):
    """(rho, sigma) for kind 'real', (Re rho, Im rho) for kind 'complex'."""
    if kind == "real":
        root = jsqrt(m1 * m1 - 4.0 * m2)
        return (m1 + root) * 0.5, (m1 - root) * 0.5
    if kind == "complex":
        return m1 * 0.5, jsqrt(4.0 * m2 - m1 * m1) * 0.5
    raise ValueError(f"no smooth eigenvalue fields for spectral kind {kind!r}")


def _eigenvalue_gradients(geo: Geometry, i: int, kind: str) -> list[np.ndarray]:
    """Metric gradients of the two eigenvalue functions of ``kind`` at point i."""
    ginv = geo.ginv(i)
    return [ginv @ f.gradient() for f in _eigenvalue_pair(*geo.jets(i, "mu"), kind)]


def eigen_gradient_residual(geo: Geometry, i: int) -> float:
    """How far grad(rho), grad(sigma) are from being eigenvectors of A.

    In the complex case the eigenvector relation is taken for the
    complexified gradient grad(Re rho) + i grad(Im rho).  At a double
    eigenvalue the eigenvalue functions have no jets: JetDomainError.
    """
    spec = eigen_decompose(geo, i)
    am = geo.values(i, "a")
    if spec.kind == "degenerate":
        raise JetDomainError("spectral type degenerate at the point: no smooth eigenvalues")
    v1, v2 = _eigenvalue_gradients(geo, i, spec.kind)
    scale = max(1.0, float(np.max(np.abs(am))) * max(np.max(np.abs(v1)), np.max(np.abs(v2))))
    if spec.kind == "real":
        r1 = am @ v1 - spec.rho.real * v1
        r2 = am @ v2 - spec.sigma.real * v2
    else:
        re, im = spec.rho.real, spec.rho.imag
        r1 = am @ v1 - (re * v1 - im * v2)
        r2 = am @ v2 - (re * v2 + im * v1)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2)))) / scale


def killing_residual(geo: Geometry, i: int) -> float:
    """max over TV1, TV2 of |L_{TV} g|, scaled by |g|."""
    gv, gp = geo.vp(i, "g")
    kv, kp = geo.vp(i, "killing")
    lie = max(float(np.max(np.abs(lie_derivative_metric(gv, gp, kv[k], kp[k])))) for k in (2, 3))
    return lie / max(1.0, float(np.max(np.abs(gv))))


def hamiltonian_pairing_residual(geo: Geometry, i: int) -> float:
    """max over i of |omega(TV_i, .) - d mu_i|, each scaled by |d mu_i|."""
    om = fundamental_form(geo, i)
    kv = geo.values(i, "killing")
    dmu = geo.vp(i, "mu")[1]
    return max(relative(kv[2 + k] @ om - dmu[k], dmu[k]) for k in (0, 1))


def para_holomorphy_residual(geo: Geometry, i: int) -> float:
    """max over X in {V1, V2, TV1, TV2} of |L_X T|."""
    tv, tp = geo.vp(i, "t")
    kv, kp = geo.vp(i, "killing")
    return max(float(np.max(np.abs(lie_derivative_endo(tv, tp, kv[k], kp[k])))) for k in range(4))


def commutation_residual(geo: Geometry, i: int) -> float:
    """max |[X, Y]| over pairs of {V1, V2, TV1, TV2}."""
    kv, kp = geo.vp(i, "killing")
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            br = lie_bracket(kv[a], kp[a], kv[b], kp[b])
            worst = max(worst, float(np.max(np.abs(br))))
    return worst


def leaf_geodesic_residual(geo: Geometry, i: int) -> float:
    """g(nabla_{V_i} V_j, T V_h): zero means the V-leaves are totally geodesic."""
    gm = geo.values(i, "g")
    kv, kp = geo.vp(i, "killing")
    gamma = geo.gamma(i)
    worst = 0.0
    for a in (0, 1):
        for b in (0, 1):
            nv = covariant_derivative_vector(gamma, kv[b], kp[b])  # [k, i]
            acc = kv[a] @ nv  # (nabla_{V_a} V_b)^i
            for h in (2, 3):
                worst = max(worst, abs(float(acc @ gm @ kv[h])))
    scale = max(1.0, float(np.max(np.abs(gm))))
    return worst / scale


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


def classify_gradient(
    gm: np.ndarray, tm: np.ndarray, v: np.ndarray, scale: float
) -> tuple[GradClass, list[str]]:
    """Classify one eigenvalue gradient: zero / null in T+ or T- / non-isotropic.

    Values within a factor 10 of the decision threshold are flagged
    indeterminate instead of being forced into a class.
    """
    flags: list[str] = []
    vnorm = float(np.max(np.abs(v)))
    if vnorm < _THRESHOLD * scale:
        if vnorm > 0.1 * _THRESHOLD * scale:
            flags.append("near-zero-gradient")
        return "zero", flags
    norm2 = abs(float(v @ gm @ v))
    iso_scale = float(np.max(np.abs(gm))) * vnorm * vnorm
    isotropic = norm2 < _THRESHOLD * iso_scale
    if _THRESHOLD * iso_scale * 0.1 < norm2 < _THRESHOLD * iso_scale * 10.0:
        flags.append("borderline-isotropy")
        return "indeterminate", flags
    if not isotropic:
        return "non-isotropic", flags
    plus = float(np.max(np.abs(tm @ v - v)))
    minus = float(np.max(np.abs(tm @ v + v)))
    if plus < _THRESHOLD * vnorm:
        return "null-plus", flags
    if minus < _THRESHOLD * vnorm:
        return "null-minus", flags
    flags.append("isotropic-but-not-eigendirection")
    return "indeterminate", flags


def distribution_d_rank(
    geo: Geometry, i: int
) -> tuple[int, tuple[GradClass, GradClass], list[str]]:
    """Rank of span{grad mu1, grad mu2, T grad mu1, T grad mu2} + configuration.

    The configuration is the canonically ordered pair of gradient
    classes of the two eigenvalue functions (order-free, since the
    eigenvalue labels are only defined up to exchange).
    """
    gm = geo.values(i, "g")
    tm = geo.values(i, "t")
    gens = geo.values(i, "killing")  # V1, V2, TV1, TV2 with V_k = grad mu_k
    v1, v2 = gens[:2]
    svals = np.linalg.svd(gens, compute_uv=False)
    smax = max(float(svals[0]), 1e-30)
    rank = int(np.sum(svals > _THRESHOLD * smax))
    flags = []
    close = np.sum(
        (svals > 0.1 * _THRESHOLD * smax) & (svals < 10.0 * _THRESHOLD * smax)
    )
    if close:
        flags.append("borderline-rank")

    spec = eigen_decompose(geo, i)
    if spec.kind == "complex":
        gr, gi = _eigenvalue_gradients(geo, i, "complex")
        # complex bilinear norm of grad rho = grad R + i grad I
        re_part = float(gr @ gm @ gr - gi @ gm @ gi)
        im_part = float(2.0 * gr @ gm @ gi)
        vnorm = max(float(np.max(np.abs(gr))), float(np.max(np.abs(gi))))
        iso_scale = float(np.max(np.abs(gm))) * vnorm * vnorm
        if abs(complex(re_part, im_part)) < _THRESHOLD * iso_scale:
            config = ("indeterminate", "conjugate")
            flags.append("complex-gradient-isotropic")
        else:
            config = ("non-isotropic-complex", "conjugate")
        return rank, config, flags

    if spec.kind == "degenerate":
        return rank, ("indeterminate", "indeterminate"), flags + ["degenerate-spectrum"]

    scale_v = max(
        float(np.max(np.abs(v1))), float(np.max(np.abs(v2))), 1.0
    )
    gr, gs = _eigenvalue_gradients(geo, i, "real")
    c1, fl1 = classify_gradient(gm, tm, gr, scale_v)
    c2, fl2 = classify_gradient(gm, tm, gs, scale_v)
    flags += fl1 + fl2
    pair = sorted([c1, c2], key=lambda c: _CLASS_ORDER[c])
    return rank, (pair[0], pair[1]), flags


# -- curvature comparison ------------------------------------------------


def ricci_difference_residual(geo: Geometry, i: int) -> tuple[float, float]:
    """(primary, cross-check) residuals of the Ricci comparison identity.

    Primary form:  Ric(ghat) - Ric(g)
        = -2(n+1) (nabla Psi - Psi x Psi - (Psi o T) x (Psi o T)).

    Cross-check (Lam form):  (Ric(ghat) - Ric(g)) / (2(n+1))
        = g(A^{-1} Y, nabla_X Lam) - g(A^{-1} Lam, Lam) g(Y, A^{-1} X).
    """
    gm = geo.values(i, "g")
    tm = geo.values(i, "t")
    ric_g = geo.ricci(i)
    lhs = geo.ricci(i, "ghat") - ric_g
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(ric_g))))

    _, psi, hess = scalar_hessian(geo.psi_jet(i))
    gamma = geo.gamma(i)
    npsi = hess - np.einsum("mkj,m->kj", gamma, psi)
    psit = tm.T @ psi
    m = npsi - np.outer(psi, psi) - np.outer(psit, psit)
    primary = float(np.max(np.abs(lhs + _K * m))) / scale

    kv, kp = geo.vp(i, "killing")
    lam, lam_p = 0.5 * kv[0], 0.5 * kp[0]  # Lam = V1 / 2
    nlam = covariant_derivative_vector(gamma, lam, lam_p)  # [x, i]
    ainv = geo.values(i, "ainv")
    const = float((ainv @ lam) @ gm @ lam)
    gainv = gm @ ainv  # symmetric since A is g-symmetric
    rhs = np.einsum("ym,xm->xy", gainv, nlam) - const * gainv
    return primary, relative(lhs / _K - rhs, rhs)


# the margin of |s| below which a point is skipped
_DEGENERATE_MARGIN = 1e-3
# jet order of the members' Ricci check: the degree <= 2 coefficients of a
# product depend only on those of its factors, and Gamma and its partials
# read nothing above degree 2 of the metric
_MEMBER_ORDER = 2


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
    Ric = lt * gtilde for the family member, built once over all the valid
    points.  Sample points where the combination degenerates are skipped
    and flagged.
    """
    m1, m2 = geo.values(slice(None), "mu")
    s = alpha * alpha + alpha * beta * m1 + beta * beta * m2
    skip = np.abs(s) < _DEGENERATE_MARGIN * np.maximum(1.0, alpha**2 + beta**2 * np.abs(m2))
    flags = ["degenerate-point-skipped"] if np.any(skip) else []
    used = np.flatnonzero(~skip)
    if not used.size:
        return {"constant": np.nan, "spread": np.inf, "ricci_residual": np.inf,
                "points": 0, "flags": flags + ["no-valid-points"]}
    # (k, 4, 4) matrices and (k, 4, 1) columns Lam = V1 / 2 at the used points
    am, gm, ainv = (np.moveaxis(geo.values(used, q), -1, 0) for q in ("a", "g", "ainv"))
    lamv = 0.5 * geo.values(used, "killing")[0].T[..., None]
    g_ainv, g_atinv = ((np.swapaxes(inv @ lamv, 1, 2) @ gm @ lamv)[:, 0, 0]
                       for inv in (ainv, minv(alpha * np.eye(DIM) + beta * am)))
    values = _K * s[used] * (
        lam_hat * beta / _K / np.sqrt(geo.values(used, "det_a"))
        + beta * g_ainv
        - beta * beta * g_atinv
        + lam * alpha / _K
    )
    const = float(np.mean(values))
    spread = float(np.max(np.abs(values - const))) / max(1.0, abs(const))

    # Ric = const * member at every used point at once, on batched jets of
    # the member and of its inverse s (alpha Id + beta A) g^-1
    g, a, ginv, mu = (geo.stacked(name, used, _MEMBER_ORDER) for name in ("g", "a", "ginv", "mu"))
    member = family_components(g, a, *mu, alpha, beta)
    inverse = family_inverse_components(ginv, a, *mu, alpha, beta)
    gtv = split_jets(member)[0]
    ric = np.einsum("klkj...->lj...", riemann(*split_jets(christoffel_jets(member, inverse))))
    ricci = worst([relative(ric[..., k] - const * gtv[..., k], gtv[..., k])
                   for k in range(len(used))])
    return {
        "constant": const,
        "spread": spread,
        "ricci_residual": ricci,
        "points": len(used),
        "flags": flags,
    }
