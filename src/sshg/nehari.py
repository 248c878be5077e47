"""The Nehari constraint G, fiber solves, multipliers and constrained gradients.

The manifold is the zero set of

    G(u, psi) = P^- (1+|D|)^{-1} (D psi - rho cosh(u) psi),

with free coordinates (u, psi^+ + psi^0); the negative part is always slaved
through the fiber solve.  On the negative subspace the fiber operator

    A phi = P^- (1+|D|)^{-1} (D - rho cosh(u)) phi

satisfies <A phi, chi>_{H^{1/2}} = <(D - rho cosh u) phi, chi>_{L^2} (the
(1+|D|) multipliers cancel), so -A is symmetric positive definite in the
H^{1/2} inner product and conjugate gradients apply directly.  E^- lives on
the a- row of the eigen-coordinates, so both CG solves here, the fiber
solve and the multiplier's normal equations (dG dG^*) w = dG[Riesz dJ],
iterate on that row, preconditioned with the symbol of -A at constant
cosh u = mean(cosh u) (`mean_field_symbol`).  G is 1/16 of J's psi-gradient
before P^- (1+|D|)^{-1}, so dG is the spinor row of J's second variation:
dG and dG^* are read off one linearization of the point (`action.linearize`,
`action.hess_vec`), not written a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .action import (
    ActionParams,
    Linearization,
    check_overflow,
    dirac_minus_potential,
    evaluate_J,
    gradient_J,
    hess_vec,
    linearize,
    scalar_terms,
)
from .errors import CertificationError, ConfigError, OverflowGuardError
from .fields import ScalarField, SpinorField, constant_value, minus_row_times, mode_view
from .krylov import cg
from .spectral import (
    check_spectral_gap,
    h1_norm,
    hhalf_norm,
    packed_sobolev_weight,
    project,
    sobolev_norms_sq,
    sobolev_weight,
    subspace_mask,
)

# dirac_minus_potential is re-exported: the perfbench tracer times it as
# the layer `nehari.operator_apply` through this module's binding
__all__ = [
    "FIBER_CERT", "FIBER_MAXITER", "FIBER_TOL", "MultiplierData", "NehariPoint",
    "constrained_gradient", "dirac_minus_potential", "fiber_coercivity",
    "fiber_energy_bounds", "fiber_solve", "mean_field_symbol", "multiplier_solve",
    "project_to_manifold",
]

FIBER_TOL = 1e-12
FIBER_MAXITER = 500
FIBER_CERT = 1e-10   # bound on ||G(u, psi)||_{H^1/2} / max(||psi_free||_{H^1/2}, 1)


@dataclass
class NehariPoint:
    """A certified pair (u, psi), G = 0 within tolerance, and its params; J is kept once read."""

    u: ScalarField
    psi: SpinorField
    constraint_norm: float
    params: ActionParams

    @cached_property
    def J(self) -> float:
        return evaluate_J(self.u, self.psi, self.params)

    def free_part(self) -> SpinorField:
        return self.psi - project(self.psi, "minus")

    def product_norm_sq(self) -> float:
        return h1_norm(self.u) ** 2 + hhalf_norm(self.psi) ** 2


@dataclass
class MultiplierData:
    """One multiplier solve at a point: the packed Riesz gradient of J
    there, the a- row of the solution w of the normal equations, the
    H^{1/2} norm of the negative-subspace Lagrange multiplier w / 16 of the
    16-normalized system, the packed tangent Riesz dJ - dG^* w, its
    product-metric norm, the PS residual norms alpha and beta, and the
    solve's relative residual.

    The tangent t = R(dJ - dG^* w) is the Riesz image of the residuals of
    the multiplier system, alpha = (dJ - dG^* w)_u and
    beta = (dJ - dG^* w)_psi / 16, so (||f||_{H^-s} = ||R f||_{H^s})
    alpha_norm = ||t_u||_{H^1} and beta_norm = ||t_psi||_{H^1/2} / 16.
    """

    gradient: np.ndarray
    w: np.ndarray
    multiplier_norm: float
    tangent: np.ndarray
    norm: float
    alpha_norm: float
    beta_norm: float
    solve_residual: float


@lru_cache(maxsize=16)
def _minus_modes(geom) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |xi| of the minus modes (the valid modes with |xi| > 0), and
    the grid of H^{1/2} Riesz weights 1/(1 + |xi|) on them, 0 elsewhere."""
    mask = geom.spinor_mask & (geom.s_abs > 0)
    lam = geom.spinor_levels[geom.spinor_levels > 0]
    weight = np.where(mask, 1.0 / (1.0 + geom.s_abs), 0.0)
    lam.flags.writeable = weight.flags.writeable = False
    return lam, weight


def _pairing_table(s: np.ndarray, riesz: np.ndarray) -> np.ndarray:
    """Per-mode weights 1, |xi| and the Riesz weights times |xi|^2, |xi|
    and 1, one row each, per real coordinate of one row of eigen-coordinates
    (the real and imaginary part of each mode), from the grids (or mode
    views) s = |xi| and riesz."""
    return np.repeat(np.stack((np.ones_like(s), s, riesz * s * s, riesz * s, riesz)),
                     2, axis=-1).reshape(5, -1)


@lru_cache(maxsize=16)
def _pairing_weights(geom) -> np.ndarray:
    """The read-only `_pairing_table` of the geometry's grids."""
    weights = _pairing_table(geom.s_abs, _minus_modes(geom)[1])
    weights.flags.writeable = False
    return weights


def mean_field_symbol(lam, rho: float, cosh_u):
    """a0 = (|xi| + rho c) / (1 + |xi|), the symbol of -A on a minus mode
    |xi| = lam at constant cosh u = c: its eigenvalue in H^{1/2} there."""
    return (lam + rho * cosh_u) / (1.0 + lam)


def _mean_field_precond(geom, rho: float, uv: np.ndarray, power: int):
    """The CG preconditioner z = r / a0^power per mode on a- rows, a0 the
    `mean_field_symbol` at c = mean(cosh u).

    a0 is positive and commutes with the H^{1/2} weight, so the map is SPD
    in the H^{1/2} pairing.  It is formed on the first call: a solve that
    exits before iterating never forms it.
    """
    inverse = []

    def apply(r):
        if not inverse:
            inverse.append(1.0 / mean_field_symbol(geom.s_abs, rho, np.mean(np.cosh(uv))) ** power)
        return r * inverse[0]
    return apply


def fiber_coercivity(geom, rho: float, cosh_min):
    """c = min over the minus modes of `mean_field_symbol` at cosh u =
    cosh_min, one per entry of cosh_min.

    Where cosh u >= cosh_min, -A >= c in H^{1/2} on E^-:
    <-A phi, phi>_{H^{1/2}} = <|D| phi, phi> + rho int cosh(u) |phi|^2
    >= sum (|xi| + rho cosh_min) |a-|^2 >= c ||phi||^2_{H^{1/2}}, exactly on
    the discrete space (the grid quadrature of cosh(u)|phi|^2 has positive
    weights).
    """
    lam = _minus_modes(geom)[0]
    return np.min(mean_field_symbol(lam, rho, np.asarray(cosh_min)[..., None]), axis=-1)


def fiber_energy_bounds(a, b, weights, params: ActionParams) -> np.ndarray:
    """Upper bounds of J over the fibers {psi_free + phi : phi in E^-}
    through the blends (u, psi) = (1 - w) (a.u, a.psi) + w (b.u, b.psi), one
    per w in weights: at least J of any point the fiber solve can return
    from there, without solving.  A single point p is (p, p, (0.0,)).

    With h = (D - rho cosh u) psi and g = P^- (1+|D|)^{-1} h = G(u, psi),
    J(u, psi + delta) = J0 + 16 <g, delta> + 8 <A delta, delta> for delta in
    E^- (H^{1/2} pairings), exactly on the discrete space, where
    J0 = E(u) + 8 <h, psi>_{L^2} is J at (u, psi).  Since -A >= c
    (`fiber_coercivity`), the fiber maximum is at most J0 + 8 ||g||^2 / c,
    reached within ||g|| / c of psi.  Each bound adds a rounding pad of
    1e-12 times a bound on the summed magnitudes of J's terms at any point
    within that distance, far above the relative rounding (~1e-15) of J's
    grid sums and FFTs; it bounds ||psi|| by (1 - w) ||a.psi|| + w ||b.psi||,
    which also covers the rounding of the blend expansion below.

    A per-mode form Q (||psi||^2, <D psi, psi>) of the blend is
    (1 - w)^2 Q(a, a) + 2 w (1 - w) Q(a, b) + w^2 Q(b, b), from the
    pairings of the endpoints' eigen-coordinates, which also give their
    H^{1/2} norms.  At constant u so is
    ||g||^2 = sum (1 + |xi|)^{-1} (|xi| + rho cosh u)^2 |a-|^2 over the
    minus modes, <h, psi> = <D psi, psi> - rho cosh(u) ||psi||^2 (discrete
    Parseval) and E(u) = 4 rho^2 Vol sinh(u)^2: no FFT and no stacked
    array.  Otherwise the potential and E(u) are grid sums of the stacked
    blends and g needs only the a- row of cosh(u) psi, one fft2 of the
    stack.  Endpoints compact on one mode are paired on their mode views
    (`fields.mode_view`) by a sum of products, which may round otherwise
    than the grid's matrix product, well inside the pad.
    """
    geom = a.u.geom
    rho = params.rho
    w = np.asarray(weights, dtype=float)
    ws = w[:, None, None]
    # the products aa, ab and bb of the endpoints' real coordinates, per
    # row (a+, a-), summed against each weight of `_pairing_table`
    eigs, grids, mode = mode_view((a.psi, b.psi), (geom.s_abs, _minus_modes(geom)[1]))
    ra, rb = (np.ascontiguousarray(e).view(float).reshape(2, -1) for e in eigs)
    pairs = np.empty((3,) + ra.shape)
    np.multiply(ra, ra, out=pairs[0])
    np.multiply(ra, rb, out=pairs[1])
    np.multiply(rb, rb, out=pairs[2])
    pairs = pairs.reshape(6, -1)
    if mode is None:
        sums = _pairing_weights(geom) @ pairs.T
    else:
        sums = np.einsum("ik,jk->ij", _pairing_table(*grids), pairs)
    sums = geom.vol * sums.reshape(5, 3, 2)
    one, lam = sums[0], sums[1]
    ends = np.sqrt((one + lam).sum(-1)[::2])   # ||a.psi||, ||b.psi|| in H^{1/2}
    # per pair: ||psi||^2, <D psi, psi>, and the a- row's Riesz-weighted
    # sums that make ||g||^2 at constant u
    forms = np.stack((one.sum(-1), lam[:, 0] - lam[:, 1], *sums[2:, :, 1]))
    norm_sq, dirac, g_lam2, g_lam, g_one = forms @ np.stack(
        ((1.0 - w) ** 2, 2.0 * w * (1.0 - w), w ** 2))
    ua, ub = a.u.common_value, b.u.common_value
    if ua is None or ub is None:
        uv = check_overflow((1.0 - ws) * a.u.values + ws * b.u.values)
        grad_term, sinh_term = scalar_terms(geom, (1.0 - ws) * a.u.coeffs + ws * b.u.coeffs,
                                            uv, rho)
        e_u = grad_term + sinh_term
        cosh_u = np.cosh(uv)
        cosh_min, cosh_max = cosh_u.min(axis=(1, 2)), cosh_u.max(axis=(1, 2))
        vals = (1.0 - ws[:, None]) * a.psi.values + ws[:, None] * b.psi.values
        psi_dens = (vals.real ** 2 + vals.imag ** 2).sum(axis=1)
        potential = geom.quad_weight * np.sum(cosh_u * psi_dens, axis=(1, 2))
        # the a- row of -h: |xi| a- + rho (cosh(u) psi)-
        h_minus = (geom.s_abs * ((1.0 - ws) * a.psi.eig[1] + ws * b.psi.eig[1])
                   + rho * minus_row_times(geom, cosh_u, values=vals))
        # ||g||^2_{H^1/2}: the minus modes' |h|^2 / (1 + |xi|)
        h_sq = h_minus.real ** 2 + h_minus.imag ** 2
        g_sq = geom.vol * np.sum(_minus_modes(geom)[1] * h_sq, axis=(1, 2))
    else:
        # constant blends: no gradient, and the grid sum of sinh(u)^2 is
        # Vol sinh(u)^2
        uc = check_overflow((1.0 - w) * ua + w * ub)
        e_u = 4.0 * rho * rho * geom.vol * np.sinh(uc) ** 2
        cosh_min = cosh_max = np.cosh(uc)
        potential = cosh_min * norm_sq
        k = rho * cosh_min
        g_sq = np.maximum(g_lam2 + 2.0 * k * g_lam + k * k * g_one, 0.0)
    c = fiber_coercivity(geom, rho, cosh_min)
    j0 = e_u + 8.0 * (dirac - rho * potential)
    reach = (1.0 - w) * ends[0] + w * ends[1] + np.sqrt(g_sq) / c
    pad = 1e-12 * (e_u + 8.0 * (1.0 + rho * cosh_max) * reach ** 2)
    return j0 + 8.0 * g_sq / c + pad


def _row_inner(geom, a: np.ndarray, b: np.ndarray) -> float:
    """The H^{1/2} pairing of two E^- vectors given by their a- rows."""
    s = np.sum(sobolev_weight(geom, SpinorField) * np.conj(a) * b)
    return float(geom.vol * s.real)


def _row_norm(geom, a: np.ndarray) -> float:
    return np.sqrt(max(_row_inner(geom, a, a), 0.0))


def _fiber_map(geom, cosh_u: np.ndarray, rho: float):
    """The a- row of P^- (1+|D|)^{-1} (D - rho cosh u) psi as a linear map:
    G(u, psi) for a spinor psi, and the fiber operator A on an E^- vector
    given by its a- row.  Its arithmetic is the dense map's on spinors
    (D - rho cosh u, then the Riesz map, then P^-), in the same order, on
    the a- row alone, so the row is bitwise that map's."""
    f = rho * cosh_u
    c = constant_value(f)
    mask = subspace_mask(geom, "minus", None)[1]
    riesz = sobolev_weight(geom, SpinorField)

    def apply(psi) -> np.ndarray:
        row = psi.eig[1] if isinstance(psi, SpinorField) else psi
        if c is not None:
            prod = row * c
        elif isinstance(psi, SpinorField):
            prod = minus_row_times(geom, f, values=psi.values)
        else:
            prod = minus_row_times(geom, f, row=row)
        return ((row * geom.s_abs) * -1.0 - prod) / riesz * mask
    return apply


def fiber_solve(u: ScalarField, psi_free: SpinorField, params: ActionParams,
                x0: SpinorField | None = None) -> NehariPoint:
    """Slave the negative part: solve A psi^- = -(same operator) psi_free.

    psi_free must have no negative component; returns the certified point
    (u, psi_free + psi^-); a residual beyond FIBER_CERT raises CertificationError.
    The solve runs on the a- row: the CG iterate, its start x0 (an E^-
    spinor), the right-hand side and the certificate are E^- vectors given
    by their a- rows.  CG is preconditioned with 1/a0 (`mean_field_symbol`),
    the exact inverse of -A at constant u.

    At constant u, D - rho cosh u commutes with P^-, so a psi_free whose
    masked a- row is exactly zero is its own fiber point, G = 0 exactly:
    it is returned as CG would return it (-0.0 entries of its a- row read
    +0.0), with constraint_norm 0.0, and no operator is applied.  The
    point's spinor is compact when psi_free is, or when its
    eigen-coordinates are one-mode in their bytes (`SpinorField.one_mode`).
    """
    geom = u.geom
    uv = check_overflow(u)
    check_spectral_gap(geom, params.rho)
    free_scale = hhalf_norm(psi_free)
    if not np.isfinite(free_scale):
        raise OverflowGuardError(f"psi_free is not finite (H^1/2 norm {free_scale:.6g})")
    minus_mask = subspace_mask(geom, "minus", None)[1]
    (eig,), (mask,), mode = mode_view((psi_free,), (minus_mask,))
    zero_row = not (eig[1] * mask).any()
    if zero_row and u.common_value is not None:
        eig = eig.copy()
        eig[1] += 0.0
        psi = SpinorField.viewed(geom, mode, eig) if mode else SpinorField.one_mode(geom, eig)
        return NehariPoint(u=u, psi=psi, constraint_norm=0.0, params=params)
    if not zero_row and (_row_norm(geom, psi_free.eig[1] * minus_mask)
                         > 1e-10 * max(free_scale, 1.0)):
        raise ConfigError("fiber_solve expects psi_free with zero negative part")

    g_map = _fiber_map(geom, np.cosh(uv), params.rho)
    b = g_map(psi_free)
    atol = 1e-14 * max(free_scale, 1.0)
    minus, info = cg(lambda phi: -1.0 * g_map(phi), b, partial(_row_inner, geom),
                     x0=None if x0 is None else x0.eig[1], tol=FIBER_TOL,
                     maxiter=FIBER_MAXITER, atol=atol,
                     precond=_mean_field_precond(geom, params.rho, uv, 1))

    eig = psi_free.eig.copy()
    eig[1] += minus
    psi = SpinorField(geom, eig=eig)
    # psi is psi_free when CG moved nothing, and its G is then b
    cert = _row_norm(geom, g_map(psi) if minus.any() else b)
    if not cert <= FIBER_CERT * max(free_scale, 1.0):
        raise CertificationError(f"fiber residual {cert:.3e} exceeds FIBER_CERT max(|psi_free|, 1)")
    return NehariPoint(u=u, psi=psi, constraint_norm=cert, params=params)


def project_to_manifold(u: ScalarField, psi: SpinorField, params: ActionParams) -> NehariPoint:
    """Retraction: keep u and the non-negative part of psi, re-solve psi^-."""
    minus = project(psi, "minus")
    free = psi - minus
    return fiber_solve(u, free, params, x0=minus)


# ---------------------------------------------------------------------------
# multipliers and constrained gradients
# ---------------------------------------------------------------------------

def _constraint_derivative(lin: Linearization):
    """dG and dG^* at lin's point, both read off J's second variation
    (`hess_vec`), whose spinor row is 16 dG before P^- R: dG[x] is the a-
    row of P^- R (H x)_psi / 16 for a packed direction x, and, since
    <dG[x], w>_{H^{1/2}} = <(H x)_psi, w>_{L^2} / 16 for w in E^-, dG^* w is
    R H (0, 0, w) / 16, R the per-mode division by `packed_sobolev_weight`.
    The E^- vector w is given by its a- row, as dG returns it.  dG^* is
    written packed into one work array, valid until its next call.
    """
    geom = lin.psi.geom
    scale = 16.0 * packed_sobolev_weight(geom)
    mask = subspace_mask(geom, "minus", None)[1]
    hx, x_w, dual = np.zeros((3,) + scale.shape, dtype=complex)

    def apply(x: np.ndarray) -> np.ndarray:
        return hess_vec(lin, x, hx)[2] / scale[2] * mask

    def adjoint(w: np.ndarray) -> np.ndarray:
        x_w[2] = w
        out = hess_vec(lin, x_w, dual)
        out /= scale
        return out
    return apply, adjoint


def multiplier_solve(point: NehariPoint, params: ActionParams) -> MultiplierData:
    """Least-squares multiplier solve of the constrained criticality system.

    Solves the normal equations (dG dG^*) w = dG[Riesz dJ] on the negative
    subspace (SPD Gram operator) on the a- row, as `fiber_solve` does, by
    CG preconditioned with 1/a0^2 (`mean_field_symbol`): at constant u the
    Gram operator is a0^2 plus the u-coupling's positive part.  dG and dG^*
    come from one linearization of the point (`_constraint_derivative`),
    which lives only as long as the solve and also forms the tangent
    Riesz dJ - dG^* w; when CG returns w = 0 the tangent is the gradient.
    The tangent's norm, alpha and beta come from one `sobolev_norms_sq`.
    """
    geom = point.u.geom
    g = gradient_J(point.u, point.psi, params)
    dg, dg_adjoint = _constraint_derivative(linearize(point.u, point.psi, params))
    h1_sq, hhalf_sq = sobolev_norms_sq(geom, g)
    scale = np.sqrt(h1_sq) + np.sqrt(hhalf_sq)
    atol = 1e-14 * max(scale, 1.0)
    w, info = cg(lambda r: dg(dg_adjoint(r)), dg(g), partial(_row_inner, geom), tol=1e-12,
                 maxiter=FIBER_MAXITER, atol=atol,
                 precond=_mean_field_precond(geom, params.rho, point.u.values, 2))
    t = g - dg_adjoint(w) if w.any() else g
    h1_sq, hhalf_sq = sobolev_norms_sq(geom, t)
    return MultiplierData(gradient=g, w=w, multiplier_norm=_row_norm(geom, w) / 16.0,
                          tangent=t, norm=float(np.sqrt(h1_sq + hhalf_sq)),
                          alpha_norm=np.sqrt(h1_sq), beta_norm=np.sqrt(hhalf_sq) / 16.0,
                          solve_residual=info.relative_residual)


def constrained_gradient(point: NehariPoint, params: ActionParams) -> MultiplierData:
    """Riesz representative of dJ restricted to ker dG, plus PS residual
    data: the multiplier solve at point, under the name the descent calls
    once per iteration."""
    return multiplier_solve(point, params)
