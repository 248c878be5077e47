"""The Nehari constraint G, fiber solves, multipliers and constrained gradients.

The manifold is the zero set of

    G(u, psi) = P^- (1+|D|)^{-1} (D psi - rho cosh(u) psi),

with free coordinates (u, psi^+ + psi^0); the negative part is always slaved
through the fiber solve.  On the negative subspace the fiber operator

    A phi = P^- (1+|D|)^{-1} (D - rho cosh(u)) phi

satisfies <A phi, chi>_{H^{1/2}} = <(D - rho cosh u) phi, chi>_{L^2} (the
(1+|D|) multipliers cancel), so -A is symmetric positive definite in the
H^{1/2} inner product and conjugate gradients apply directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .action import (
    ActionParams,
    Variation,
    check_overflow,
    dirac_minus_potential,
    gradient_J,
    scalar_terms,
)
from .errors import CertificationError, ConfigError, OverflowGuardError
from .fields import ScalarField, SpinorField, constant_value, spinor_eig
from .krylov import cg
from .spectral import (
    check_spectral_gap,
    h1_norm,
    hhalf_norm,
    product_norm,
    project,
    riesz_h1,
    riesz_hhalf,
    sobolev_inner,
)

FIBER_TOL = 1e-12
FIBER_MAXITER = 500
FIBER_CERT = 1e-10   # bound on ||G(u, psi)||_{H^1/2} / max(||psi_free||_{H^1/2}, 1)


def _hhalf_inner(a: SpinorField, b: SpinorField) -> float:
    return sobolev_inner(a, b, "Hhalf_spinor")


def _constraint_map(psi: SpinorField, cosh_u: np.ndarray, rho: float) -> SpinorField:
    """P^- (1+|D|)^{-1} (D - rho cosh u) psi: G(u, psi), and the fiber
    operator A on the negative subspace, as a linear map of psi."""
    return project(riesz_hhalf(dirac_minus_potential(psi, cosh_u, rho)), "minus")


def constraint_G(u: ScalarField, psi: SpinorField, params: ActionParams) -> SpinorField:
    """G(u, psi), supported in the negative spectral subspace."""
    return _constraint_map(psi, np.cosh(check_overflow(u)), params.rho)


@dataclass
class NehariPoint:
    """A pair (u, psi) certified to satisfy G = 0 within tolerance."""

    u: ScalarField
    psi: SpinorField
    constraint_norm: float

    def free_part(self) -> SpinorField:
        return self.psi - project(self.psi, "minus")

    def product_norm_sq(self) -> float:
        return h1_norm(self.u) ** 2 + hhalf_norm(self.psi) ** 2


@dataclass
class MultiplierData:
    """Negative-subspace Lagrange multiplier and the normal-equation residual."""

    varphi: SpinorField
    solve_residual: float

    def norm(self) -> float:
        return hhalf_norm(self.varphi)


@lru_cache(maxsize=16)
def _minus_modes(geom) -> tuple[np.ndarray, np.ndarray]:
    """|xi| of the minus modes (the valid modes with |xi| > 0), and the grid
    of H^{1/2} Riesz weights 1/(1 + |xi|) on them, 0 elsewhere."""
    mask = geom.spinor_mask & (geom.s_abs > 0)
    lam = geom.s_abs[mask]
    weight = np.where(mask, 1.0 / (1.0 + geom.s_abs), 0.0)
    lam.flags.writeable = weight.flags.writeable = False
    return lam, weight


def fiber_coercivity(geom, rho: float, cosh_min):
    """c = min over the minus modes of (|xi| + rho cosh_min)/(1 + |xi|), one
    per entry of cosh_min.

    Where cosh u >= cosh_min, -A >= c in H^{1/2} on E^-:
    <-A phi, phi>_{H^{1/2}} = <|D| phi, phi> + rho int cosh(u) |phi|^2
    >= sum (|xi| + rho cosh_min) |a-|^2 >= c ||phi||^2_{H^{1/2}}, exactly on
    the discrete space (the grid quadrature of cosh(u)|phi|^2 has positive
    weights).
    """
    lam = _minus_modes(geom)[0]
    return np.min((lam + rho * np.asarray(cosh_min)[..., None]) / (1.0 + lam), axis=-1)


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
    grid sums and FFTs.

    The blends are stacked on a leading axis and formed from the endpoints'
    views: <h, psi> = <D psi, psi> - rho int cosh(u) |psi|^2 (discrete
    Parseval) needs no FFT, and g only the a- row of cosh(u) psi, one fft2
    of the stack, none when both endpoints' u are constant.
    """
    geom = a.u.geom
    rho = params.rho
    w = np.asarray(weights, dtype=float)[:, None, None]
    uv = check_overflow((1.0 - w) * a.u.values + w * b.u.values)
    grad_term, sinh_term = scalar_terms(geom, (1.0 - w) * a.u.coeffs + w * b.u.coeffs, uv, rho)
    e_u = grad_term + sinh_term
    cosh_u = np.cosh(uv)
    cosh_min, cosh_max = cosh_u.min(axis=(1, 2)), cosh_u.max(axis=(1, 2))
    w = w[:, None]
    eig = (1.0 - w) * a.psi.eig + w * b.psi.eig
    dens = eig.real ** 2 + eig.imag ** 2
    lam = geom.s_abs
    if constant_value(a.u.values) is None or constant_value(b.u.values) is None:
        vals = (1.0 - w) * a.psi.values + w * b.psi.values
        psi_dens = (vals.real ** 2 + vals.imag ** 2).sum(axis=1)
        potential = geom.quad_weight * np.sum(cosh_u * psi_dens, axis=(1, 2))
        # the a- row of -h: |xi| a- + rho (cosh(u) psi)-
        h_minus = lam * eig[:, 1] + rho * spinor_eig(geom, cosh_u[:, None] * vals)[:, 1]
        h_minus_sq = h_minus.real ** 2 + h_minus.imag ** 2
    else:
        potential = cosh_min * geom.vol * np.sum(dens, axis=(1, 2, 3))
        h_minus_sq = (lam + rho * cosh_min[:, None, None]) ** 2 * dens[:, 1]
    # ||g||^2_{H^1/2}: the minus modes' |h|^2 / (1 + |xi|)
    g_sq = geom.vol * np.sum(_minus_modes(geom)[1] * h_minus_sq, axis=(1, 2))
    c = fiber_coercivity(geom, rho, cosh_min)
    j0 = e_u + 8.0 * (geom.vol * np.sum(lam * (dens[:, 0] - dens[:, 1]), axis=(1, 2)) - rho * potential)
    reach = np.sqrt(geom.vol * np.sum((1.0 + lam) * dens, axis=(1, 2, 3))) + np.sqrt(g_sq) / c
    pad = 1e-12 * (e_u + 8.0 * (1.0 + rho * cosh_max) * reach ** 2)
    return j0 + 8.0 * g_sq / c + pad


def _fiber_operator(cosh_u: np.ndarray, rho: float):
    def apply_neg(phi: SpinorField) -> SpinorField:
        # -A restricted to the negative subspace (SPD in H^{1/2})
        return -1.0 * _constraint_map(phi, cosh_u, rho)
    return apply_neg


def fiber_solve(u: ScalarField, psi_free: SpinorField, params: ActionParams,
                x0: SpinorField | None = None) -> NehariPoint:
    """Slave the negative part: solve A psi^- = -(same operator) psi_free.

    psi_free must have no negative component; returns the certified point
    (u, psi_free + psi^-); a residual beyond FIBER_CERT raises CertificationError.
    """
    uv = check_overflow(u)
    check_spectral_gap(u.geom, params.rho)
    neg_part = project(psi_free, "minus")
    free_scale = hhalf_norm(psi_free)
    if not np.isfinite(free_scale):
        raise OverflowGuardError(f"psi_free is not finite (H^1/2 norm {free_scale:.6g})")
    if hhalf_norm(neg_part) > 1e-10 * max(free_scale, 1.0):
        raise ConfigError("fiber_solve expects psi_free with zero negative part")

    cosh_u = np.cosh(uv)
    rho = params.rho
    apply_m = _fiber_operator(cosh_u, rho)
    b = _constraint_map(psi_free, cosh_u, rho)
    atol = 1e-14 * max(free_scale, 1.0)
    psi_minus, info = cg(apply_m, b, _hhalf_inner, x0=x0, tol=FIBER_TOL,
                         maxiter=FIBER_MAXITER, atol=atol)

    psi = psi_free + psi_minus
    if psi_minus.eig.any():
        cert = hhalf_norm(_constraint_map(psi, cosh_u, rho))
    else:
        # psi is psi_free (at constant u CG never iterates), whose G is b
        cert = hhalf_norm(b)
    if not cert <= FIBER_CERT * max(free_scale, 1.0):
        raise CertificationError(f"fiber residual {cert:.3e} exceeds FIBER_CERT max(|psi_free|, 1)")
    return NehariPoint(u=u, psi=psi, constraint_norm=cert)


def project_to_manifold(u: ScalarField, psi: SpinorField, params: ActionParams) -> NehariPoint:
    """Retraction: keep u and the non-negative part of psi, re-solve psi^-."""
    minus = project(psi, "minus")
    free = psi - minus
    return fiber_solve(u, free, params, x0=minus)


# ---------------------------------------------------------------------------
# multipliers and constrained gradients
# ---------------------------------------------------------------------------

def _dg_adjoint(point: NehariPoint, params: ActionParams, w: SpinorField):
    """dG(u,psi)^* w in the product metric H^1 x H^{1/2}.

    <dG[v,phi], w>_{H^{1/2}} = <phi, (D - rho cosh u) w>_{L^2}
                               - rho int sinh(u) v Re<psi, w>,
    so the adjoint pair is (Riesz_{H^1}(-rho sinh(u) Re<psi,w>),
    Riesz_{H^{1/2}}((D - rho cosh u) w)).
    """
    uv = point.u.values
    rho = params.rho
    cross = point.psi.cross_density(w)
    du_dual = ScalarField.from_values(point.u.geom, -rho * np.sinh(uv) * cross)
    dpsi_dual = dirac_minus_potential(w, np.cosh(uv), rho)
    return riesz_h1(du_dual), riesz_hhalf(dpsi_dual)


def _dg_apply(point: NehariPoint, params: ActionParams, v: ScalarField, phi: SpinorField) -> SpinorField:
    """dG(u,psi)[v, phi], negative-subspace valued."""
    uv = point.u.values
    rho = params.rho
    lin = dirac_minus_potential(phi, np.cosh(uv), rho)
    lin = lin - point.psi.times(rho * np.sinh(uv) * v.values)
    return project(riesz_hhalf(lin), "minus")


def _normal_equation_solve(point: NehariPoint, params: ActionParams):
    """Least-squares multiplier solve of the constrained criticality system.

    Solves the normal equations (dG dG^*) w = dG[Riesz dJ] on the negative
    subspace (SPD Gram operator); the multiplier of the 16-normalized system
    is varphi = w / 16.  Returns (the Riesz pair of dJ, w, SolveInfo).
    """
    g = gradient_J(point.u, point.psi, params).riesz()
    rhs = _dg_apply(point, params, g.du, g.dpsi)
    scale = h1_norm(g.du) + hhalf_norm(g.dpsi)

    def gram(w: SpinorField) -> SpinorField:
        du, dpsi = _dg_adjoint(point, params, w)
        return _dg_apply(point, params, du, dpsi)

    atol = 1e-14 * max(scale, 1.0)
    w, info = cg(gram, rhs, _hhalf_inner, tol=1e-12, maxiter=FIBER_MAXITER, atol=atol)
    return g, w, info


def lagrange_multiplier(point: NehariPoint, params: ActionParams) -> MultiplierData:
    """Least-squares multiplier varphi of the constrained criticality system."""
    _, w, info = _normal_equation_solve(point, params)
    return MultiplierData(varphi=(1.0 / 16.0) * w, solve_residual=info.relative_residual)


@dataclass
class TangentResult:
    """Constrained gradient data at a certified point."""

    tangent: Variation            # Riesz representatives, tangent to N_rho
    norm: float                   # product-metric norm of the tangent
    alpha_norm: float             # H^{-1} norm of the u-equation residual
    beta_norm: float              # H^{-1/2} norm of the psi-equation residual
    multiplier: MultiplierData


def constrained_gradient(point: NehariPoint, params: ActionParams) -> TangentResult:
    """Riesz representative of dJ restricted to ker dG, plus PS residual data.

    The tangent t = R(dJ - dG^* w) is the Riesz image of the residuals of
    the multiplier system, alpha = (dJ - dG^* w)_u and
    beta = (dJ - dG^* w)_psi / 16, so (||f||_{H^-s} = ||R f||_{H^s})
    alpha_norm = ||t_u||_{H^1} and beta_norm = ||t_psi||_{H^1/2} / 16.
    """
    g, w, info = _normal_equation_solve(point, params)
    wdu, wdpsi = _dg_adjoint(point, params, w)
    t_u = g.du - wdu
    t_psi = g.dpsi - wdpsi
    return TangentResult(
        tangent=Variation(t_u, t_psi, u_space="H1", psi_space="H1/2"),
        norm=product_norm(t_u, t_psi),
        alpha_norm=h1_norm(t_u),
        beta_norm=hhalf_norm(t_psi) / 16.0,
        multiplier=MultiplierData(varphi=(1.0 / 16.0) * w, solve_residual=info.relative_residual),
    )


def fiber_rayleigh_margin(u: ScalarField, params: ActionParams, rng, n_samples: int = 50) -> float:
    """Most positive Rayleigh quotient of A over random negative directions.

    Every quotient is at most -c, c = `fiber_coercivity` at min cosh u
    (which implies the weaker -min(lambda_1/(1+lambda_1), rho)); returns the
    max over samples.
    """
    geom = u.geom
    uv = check_overflow(u)
    apply_m = _fiber_operator(np.cosh(uv), params.rho)
    worst = -np.inf
    n = geom.grid_n
    for _ in range(n_samples):
        c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        c *= (1.0 + geom.s_abs) ** -1.0
        phi = project(SpinorField.from_coeffs(geom, c), "minus")
        quot = -_hhalf_inner(apply_m(phi), phi) / _hhalf_inner(phi, phi)
        worst = max(worst, quot)
    return float(worst)
