"""The sinh-Gordon/spinor action, its Riesz gradient, Hessian products and
the norms of the Euler-Lagrange residuals; directions, gradients included,
are packed (u, psi) arrays (`fields.pack`).

The functional on H^1 x H^{1/2} is

    J(u, psi) = int |grad u|^2 + 8<D psi, psi> - 8 rho cosh(u) |psi|^2
                + 4 rho^2 sinh(u)^2  dv,

with Euler-Lagrange system

    Lap u = 2 rho^2 sinh(2u) - 4 rho sinh(u) |psi|^2,
    D psi = rho cosh(u) psi.

Quadratic spectral terms are evaluated on coefficients; the transcendental
densities pointwise on the grid with the uniform quadrature weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OverflowGuardError
from .fields import ScalarField, SpinorField, pack, stacked_coeffs, stacked_values
from .spectral import (
    dirac_apply,
    l2_inner,
    laplace_apply,
    packed_sobolev_weight,
    sobolev_norms_sq,
)

U_CAP = 50.0  # overflow guard: max|u| beyond which cosh and sinh are refused


@dataclass(frozen=True)
class ActionParams:
    """The coupling rho, the action's only parameter."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ConfigError(f"rho must be positive, got {self.rho!r}")


def check_overflow(u) -> np.ndarray:
    """The grid values of u, a ScalarField (whose kept max|u| is read) or a
    stack of grid values, refused beyond U_CAP."""
    if isinstance(u, ScalarField):
        vals, m = u.values, u.max_abs
    else:
        vals, m = u, float(np.max(np.abs(u)))
    if not m <= U_CAP:  # a NaN compares false, so it is refused too
        raise OverflowGuardError(
            f"max|u| = {m:.6g} is not finite or exceeds the overflow cap U_CAP = {U_CAP:g}"
        )
    return vals


def dirac_minus_potential(psi: SpinorField, cosh_u: np.ndarray, rho: float) -> SpinorField:
    """(D - rho cosh(u)) psi: the spinor equation and the fiber operator of
    the constraint."""
    return dirac_apply(psi) - psi.times(rho * cosh_u)


def scalar_terms(geom, coeffs, uv: np.ndarray, rho: float):
    """int |grad u|^2 (spectral) and 4 rho^2 int sinh(u)^2 (grid), the two
    psi-free terms of J, of each u of a stack of coefficients and grid
    values (..., n, n); coeffs None stands for a finite constant, whose
    gradient term is 0.0 (its one mode, k = 0, has xi^2 = 0)."""
    grad_term = 0.0 if coeffs is None else (
        geom.vol * np.sum(geom.xi_sq * np.abs(coeffs) ** 2, axis=(-2, -1)))
    return grad_term, 4.0 * rho * rho * geom.quad_weight * np.sum(np.sinh(uv) ** 2, axis=(-2, -1))


def evaluate_J(u: ScalarField, psi: SpinorField, params: ActionParams) -> float:
    geom = u.geom
    uv = check_overflow(u)
    rho = params.rho
    grad_term, sinh_term = scalar_terms(geom, None if u.compact else u.coeffs, uv, rho)
    dirac_term = 8.0 * l2_inner(dirac_apply(psi), psi)
    c = u.common_value
    if c is None:
        cosh_term = -8.0 * rho * geom.quad_weight * float(np.sum(np.cosh(uv) * psi.density()))
    else:
        # discrete Parseval: the grid sum of |psi|^2 is the coefficient sum
        cosh_term = -8.0 * rho * float(np.cosh(c)) * l2_inner(psi, psi)
    return float(grad_term + dirac_term + cosh_term + sinh_term)


def gradient_J(u: ScalarField, psi: SpinorField, params: ActionParams) -> np.ndarray:
    """The Riesz gradient of J in H^1 x H^{1/2}, packed (`fields.pack`): the
    first variation's densities

        scalar part: -2 Lap u + 8 rho^2 sinh(u) cosh(u) - 8 rho sinh(u) |psi|^2,
        spinor part: 16 (D psi - rho cosh(u) psi),

    divided per mode by the product metric's weight (`packed_sobolev_weight`).
    """
    geom = u.geom
    uv = check_overflow(u)
    rho = params.rho
    sh, ch = np.sinh(uv), np.cosh(uv)
    dens = psi.density()
    gu_vals = 8.0 * rho * rho * sh * ch - 8.0 * rho * sh * dens
    gu = ScalarField.from_values(geom, gu_vals) + (-2.0) * laplace_apply(u)
    g = pack(gu, 16.0 * dirac_minus_potential(psi, ch, rho))
    g /= packed_sobolev_weight(geom)
    return g


def el_residual_norms(geom, g: np.ndarray) -> tuple[float, float]:
    """(res_u, res_psi): the dual norms of the Euler-Lagrange residuals, read
    off the packed Riesz gradient g of J.  The residuals are the first
    variation scaled to the system's normalization, -dJ_u / 2 and
    dJ_psi / 16, and ||f||_{H^-s} = ||R f||_{H^s}."""
    h1_sq, hhalf_sq = sobolev_norms_sq(geom, g)
    return 0.5 * np.sqrt(h1_sq), np.sqrt(hhalf_sq) / 16.0


@dataclass(frozen=True)
class Linearization:
    """The per-point grids of the second variation at (u, psi), formed once
    per Newton step and once per multiplier solve by `linearize` and applied
    by `hess_vec`, with the work arrays of one product."""

    psi: SpinorField        # psi, whose grid values are read
    dens: np.ndarray        # |psi|^2
    uu: np.ndarray          # 8 rho^2 cosh 2u
    uu_dens: np.ndarray     # 8 rho cosh u, the factor of v |psi|^2
    u_cross: np.ndarray     # 16 rho sinh u, the factor of Re<psi, phi>
    psi_phi: np.ndarray     # rho cosh u, the factor of phi
    psi_v: np.ndarray       # rho sinh u, the factor of v psi
    grid: np.ndarray        # (4, n, n) complex: v, -2 Lap v and phi on the grid
    spec: np.ndarray        # (3, n, n) complex: the product on the grid, then its
                            # spectrum; idle between products, for callers to borrow
    tmp: np.ndarray         # (2, n, n) real: grid temporaries


def linearize(u: ScalarField, psi: SpinorField, params: ActionParams) -> Linearization:
    """The grids of the second variation at (u, psi) and the work arrays of
    one product; u beyond U_CAP is refused."""
    uv = check_overflow(u)
    rho = params.rho
    sh, ch = np.sinh(uv), np.cosh(uv)
    n = uv.shape[-1]
    return Linearization(psi=psi, dens=psi.density(), uu=8.0 * rho * rho * np.cosh(2.0 * uv),
                         uu_dens=8.0 * rho * ch, u_cross=16.0 * rho * sh,
                         psi_phi=rho * ch, psi_v=rho * sh,
                         grid=np.empty((4, n, n), dtype=complex),
                         spec=np.empty((3, n, n), dtype=complex), tmp=np.empty((2, n, n)))


def hess_vec(lin: Linearization, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Second variation at lin's point applied to the packed primal direction
    x = (v, phi) (`fields.pack`), written packed and dual into out (3, n, n),
    which is returned:

        (-2 Lap v + 8 rho^2 cosh(2u) v - 8 rho cosh(u) |psi|^2 v
             - 16 rho sinh(u) Re<psi, phi>,
         16 (D phi - rho cosh(u) phi - rho sinh(u) v psi)).

    One fft2 carries v, -2 Lap v and phi to the grid, one brings the
    products back; every intermediate lives in lin's work arrays, so a
    product allocates no array.  Every product and sum is taken in the order
    of the formula on fields, so on power-of-two grids the result is theirs
    bit for bit (`fields.stacked_values`).  x is left unchanged and must not
    overlap out."""
    geom = lin.psi.geom
    grid, spec, tmp = lin.grid, lin.spec, lin.tmp
    # -2 Lap v, in the order of (-2) * laplace_apply(v)
    np.multiply(np.negative(geom.xi_sq, out=tmp[0]), x[0], out=spec[0])
    spec[0] *= -2.0
    (vv, lap), phi = stacked_values(geom, (x[0], spec[0]), x[1:], grid)
    # Re<psi, phi>, pointwise
    prod = np.multiply(np.conjugate(lin.psi.values, out=spec[1:]), phi.values, out=spec[1:])
    cross = np.sum(prod, axis=0, out=spec[0]).real
    hu = tmp[0]
    np.multiply(lin.uu, vv, out=hu)
    hu -= np.multiply(np.multiply(lin.uu_dens, vv, out=tmp[1]), lin.dens, out=tmp[1])
    hu -= np.multiply(lin.u_cross, cross, out=tmp[1])
    hu += lap
    spec[0] = hu
    # rho sinh(u) v psi, then rho cosh(u) phi plus it
    np.multiply(np.multiply(lin.psi_v, vv, out=tmp[1])[None, :, :], lin.psi.values, out=grid[:2])
    np.multiply(lin.psi_phi[None, :, :], phi.values, out=spec[1:])
    spec[1:] += grid[:2]
    stacked_coeffs(geom, spec, out)
    # D phi (`spectral.dirac_apply`) minus the products, times 16
    dphi = np.multiply(x[1:], geom.s_abs, out=grid[:2])
    dphi[1] *= -1.0
    np.subtract(dphi, out[1:], out=out[1:])
    out[1:] *= 16.0
    return out
