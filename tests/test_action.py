"""Action functional: closed forms, finite-difference oracles, symmetries."""

import numpy as np
import pytest

from sshg.action import (
    ActionParams,
    el_residual_norms,
    evaluate_J,
    gradient_J,
    hess_vec,
    linearize,
)
from sshg.errors import ConfigError, OverflowGuardError
from sshg.fields import ScalarField, SpinorField, pack, unpack
from sshg.geometry import TWO_PI, TorusGeometry
from sshg.spectral import (
    build_basis,
    dirac_apply,
    h1_norm,
    hhalf_norm,
    laplace_apply,
    sobolev_norms_sq,
)

from oracles import (
    dual_pair,
    field_hess_vec,
    grid_x1,
    grid_x2,
    hessian,
    hminus1_norm,
    hminushalf_norm,
    quaternion_j,
    riesz_h1,
    riesz_hhalf,
    riesz_pair,
)

from test_spectral import random_scalar, random_spinor


def smooth_pair(geom, rng, u_amp=0.4, psi_amp=0.7):
    u = random_scalar(geom, rng)
    scale = np.max(np.abs(u.values))
    u = u * (u_amp / max(scale, 1e-12))
    psi = random_spinor(geom, rng, decay=2.0)
    psi = psi * (psi_amp / max(hhalf_norm(psi), 1e-12))
    return u, psi


def test_action_params_refuses_nonpositive_rho():
    # rho is the only coupling input; a NaN compares false, so it is refused too
    for rho in (0.0, -0.5, float("nan")):
        with pytest.raises(ConfigError):
            ActionParams(rho=rho)


def test_J_at_origin_and_eigen_directions():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    zero_u = ScalarField.zeros(geom)
    zero_psi = SpinorField.zeros(geom)
    assert evaluate_J(zero_u, zero_psi, params) == 0.0
    for j, t in ((1, 0.7), (5, 1.3)):
        lam = basis.eigenvalue(j)
        val = evaluate_J(zero_u, t * basis.eigenspinor(j), params)
        assert val == pytest.approx(8.0 * (lam - 0.5) * t * t, rel=1e-12)


def test_J_constant_u_closed_form():
    # closed form 4 rho^2 sinh(ubar)^2 Vol, cross-checked at two resolutions
    params = ActionParams(rho=0.5)
    want = 4.0 * 0.25 * np.sinh(1.0) ** 2 * (TWO_PI) ** 2
    for n in (16, 32):
        geom = TorusGeometry(grid_n=n, spin_delta=(0.5, 0.5))
        got = evaluate_J(ScalarField.constant(geom, 1.0), SpinorField.zeros(geom), params)
        assert got == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(54.5236, rel=1e-4)


def test_overflow_guard():
    geom = TorusGeometry(grid_n=16)
    params = ActionParams(rho=0.5)
    u = ScalarField.constant(geom, 51.0)
    with pytest.raises(OverflowGuardError) as exc:
        evaluate_J(u, SpinorField.zeros(geom), params)
    assert "51" in str(exc.value)


def test_gradient_zero_at_critical_points():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    # ||f||_{H^-s} = ||R f||_{H^s}: the norms of the packed Riesz gradient
    g = gradient_J(ScalarField.zeros(geom), SpinorField.zeros(geom), params)
    assert sobolev_norms_sq(geom, g) == (0.0, 0.0)
    # semi-trivial branch: u = 0, psi an eigenspinor, rho = lambda_k
    lam1 = basis.eigenvalue(1)
    g = gradient_J(ScalarField.zeros(geom), basis.eigenspinor(1), ActionParams(rho=lam1))
    nu, npsi = np.sqrt(sobolev_norms_sq(geom, g))
    assert nu < 1e-12 and npsi < 1e-12


def test_gradient_matches_finite_differences():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    params = ActionParams(rho=0.8)
    rng = np.random.default_rng(42)
    for _ in range(6):
        u, psi = smooth_pair(geom, rng)
        v, phi = smooth_pair(geom, rng)
        pairing = riesz_pair(gradient_J(u, psi, params), v, phi)
        best = np.inf
        for h in (1e-3, 1e-4, 1e-5):
            jp = evaluate_J(u + h * v, psi + h * phi, params)
            jm = evaluate_J(u - h * v, psi - h * phi, params)
            fd = (jp - jm) / (2.0 * h)
            best = min(best, abs(fd - pairing) / max(abs(pairing), 1e-10))
        assert best <= 1e-6


def el_norms(u, psi, params):
    """(res_u, res_psi) as records and Newton read them off the Riesz gradient."""
    return el_residual_norms(u.geom, gradient_J(u, psi, params))


def test_el_residual_semi_trivial_and_coefficient_oracle():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    lam1 = basis.eigenvalue(1)
    zero_u = ScalarField.zeros(geom)
    psi1 = basis.eigenspinor(1)

    nu, npsi = el_norms(zero_u, SpinorField.zeros(geom), ActionParams(rho=0.3))
    assert nu == 0.0 and npsi == 0.0

    nu, npsi = el_norms(zero_u, psi1, ActionParams(rho=lam1))
    assert nu < 1e-10 and npsi < 1e-10

    # coefficient-level oracle at rho = lam1/2: residual is (lam1-rho) Psi_1,
    # whose dual multiplier norm is |lam1-rho| / sqrt(1+lam1)
    rho = lam1 / 2.0
    nu, npsi = el_norms(zero_u, psi1, ActionParams(rho=rho))
    want = abs(lam1 - rho) / np.sqrt(1.0 + lam1)
    assert npsi == pytest.approx(want, rel=1e-12)
    assert nu < 1e-14


def test_el_residual_matches_the_pointwise_system():
    # the Euler-Lagrange system written out on the grid at a non-constant u:
    # res_u = Lap u - 2 rho^2 sinh(2u) + 4 rho sinh(u) |psi|^2 and
    # res_psi = (D - rho cosh u) psi, against the first variation scaled by
    # (-1/2, 1/16) and the norms read off its Riesz gradient; the Riesz map
    # is an isometry H^-s -> H^s, so the differences are measured on the
    # Riesz side
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    params = ActionParams(rho=0.8)
    rng = np.random.default_rng(11)
    for _ in range(3):
        u, psi = smooth_pair(geom, rng)
        assert np.ptp(u.values) > 0.1
        rho, uv = params.rho, u.values
        want_u = laplace_apply(u) + ScalarField.from_values(
            geom, -2.0 * rho * rho * np.sinh(2.0 * uv) + 4.0 * rho * np.sinh(uv) * psi.density())
        want_psi = dirac_apply(psi) - psi.times(rho * np.cosh(uv))
        g = gradient_J(u, psi, params)
        gu, gpsi = unpack(geom, g)
        nu, npsi = el_residual_norms(geom, g)
        scale_u = hminus1_norm(laplace_apply(u)) + hminus1_norm(
            ScalarField.from_values(geom, 2.0 * rho * rho * np.sinh(2.0 * uv)))
        scale_psi = hminushalf_norm(dirac_apply(psi))
        assert h1_norm(-0.5 * gu - riesz_h1(want_u)) <= 1e-13 * scale_u
        assert hhalf_norm((1.0 / 16.0) * gpsi - riesz_hhalf(want_psi)) <= 1e-13 * scale_psi
        assert nu == pytest.approx(hminus1_norm(want_u), rel=1e-12)
        assert npsi == pytest.approx(hminushalf_norm(want_psi), rel=1e-12)


def test_hessian_at_origin_and_symmetry():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    zero_u = ScalarField.zeros(geom)
    zero_psi = SpinorField.zeros(geom)
    for j in (1, 5):
        lam = basis.eigenvalue(j)
        h_u, h_psi = hessian(zero_u, zero_psi, zero_u, basis.eigenspinor(j), params)
        diff = h_psi - 16.0 * (lam - 0.5) * basis.eigenspinor(j)
        assert hhalf_norm(diff) < 1e-12
        assert np.max(np.abs(h_u.values)) < 1e-13

    rng = np.random.default_rng(7)
    u, psi = smooth_pair(geom, rng)
    for _ in range(4):
        a_u, a_psi = smooth_pair(geom, rng)
        b_u, b_psi = smooth_pair(geom, rng)
        hab = dual_pair(hessian(u, psi, a_u, a_psi, params), b_u, b_psi)
        hba = dual_pair(hessian(u, psi, b_u, b_psi, params), a_u, a_psi)
        assert abs(hab - hba) <= 1e-9 * (1.0 + abs(hab))


def test_hessian_matches_gradient_differences():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    params = ActionParams(rho=0.7)
    rng = np.random.default_rng(11)
    u, psi = smooth_pair(geom, rng)
    d_u, d_psi = smooth_pair(geom, rng)
    t_u, t_psi = smooth_pair(geom, rng)
    hv = dual_pair(hessian(u, psi, d_u, d_psi, params), t_u, t_psi)
    best = np.inf
    for h in (1e-4, 1e-5):
        gp = riesz_pair(gradient_J(u + h * d_u, psi + h * d_psi, params), t_u, t_psi)
        gm = riesz_pair(gradient_J(u - h * d_u, psi - h * d_psi, params), t_u, t_psi)
        fd = (gp - gm) / (2.0 * h)
        best = min(best, abs(fd - hv) / max(abs(hv), 1e-10))
    assert best <= 1e-5


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_linearized_hessian_is_the_field_formula_bit_for_bit(delta):
    for n in (16, 128):
        _check_linearized_hessian(n, delta)


def _check_linearized_hessian(n, delta):
    # u non-constant and psi on two Dirac modes, so the u-psi coupling is
    # live; directions as MINRES holds them: u by its coefficients, psi by
    # its eigen-coordinates.  Successive directions run through the one
    # linearization's work arrays into one out array, as in Newton's MINRES
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    u = ScalarField.from_values(geom, 0.9 + 0.2 * np.cos(grid_x1(geom))
                                + 0.1 * np.sin(grid_x1(geom) + 2.0 * grid_x2(geom)))
    psi = 3.0 * basis.eigenspinor(1) + (1.0 - 2.0j) * basis.eigenspinor(3)
    lin = linearize(u, psi, params)
    rng = np.random.default_rng(5)
    out = np.empty((3, n, n), dtype=complex)
    for _ in range(4):
        v, phi = smooth_pair(geom, rng)
        x = pack(v, phi)
        before = x.tobytes()
        v, phi = unpack(geom, x)
        want_u, want_psi = field_hess_vec(u, psi, v, phi, params)
        got = hess_vec(lin, x, out)
        assert got is out
        assert x.tobytes() == before
        assert got[0].tobytes() == want_u.coeffs.tobytes()
        assert got[1:].tobytes() == want_psi.eig.tobytes()
        assert np.max(np.abs(got[0])) > 0.0 and np.max(np.abs(got[1:])) > 0.0
    # a constant direction u and a vanishing direction psi take the
    # constant-coefficient shortcut on both sides
    zero_psi = SpinorField.zeros(geom)
    x = pack(ScalarField.constant(geom, 0.3), zero_psi)
    want_u, want_psi = field_hess_vec(ScalarField.constant(geom, 0.5), zero_psi,
                                      *unpack(geom, x), params)
    got = hess_vec(linearize(ScalarField.constant(geom, 0.5), zero_psi, params), x, out)
    assert got[0].tobytes() == want_u.coeffs.tobytes()
    assert got[1:].tobytes() == want_psi.eig.tobytes()


def test_symmetries_of_J():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.5))
    params = ActionParams(rho=0.9)
    rng = np.random.default_rng(13)
    for _ in range(8):
        u, psi = smooth_pair(geom, rng)
        j0 = evaluate_J(u, psi, params)
        assert abs(evaluate_J(-1.0 * u, psi, params) - j0) <= 1e-12 * (1 + abs(j0))
        assert abs(evaluate_J(u, quaternion_j(psi), params) - j0) <= 1e-12 * (1 + abs(j0))


def test_sinh_coercivity_pointwise():
    geom = TorusGeometry(grid_n=16)
    params = ActionParams(rho=0.6)
    rng = np.random.default_rng(17)
    for _ in range(8):
        u = random_scalar(geom, rng)
        uv = u.values
        lhs = np.sum(np.sinh(uv) ** 2)
        rhs = np.sum(uv ** 2)
        assert lhs >= rhs - 1e-12


def test_resolution_robustness():
    # fixed smooth data sampled on two grids: J changes by <= 1e-8 relative
    params = ActionParams(rho=0.5)

    def build(geom):
        u_vals = 0.35 * np.cos(grid_x1(geom)) * np.sin(2 * grid_x2(geom))
        u = ScalarField.from_values(geom, u_vals)
        c = np.zeros((2, geom.grid_n, geom.grid_n), dtype=complex)
        for (k1, k2, a) in ((0, 0, 0.5 + 0.2j), (1, 0, 0.3), (0, -2, 0.15j), (-1, 1, 0.1)):
            c[0, k1 % geom.grid_n, k2 % geom.grid_n] = a
            c[1, k2 % geom.grid_n, k1 % geom.grid_n] = 0.5 * a
        psi = SpinorField.from_coeffs(geom, c)
        return evaluate_J(u, psi, params)

    j16 = build(TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5)))
    j32 = build(TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5)))
    assert abs(j32 - j16) <= 1e-8 * (1 + abs(j16))
