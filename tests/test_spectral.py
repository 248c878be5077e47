"""Spin-spectral core: spectrum conformance, operator algebra, projections."""

import numpy as np
import pytest

from sshg.errors import ConfigError, ResolutionError, SpectralGapError
from sshg.fields import ScalarField, SpinorField
from sshg.geometry import GAMMA1, GAMMA2, TWO_PI, TorusGeometry
from sshg.runner import _spectral_summary
from sshg.spectral import (
    build_basis,
    dirac_apply,
    hhalf_norm,
    l2_inner,
    laplace_apply,
    packed_sobolev_weight,
    project,
    sobolev_inner,
    sobolev_weight,
)

from oracles import (
    IllPosedError,
    abs_dirac_apply,
    grid_l2_inner,
    grid_x1,
    hermitian_defect,
    hminushalf_norm,
    l2_norm,
    omega_mult,
    quaternion_j,
    reference_basis,
)

LAM1_HALF = np.sqrt(2.0) / 2.0  # |((1/2),(1/2))| on the 2pi torus


def enumerate_spectrum(delta, side_length, count, kmax=12):
    """Brute-force oracle: positive |k+delta| * 2pi/L with real multiplicity 2."""
    vals = []
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            m = np.hypot(a + delta[0], b + delta[1])
            if m > 0:
                vals.extend([m * TWO_PI / side_length] * 2)  # phases 1, i
    vals.sort()
    return np.array(vals[:count])


def random_spinor(geom, rng, decay=1.0):
    n = geom.grid_n
    c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    c *= (1.0 + geom.s_abs) ** (-decay)
    return SpinorField.from_coeffs(geom, c)


def assembled_symbol(geom):
    """sym[a, b] per mode: i (xi1 gamma1 + xi2 gamma2) at xi = 2 pi (k + delta) / L,
    assembled from the Clifford generators."""
    k = np.fft.fftfreq(geom.grid_n, d=1.0 / geom.grid_n)
    scale = TWO_PI / geom.side_length
    s1 = scale * (k + geom.spin_delta[0])[:, None] * np.ones((1, geom.grid_n))
    s2 = scale * np.ones((geom.grid_n, 1)) * (k + geom.spin_delta[1])[None, :]
    return 1j * (GAMMA1[:, :, None, None] * s1 + GAMMA2[:, :, None, None] * s2)


def random_scalar(geom, rng, decay=2.0):
    n = geom.grid_n
    v = rng.standard_normal((n, n))
    u = ScalarField.from_values(geom, v)
    sm = ScalarField.from_coeffs(geom, u.coeffs * (1.0 + geom.xi_sq) ** (-decay / 2.0))
    return ScalarField.from_values(geom, sm.values)  # re-realify


ALL_DELTAS = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]


def test_geometry_validation():
    with pytest.raises(ConfigError):
        TorusGeometry(grid_n=7)
    with pytest.raises(ConfigError):
        TorusGeometry(grid_n=6)
    with pytest.raises(ConfigError):
        TorusGeometry(grid_n=16, spin_delta=(0.3, 0.5))
    g = TorusGeometry(grid_n=16)
    assert g.quad_weight == (g.side_length / 16) ** 2


def test_clifford_relation_exact():
    gammas = [GAMMA1, GAMMA2]
    for i in range(2):
        for j in range(2):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            expected = -2.0 * (1.0 if i == j else 0.0) * np.eye(2)
            assert np.array_equal(anti, expected)


@pytest.mark.parametrize("delta", ALL_DELTAS)
@pytest.mark.parametrize("grid_n", [16, 32, 64])
def test_spectrum_matches_analytic_family(delta, grid_n):
    geom = TorusGeometry(grid_n=grid_n, spin_delta=delta)
    basis = build_basis(geom, cutoff=3.0)
    want = enumerate_spectrum(delta, geom.side_length, 40)
    got = basis.eigenvalues[:40]
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(want, 1.0))
    assert basis.harmonic_dim == (4 if delta == (0.0, 0.0) else 0)


def test_lambda1_and_positive_eigenspace_dim():
    # modes |k+delta| <= 1 at delta=(1/2,1/2): the four (+-1/2, +-1/2) corners
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=1.0)
    assert basis.eigenvalue(1) == pytest.approx(LAM1_HALF, rel=1e-14)
    assert len(basis.eigenvalues) == 8  # 4 modes x 1 complex dim = 8 real dims
    assert basis.multiplicity(1) == 8
    # omega pairing is exact: omega Psi_1 has eigenvalue -lambda_1
    w = omega_mult(basis.eigenspinor(1))
    assert np.array_equal(dirac_apply(w).eig, (-basis.eigenvalue(1) * w).eig)
    # indices run over the positive integers; nothing wraps to the table's end
    for j in (0, -1):
        with pytest.raises(IndexError):
            basis.eigenvalue(j)
        with pytest.raises(IndexError):
            basis.eigenspinor(j)


@pytest.mark.parametrize("cutoff", [0.0, 1.0, 2.5, 3.0, None])
@pytest.mark.parametrize("delta", ALL_DELTAS)
@pytest.mark.parametrize("grid_n", [8, 16, 32, 64])
def test_mode_table_matches_the_element_enumeration(grid_n, delta, cutoff):
    # the sorted mode table against the one-element-at-a-time enumeration,
    # bit for bit (None: the Nyquist bound)
    geom = TorusGeometry(grid_n=grid_n, spin_delta=delta)
    cutoff = geom.nyquist_bound if cutoff is None else cutoff
    basis, ref = build_basis(geom, cutoff), reference_basis(geom, cutoff)
    assert np.array_equal(basis.eigenvalues, ref.eigenvalues)
    assert basis.harmonic_dim == ref.harmonic_dim
    for j in range(1, len(ref.eigenvalues) + 1):
        assert np.array_equal(basis.eigenspinor(j).eig, ref.eigenspinor(j).eig)
    for l in range(ref.harmonic_dim):
        assert np.array_equal(basis.harmonic_spinor(l).eig, ref.harmonic_spinor(l).eig)
    if len(ref.eigenvalues):
        assert basis.multiplicity(1) == ref.multiplicity_of(ref.eigenvalue(1))


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_a_smaller_cutoff_gives_a_prefix_of_the_table(delta):
    # so the run summary reads its 40 eigenvalues off one basis at the
    # Nyquist bound whatever the run's cutoff
    geom = TorusGeometry(grid_n=32, spin_delta=delta)
    full = build_basis(geom, geom.nyquist_bound)
    for cutoff in (0.0, 1.0, 1.5, 2.25, 3.375, 5.0625):
        basis = build_basis(geom, cutoff)
        m = len(basis.modes)
        assert np.array_equal(basis.modes, full.modes[:m])
        assert np.array_equal(basis.eigenvalues, full.eigenvalues[:2 * m])
        assert _spectral_summary(basis) == _spectral_summary(full)


def test_harmonic_block_from_assembled_kernel():
    # oracle: the assembled symbol at the zero mode is the 2x2 zero matrix,
    # whose real kernel dimension is 4
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    assert np.array_equal(assembled_symbol(geom)[:, :, 0, 0], np.zeros((2, 2)))
    basis = build_basis(geom, cutoff=0.0)
    assert basis.harmonic_dim == 4
    basis = build_basis(geom, cutoff=2.5)
    assert basis.harmonic_dim == 4


def test_basis_orthonormality():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    fields = [basis.eigenspinor(j) for j in range(1, 13)]
    fields += [omega_mult(basis.eigenspinor(j)) for j in range(1, 5)]
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            val = l2_inner(fi, fj)
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_eigen_relation_and_kernel():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    for j, sign in ((1, 1), (3, 1), (1, -1), (5, -1)):
        # sign -1: the omega-mirror of Psi_j, eigenvalue -lambda_j
        psi = basis.eigenspinor(j) if sign > 0 else omega_mult(basis.eigenspinor(j))
        res = dirac_apply(psi) - (sign * basis.eigenvalue(j)) * psi
        assert l2_norm(res) < 1e-12

    geom0 = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis0 = build_basis(geom0, cutoff=1.5)
    for l in range(4):
        h = basis0.harmonic_spinor(l)
        assert l2_norm(dirac_apply(h)) < 1e-12
        assert l2_norm(h) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_dirac_self_adjoint_by_quadrature(delta):
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_spinor(geom, rng)
        phi = random_spinor(geom, rng)
        lhs = grid_l2_inner(dirac_apply(psi), phi)
        rhs = grid_l2_inner(psi, dirac_apply(phi))
        scale = 1.0 + abs(lhs)
        assert abs(lhs - rhs) < 1e-11 * scale


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_omega_anticommutes_j_commutes(delta):
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = random_spinor(geom, rng)
        scale = 1.0 + hhalf_norm(psi)
        anti = dirac_apply(omega_mult(psi)) + omega_mult(dirac_apply(psi))
        assert l2_norm(anti) < 1e-11 * scale
        comm = dirac_apply(quaternion_j(psi)) - quaternion_j(dirac_apply(psi))
        assert l2_norm(comm) < 1e-11 * scale
        # isometries of the pointwise norm
        assert np.max(np.abs(np.abs(omega_mult(psi).values) - np.abs(np.flipud(psi.values[::-1])))) >= 0  # shape sanity
        assert np.max(np.abs(omega_mult(psi).density() - psi.density())) < 1e-12 * np.max(1 + psi.density())
        assert np.max(np.abs(quaternion_j(psi).density() - psi.density())) < 1e-12 * np.max(1 + psi.density())


def test_j_squares_to_minus_one_and_isometry():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.5))
    rng = np.random.default_rng(3)
    psi = random_spinor(geom, rng)
    phi = random_spinor(geom, rng)
    jj = quaternion_j(quaternion_j(psi))
    assert l2_norm(jj + psi) < 1e-12 * (1 + l2_norm(psi))
    assert abs(grid_l2_inner(omega_mult(psi), omega_mult(phi)) - grid_l2_inner(psi, phi)) < 1e-11
    assert abs(grid_l2_inner(quaternion_j(psi), quaternion_j(phi)) - grid_l2_inner(psi, phi)) < 1e-11


def test_omega_maps_eigenspaces():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=1.5)
    psi = basis.eigenspinor(1)
    w = omega_mult(psi)
    res = dirac_apply(w) + basis.eigenvalue(1) * w
    assert l2_norm(res) < 1e-12


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_parseval(delta):
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    rng = np.random.default_rng(13)
    for _ in range(20):
        psi = random_spinor(geom, rng)
        a = grid_l2_inner(psi, psi)
        b = l2_inner(psi, psi)
        assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_scalar_hermitian_symmetry():
    geom = TorusGeometry(grid_n=16)
    rng = np.random.default_rng(41)
    for _ in range(5):
        u = random_scalar(geom, rng)
        assert hermitian_defect(u) <= 1e-12 * (1 + np.max(np.abs(u.coeffs)))


def test_laplace_examples():
    geom = TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5))
    const = ScalarField.constant(geom, 2.7)
    assert np.max(np.abs(laplace_apply(const).values)) < 1e-13
    u = ScalarField.from_values(geom, np.cos(grid_x1(geom)))
    lap = laplace_apply(u)
    assert np.max(np.abs(lap.values + np.cos(grid_x1(geom)))) < 1e-12
    # integration by parts oracle by quadrature
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = random_scalar(geom, rng)
        lhs = grid_l2_inner(laplace_apply(w), w)
        grad_sq = float(geom.vol * np.sum(geom.xi_sq * np.abs(w.coeffs) ** 2))
        assert abs(lhs + grad_sq) < 1e-11 * (1 + abs(grad_sq))


def test_fractional_operator():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    psi = basis.eigenspinor(3)
    lam = basis.eigenvalue(3)
    out = abs_dirac_apply(psi, 1.0)
    assert l2_norm(out - lam * psi) < 1e-12
    # semigroup
    rng = np.random.default_rng(17)
    w = random_spinor(geom, rng)
    twice = abs_dirac_apply(abs_dirac_apply(w, 0.5), 0.5)
    assert l2_norm(twice - abs_dirac_apply(w, 1.0)) < 1e-12 * (1 + l2_norm(w))
    # s=0 identity away from the kernel (none here)
    assert l2_norm(abs_dirac_apply(w, 0.0) - w) < 1e-12 * (1 + l2_norm(w))

    geom0 = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis0 = build_basis(geom0, cutoff=1.2)
    h = basis0.harmonic_spinor(0)
    assert l2_norm(abs_dirac_apply(h, 0.5)) == 0.0
    with pytest.raises(IllPosedError):
        abs_dirac_apply(h, -0.5)


def test_sobolev_inner_values():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    for j in (1, 5, 9):
        psi = basis.eigenspinor(j)
        lam = basis.eigenvalue(j)
        assert sobolev_inner(psi, psi) == pytest.approx(1 + lam, rel=1e-12)
    geom0 = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis0 = build_basis(geom0, cutoff=1.2)
    h = basis0.harmonic_spinor(1)
    assert sobolev_inner(h, h) == pytest.approx(1.0, rel=1e-12)
    # dual-pairing Cauchy-Schwarz
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_spinor(geom, rng)
        up = sobolev_inner(w, w)
        dn = hminushalf_norm(w) ** 2
        assert up * dn >= l2_norm(w) ** 4 * (1 - 1e-12)


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_sobolev_weights_are_rows_of_the_packed_weight(delta):
    # 1+|xi|^2 and 1+|xi| bit for bit, read-only, and views of the one
    # cached packed weight rather than new arrays
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    packed = packed_sobolev_weight(geom)
    assert not packed.flags.writeable
    for field_type, want, rows in ((ScalarField, 1.0 + geom.xi_sq, [0]),
                                   (SpinorField, 1.0 + geom.s_abs, [1, 2])):
        mult = sobolev_weight(geom, field_type)
        assert mult.tobytes() == want.tobytes()
        assert all(packed[k].tobytes() == want.tobytes() for k in rows)
        assert np.shares_memory(mult, packed) and not mult.flags.writeable


def test_projections():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    psi1 = basis.eigenspinor(1)
    assert l2_norm(project(psi1, "minus")) < 1e-14
    pb = project(psi1, "plus_b", rho=1.0)
    assert l2_norm(pb - psi1) < 1e-13  # lambda_1 ~ 0.707 < 1
    rng = np.random.default_rng(29)
    for _ in range(10):
        w = random_spinor(geom, rng)
        parts = [project(w, "plus_a", rho=1.0), project(w, "plus_b", rho=1.0),
                 project(w, "zero"), project(w, "minus")]
        rec = parts[0] + parts[1] + parts[2] + parts[3]
        assert l2_norm(rec - w) < 1e-12 * (1 + l2_norm(w))
        # idempotent and orthogonal in both metrics
        for sub, kw in (("plus", {}), ("minus", {}), ("plus_a", {"rho": 1.0})):
            p = project(w, sub, **kw)
            assert l2_norm(project(p, sub, **kw) - p) < 1e-12 * (1 + l2_norm(w))
        pp, pm = project(w, "plus"), project(w, "minus")
        assert abs(l2_inner(pp, pm)) < 1e-12 * (1 + l2_norm(w) ** 2)
        assert abs(sobolev_inner(pp, pm)) < 1e-12 * (1 + hhalf_norm(w) ** 2)


def test_projection_rho_gap_guard():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    rng = np.random.default_rng(31)
    w = random_spinor(geom, rng)
    with pytest.raises(SpectralGapError):
        project(w, "plus_a", rho=LAM1_HALF + 1e-12)


@pytest.mark.parametrize("delta", ALL_DELTAS)
@pytest.mark.parametrize("grid_n", [8, 16])
def test_spectral_gap_is_the_brute_force_minimum(delta, grid_n):
    # the gap is read off the two sorted distinct |xi| around rho, bit for
    # bit the minimum of |lam - rho| over every kept spinor mode: at a
    # level, one ulp off it, between levels, below and above them all
    geom = TorusGeometry(grid_n=grid_n, spin_delta=delta)
    lam = geom.s_abs[geom.spinor_mask]
    levels = np.unique(lam)
    rhos = np.concatenate([levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf),
                           0.5 * (levels[1:] + levels[:-1]), [1e-3, levels[-1] + 1.0],
                           np.random.default_rng(5).uniform(0.0, levels[-1] + 1.0, 50)])
    for rho in rhos.tolist():
        assert geom.spectral_gap(rho) == float(np.min(np.abs(lam - rho)))


def test_cutoff_above_nyquist_rejected():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    with pytest.raises(ResolutionError):
        build_basis(geom, cutoff=geom.nyquist_bound + 0.5)


def test_multiplicity_at_least_three():
    # quaternionic action forces >= 3; the flat torus actually gives >= 4
    for delta in ALL_DELTAS:
        geom = TorusGeometry(grid_n=16, spin_delta=delta)
        basis = build_basis(geom, cutoff=2.0)
        for j in range(1, len(basis.eigenvalues) + 1):
            assert basis.multiplicity(j) >= 3
