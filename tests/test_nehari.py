"""Nehari constraint, fiber solves, multipliers, constrained gradients."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import sshg.nehari
from sshg.action import (
    ActionParams,
    el_residual_norms,
    evaluate_J,
    gradient_J,
    linearize,
    scalar_terms,
)
from sshg.errors import CertificationError, ConfigError, OverflowGuardError, SSHGError
from sshg.fields import ScalarField, SpinorField, minus_row_times, pack, spinor_eig, unpack
from sshg.geometry import TorusGeometry
from sshg.krylov import SolveInfo, cg
from sshg.nehari import (
    FIBER_TOL,
    NehariPoint,
    constrained_gradient,
    fiber_coercivity,
    fiber_energy_bounds,
    fiber_solve,
    multiplier_solve,
    project_to_manifold,
)
from sshg.spectral import (
    build_basis,
    dirac_apply,
    h1_norm,
    hhalf_norm,
    project,
    sobolev_inner,
    sobolev_norms_sq,
    subspace_mask,
)

from oracles import (
    constraint_G,
    fiber_rayleigh_margin,
    field_dg_adjoint,
    field_dg_apply,
    field_gradient,
    field_riesz_gradient,
    hminus1_norm,
    hminushalf_norm,
    l2_norm,
    minus_spinor,
    omega_mult,
    riesz_pair,
)

from test_constant_fields import PROPERTY, SEEDS, counting_ffts
from test_spectral import ALL_DELTAS, random_scalar, random_spinor

LAM1 = np.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def setup16():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    return geom, basis, params


def free_spinor(geom, rng, amp=1.0):
    psi = random_spinor(geom, rng, decay=1.5)
    free = psi - project(psi, "minus")
    return amp * free


def bounded_scalar(geom, rng, h1_cap=1.0):
    u = random_scalar(geom, rng)
    return u * (h1_cap / max(h1_norm(u), 1e-12))


def with_minus_row(free, rng, norm=1e-12):
    """free plus an E^- spinor of H^1/2 norm `norm`, below the 1e-10 zero
    negative part fiber_solve checks: a constant-u solve from it still runs
    CG, since psi_free is its own fiber point only with a zero a- row."""
    minus = project(random_spinor(free.geom, rng), "minus")
    return free + (norm / hhalf_norm(minus)) * minus


def test_constraint_examples(setup16):
    geom, basis, params = setup16
    zero_u = ScalarField.zeros(geom)
    # positive eigenmode at u=0 stays in the positive subspace
    g = constraint_G(zero_u, basis.eigenspinor(1), params)
    assert hhalf_norm(g) < 1e-13
    # negative eigenmode omega Psi_1, eigenvalue -lam_1: coefficientwise
    # (-lam_1 - rho)(1+lam_1)^{-1} omega Psi_1
    psi_m = omega_mult(basis.eigenspinor(1))
    g = constraint_G(zero_u, psi_m, params)
    coef = (-LAM1 - params.rho) / (1.0 + LAM1)
    assert l2_norm(g - coef * psi_m) < 1e-12
    # linear in psi
    rng = np.random.default_rng(0)
    u = bounded_scalar(geom, rng)
    assert hhalf_norm(constraint_G(u, SpinorField.zeros(geom), params)) == 0.0


def test_fiber_solve_certifies(setup16):
    geom, basis, params = setup16
    rng = np.random.default_rng(1)

    # u = 0: diagonal operator, psi^- = 0
    pt = fiber_solve(ScalarField.zeros(geom), free_spinor(geom, rng), params)
    assert hhalf_norm(project(pt.psi, "minus")) < 1e-12
    assert pt.constraint_norm < 1e-12

    # constant u != 0: nonzero psi^-, certified constraint and system residual
    ubar = ScalarField.constant(geom, 0.8)
    f = basis.eigenspinor(1)
    pt = fiber_solve(ubar, f, params)
    assert pt.constraint_norm <= 1e-10
    # direct residual oracle for the defining linear system
    g = constraint_G(ubar, pt.psi, params)
    assert hhalf_norm(g) <= 1e-12 * max(hhalf_norm(pt.psi), 1.0)

    with pytest.raises(ConfigError):
        fiber_solve(ubar, omega_mult(basis.eigenspinor(1)), params)


def test_fiber_residual_is_enforced(setup16, monkeypatch):
    # an inner solve that lands off the fiber by a minus-part row of H^1/2
    # norm 1e-6 is refused, not stored as the point's constraint_norm, at
    # constant u and at non-constant u; at constant u psi_free carries an
    # a- row of norm 1e-12, so the solve reaches CG
    import sshg.nehari
    geom, basis, params = setup16
    cg = sshg.nehari.cg
    kick = omega_mult(basis.eigenspinor(1))
    kick = ((1e-6 / hhalf_norm(kick)) * kick).eig[1]
    calls = []

    def off_fiber_cg(*args, **kwargs):
        calls.append(1)
        x, info = cg(*args, **kwargs)
        return x + kick, info

    monkeypatch.setattr(sshg.nehari, "cg", off_fiber_cg)
    rng = np.random.default_rng(7)
    free = basis.eigenspinor(1)
    cases = ((ScalarField.constant(geom, 0.8), with_minus_row(free, rng)),
             (bounded_scalar(geom, rng), free))
    for u, psi_free in cases:
        calls.clear()
        with pytest.raises(CertificationError, match="fiber residual"):
            fiber_solve(u, psi_free, params)
        assert calls == [1]


def test_fiber_solve_without_cg_work_certifies_with_the_right_hand_side(setup16, monkeypatch):
    # when CG returns 0 b without iterating, psi is psi_free and its residual
    # row is b: the certificate is ||b||, bitwise what recomputing G gives,
    # formed with one row map (b's) and still enforced.  At constant u with
    # a zero a- row psi_free is its own fiber point: no row map at all
    geom, basis, params = setup16
    rng = np.random.default_rng(3)
    u = bounded_scalar(geom, rng)
    cases = [
        (ScalarField.constant(geom, 0.8), basis.eigenspinor(1) + basis.eigenspinor(2), 0),
        (u, SpinorField.zeros(geom), 1),
        (u, free_spinor(geom, rng, amp=1e-20), 1),   # b below CG's absolute floor
    ]
    maps = []
    orig = sshg.nehari._fiber_map

    def counting_fiber_map(*args):
        apply = orig(*args)

        def counted(psi):
            maps.append(1)
            return apply(psi)
        return counted

    for u_c, free, applies in cases:
        monkeypatch.setattr(sshg.nehari, "_fiber_map", counting_fiber_map)
        maps.clear()
        pt = fiber_solve(u_c, free, params)
        assert len(maps) == applies
        monkeypatch.undo()
        assert not (pt.psi - free).eig.any()
        b_norm = hhalf_norm(constraint_G(u_c, free, params))
        assert pt.constraint_norm == b_norm == hhalf_norm(constraint_G(u_c, pt.psi, params))
    assert pt.constraint_norm > 0.0
    monkeypatch.setattr(sshg.nehari, "FIBER_CERT", 1e-30)
    with pytest.raises(CertificationError, match="fiber residual"):
        fiber_solve(u, cases[-1][1], params)


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_fiber_solve_with_cg_work_certifies_with_the_dense_constraint(delta):
    # at non-constant u CG iterates on the a- row; the certificate is the
    # row of G at the returned psi, bitwise the norm of the dense
    # constraint_G, with and without a starting guess
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = bounded_scalar(geom, rng)
        psi = random_spinor(geom, rng, decay=1.5)
        minus = project(psi, "minus")
        for x0 in (None, minus):
            pt = fiber_solve(u, psi - minus, params, x0=x0)
            assert project(pt.psi, "minus").eig.any()
            assert pt.constraint_norm == hhalf_norm(constraint_G(u, pt.psi, params))
            assert 0.0 < pt.constraint_norm <= 1e-10 * max(hhalf_norm(psi - minus), 1.0)


def _recording_cg(solver, calls):
    """A stand-in for `nehari.cg` that runs `solver` and records each call's
    operator, right-hand side, inner product, keyword arguments and info."""
    def run(apply_op, b, inner, **kwargs):
        x, info = solver(apply_op, b, inner, **kwargs)
        calls.append((apply_op, b, inner, kwargs, info))
        return x, info
    return run


def _plain_cg(apply_op, b, inner, x0=None, tol=1e-12, maxiter=500, atol=0.0, precond=None):
    """Textbook CG without a preconditioner (`precond` is ignored), with the
    solver's stop rule ||r|| <= max(tol ||b||, atol) and no iteration cap."""
    norm_b = np.sqrt(inner(b, b))
    stop = max(tol * norm_b, atol)
    if norm_b <= stop:
        return 0.0 * b, SolveInfo(True, 0, 0.0)
    x, r = (0.0 * b, b) if x0 is None else (x0, b - apply_op(x0))
    p, rr, it = r, inner(r, r), 0
    while np.sqrt(rr) > stop:
        it += 1
        ap = apply_op(p)
        alpha = rr / inner(p, ap)
        x, r = x + alpha * p, r - alpha * ap
        rr_new = inner(r, r)
        p, rr = r + (rr_new / rr) * p, rr_new
    return x, SolveInfo(True, it, float(np.sqrt(rr) / norm_b))


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_fiber_preconditioner_inverts_the_fiber_operator_at_constant_u(delta, monkeypatch):
    # at constant u, -A (the fiber solve's CG operator) is the multiplier
    # a0 on the a- row, so its preconditioner 1/a0 is the exact inverse and
    # CG, given the fiber solve's own operator, metric and preconditioner,
    # converges in one iteration on any E^- right-hand side.  The operator
    # is captured from a solve whose psi_free has an a- row of norm 1e-12,
    # which still runs CG, and which it solves in one iteration too
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(12)
    calls = []
    monkeypatch.setattr(sshg.nehari, "cg", _recording_cg(cg, calls))
    free = with_minus_row(free_spinor(geom, rng), rng)
    fiber_solve(ScalarField.constant(geom, 1.3), free, params)
    ((apply_op, _, inner, kwargs, info),) = calls
    assert info.iterations == 1
    precond = kwargs["precond"]
    for _ in range(3):
        rhs = project(random_spinor(geom, rng), "minus").eig[1]
        inv = precond(apply_op(rhs))
        assert np.max(np.abs(inv - rhs)) <= 1e-15 * np.max(np.abs(rhs))
        _, info = cg(apply_op, rhs, inner, tol=FIBER_TOL, atol=kwargs["atol"], precond=precond)
        assert info.converged and info.iterations == 1


@PROPERTY
@given(delta=st.sampled_from([(0.5, 0.5), (0.0, 0.0)]), seed=SEEDS,
       mean=st.floats(-4.0, 4.0), amp=st.floats(0.05, 1.0))
def test_preconditioned_solves_agree_with_plain_cg(delta, seed, mean, amp):
    # grid 16, u non-constant with |u| <= 5: the preconditioned fiber and
    # multiplier solves land within their stop rule of textbook CG's.  Each
    # solve stops at a residual below stop = max(tol ||b||, atol), so two
    # solves differ by at most 2 stop / c, c the least eigenvalue: for -A
    # c = fiber_coercivity at min cosh u, and the Gram operator dG dG^* is
    # at least A^2 >= c^2 on E^-
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(seed)
    v = random_scalar(geom, rng).values
    u = ScalarField.from_values(geom, mean + amp * v / np.max(np.abs(v)))
    free = free_spinor(geom, rng)
    c = fiber_coercivity(geom, params.rho, float(np.min(np.cosh(u.values))))
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, solver in (("pcg", cg), ("plain", _plain_cg)):
            calls = []
            mp.setattr(sshg.nehari, "cg", _recording_cg(solver, calls))
            pt = fiber_solve(u, free, params)
            md = multiplier_solve(runs["pcg"][0] if runs else pt, params)
            runs[name] = (pt, md, calls)
        (pt, md, calls), (pt_plain, md_plain, _) = runs["pcg"], runs["plain"]
        assert all(kwargs["precond"] is not None for *_, kwargs, _ in calls)
        norms = [np.sqrt(inner(b, b)) for _, b, inner, *_ in calls]
        stop_f, stop_m = (max(tol * norm_b, kwargs["atol"]) for norm_b, (*_, kwargs, _), tol
                          in zip(norms, calls, (FIBER_TOL, 1e-12)))
        assert hhalf_norm(pt.psi - pt_plain.psi) <= 2.0 * stop_f / c
        assert hhalf_norm(minus_spinor(geom, md.w - md_plain.w)) <= 2.0 * stop_m / c ** 2
        assert md.solve_residual * norms[1] <= stop_m * (1.0 + 1e-12)   # rounding of the ratio
        # the certificate is G's at the returned point, and still enforced
        scale = max(hhalf_norm(free), 1.0)
        assert pt.constraint_norm == hhalf_norm(constraint_G(u, pt.psi, params))
        assert pt.constraint_norm <= sshg.nehari.FIBER_CERT * scale
        mp.setattr(sshg.nehari, "cg", cg)
        mp.setattr(sshg.nehari, "FIBER_CERT", 0.5 * pt.constraint_norm / scale)
        with pytest.raises(CertificationError, match="fiber residual"):
            fiber_solve(u, free, params)


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0)])
@pytest.mark.parametrize("grid_n", [16, 24])
def test_minus_row_times_is_the_a_minus_row_of_the_product(grid_n, delta):
    # from grid values (one spinor or a stack) and from an E^- row alone,
    # the a- row of f psi is bitwise that of SpinorField.times, with the
    # same FFT calls
    geom = TorusGeometry(grid_n=grid_n, spin_delta=delta)
    rng = np.random.default_rng(9)
    f = 0.7 * np.cosh(random_scalar(geom, rng).values)
    psi = random_spinor(geom, rng)
    minus = project(random_spinor(geom, rng), "minus")
    for field, kwargs in ((psi, {"values": psi.values}), (minus, {"row": minus.eig[1]})):
        with counting_ffts() as dense_ffts:
            ref = field.times(f).eig[1]
        with counting_ffts() as row_ffts:
            row = minus_row_times(geom, f, **kwargs)
        assert row.tobytes() == ref.tobytes()
        assert row_ffts == dense_ffts
    stack_f = np.stack((f, 2.0 * f))
    stack = np.stack((psi.values, minus.values))
    ref = spinor_eig(geom, stack_f[:, None] * stack)[:, 1]
    assert minus_row_times(geom, stack_f, values=stack).tobytes() == ref.tobytes()


def test_fiber_linearity(setup16):
    geom, basis, params = setup16
    rng = np.random.default_rng(2)
    u = bounded_scalar(geom, rng)
    f1 = free_spinor(geom, rng)
    f2 = free_spinor(geom, rng)
    a, b = 1.7, -0.6
    lhs = fiber_solve(u, a * f1 + b * f2, params)
    p1 = fiber_solve(u, f1, params)
    p2 = fiber_solve(u, f2, params)
    combo = a * project(p1.psi, "minus") + b * project(p2.psi, "minus")
    diff = project(lhs.psi, "minus") - combo
    assert hhalf_norm(diff) <= 1e-10 * (1 + hhalf_norm(lhs.psi))


def test_fiber_even_in_u(setup16):
    geom, basis, params = setup16
    rng = np.random.default_rng(3)
    u = bounded_scalar(geom, rng)
    f = free_spinor(geom, rng)
    p_plus = fiber_solve(u, f, params)
    p_minus = fiber_solve(-1.0 * u, f, params)
    # cosh is even: identical linear algebra, bitwise equal iterates
    assert np.array_equal(p_plus.psi.coeffs, p_minus.psi.coeffs)


def test_fiber_control_bound(setup16):
    # ||psi^-|| <= rho ||cosh u||_{L2} ||psi^+ + psi^0|| for ||u||_{H1} <= 1
    geom, basis, params = setup16
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = bounded_scalar(geom, rng, h1_cap=rng.uniform(0.2, 1.0))
        f = free_spinor(geom, rng, amp=rng.uniform(0.5, 2.0))
        pt = fiber_solve(u, f, params)
        lhs = hhalf_norm(project(pt.psi, "minus"))
        cosh_l2 = np.sqrt(geom.quad_weight * np.sum(np.cosh(u.values) ** 2))
        rhs = params.rho * cosh_l2 * hhalf_norm(pt.free_part())
        assert lhs <= rhs


def test_fiber_negative_definiteness(setup16):
    geom, basis, params = setup16
    rng = np.random.default_rng(5)
    u = bounded_scalar(geom, rng)
    worst = fiber_rayleigh_margin(u, params, rng, n_samples=50)
    c = fiber_coercivity(geom, params.rho, float(np.min(np.cosh(u.values))))
    assert worst <= -c
    # the coercivity constant implies the spectral bound
    assert -c <= -min(LAM1 / (1.0 + LAM1), params.rho)


SEGMENT_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _segment_end(geom, params, rng, mean, wiggle, amp):
    """A point (u, psi), u constant when wiggle is 0, off the manifold: psi
    keeps a random minus part, far from its fiber maximum."""
    u = ScalarField.constant(geom, mean)
    if wiggle:
        u = u + bounded_scalar(geom, rng, h1_cap=wiggle * geom.side_length)
    return NehariPoint(u=u, psi=amp * random_spinor(geom, rng, decay=1.0), constraint_norm=np.inf,
                       params=params)


def _blend(a, b, w):
    return (1.0 - w) * a.u + w * b.u, (1.0 - w) * a.psi + w * b.psi


def _closed_form_bound(u, psi, params, psi_reach):
    """J0 + 8 ||G||^2 / c plus the rounding pad at one point, from J and G
    themselves, with psi_reach >= ||psi||_{H^1/2} in the pad; also returns
    the pad's scale, a bound on the summed magnitudes of J's terms."""
    rho = params.rho
    cosh_u = np.cosh(u.values)
    g_norm = hhalf_norm(constraint_G(u, psi, params))
    c = fiber_coercivity(u.geom, rho, float(np.min(cosh_u)))
    e_u = evaluate_J(u, SpinorField.zeros(u.geom), params)
    reach = psi_reach + g_norm / c
    scale = e_u + 8.0 * (1.0 + rho * float(np.max(cosh_u))) * reach ** 2
    return evaluate_J(u, psi, params) + 8.0 * g_norm ** 2 / c + 1e-12 * scale, scale


@PROPERTY
@given(delta=st.sampled_from([(0.5, 0.5), (0.0, 0.0)]), seed=SEEDS,
       rho=st.floats(0.2, 1.8), means=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       wiggles=st.sampled_from([(0.0, 0.0), (0.0, 0.3), (2.0, 0.0), (0.3, 2.0)]),
       amps=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)))
def test_fiber_energy_bound_dominates_the_fiber_solve(delta, seed, rho, means, wiggles, amps):
    # grid 16; delta = (0, 0) drops a Nyquist line and has harmonic modes;
    # both ends, one end or neither end at constant u, with |u| up to
    # about 7; each sample is fiber-solved from its blend, as ridge repair
    # does, and its bound is the closed form at the blend
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    assume(geom.spectral_gap(rho) > 1e-3)
    params = ActionParams(rho=rho)
    rng = np.random.default_rng(seed)
    a, b = (_segment_end(geom, params, rng, *end) for end in zip(means, wiggles, amps))
    bounds = fiber_energy_bounds(a, b, SEGMENT_WEIGHTS, params)
    assert bounds.shape == (len(SEGMENT_WEIGHTS),)
    for w, bound in zip(SEGMENT_WEIGHTS, bounds):
        u, psi = _blend(a, b, w)
        ends = (1.0 - w) * hhalf_norm(a.psi) + w * hhalf_norm(b.psi)
        ref, scale = _closed_form_bound(u, psi, params, ends)
        assert abs(bound - ref) <= 1e-12 * scale + 1e-300   # underflow floor
        minus = project(psi, "minus")
        pt = fiber_solve(u, psi - minus, params, x0=minus)
        assert evaluate_J(pt.u, pt.psi, params) <= bound
    # at the fiber maximum G = 0, so the bound is J up to the pad
    j = evaluate_J(pt.u, pt.psi, params)
    (tight,) = fiber_energy_bounds(pt, pt, (0.0,), params)
    assert j <= tight <= j + 1e-9 * (1.0 + abs(j) + hhalf_norm(pt.psi) ** 2)


def _dense_bounds(a, b, weights, params):
    """fiber_energy_bounds as first written, by dense sweeps of the stacked
    blends' eigen-coordinates and grid values (S, 2, n, n) at any u, with
    the pad's reach from the endpoints' norms; also returns the pad scales."""
    geom = a.u.geom
    rho = params.rho
    lam = geom.s_abs
    w = np.asarray(weights, dtype=float)[:, None, None]
    uv = (1.0 - w) * a.u.values + w * b.u.values
    grad_term, sinh_term = scalar_terms(geom, (1.0 - w) * a.u.coeffs + w * b.u.coeffs, uv, rho)
    e_u = grad_term + sinh_term
    cosh_u = np.cosh(uv)
    cosh_min, cosh_max = cosh_u.min(axis=(1, 2)), cosh_u.max(axis=(1, 2))
    ends = (1.0 - w.ravel()) * hhalf_norm(a.psi) + w.ravel() * hhalf_norm(b.psi)
    w = w[:, None]
    eig = (1.0 - w) * a.psi.eig + w * b.psi.eig
    dens = eig.real ** 2 + eig.imag ** 2
    vals = (1.0 - w) * a.psi.values + w * b.psi.values
    psi_dens = (vals.real ** 2 + vals.imag ** 2).sum(axis=1)
    potential = geom.quad_weight * np.sum(cosh_u * psi_dens, axis=(1, 2))
    h_minus = lam * eig[:, 1] + rho * spinor_eig(geom, cosh_u[:, None] * vals)[:, 1]
    weight = np.where(geom.spinor_mask & (lam > 0), 1.0 / (1.0 + lam), 0.0)
    g_sq = geom.vol * np.sum(weight * np.abs(h_minus) ** 2, axis=(1, 2))
    c = fiber_coercivity(geom, rho, cosh_min)
    j0 = e_u + 8.0 * (geom.vol * np.sum(lam * (dens[:, 0] - dens[:, 1]), axis=(1, 2))
                      - rho * potential)
    scale = e_u + 8.0 * (1.0 + rho * cosh_max) * (ends + np.sqrt(g_sq) / c) ** 2
    return j0 + 8.0 * g_sq / c + 1e-12 * scale, scale


@PROPERTY
@given(delta=st.sampled_from([(0.5, 0.5), (0.0, 0.0)]), seed=SEEDS,
       rho=st.floats(0.2, 1.8), means=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
       wiggles=st.sampled_from([(0.0, 0.0), (0.0, 0.3), (2.0, 0.0), (0.3, 2.0)]),
       amps=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)))
def test_fiber_energy_bounds_match_the_dense_formula(delta, seed, rho, means, wiggles, amps):
    # the endpoint pairings (and, at constant u, the Parseval potential and
    # ||g||^2) agree with the dense sweeps to 1e-13 of the summed
    # magnitudes of J's terms, a tenth of the pad
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    assume(geom.spectral_gap(rho) > 1e-3)
    params = ActionParams(rho=rho)
    rng = np.random.default_rng(seed)
    a, b = (_segment_end(geom, params, rng, *end) for end in zip(means, wiggles, amps))
    ref, scale = _dense_bounds(a, b, SEGMENT_WEIGHTS, params)
    bounds = fiber_energy_bounds(a, b, SEGMENT_WEIGHTS, params)
    assert np.all(np.abs(bounds - ref) <= 1e-13 * scale + 1e-300)


@pytest.mark.parametrize("grid_n", [16, 32])
def test_fiber_energy_bound_pads_a_near_cancelling_blend(grid_n):
    # u = 0, psi_b = -(1 + 1e-7) psi_a, w = 1/2, psi_a on its fiber (G = 0,
    # so the bound is J up to the pad): the blend is -5e-8 psi_a, and the
    # expansion rounds at the endpoints' scale, so the pad's reach uses the
    # endpoints' norms, not the blend's
    geom = TorusGeometry(grid_n=grid_n)
    params = ActionParams(rho=0.5)
    u = ScalarField.zeros(geom)
    psi = random_spinor(geom, np.random.default_rng(0), decay=1.0)
    psi = psi - project(psi, "minus")
    a = NehariPoint(u=u, psi=psi, constraint_norm=np.inf, params=params)
    b = NehariPoint(u=u, psi=-(1.0 + 1e-7) * psi, constraint_norm=np.inf, params=params)
    (bound,) = fiber_energy_bounds(a, b, (0.5,), params)
    _, blend = _blend(a, b, 0.5)
    minus = project(blend, "minus")
    pt = fiber_solve(u, blend - minus, params, x0=minus)
    assert evaluate_J(pt.u, pt.psi, params) <= bound


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_bounding_a_segment_costs_one_fft_of_its_stacked_samples(delta):
    # the non-constant endpoints hold their grid and Fourier views, as
    # minmax_deform's nodes do once their J is known, and the constant ones
    # are compact: only the a- row of cosh(u) psi needs a transform, one
    # fft2 for all samples, and none at constant u
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(3)
    for wiggle, ffts in ((0.3, {"fft": 1, "fft2": 1, "ifft2": 0}),
                         (0.0, {"fft": 0, "fft2": 0, "ifft2": 0})):
        a, b = (_segment_end(geom, params, rng, mean, wiggle, 2.0) for mean in (0.4, -1.1))
        for end in (a, b):
            evaluate_J(end.u, end.psi, params)
            if wiggle:
                assert end.u._values is not None and end.u._coeffs is not None
            else:
                assert end.u.compact
        with counting_ffts() as counts:
            fiber_energy_bounds(a, b, (0.25, 0.5, 0.75), params)
        assert counts == ffts


def test_fiber_energy_bounds_refuse_overflowing_blends():
    # the U_CAP guard covers every blended u, NaN included
    geom = TorusGeometry(grid_n=16)
    params = ActionParams(rho=0.5)
    psi = random_spinor(geom, np.random.default_rng(4))
    end = NehariPoint(u=ScalarField.constant(geom, 49.0), psi=psi, constraint_norm=0.0,
                      params=params)
    fiber_energy_bounds(end, end, (0.5,), params)
    far = NehariPoint(u=ScalarField.constant(geom, 60.0), psi=psi, constraint_norm=0.0,
                      params=params)
    with pytest.raises(OverflowGuardError):
        fiber_energy_bounds(end, far, (0.0, 0.5), params)
    nan = NehariPoint(u=ScalarField.constant(geom, np.nan), psi=psi, constraint_norm=0.0,
                      params=params)
    with pytest.raises(OverflowGuardError):
        fiber_energy_bounds(end, nan, (0.0, 0.5), params)


def test_project_to_manifold(setup16):
    geom, basis, params = setup16
    rng = np.random.default_rng(6)
    u = bounded_scalar(geom, rng)
    psi = random_spinor(geom, rng, decay=1.5)
    pt = project_to_manifold(u, psi, params)
    assert pt.constraint_norm <= 1e-10

    # idempotence: certified point maps to itself
    pt2 = project_to_manifold(pt.u, pt.psi, params)
    assert hhalf_norm(pt2.psi - pt.psi) <= 1e-10 * (1 + hhalf_norm(pt.psi))

    # u=0 decouples: negative part re-solved to zero
    mix = basis.eigenspinor(1) + omega_mult(basis.eigenspinor(1))
    pt0 = project_to_manifold(ScalarField.zeros(geom), mix, params)
    assert hhalf_norm(pt0.psi - basis.eigenspinor(1)) < 1e-12


def test_lagrange_multiplier(setup16):
    geom, basis, params = setup16
    zero_u = ScalarField.zeros(geom)

    pt = fiber_solve(zero_u, SpinorField.zeros(geom), params)
    md = multiplier_solve(pt, params)
    assert md.multiplier_norm == 0.0

    # naturality at the semi-trivial branch; rho exactly on the spectrum is
    # forbidden by the gap guard, so perturb just outside it
    lam_params = ActionParams(rho=LAM1 * (1 + 1e-6))
    pt = fiber_solve(zero_u, basis.eigenspinor(1), lam_params)
    md = multiplier_solve(pt, lam_params)
    ru, rpsi = el_residual_norms(geom, md.gradient)
    assert md.multiplier_norm <= 10.0 * (ru + rpsi)
    # the right-hand side is rounding of the E^+ gradient, below the CG's
    # floor: w is exactly 0 and the solve forms no dG^* w
    assert not md.w.any() and md.tangent is md.gradient

    # generic certified point: multiplier solve residual certified
    rng = np.random.default_rng(7)
    pt = fiber_solve(bounded_scalar(geom, rng), free_spinor(geom, rng), params)
    md = multiplier_solve(pt, params)
    assert md.solve_residual <= 1e-10
    # an E^- vector: its a- row is exactly zero off the minus modes
    assert np.array_equal(md.w * subspace_mask(geom, "minus", None)[1], md.w)


def test_constrained_gradient(setup16):
    geom, basis, params = setup16
    zero_u = ScalarField.zeros(geom)

    # at (0, t Psi_1) with rho < lam1: spinor direction along (lam1-rho) Psi_1
    t = 0.8
    pt = fiber_solve(zero_u, t * basis.eigenspinor(1), params)
    res = constrained_gradient(pt, params)
    assert res.norm > 0
    dir_u, dir_psi = unpack(geom, res.tangent)
    expected = (16.0 * t * (LAM1 - params.rho) / (1.0 + LAM1)) * basis.eigenspinor(1)
    assert hhalf_norm(dir_psi - expected) <= 1e-10 * (1 + hhalf_norm(expected))
    assert np.max(np.abs(dir_u.values)) < 1e-12

    # tangency on random certified points: ||dG[tangent]||_{H^{1/2}} ~ 0
    rng = np.random.default_rng(8)
    for _ in range(5):
        pt = fiber_solve(bounded_scalar(geom, rng), free_spinor(geom, rng), params)
        res = constrained_gradient(pt, params)
        tangency = hhalf_norm(field_dg_apply(pt, params, *unpack(geom, res.tangent)))
        assert tangency <= 1e-9 * (1.0 + res.norm)


def test_alpha_beta_at_solution_near_zero(setup16):
    geom, basis, params = setup16
    lam_params = ActionParams(rho=LAM1 * (1 + 1e-6))
    pt = fiber_solve(ScalarField.zeros(geom), basis.eigenspinor(1), lam_params)
    res = constrained_gradient(pt, lam_params)
    # residual scale set by the 1e-6 detuning of rho
    assert res.alpha_norm < 1e-5
    assert res.beta_norm < 1e-5


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_alpha_beta_match_the_multiplier_formula(delta):
    # oracle: the residuals of the multiplier system written out at a
    # non-constant u, alpha = dJ_u + 16 rho sinh(u) Re<psi, varphi> in H^-1
    # and beta = dJ_psi / 16 - (D - rho cosh u) varphi in H^-1/2
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rho = params.rho
    rng = np.random.default_rng(21)
    for _ in range(3):
        pt = fiber_solve(bounded_scalar(geom, rng), free_spinor(geom, rng), params)
        uv = pt.u.values
        assert np.ptp(uv) > 0.1
        res = constrained_gradient(pt, params)
        varphi = (1.0 / 16.0) * minus_spinor(geom, res.w)
        gu, gpsi = field_gradient(pt.u, pt.psi, params)
        cross = np.real(np.sum(np.conj(pt.psi.values) * varphi.values, axis=0))
        alpha = gu + ScalarField.from_values(geom, 16.0 * rho * np.sinh(uv) * cross)
        potential = SpinorField.from_values(geom, (rho * np.cosh(uv))[None] * varphi.values)
        beta = (1.0 / 16.0) * gpsi - (dirac_apply(varphi) - potential)
        assert res.alpha_norm == pytest.approx(hminus1_norm(alpha), rel=1e-12)
        assert res.beta_norm == pytest.approx(hminushalf_norm(beta), rel=1e-12)


def _max_rel(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """Max-norm distance of a from b, relative to the max norm of scale."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(scale)))


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_packed_directions_match_the_field_pair_route(delta):
    # the packed gradient, its norms and residuals, dG and dG^*, and the
    # constrained tangent with its norm, alpha and beta, against the same
    # formulas on field pairs (dual densities, then the Riesz maps), at a
    # certified point with non-constant u; the delta = 0 axes are masked,
    # and rho = 0.6 stays off the spectrum for every delta.  The gradient
    # and the norms are bitwise the field route's; dG and dG^* are read
    # off the Hessian product, whose sums run in another order, so they
    # and the tangent agree to rounding.  At a certified point dG[g] is
    # about 1e-3 of g, the difference of terms of g's size, so its rounding
    # is measured against g
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.6)
    rng = np.random.default_rng(23)
    pt = fiber_solve(bounded_scalar(geom, rng), free_spinor(geom, rng), params)
    assert np.ptp(pt.u.values) > 0.1

    g = gradient_J(pt.u, pt.psi, params)
    ru, rpsi = field_riesz_gradient(pt.u, pt.psi, params)
    assert np.array_equal(g, pack(ru, rpsi))
    h1_sq, hhalf_sq = sobolev_norms_sq(geom, g)
    assert (h1_sq, hhalf_sq) == (sobolev_inner(ru, ru), sobolev_inner(rpsi, rpsi))
    assert h1_sq > 0.0 and hhalf_sq > 0.0
    assert el_residual_norms(geom, g) == (0.5 * h1_norm(ru), hhalf_norm(rpsi) / 16.0)
    dg, dg_adjoint = sshg.nehari._constraint_derivative(linearize(pt.u, pt.psi, params))
    assert _max_rel(dg(g), field_dg_apply(pt, params, ru, rpsi).eig[1], g) <= 1e-15

    md = multiplier_solve(pt, params)
    assert np.array_equal(md.gradient, g)
    wu, wpsi = field_dg_adjoint(pt, params, minus_spinor(geom, md.w))
    want = pack(wu, wpsi)
    assert _max_rel(dg_adjoint(md.w), want, want) <= 1e-15
    want = pack(ru - wu, rpsi - wpsi)
    assert _max_rel(md.tangent, want, want) <= 1e-15
    t_u, t_psi = unpack(geom, md.tangent)
    assert md.norm == float(np.sqrt(sobolev_inner(t_u, t_u) + sobolev_inner(t_psi, t_psi)))
    assert (md.alpha_norm, md.beta_norm) == (h1_norm(t_u), hhalf_norm(t_psi) / 16.0)


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_dg_adjoint_is_the_adjoint_of_dg(delta):
    # <dG[x], w>_{H^1/2} = <x, dG^* w>_{H^1 x H^1/2} for a random packed x
    # and a random a- row w, at non-constant u: the two maps are read off
    # different rows and columns of the Hessian product
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.6)
    rng = np.random.default_rng(29)
    u = bounded_scalar(geom, rng)
    assert np.ptp(u.values) > 0.1
    dg, dg_adjoint = sshg.nehari._constraint_derivative(
        linearize(u, random_spinor(geom, rng, decay=1.5), params))
    mask = subspace_mask(geom, "minus", None)[1]
    for _ in range(3):
        v, phi = random_scalar(geom, rng), random_spinor(geom, rng, decay=1.5)
        w = random_spinor(geom, rng, decay=1.5).eig[1] * mask
        lhs = sobolev_inner(minus_spinor(geom, dg(pack(v, phi))), minus_spinor(geom, w))
        rhs = riesz_pair(dg_adjoint(w), v, phi)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=0.0)


def test_gram_apply_makes_four_ffts(setup16, monkeypatch):
    # the multiplier CG iterates on a- rows, and a Gram apply dG dG^* at
    # non-constant u is two Hessian products of two stacked fft2 calls each
    geom, _, params = setup16
    rng = np.random.default_rng(31)
    pt = fiber_solve(bounded_scalar(geom, rng), free_spinor(geom, rng), params)
    assert np.ptp(pt.u.values) > 0.1
    calls = []
    monkeypatch.setattr(sshg.nehari, "cg", _recording_cg(cg, calls))
    multiplier_solve(pt, params)
    (gram, b, *_), = calls
    assert isinstance(b, np.ndarray) and b.shape == (geom.grid_n, geom.grid_n)
    with counting_ffts() as counts:
        gram(b)
    assert counts == {"fft": 4, "fft2": 4, "ifft2": 0}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["u", "psi"])
def test_non_finite_input_fails_before_cg(setup16, monkeypatch, where, bad):
    # one corrupted grid point of u or psi is refused by the overflow guard
    # before any Krylov work (a NaN compares false against the cap)
    import sshg.nehari
    geom, _, params = setup16
    calls = []
    cg = sshg.nehari.cg
    monkeypatch.setattr(sshg.nehari, "cg", lambda *a, **k: calls.append(1) or cg(*a, **k))
    uv = np.full((geom.grid_n, geom.grid_n), 0.3)
    free = free_spinor(geom, np.random.default_rng(7))
    if where == "u":
        uv[3, 5] = bad
    else:
        vals = free.values.copy()
        vals[0, 3, 5] = bad
        with np.errstate(invalid="ignore"):
            free = SpinorField.from_values(geom, vals)
    with pytest.raises(OverflowGuardError), np.errstate(invalid="ignore"):
        fiber_solve(ScalarField.from_values(geom, uv), free, params)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", ["constrained_gradient", "newton_refine"])
def test_non_finite_psi_fails_before_any_krylov_iteration(setup16, monkeypatch, solve, bad):
    # one corrupted grid point of psi reaches the Krylov right-hand side,
    # which is refused before the operator is applied once
    import sshg.minmax
    import sshg.nehari
    geom, basis, params = setup16
    applies = []

    def counting(solver):
        def wrapper(apply_op, *args, **kwargs):
            return solver(lambda v, *out: applies.append(1) or apply_op(v, *out), *args, **kwargs)
        return wrapper

    monkeypatch.setattr(sshg.nehari, "cg", counting(sshg.nehari.cg))
    monkeypatch.setattr(sshg.minmax, "minres", counting(sshg.minmax.minres))
    pt = fiber_solve(ScalarField.constant(geom, 0.3), basis.eigenspinor(1), params)
    vals = pt.psi.values.copy()
    vals[1, 4, 9] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        bad_pt = NehariPoint(u=pt.u, psi=SpinorField.from_values(geom, vals),
                             constraint_norm=pt.constraint_norm, params=params)
        with pytest.raises(SSHGError):
            if solve == "constrained_gradient":
                constrained_gradient(bad_pt, params)
            else:
                sshg.minmax.newton_refine(bad_pt, params, check_pre=False)
    assert applies == []
