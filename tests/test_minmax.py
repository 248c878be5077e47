"""Min-max engine: endpoints, linking constants, block filter, descent, Newton."""

import dataclasses
import gc
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import sshg.minmax
from sshg.action import (
    ActionParams,
    el_residual_norms,
    evaluate_J,
    gradient_J,
    hess_vec,
    linearize,
)
from sshg.errors import CertificationError, ConfigError
from sshg.fields import ScalarField, SpinorField, frame_transfer, pack, unpack
from sshg.geometry import TorusGeometry
from sshg.minmax import (
    MinmaxConfig,
    block_filter,
    classify,
    coercivity_probe,
    linking_constants,
    make_record,
    minmax_deform,
    newton_refine,
    u_variance,
)
from sshg.nehari import constrained_gradient, fiber_solve, multiplier_solve
from sshg.spectral import build_basis, h1_norm, hhalf_norm, packed_sobolev_weight, project
from sshg.sweepout import equivariant_disk_mesh

from oracles import field_gradient, grid_x1, grid_x2, hminus1_norm, hminushalf_norm

from test_spectral import random_scalar, random_spinor

LAM1 = np.sqrt(2.0) / 2.0
LAM2 = np.sqrt(10.0) / 2.0


@pytest.fixture(scope="module")
def setup16():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.5)
    return geom, basis


def straight_path(geom, basis, params, u_bar, s, n_nodes):
    nodes = []
    psi1 = basis.eigenspinor(1)
    for t in np.linspace(0.0, 1.0, n_nodes):
        u = ScalarField.constant(geom, t * u_bar)
        nodes.append(fiber_solve(u, (t * s) * psi1, params))
    frozen = [True] + [False] * (n_nodes - 2) + [True]
    return nodes, frozen


def _traces(diags):
    """The eight PS traces of diags, the repair flags included."""
    return [getattr(diags, f.name) for f in dataclasses.fields(diags) if f.name != "exit"]


def _one_entry_per_record(diags) -> bool:
    """record() appends one entry to every trace, so each trace has as many
    entries as `energies`."""
    return all(len(t) == len(diags.energies) for t in _traces(diags))


def test_mountain_pass_endpoint(setup16):
    # rho < lam1 without harmonic spinors: the block is empty, and the
    # endpoint constants are the two displayed formulas, bit for bit
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    assert consts.block_dim == 0 and consts.k_index == 0 and consts.harmonic_dim == 0
    assert consts.lam_k1 == basis.eigenvalue(1)
    consts.certify(params, geom.vol)  # steps (i)-(ii)
    lam1 = basis.eigenvalue(1)
    u_bar = float(np.arccosh((lam1 + 1.0) / 0.5) + 0.5)
    s0 = np.sqrt(4 * 0.5**2 * np.sinh(u_bar) ** 2 * geom.vol
                 / (8 * (0.5 * np.cosh(u_bar) - lam1)))
    assert consts.T == u_bar
    assert consts.s == float(1.5 * s0)
    assert u_bar == pytest.approx(np.arccosh((LAM1 + 1.0) / 0.5) + 0.5, rel=1e-12)
    # certified endpoint energy after the fiber solve is negative
    pt = fiber_solve(ScalarField.constant(geom, consts.T),
                     consts.s * basis.eigenspinor(1), params)
    j_end = evaluate_J(pt.u, pt.psi, params)
    assert j_end < 0
    # monotone in s beyond the threshold
    pt2 = fiber_solve(ScalarField.constant(geom, consts.T),
                      (1.1 * consts.s) * basis.eigenspinor(1), params)
    assert evaluate_J(pt2.u, pt2.psi, params) < j_end


def test_linking_constants(setup16):
    geom, basis = setup16
    params = ActionParams(rho=1.0)
    consts = linking_constants(params, basis)
    assert consts.k_index == 8 and consts.block_dim == 8
    assert consts.lam_k1 == pytest.approx(LAM2, rel=1e-12)
    # oracle: step (i) threshold with the corrected orientation
    assert consts.T > np.arccosh((LAM2 + 1.0) / 1.0)
    consts.certify(params, geom.vol)  # steps (i)-(ii)
    # the endpoint amplitude s = A T carries the 1.5 factor over step (ii)
    s0 = np.sqrt(4 * geom.vol * np.sinh(consts.T) ** 2
                 / (8 * (np.cosh(consts.T) - LAM2)))
    assert consts.s == pytest.approx(1.5 * s0, rel=1e-12)


def test_linking_certify_rejects_bad_constants(setup16):
    geom, basis = setup16
    for rho in (1.0, 0.5):  # both regimes
        params = ActionParams(rho=rho)
        good = linking_constants(params, basis)
        # step (i): T too small
        with pytest.raises(CertificationError, match="step \\(i\\)"):
            dataclasses.replace(good, T=0.5).certify(params, geom.vol)
        # step (ii): s below its threshold
        with pytest.raises(CertificationError, match="step \\(ii\\)"):
            dataclasses.replace(good, s=good.s / 1.6).certify(params, geom.vol)


def test_block_filter_removes_the_negative_block():
    # delta = (0, 0) at rho = 1.2: harmonic spinors and the eigenvalues below
    # rho form the block; the filter keeps the rest of the packed direction,
    # the u row bit for bit, and leaves its input as it was
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis = build_basis(geom, cutoff=2.5)
    consts = linking_constants(ActionParams(rho=1.2), basis)
    assert consts.harmonic_dim > 0 and consts.k_index > 0
    top = basis.eigenspinor(consts.k_index + 1)
    block = basis.harmonic_spinor(0) + 0.5 * basis.eigenspinor(consts.k_index)
    t = pack(ScalarField.from_values(geom, np.cos(grid_x1(geom))), block + top)
    before = t.copy()
    out = block_filter(geom, 1.2)(t)
    assert np.array_equal(t, before)
    assert np.array_equal(out[0], t[0])
    out_psi = unpack(geom, out)[1]
    assert hhalf_norm(out_psi - top) < 1e-13
    assert hhalf_norm(project(out_psi, "plus_b", 1.2)) < 1e-13
    assert hhalf_norm(project(out_psi, "zero")) < 1e-13


def test_classify_and_records(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    assert classify(ScalarField.zeros(geom), SpinorField.zeros(geom))[0] == "trivial"
    assert classify(ScalarField.constant(geom, 0.9), basis.eigenspinor(1))[0] == \
        "semi_trivial_constant_u"
    wobble = ScalarField.from_values(geom, 0.3 * np.cos(grid_x1(geom)))
    assert classify(wobble, basis.eigenspinor(1))[0] == "nontrivial"
    # psi = 0 forces u = 0 at a solution, whatever u the point carries
    assert classify(wobble, SpinorField.zeros(geom))[0] == "trivial"
    assert u_variance(ScalarField.constant(geom, 3.0)) < 1e-25


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_record_residuals_are_the_dual_norms_of_the_scaled_first_variation(delta):
    # oracle: the H^-1 and H^-1/2 dual norms of the first variation scaled
    # by (-1/2, 1/16), with the inverse Sobolev weights written out, against
    # the residuals a record reads off its multiplier solve's Riesz gradient
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = random_scalar(geom, rng)
        psi = random_spinor(geom, rng, decay=1.5)
        pt = fiber_solve((1.0 / h1_norm(u)) * u, psi - project(psi, "minus"), params)
        assert np.ptp(pt.u.values) > 0.1
        rec = make_record(pt, multiplier_solve(pt, params), converged=False, refined=False)
        gu, gpsi = field_gradient(pt.u, pt.psi, params)
        assert rec.res_u == pytest.approx(hminus1_norm(-0.5 * gu), rel=1e-13, abs=0.0)
        assert rec.res_psi == pytest.approx(hminushalf_norm((1.0 / 16.0) * gpsi),
                                            rel=1e-13, abs=0.0)
        # Newton's stop test reads the same pair off the gradient it holds
        g = gradient_J(pt.u, pt.psi, params)
        assert el_residual_norms(geom, g) == (rec.res_u, rec.res_psi)


def test_newton_refine_semi_trivial_seed(setup16):
    # seeded at the exact semi-trivial branch: u = arccosh(lam1/rho) const,
    # |psi|^2 = lam1 with psi a single lam1 eigenmode
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    seed_pt = fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params)
    ru, rp = el_residual_norms(geom, gradient_J(seed_pt.u, seed_pt.psi, params))
    assert ru + rp < 1e-10  # exact solution up to roundoff

    rec = newton_refine(seed_pt, params)
    assert rec.refined
    assert rec.res_u + rec.res_psi <= 1e-10
    # no descent ran, so the record carries no descent fields
    assert rec.descent_level is None and rec.handoff_grad is None and rec.exit is None
    assert rec.classification == "semi_trivial_constant_u"
    assert rec.level == pytest.approx(4 * 0.25 * np.sinh(c) ** 2 * geom.vol, rel=1e-10)
    assert rec.multiplier_norm <= 10 * 1e-10


def test_newton_refine_from_perturbed_seed(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    wobble = ScalarField.from_values(geom, 1e-5 * np.cos(grid_x1(geom)))
    u = ScalarField.constant(geom, c) + wobble
    pt = fiber_solve(u, (s * 1.00001) * basis.eigenspinor(1), params)
    rec = newton_refine(pt, params)
    assert rec.refined
    assert rec.res_u + rec.res_psi <= 1e-10


def test_inexact_newton_from_a_perturbed_semi_trivial_start(monkeypatch):
    # the start shape of the newton-n128 benchmark workload at grid 32:
    # u = arccosh(lam1/rho) plus a smooth perturbation of max size 0.05,
    # psi = L sqrt(lam1) Psi_1
    geom = TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=3.0)
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    modes = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    coef = np.random.default_rng(0).standard_normal((len(modes), 2))
    x1, x2 = grid_x1(geom), grid_x2(geom)
    pert = sum(cc * np.cos(a * x1 + b * x2) + cs * np.sin(a * x1 + b * x2)
               for (a, b), (cc, cs) in zip(modes, coef))
    u = ScalarField.from_values(geom, c + 0.05 * pert / np.max(np.abs(pert)))
    psi = (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1)

    solves = []
    orig = sshg.minmax.minres

    def recording_minres(*args, tol, **kwargs):
        out = orig(*args, tol=tol, **kwargs)
        solves.append((tol, out[1].iterations))
        return out

    monkeypatch.setattr(sshg.minmax, "minres", recording_minres)
    rec = newton_refine(fiber_solve(u, psi, params), params, check_pre=False)

    assert rec.refined and rec.newton_steps == 4 == len(solves)
    assert rec.level == pytest.approx(4 * 0.25 * np.sinh(c) ** 2 * geom.vol, rel=1e-12)
    assert rec.res_u + rec.res_psi <= 1e-12
    # a MINRES solve to 1e-12 each step spent 517 iterations here, the
    # sized solves in the plain product metric 137, and in the |H0| metric
    # (`minmax._NewtonMetric`'s per-mode weights alone) 75; every step runs
    # in the block metric
    assert rec.newton_block_steps == 4
    assert rec.minres_iters == sum(it for _, it in solves) <= 38
    assert rec.minres_capped == 0  # every sized solve met its tolerance
    tols = [tol for tol, _ in solves]
    assert all(1e-12 <= tol <= sshg.minmax.NEWTON_FORCING for tol in tols)
    assert tols[-1] > 1e-12


def _random_packed(geom, rng):
    return pack(random_scalar(geom, rng), random_spinor(geom, rng))


def test_newton_minres_runs_in_the_abs_hessian_metric(setup16, monkeypatch):
    # a non-constant start, so the Hessian's u-psi coupling is live
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    u = ScalarField.constant(geom, c) + ScalarField.from_values(
        geom, 0.05 * np.cos(grid_x1(geom)) + 0.03 * np.sin(grid_x1(geom) + 2 * grid_x2(geom)))
    pt = fiber_solve(u, (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1), params)

    rng = np.random.default_rng(7)
    iters, hess_calls, pairs = [], [], []
    orig_minres, orig_hess = sshg.minmax.minres, sshg.minmax.hess_vec

    def checking_minres(apply_op, b, inner, **kwargs):
        # <M a, b>_W = <a, M b>_W on random packed pairs, at the iterate of
        # this step
        assert b.shape == (3, geom.grid_n, geom.grid_n)
        for _ in range(3):
            x, y = _random_packed(geom, rng), _random_packed(geom, rng)
            hx, hy = apply_op(x, np.empty_like(x)), apply_op(y, np.empty_like(y))
            pairs.append((inner(hx, y), inner(x, hy), inner(x, x)))
        calls = len(hess_calls)
        out = orig_minres(apply_op, b, inner, **kwargs)
        iters.append((out[1].iterations, len(hess_calls) - calls))
        return out

    def counting_hess(*args):
        hess_calls.append(1)
        return orig_hess(*args)

    monkeypatch.setattr(sshg.minmax, "minres", checking_minres)
    monkeypatch.setattr(sshg.minmax, "hess_vec", counting_hess)
    rec = newton_refine(pt, params, check_pre=False)
    assert rec.refined and iters
    # one Hessian product per MINRES iteration, the tracer's contract
    assert all(it == calls for it, calls in iters)
    assert rec.minres_iters == sum(it for it, _ in iters)
    for lhs, rhs, norm_sq in pairs:
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert norm_sq > 0.0


def test_newton_minres_allocates_no_array_per_iteration(monkeypatch):
    # MINRES's working set and the Hessian's work arrays are allocated once
    # per solve, so after the first iteration, which may fill caches, no
    # iteration's traced peak exceeds the memory it started with by one
    # packed array; numpy's arrays are traced, and a transform returning a
    # fresh (4, n, n) output alone exceeds it
    geom = TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    u = ScalarField.constant(geom, c) + ScalarField.from_values(
        geom, 0.05 * np.cos(grid_x1(geom)) + 0.03 * np.sin(grid_x1(geom) + 2 * grid_x2(geom)))
    pt = fiber_solve(u, (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1), params)
    packed_bytes = 3 * geom.grid_n ** 2 * 16
    starts, peaks = [], []
    orig = sshg.minmax.minres

    def tracing_minres(apply_op, b, inner, **kwargs):
        if starts:  # only the first solve is traced
            return orig(apply_op, b, inner, **kwargs)

        def traced_op(*args):
            # an iteration runs from one operator call to the next
            cur, peak = tracemalloc.get_traced_memory()
            if starts:
                peaks.append(peak)
            starts.append(cur)
            tracemalloc.reset_peak()
            return apply_op(*args)

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            out = orig(traced_op, b, inner, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            if not tracing:
                tracemalloc.stop()
        return out

    monkeypatch.setattr(sshg.minmax, "minres", tracing_minres)
    newton_refine(pt, params, check_pre=False)
    assert len(peaks) == len(starts) >= 5
    growth = [peak - start for start, peak in zip(starts, peaks)][1:]
    assert max(growth) < packed_bytes, (growth, packed_bytes)


def test_abs_metric_is_positive_and_even(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(3)
    u = ScalarField.constant(geom, 1.0) + 0.1 * random_scalar(geom, rng)
    psi = (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1)
    lin = linearize(u, psi, params)
    for shift in (0.0, 1e-12, 1e-2):
        inv_w = sshg.minmax._NewtonMetric(u, psi, lin, params, shift).inv_w
        w = 1.0 / inv_w
        assert w.shape == (3, geom.grid_n, geom.grid_n)
        assert np.all(np.isfinite(w))
        assert w.min() >= sshg.minmax.NEWTON_METRIC_FLOOR > 0.0
        # W_u(-xi) = W_u(xi) on the FFT grid, so a real u stays real
        assert np.array_equal(w[0], np.roll(np.flip(w[0], axis=(0, 1)), 1, axis=(0, 1)))
    scaled = inv_w[0] * _random_packed(geom, rng)[0]
    assert np.max(np.abs(np.fft.ifft2(scaled).imag)) <= 1e-15 * np.max(np.abs(scaled))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0)])
def test_semi_trivial_blocks_are_the_hessian_there(n, delta):
    # at a semi-trivial point, with psi on a mode k1 off the axes, the
    # blocks of every u-mode pair apply R H + shift as hess_vec does; they
    # meet the masked modes (delta with a 0) and the four self-paired k
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(5)
    mode = (1, n - 2)
    eig = np.zeros((2, n, n), dtype=complex)
    eig[:, mode[0], mode[1]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u, psi = ScalarField.constant(geom, 0.7), SpinorField.one_mode(geom, eig)
    lin = linearize(u, psi, params)
    semi = sshg.minmax._semi_trivial(u, psi, lin, params)
    # the eps of a semi-trivial point is of rounding size
    assert semi.mode == mode and semi.eps < 1e-12
    targets, half = sshg.minmax._block_index(geom, mode, *np.divmod(np.arange(n * n), n))
    # every packed entry lies in one block; a self-paired block holds its
    # spinor mode twice
    assert np.array_equal(np.unique(targets), np.arange(3 * n * n))
    assert np.count_nonzero(half == 0.5) == 4
    assert (~geom.spinor_mask.ravel()[targets[:, 1:5] % (n * n)]).any() == (0.0 in delta)
    shift = 1e-2
    transfer = frame_transfer(geom, mode, semi.alpha)
    mu, s = sshg.minmax._semi_trivial_blocks(geom, params.rho, semi, transfer, shift, targets)
    assert np.array_equal(s, np.conj(np.swapaxes(s, 1, 2)))
    for _ in range(3):
        x = _random_packed(geom, rng)
        want = hess_vec(lin, x, np.empty_like(x)) / packed_sobolev_weight(geom) + shift * x
        flat = x.reshape(-1)
        z = flat[targets[:, :5]]
        z[:, 0] = 0.5 * (z[:, 0] + np.conj(flat[targets[:, 5]]))
        z[:, 3:] = np.conj(z[:, 3:])
        r = np.einsum("bij,bj->bi", s, np.sqrt(mu) * z) / np.sqrt(mu)
        vals = np.stack((r[:, 0], r[:, 1], r[:, 2], np.conj(r[:, 3]), np.conj(r[:, 4]),
                         np.conj(r[:, 0])), axis=1)
        got = np.zeros_like(x)
        np.add.at(got.reshape(-1), targets, half[:, None] * vals)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_block_metric_is_self_adjoint_positive_and_even(setup16):
    # the point of test_abs_metric_is_positive_and_even, with W built on the
    # blocks that couple there
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(3)
    u = ScalarField.constant(geom, 1.0) + 0.1 * random_scalar(geom, rng)
    psi = (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1)
    lin = linearize(u, psi, params)
    semi = sshg.minmax._semi_trivial(u, psi, lin, params)
    transfer = frame_transfer(geom, semi.mode, semi.alpha)
    weight = geom.vol * packed_sobolev_weight(geom)
    for shift in (0.0, 1e-12, 1e-2):
        metric = sshg.minmax._NewtonMetric(u, psi, lin, params, shift)
        assert metric.blocks
        inner = metric.inner
        ki, kj = sshg.minmax._coupled_modes(geom, params.rho, semi, transfer, metric.inv_w)
        targets, half = sshg.minmax._block_index(geom, semi.mode, ki, kj)
        assert np.array_equal(metric.targets, targets)
        mu, s = sshg.minmax._semi_trivial_blocks(geom, params.rho, semi, transfer, shift, targets)

        # W >= the floor on each block's eigenvector of least |eigenvalue|
        lam, vec = np.linalg.eigh(s)
        for k in np.flatnonzero(half == 1.0):
            z = vec[k, :, np.argmin(np.abs(lam[k]))] / np.sqrt(mu[k])
            a = np.zeros((3, geom.grid_n, geom.grid_n), dtype=complex)
            a.reshape(-1)[targets[k]] = np.concatenate((z[:3], np.conj(z[3:]), np.conj(z[:1])))
            floor_norm = sshg.minmax.NEWTON_METRIC_FLOOR * np.vdot(a, weight * a).real
            assert inner(a, a) >= floor_norm * (1.0 - 1e-12)
        for _ in range(3):
            a, b = _random_packed(geom, rng), _random_packed(geom, rng)
            assert inner(a, b) == pytest.approx(inner(b, a), rel=1e-12)
            # W >= the floor, and the solve applies W^{-1}
            assert inner(a, a) >= sshg.minmax.NEWTON_METRIC_FLOOR * np.vdot(a, weight * a).real
            w_inv_a = metric.solve(a.copy())
            assert inner(w_inv_a, b) == pytest.approx(np.vdot(a, weight * b).real, rel=1e-12)
            # a real u stays real
            scaled = w_inv_a[0]
            assert np.max(np.abs(np.fft.ifft2(scaled).imag)) <= 1e-15 * np.max(np.abs(scaled))


def test_newton_direction_beyond_eps_one_is_the_abs_metric_one(setup16):
    # a start too far from semi-trivial for the block metric: its MINRES
    # solve is the |H0| metric's, bit for bit
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    u = ScalarField.constant(geom, c) + ScalarField.from_values(geom, 0.3 * np.cos(grid_x1(geom)))
    pt = fiber_solve(u, (geom.side_length * np.sqrt(LAM1)) * basis.eigenspinor(1), params)
    g = gradient_J(pt.u, pt.psi, params)
    shift, tol = 1e-2, 1e-3
    lin = linearize(pt.u, pt.psi, params)
    assert sshg.minmax._semi_trivial(pt.u, pt.psi, lin, params).eps >= 1.0
    d, info, block = sshg.minmax._newton_direction(pt.u, pt.psi, g, params, shift, tol)
    assert not block

    # the |H0| metric: W = max(|R H0| + shift, floor) per mode, H0 the
    # Hessian with u and |psi|^2 replaced by their grid means and the u-psi
    # coupling dropped, in the H^1 x H^{1/2} inner product
    a_u = np.mean(lin.uu - lin.uu_dens * lin.dens)
    rho_c = params.rho * np.mean(np.cosh(pt.u.values))
    lam = geom.s_abs
    w = np.stack((np.abs(2.0 * geom.xi_sq + a_u) / (1.0 + geom.xi_sq),
                  16.0 * np.abs(lam - rho_c) / (1.0 + lam),
                  16.0 * np.abs(-lam - rho_c) / (1.0 + lam))) + shift
    w = np.maximum(w, sshg.minmax.NEWTON_METRIC_FLOOR)
    inv_w, m = 1.0 / w, geom.vol * packed_sobolev_weight(geom) * w
    riesz_w = packed_sobolev_weight(geom)

    def inner(a, b):
        mb = lin.spec
        return float(np.vdot(a[0], np.multiply(m[0], b[0], out=mb[0])).real
                     + np.vdot(a[1:], np.multiply(m[1:], b[1:], out=mb[1:])).real)

    def hess_op(x, out):
        h = hess_vec(lin, x, out)
        sx = np.multiply(x, shift, out=lin.spec)
        for rows in (slice(0, 1), slice(1, 3)):
            h[rows] /= riesz_w[rows]
            h[rows] += sx[rows]
            h[rows] *= inv_w[rows]
        return h

    d_abs, info_abs = sshg.minmax.minres(hess_op, (-1.0 * g) * inv_w, inner, tol=tol, maxiter=250)
    assert info.iterations > 2 and info == info_abs
    assert np.array_equal(d, d_abs)


def test_newton_pre_violation(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    pt = fiber_solve(ScalarField.constant(geom, 1.5), 3.0 * basis.eigenspinor(1), params)
    res = constrained_gradient(pt, params)
    assert res.norm > 1e-3
    with pytest.raises(ConfigError):
        newton_refine(pt, params)


def test_coercivity_probe_mountain_pass_regime(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    margin = coercivity_probe(params, basis, r0=0.05, tau=50.0, n_samples=25, seed=2)
    assert margin > 0


def test_coercivity_probe_linking_regime(setup16):
    geom, basis = setup16
    params = ActionParams(rho=1.0)
    margin = coercivity_probe(params, basis, r0=0.02, tau=50.0, n_samples=25, seed=3)
    assert margin > 0
    # pure plus_b directions inside the cone give negative energy
    pt = fiber_solve(ScalarField.zeros(geom), 0.02 * basis.eigenspinor(1), params)
    assert evaluate_J(pt.u, pt.psi, params) < 0


def test_minmax_deform_small_mountain_pass(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    u_bar, s = consts.T, consts.s
    config = MinmaxConfig(path_nodes=9, grad_tol=5e-4, max_outer=60, seed=0)
    nodes, frozen = straight_path(geom, basis, params, u_bar, s, config.path_nodes)
    record, diags = minmax_deform(nodes, frozen, config, params)
    assert _one_entry_per_record(diags)
    assert diags.bounded()
    # descent never raises the certified max; upward blips only at repairs
    for i in range(len(diags.energies) - 1):
        ok = diags.energies[i + 1] <= diags.energies[i] + 1e-9 * (1 + abs(diags.energies[i]))
        assert ok or diags.repairs[i + 1]
    # the repaired level hovers at the ridge, never tunnels toward the origin
    assert record.level > 1.0
    assert record.psi_hhalf > 1e-3

    # Newton handoff lands on the semi-trivial branch at the closed-form level
    refined = newton_refine(record.point, params, check_pre=False)
    assert refined.refined
    assert refined.res_u + refined.res_psi <= 1e-10
    assert refined.classification == "semi_trivial_constant_u"
    c = np.arccosh(LAM1 / 0.5)
    assert refined.level == pytest.approx(4 * 0.25 * np.sinh(c) ** 2 * geom.vol, rel=1e-9)


def test_minmax_deform_hands_off_at_its_exit(setup16):
    # a descent that ends on budget hands its max node to Newton itself:
    # the record is refined, the descent is not converged, and the PS trace
    # has one entry per outer iteration plus the refined point
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    u_bar, s = consts.T, consts.s
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=5, seed=0)
    nodes, frozen = straight_path(geom, basis, params, u_bar, s, config.path_nodes)
    record, diags = minmax_deform(nodes, frozen, config, params)
    assert record.refined and not record.converged
    assert diags.exit == "budget"
    assert len(diags.energies) == 6 and _one_entry_per_record(diags)
    assert diags.energies[-1] == record.level
    # the exit's own fields: the max level after the last step, which the
    # descent never raised, and the gradient at the node handed to Newton
    assert record.exit == "budget"
    assert record.descent_level <= diags.energies[-2]
    assert 0.0 < record.handoff_grad <= 1e3
    # the hand-off's trace entry is the record's own multiplier solve
    md = record.multiplier
    assert (diags.alpha_norms[-1], diags.beta_norms[-1], diags.multiplier_norms[-1],
            diags.grad_norms[-1]) == (md.alpha_norm, md.beta_norm, md.multiplier_norm, md.norm)


def test_minmax_deform_exits_on_grad_tol(setup16):
    # a tolerance above every gradient ends the descent at outer iteration
    # 0; the exit's Newton adds the hand-off entry, and its record is
    # converged
    nodes, frozen, config, params = _small_mountain_pass(setup16)
    record, diags = minmax_deform(nodes, frozen, dataclasses.replace(config, grad_tol=1e6),
                                  params)
    assert diags.exit == record.exit == "grad_tol"
    assert len(diags.energies) == 2 and _one_entry_per_record(diags)
    assert record.refined and record.converged


def test_minmax_deform_exits_on_stall(setup16):
    # a filter that reverses the tangent makes every line search climb, so
    # each iteration exhausts its backtracks; the third stall ends the
    # descent, and the exit's Newton adds the hand-off entry
    nodes, frozen, config, params = _small_mountain_pass(setup16)
    record, diags = minmax_deform(nodes, frozen, config, params,
                                  tangent_filter=lambda t: -1.0 * t)
    assert diags.exit == record.exit == "stall"
    assert len(diags.energies) == 4 and _one_entry_per_record(diags)
    assert record.refined and not record.converged


def test_ps_trace_lengths_count_the_repair_flags():
    # one record() call writes one entry in every trace, the repair flag
    # included
    diags = sshg.minmax.PSDiagnostics()
    res = SimpleNamespace(alpha_norm=1.0, beta_norm=2.0, multiplier_norm=3.0, norm=4.0)
    diags.record(res, 5.0, 6.0, 7.0, False)
    assert [len(t) for t in _traces(diags)] == [1] * 8
    assert diags.repairs == [False]


def test_minmax_deform_refuses_a_mesh_without_a_frozen_node(setup16):
    # a min-max needs a fixed boundary: an all-free path is refused before
    # any step
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=1, seed=0)
    nodes, _ = straight_path(geom, basis, params, consts.T, consts.s, config.path_nodes)
    with pytest.raises(ConfigError, match="frozen"):
        minmax_deform(nodes, [False] * len(nodes), config, params)


def test_minmax_deform_exit_tries_newton_at_any_gradient(setup16, monkeypatch):
    # the exit hands the max free node to Newton whatever its constrained
    # gradient: with no iteration and a gradient norm of 2e3, Newton runs once
    nodes, frozen, config, params = _small_mountain_pass(setup16)
    solve, trial = sshg.minmax.constrained_gradient, sshg.minmax._newton_trial
    monkeypatch.setattr(sshg.minmax, "constrained_gradient",
                        lambda point, params: dataclasses.replace(solve(point, params),
                                                                  norm=2e3))
    calls = []

    def counted_trial(point, params):
        calls.append(point)
        return trial(point, params)

    monkeypatch.setattr(sshg.minmax, "_newton_trial", counted_trial)
    record, diags = minmax_deform(nodes, frozen, dataclasses.replace(config, max_outer=0),
                                  params)
    assert len(calls) == 1
    assert record.handoff_grad == 2e3
    assert diags.exit == record.exit == "budget"


def test_semi_trivial_eigenvalue_relation(setup16):
    # constant-u records must satisfy rho cosh(ubar) in the computed spectrum
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    rec = newton_refine(
        fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params),
        params)
    assert rec.u_variance <= 1e-8
    ubar = float(np.mean(rec.point.u.values))
    lam_eff = params.rho * np.cosh(ubar)
    dist = np.min(np.abs(basis.eigenvalues - lam_eff))
    assert dist <= 1e-6


def _small_mountain_pass(setup16):
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    u_bar, s = consts.T, consts.s
    config = MinmaxConfig(path_nodes=5, grad_tol=1e-12, max_outer=5, seed=0)
    nodes, frozen = straight_path(geom, basis, params, u_bar, s, config.path_nodes)
    return nodes, frozen, config, params


def _one_shell_disk(setup16):
    """A one-shell disk from `equivariant_disk_mesh`: the center
    (0, s Psi_1) and two spoke representatives of two radial nodes each,
    with u = r T (1 + 0.3 cos(y + it pi/2)) and psi = s Psi_1 at radius r;
    the rim nodes are frozen at negative energy."""
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    psi = consts.s * basis.eigenspinor(1)

    def node(shell, it, ir):
        profile = 1.0 + 0.3 * np.cos(grid_x2(geom) + it * np.pi / 2)
        return fiber_solve(ScalarField.from_values(geom, (ir / 2) * consts.T * profile),
                           psi, params)

    nodes, frozen, centers, segments = equivariant_disk_mesh([False], 4, 2, node)
    config = MinmaxConfig(path_nodes=5, grad_tol=1e-12, max_outer=3, seed=0)
    return nodes, frozen, config, params, {"segments": segments, "centers": centers}


@pytest.mark.parametrize("mesh", ["chain", "disk"])
def test_minmax_deform_frozen_node_moved(setup16, mesh):
    # the invariant is a certificate, not an assert: python -O keeps it
    if mesh == "chain":
        nodes, frozen, config, params = _small_mountain_pass(setup16)
        kwargs = {}
    else:
        nodes, frozen, config, params, kwargs = _one_shell_disk(setup16)
    k_frozen = frozen.index(True)

    def hook(k, pt, nodes_, energies_, params_):
        nodes_[k_frozen] = dataclasses.replace(nodes_[k_frozen])  # equal values, another node

    with pytest.raises(CertificationError, match="boundary node was moved"):
        minmax_deform(nodes, frozen, config, params, step_hook=hook, **kwargs)


def test_minmax_deform_pins_disk_centers(setup16, monkeypatch):
    # every assignment that hits a disk's sigma-fixed center leaves it at
    # exactly u = 0 with its own J; step_hook sees the stored raw point
    # first: the retraction of a descent step, or the promoted ridge sample
    nodes, frozen, config, params, kwargs = _one_shell_disk(setup16)
    (center,) = kwargs["centers"]
    retractions, samples = [], []

    def recording(orig, made):
        def wrapper(*args):
            made.append(orig(*args))
            return made[-1]
        return wrapper

    monkeypatch.setattr(sshg.minmax, "project_to_manifold",
                        recording(sshg.minmax.project_to_manifold, retractions))
    monkeypatch.setattr(sshg.minmax, "_interp_points",
                        recording(sshg.minmax._interp_points, samples))

    def pinned(nodes_):
        pt = nodes_[center]
        return (not np.any(pt.u.values) and not np.any(pt.u.coeffs)
                and pt.J == evaluate_J(pt.u, pt.psi, params))

    hits = []

    def hook(k, pt, nodes_, energies_, params_):
        descent = bool(retractions) and pt is retractions[-1]
        assert descent or any(pt is sample for sample in samples)
        assert nodes_[k] is pt
        assert k == center or pinned(nodes_)
        hits.append((k, descent, bool(np.any(pt.u.values))))
        hook.mesh = nodes_

    minmax_deform(nodes, frozen, config, params, step_hook=hook, **kwargs)
    assert pinned(hook.mesh)
    # the center took a descent step, and a promotion brought it a sample
    # off u = 0; other nodes took descent steps too
    assert any(k == center and descent for k, descent, _ in hits)
    assert any(k == center and not descent and off for k, descent, off in hits)
    assert any(k != center and descent for k, descent, _ in hits)


def test_minmax_deform_stores_before_the_hook(setup16):
    # the deformation stores each assigned node and its J itself, so a hook
    # that does nothing leaves the descent as it is without one; each run
    # deforms its own copy of the initial path
    nodes, frozen, config, params = _small_mountain_pass(setup16)
    config = dataclasses.replace(config, max_outer=6)
    calls = []
    plain, plain_diags = minmax_deform(list(nodes), frozen, config, params)
    hooked, hooked_diags = minmax_deform(list(nodes), frozen, config, params,
                                         step_hook=lambda *args: calls.append(args[0]))
    assert calls
    assert hooked.level == plain.level
    assert hooked_diags.energies == plain_diags.energies


def test_minmax_deform_keeps_no_replaced_node_alive(setup16, monkeypatch):
    # the deformation works on the caller's list in place: after two
    # re-spreads, an initial node the final mesh does not hold is freed, so
    # neither the caller's list nor the returned record and diagnostics keep
    # the initial path alive; the frozen ends are the nodes passed in.  The
    # last iteration re-spreads, and when the exit's Newton trial starts no
    # node that re-spread replaced is alive either
    nodes, frozen, config, params = _small_mountain_pass(setup16)
    config = dataclasses.replace(config, max_outer=2 * sshg.minmax.RESPREAD_EVERY)
    initial = [weakref.ref(nd) for nd in nodes]
    ends = nodes[0], nodes[-1]
    before_respread, freed_at_trial = [], []
    orig_respread, orig_trial = sshg.minmax._respread_path, sshg.minmax._newton_trial

    def replaced(refs):
        return [ref for ref in refs if not any(ref() is nd for nd in nodes)]

    def respread(nodes_, *args):
        before_respread.append([weakref.ref(nd) for nd in nodes_])
        return orig_respread(nodes_, *args)

    def trial(*args):
        gc.collect()
        freed_at_trial.append([ref() is None for ref in replaced(before_respread[-1])])
        return orig_trial(*args)

    monkeypatch.setattr(sshg.minmax, "_respread_path", respread)
    monkeypatch.setattr(sshg.minmax, "_newton_trial", trial)
    record, diags = minmax_deform(nodes, frozen, config, params)
    assert diags.exit == "budget" and len(before_respread) == 2
    assert len(freed_at_trial[-1]) == len(nodes) - 2 and all(freed_at_trial[-1])
    gc.collect()
    assert nodes[0] is ends[0] and nodes[-1] is ends[1]
    assert len(replaced(initial)) == len(nodes) - 2
    assert all(ref() is None for ref in replaced(initial))


def test_minmax_deform_propagates_unexpected_errors(setup16, monkeypatch):
    # backtracking absorbs solver failures only; a bug surfaces
    nodes, frozen, config, params = _small_mountain_pass(setup16)

    def broken(u, psi, params_):
        raise RuntimeError("broken retraction")

    monkeypatch.setattr(sshg.minmax, "project_to_manifold", broken)
    with pytest.raises(RuntimeError, match="broken retraction"):
        minmax_deform(nodes, frozen, config, params)


def test_segment_cache_recomputes_only_moved_segments(setup16, monkeypatch):
    # sample bounds are recomputed exactly when an endpoint object changes,
    # and a segment length on its first use after that; a sample is solved
    # at most once, best bound first, and only while its bound can beat the
    # best solved J
    nodes, _, _, params = _small_mountain_pass(setup16)
    calls = {"bound": 0, "solve": 0, "length": 0}
    orig_bounds = sshg.minmax.fiber_energy_bounds
    orig_dist = sshg.minmax._product_dist

    def counting_bounds(a, b, weights, params_):
        calls["bound"] += len(weights)
        return orig_bounds(a, b, weights, params_)

    def counting_fiber_solve(*args, **kwargs):
        calls["solve"] += 1
        return fiber_solve(*args, **kwargs)

    def counting_dist(a, b):
        calls["length"] += 1
        return orig_dist(a, b)

    monkeypatch.setattr(sshg.minmax, "fiber_energy_bounds", counting_bounds)
    monkeypatch.setattr(sshg.minmax, "fiber_solve", counting_fiber_solve)
    monkeypatch.setattr(sshg.minmax, "_product_dist", counting_dist)
    segments = [(0, 1), (1, 2), (2, 3)]
    cache = sshg.minmax._SegmentCache(segments, params)
    per_segment = len(sshg.minmax.SEGMENT_SAMPLES)

    def refresh(floor):
        calls.update(bound=0, solve=0, length=0)
        refresh.best = cache.refresh(nodes, floor)
        assert calls["length"] == 0   # lengths are measured on first use
        return calls["bound"], calls["solve"]

    def entries():
        return [(b, s) for (_, _, bs, ss, _) in cache._cache.values() for b, s in zip(bs, ss)]

    def lengths_bitwise_equal(fresh):
        # the first length() of a current entry computes and keeps it
        calls["length"] = 0
        cached = [cache.length(nodes, i, j) for i, j in segments]
        assert calls["length"] == fresh
        assert [cache.length(nodes, i, j) for i, j in segments] == cached
        assert calls["length"] == fresh
        return all(a == orig_dist(nodes[i], nodes[j]) for a, (i, j) in zip(cached, segments))

    assert refresh(np.inf) == (3 * per_segment, 0)
    assert lengths_bitwise_equal(3)
    assert refresh.best is None   # only solved samples compete
    assert refresh(np.inf) == (0, 0)
    # an equal-valued node that is another object moves both its segments
    nodes[1] = dataclasses.replace(nodes[1])
    # until the next refresh a stale length is computed and not stored
    calls["length"] = 0
    assert cache.length(nodes, 0, 1) == orig_dist(nodes[0], nodes[1])
    assert cache.length(nodes, 0, 1) == orig_dist(nodes[0], nodes[1])
    assert calls["length"] == 2
    assert refresh(np.inf) == (2 * per_segment, 0)
    assert lengths_bitwise_equal(2)
    # replaced twice between refreshes (ridge promotion, then a descent
    # step): the second replacement can take the id() the first one freed
    nodes[3] = dataclasses.replace(nodes[3])
    nodes[3] = dataclasses.replace(nodes[3])
    assert refresh(np.inf) == (per_segment, 0)

    # a floor between the bounds solves the samples above it best bound
    # first, and stops once the best J beats every remaining bound
    bounds = sorted(b for b, _ in entries())
    floor = 0.5 * (bounds[4] + bounds[5])
    _, solves = refresh(floor)
    assert 1 <= solves <= 3 * per_segment - 5
    solved = [(b, s) for b, s in entries() if s is not None]
    assert len(solved) == solves
    best_j = refresh.best[2].J
    assert best_j == max(s.J for _, s in solved)
    assert all(b < best_j for b, s in entries() if s is None and b > floor)
    assert min(b for b, _ in solved) >= max(b for b, s in entries() if s is None)
    assert refresh(floor) == (0, 0)
    # solving every sample confirms the pick, and a lower floor changes nothing
    full = [sshg.minmax._interp_points(a, b, w, params)
            for a, b, _, _, _ in cache._cache.values() for w in sshg.minmax.SEGMENT_SAMPLES]
    assert best_j == max(evaluate_J(pt.u, pt.psi, params) for pt in full)
    assert refresh(-np.inf) == (0, 0) and refresh.best[2].J == best_j
    assert all(s.J <= b for b, s in entries() if s is not None)
    # a moved endpoint drops the solved samples of its segments
    nodes[0] = dataclasses.replace(nodes[0])
    assert refresh(-np.inf)[0] == per_segment
    assert all(s is None for _, s in entries()[:per_segment])
    assert lengths_bitwise_equal(2)   # (0, 1), and (2, 3), not used since its node moved


def test_segment_cache_solves_ties_and_returns_the_first_best(monkeypatch):
    # bounds 7 and 7 are solved, then bound 6 ties the best J 6 and is
    # solved too; bound 5 cannot beat it.  Among equal J the first sample in
    # segment and sample order is returned, as solving every sample would.
    nodes = [object(), object(), object()]
    bounds = {(0, 1): [5.0, 7.0, 3.0], (1, 2): [7.0, 6.0, 2.0]}
    energy = {(0, 1, 0.5): 6.0, (1, 2, 0.25): 6.0, (1, 2, 0.5): 6.0}
    index = {id(nd): k for k, nd in enumerate(nodes)}
    solved = []

    def fake_bounds(a, b, weights, params):
        return np.array(bounds[(index[id(a)], index[id(b)])])

    def fake_interp(a, b, w, params):
        solved.append((index[id(a)], index[id(b)], w))
        return NehariPointStub(solved[-1], energy[solved[-1]])

    monkeypatch.setattr(sshg.minmax, "fiber_energy_bounds", fake_bounds)
    monkeypatch.setattr(sshg.minmax, "_product_dist", lambda a, b: 1.0)
    monkeypatch.setattr(sshg.minmax, "_interp_points", fake_interp)
    cache = sshg.minmax._SegmentCache([(0, 1), (1, 2)], ActionParams(rho=0.5))
    best = cache.refresh(nodes, 4.0)
    assert solved == [(0, 1, 0.5), (1, 2, 0.25), (1, 2, 0.5)]
    assert best[:2] == (0, 1) and best[2].key == (0, 1, 0.5) and best[2].J == 6.0


@dataclasses.dataclass
class NehariPointStub:
    key: tuple
    J: float


def test_ps_diagnostics_exact_solution_trace(setup16):
    # at an exact semi-trivial solution both PS residuals vanish
    geom, basis = setup16
    params = ActionParams(rho=0.5)
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    pt = fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params)
    res = constrained_gradient(pt, params)
    assert res.alpha_norm < 1e-9
    assert res.beta_norm < 1e-9
