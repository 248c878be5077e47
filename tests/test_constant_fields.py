"""A grid function whose values are all equal has a single Fourier mode.

Constant scalars get their DC-only coefficients without an FFT, products with
a constant multiplier stay in coefficient space, the energy at constant u
uses discrete Parseval, and at constant u a free spinor with a zero a- row
is its own fiber point.  Each fast path is checked against the FFT or CG
formula it replaces, across even grids (powers of two and not) and all spin
structures.  A scalar field keeps its common value and max|u| once read;
both are checked against the scans they replace.
"""

import types
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

import sshg.fields
import sshg.nehari
from sshg.action import U_CAP, ActionParams, check_overflow, evaluate_J
from sshg.errors import OverflowGuardError
from sshg.fields import ScalarField, SpinorField, constant_value
from sshg.geometry import TorusGeometry
from sshg.nehari import fiber_solve
from sshg.spectral import dirac_apply, l2_inner, project, subspace_mask

from oracles import cg_fiber_point
from test_spectral import ALL_DELTAS, random_spinor

GRIDS = st.integers(4, 24).map(lambda h: 2 * h)          # even grids 8..48
DELTAS = st.sampled_from(ALL_DELTAS)
SEEDS = st.integers(0, 2**32 - 1)
CONSTS = st.floats(-10.0, 10.0, allow_nan=False)
PROPERTY = settings(max_examples=40, deadline=None)


@contextmanager
def counting_ffts():
    """Count the fft2/ifft2 calls made through `sshg.fields.np`: each kind
    and their total "fft"."""
    counts = {"fft": 0, "fft2": 0, "ifft2": 0}
    real = sshg.fields.np

    def counted(name):
        fn = getattr(real.fft, name)

        def wrapper(*args, **kwargs):
            counts["fft"] += 1
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fft = types.SimpleNamespace(**vars(real.fft))
    fft.fft2 = counted("fft2")
    fft.ifft2 = counted("ifft2")
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(real.__dict__)
    proxy.fft = fft
    sshg.fields.np = proxy
    try:
        yield counts
    finally:
        sshg.fields.np = real


def _relerr(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=CONSTS, seed=SEEDS)
def test_times_constant_matches_the_fft_product(n, delta, c, seed):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    psi = random_spinor(geom, np.random.default_rng(seed))
    f = np.full((n, n), c)
    ref = SpinorField.from_values(geom, f[None, :, :] * psi.values).coeffs
    with counting_ffts() as counts:
        fast = psi.times(f).coeffs
    assert counts["fft"] == 0
    assert _relerr(fast, ref) <= 1e-14
    assert np.all(fast[:, ~geom.spinor_mask] == 0)


@PROPERTY
@given(n=GRIDS, c=st.floats(-1e6, 1e6, allow_nan=False))
def test_constant_scalar_is_dc_only(n, c):
    geom = TorusGeometry(grid_n=n)
    u = ScalarField.constant(geom, c)
    with counting_ffts() as counts:
        coeffs = u.coeffs
    assert counts["fft"] == 0
    expect = np.zeros((n, n), dtype=complex)
    expect[0, 0] = c + 0.0  # the DC entry of a constant -0.0 is +0.0, as in fft2
    assert coeffs.tobytes() == expect.tobytes()
    if n & (n - 1) == 0:
        # on power-of-two grids the FFT of a constant is exactly DC-only
        assert coeffs.tobytes() == (np.fft.fft2(u.values) / n**2).tobytes()


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=CONSTS, seed=SEEDS,
       rho=st.floats(0.1, 2.0, allow_nan=False))
def test_energy_at_constant_u_matches_the_grid_sum(n, delta, c, seed, rho):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    psi = random_spinor(geom, np.random.default_rng(seed))
    u = ScalarField.constant(geom, c)
    terms = (8.0 * l2_inner(dirac_apply(psi), psi),
             -8.0 * rho * geom.quad_weight * float(np.sum(np.cosh(u.values) * psi.density())),
             4.0 * rho * rho * geom.quad_weight * float(np.sum(np.sinh(u.values) ** 2)))
    got = evaluate_J(u, psi, ActionParams(rho=rho))
    assert abs(got - sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)


@PROPERTY
@given(n=GRIDS, c=CONSTS, data=st.data())
def test_one_ulp_off_takes_the_fft_path(n, c, data):
    geom = TorusGeometry(grid_n=n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    f = np.full((n, n), c)
    f[i, j] = np.nextafter(c, np.inf)
    assert constant_value(f) is None
    psi = SpinorField.from_coeffs(geom, np.ones((2, n, n), dtype=complex))
    with counting_ffts() as counts:
        ScalarField.from_values(geom, f).coeffs
    assert counts["fft"] == 1
    with counting_ffts() as counts:
        psi.times(f)
    assert counts["fft"] == 2


def test_constant_value():
    assert constant_value(np.full((8, 8), 2.5)) == 2.5
    assert constant_value(np.arange(64.0).reshape(8, 8)) is None
    assert constant_value(np.full((8, 8), np.nan)) is None


def _free_with_signed_zeros(geom, rng):
    """A random free spinor whose masked a- row holds zeros of random sign."""
    psi = random_spinor(geom, rng, decay=1.5)
    eig = (psi - project(psi, "minus")).eig.copy()
    mask = subspace_mask(geom, "minus", None)[1] > 0
    for part in (eig[1].real, eig[1].imag):
        part[mask] = np.where(rng.integers(0, 2, size=int(mask.sum())), -0.0, 0.0)
    return SpinorField(geom, eig=eig), mask


def _solve_counting_cg(u, free, params, x0):
    """fiber_solve's point, its CG calls and its FFTs."""
    calls = []
    real = sshg.nehari.cg

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, counting_ffts() as ffts:
        mp.setattr(sshg.nehari, "cg", counted)
        point = fiber_solve(u, free, params, x0=x0)
    return point, len(calls), ffts["fft"]


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=st.floats(-3.0, 3.0, allow_nan=False), seed=SEEDS,
       rho=st.floats(0.1, 2.0, allow_nan=False), warm=st.booleans())
def test_fiber_solve_at_constant_u_needs_no_fft(n, delta, c, seed, rho, warm):
    # psi_free with a zero masked a- row, its zeros signed at random, with
    # and without a warm start: the point is the CG path's bit for bit, with
    # no CG call and no FFT, and its certificate is exactly 0
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    params = ActionParams(rho=rho)
    assume(geom.spectral_gap(rho) > 1e-6)
    rng = np.random.default_rng(seed)
    free, _ = _free_with_signed_zeros(geom, rng)
    x0 = project(random_spinor(geom, rng), "minus") if warm else None
    u = ScalarField.constant(geom, c)
    eig, cert = cg_fiber_point(u, free, params, x0)
    point, cg_calls, ffts = _solve_counting_cg(u, free, params, x0)
    assert cg_calls == 0 and ffts == 0
    assert point.constraint_norm == 0.0 == cert
    assert point.psi.eig.tobytes() == eig.tobytes()


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=st.floats(-3.0, 3.0, allow_nan=False), seed=SEEDS,
       tiny=st.sampled_from([1e-300, -1e-300, 1e-300j, 5e-324]), data=st.data())
def test_a_nonzero_minus_row_takes_the_cg_path(n, delta, c, seed, tiny, data):
    # one masked a- row entry of psi_free off zero, even far below what its
    # H^1/2 norm can resolve, and the solve runs CG as before
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    params = ActionParams(rho=0.5)
    assume(geom.spectral_gap(params.rho) > 1e-6)
    free, mask = _free_with_signed_zeros(geom, np.random.default_rng(seed))
    i, j = np.argwhere(mask)[data.draw(st.integers(0, int(mask.sum()) - 1))]
    free.eig[1, i, j] += tiny
    u = ScalarField.constant(geom, c)
    eig, cert = cg_fiber_point(u, free, params)
    point, cg_calls, _ = _solve_counting_cg(u, free, params, None)
    assert cg_calls == 1
    assert point.constraint_norm == cert
    assert point.psi.eig.tobytes() == eig.tobytes()


KINDS = ("constant", "negative_zero", "one_ulp", "nan", "inf", "random")


@PROPERTY
@given(n=GRIDS, c=CONSTS, kind=st.sampled_from(KINDS), via_coeffs=st.booleans(),
       data=st.data())
def test_kept_grid_facts_match_the_scans(n, c, kind, via_coeffs, data):
    # a field's common value and max|u|, read twice, are the scans of its
    # grid values bit for bit, and the constancy scan runs once for both
    # reads and the coefficients
    geom = TorusGeometry(grid_n=n)
    vals = np.full((n, n), c)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if kind == "negative_zero":
        vals = np.where(np.random.default_rng(i * n + j).integers(0, 2, (n, n)), -0.0, 0.0)
    elif kind == "one_ulp":
        vals[i, j] = np.nextafter(c, np.inf)
    elif kind == "nan":
        vals[i, j] = np.nan
    elif kind == "inf":
        vals[i, j] = data.draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "random":
        vals = np.random.default_rng(i).standard_normal((n, n))
    scans = []
    real = sshg.fields.constant_value

    def counted(a):
        scans.append(1)
        return real(a)

    # the FFTs of a field holding NaN or inf are all NaN
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        if via_coeffs:
            u = ScalarField.from_coeffs(geom, np.fft.fft2(vals) / n ** 2)
        else:
            u = ScalarField.from_values(geom, vals)
        expect_c = constant_value(u.values)
        expect_m = np.max(np.abs(u.values))
        mp.setattr(sshg.fields, "constant_value", counted)
        got = [u.common_value, u.common_value]
        u.coeffs
    assert len(scans) == 1
    for got_c in got:
        if expect_c is None:
            assert got_c is None
        else:
            assert np.float64(got_c).tobytes() == np.float64(expect_c).tobytes()
    for got_m in (u.max_abs, u.max_abs):
        assert isinstance(got_m, float)
        assert np.array_equal(got_m, expect_m, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(U_CAP, np.inf),
                                 -np.nextafter(U_CAP, np.inf), 1e300])
def test_check_overflow_refuses_what_the_kept_max_refuses(bad):
    # through a field's kept max|u|, read before or not, and through a stack
    # of grid values; |u| = U_CAP itself passes
    geom = TorusGeometry(grid_n=8)
    vals = np.full((8, 8), 0.5)
    vals[3, 5] = bad
    for read_first in (False, True):
        u = ScalarField.from_values(geom, vals)
        if read_first:
            u.max_abs
        with pytest.raises(OverflowGuardError, match="overflow cap"):
            check_overflow(u)
    with pytest.raises(OverflowGuardError, match="overflow cap"):
        check_overflow(np.stack((np.zeros((8, 8)), vals)))
    vals[3, 5] = -U_CAP
    u = ScalarField.from_values(geom, vals)
    assert check_overflow(u) is u.values
    assert u.max_abs == U_CAP
