"""A grid function whose values are all equal has a single Fourier mode.

Constant scalars get their DC-only coefficients without an FFT, products with
a constant multiplier stay in coefficient space, and the energy at constant u
uses discrete Parseval.  Each fast path is checked against the FFT formula it
replaces, across even grids (powers of two and not) and all spin structures.
"""

import types
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sshg.fields
from sshg.action import ActionParams, evaluate_J
from sshg.fields import ScalarField, SpinorField, constant_value
from sshg.geometry import TorusGeometry
from sshg.nehari import fiber_solve
from sshg.spectral import dirac_apply, hhalf_norm, l2_inner, project

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
@given(n=GRIDS, delta=DELTAS, c=st.floats(-3.0, 3.0, allow_nan=False), seed=SEEDS,
       rho=st.floats(0.1, 2.0, allow_nan=False))
def test_fiber_solve_at_constant_u_needs_no_fft(n, delta, c, seed, rho):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    assume(geom.spectral_gap(rho) > 1e-6)
    psi = random_spinor(geom, np.random.default_rng(seed), decay=1.5)
    free = psi - project(psi, "minus")
    u = ScalarField.constant(geom, c)
    with counting_ffts() as counts:
        point = fiber_solve(u, free, ActionParams(rho=rho))
    assert counts["fft"] == 0
    assert point.constraint_norm <= 1e-13 * max(hhalf_norm(free), 1.0)


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
