"""The stacked transforms of packed (u, psi) arrays are the per-field views
bit for bit: one ifft2 or fft2 over rows transforms each row exactly as a
transform of that row alone does, so Newton's Hessian product keeps every
bit while making two transform calls instead of five."""

import numpy as np
import pytest

from sshg.fields import (
    ScalarField,
    SpinorField,
    pack,
    stacked_coeffs,
    stacked_values,
    unpack,
)
from sshg.geometry import TorusGeometry

from test_spectral import random_scalar, random_spinor

CASES = [(n, delta) for n in (16, 32, 128) for delta in ((0.5, 0.5), (0.0, 0.0))]


@pytest.mark.parametrize("n,delta", CASES)
def test_stacked_values_are_the_field_values(n, delta):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    rng = np.random.default_rng(n)
    a, b = random_scalar(geom, rng).coeffs, random_scalar(geom, rng).coeffs
    eig = random_spinor(geom, rng).eig
    values, phi = stacked_values(geom, (a, b), eig)
    assert values.shape == (2, n, n)
    assert np.array_equal(values[0], ScalarField(geom, coeffs=a).values)
    assert np.array_equal(values[1], ScalarField(geom, coeffs=b).values)
    assert np.array_equal(phi.values, SpinorField(geom, eig=eig).values)
    assert phi.eig is eig


@pytest.mark.parametrize("n,delta", CASES)
def test_stacked_coeffs_are_the_field_coefficients(n, delta):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    rng = np.random.default_rng(n + 1)
    spinor_values = random_spinor(geom, rng).values
    want_eig = SpinorField.from_values(geom, spinor_values).eig
    scalars = [random_scalar(geom, rng).values, np.full((n, n), 0.7), np.full((n, n), -0.0)]
    for values in scalars:
        out = stacked_coeffs(geom, values, spinor_values)
        want = ScalarField.from_values(geom, values).coeffs
        assert np.array_equal(out[0], want)
        assert np.array_equal(np.signbit(out[0].real), np.signbit(want.real))
        assert np.array_equal(out[1:], want_eig)
    # the constant rows took the shortcut, which the transform matches
    for values in scalars[1:]:
        full = np.fft.fft2(values) / n ** 2
        assert np.array_equal(stacked_coeffs(geom, values, spinor_values)[0], full)


def test_pack_and_unpack_are_inverse():
    geom = TorusGeometry(grid_n=16)
    rng = np.random.default_rng(2)
    u, psi = random_scalar(geom, rng), random_spinor(geom, rng)
    x = pack(u, psi)
    assert x.shape == (3, 16, 16)
    v, phi = unpack(geom, x)
    assert np.array_equal(v.coeffs, u.coeffs) and np.array_equal(phi.eig, psi.eig)
    assert np.shares_memory(v.coeffs, x) and np.shares_memory(phi.eig, x)
