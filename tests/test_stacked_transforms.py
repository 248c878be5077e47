"""The stacked transforms of packed (u, psi) arrays are the per-field views
bit for bit: one fft2 over rows, into an array the caller gives, transforms
each row exactly as a transform of that row alone does.  The inverse is
conj(fft2(conj(c))), which on power-of-two grids is numpy's ifft2 of the
n^2-scaled coefficients bit for bit, and elsewhere agrees to rounding.  So
Newton's Hessian product keeps every bit while making two transform calls
instead of five and allocating no array."""

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


def _stacked_values(geom, rng):
    """Two random scalars and a random spinor, through `stacked_values` into
    a caller's array: (want, got) values of each, and the caller's array."""
    a, b = random_scalar(geom, rng).coeffs, random_scalar(geom, rng).coeffs
    eig = random_spinor(geom, rng).eig
    out = np.empty((4, geom.grid_n, geom.grid_n), dtype=complex)
    values, phi = stacked_values(geom, (a, b), eig, out)
    assert values.shape == (2, geom.grid_n, geom.grid_n)
    assert np.shares_memory(values, out) and np.shares_memory(phi.values, out)
    assert phi.eig is eig
    want = (ScalarField(geom, coeffs=a).values, ScalarField(geom, coeffs=b).values,
            SpinorField(geom, eig=eig).values)
    return want, (values[0], values[1], phi.values), out


@pytest.mark.parametrize("n,delta", CASES)
def test_stacked_values_are_the_field_values(n, delta):
    want, got, _ = _stacked_values(TorusGeometry(grid_n=n, spin_delta=delta),
                                   np.random.default_rng(n))
    for w, g in zip(want, got):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_stacked_values_off_power_of_two_grids_agree_to_rounding(delta):
    # at n = 24 the scalings by 1/n are inexact, so the conjugated forward
    # transform and ifft2 round differently
    want, got, _ = _stacked_values(TorusGeometry(grid_n=24, spin_delta=delta),
                                   np.random.default_rng(24))
    for w, g in zip(want, got):
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))


@pytest.mark.parametrize("n,delta", CASES)
def test_stacked_coeffs_are_the_field_coefficients(n, delta):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    rng = np.random.default_rng(n + 1)
    spinor_values = random_spinor(geom, rng).values
    want_eig = SpinorField.from_values(geom, spinor_values).eig
    scalars = [random_scalar(geom, rng).values, np.full((n, n), 0.7), np.full((n, n), -0.0)]
    out = np.empty((3, n, n), dtype=complex)

    def coeffs(values):
        s = np.empty((3, n, n), dtype=complex)
        s[0] = values
        s[1:] = spinor_values
        assert stacked_coeffs(geom, s, out) is out
        return out

    for values in scalars:
        got = coeffs(values)
        want = ScalarField.from_values(geom, values).coeffs
        assert got[0].tobytes() == want.tobytes()
        assert got[1:].tobytes() == want_eig.tobytes()
    # the constant rows took the shortcut, which the transform matches
    for values in scalars[1:]:
        full = np.fft.fft2(values) / n ** 2
        assert np.array_equal(coeffs(values)[0], full)


def test_pack_and_unpack_are_inverse():
    geom = TorusGeometry(grid_n=16)
    rng = np.random.default_rng(2)
    u, psi = random_scalar(geom, rng), random_spinor(geom, rng)
    x = pack(u, psi)
    assert x.shape == (3, 16, 16)
    v, phi = unpack(geom, x)
    assert np.array_equal(v.coeffs, u.coeffs) and np.array_equal(phi.eig, psi.eig)
    assert np.shares_memory(v.coeffs, x) and np.shares_memory(phi.eig, x)
