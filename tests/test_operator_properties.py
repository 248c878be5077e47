"""Operator identities of the discrete Dirac calculus, over random even grids
8..48 and all four spin structures.

The Dirac operator is checked against the symbol i(xi1 gamma1 + xi2 gamma2)
assembled here from the Clifford generators, an oracle independent of the
solver's own representation; the remaining identities are the spectral
calculus the Nehari constraint and the linking argument rest on.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import sshg.nehari
from sshg.action import ActionParams
from sshg.fields import ScalarField, SpinorField
from sshg.geometry import TorusGeometry
from sshg.nehari import fiber_solve
from sshg.spectral import (
    build_basis,
    dirac_apply,
    l2_inner,
    project,
)

from oracles import abs_dirac_apply, l2_norm, omega_mult, quaternion_j

from test_constant_fields import DELTAS, GRIDS, PROPERTY, SEEDS
from test_spectral import assembled_symbol, random_spinor

RHOS = st.floats(0.1, 2.5, allow_nan=False)


def _geom_and_spinor(n, delta, seed, decay=1.0):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    return geom, random_spinor(geom, np.random.default_rng(seed), decay=decay)


def _close(a: SpinorField, b: SpinorField, scale: float, tol=1e-12) -> bool:
    return l2_norm(a - b) <= tol * max(scale, 1.0)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, seed=SEEDS)
def test_dirac_matches_the_assembled_symbol(n, delta, seed):
    geom, psi = _geom_and_spinor(n, delta, seed)
    want = np.einsum("abij,bij->aij", assembled_symbol(geom), psi.coeffs)
    got = dirac_apply(psi).coeffs
    assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, seed=SEEDS, rho=RHOS)
def test_projections_resolve_the_identity(n, delta, seed, rho):
    geom, psi = _geom_and_spinor(n, delta, seed)
    assume(geom.spectral_gap(rho) > 1e-6)
    scale = l2_norm(psi)
    parts = {sub: project(psi, sub) for sub in ("plus", "minus", "zero")}
    assert _close(parts["plus"] + parts["minus"] + parts["zero"], psi, scale)
    for sub, p in parts.items():
        assert _close(project(p, sub), p, scale)
    names = list(parts)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert abs(l2_inner(parts[a], parts[b])) <= 1e-12 * max(scale ** 2, 1.0)
    split = project(psi, "plus_a", rho=rho) + project(psi, "plus_b", rho=rho)
    assert _close(split, parts["plus"], scale)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, seed=SEEDS)
def test_dirac_spectral_calculus(n, delta, seed):
    geom, psi = _geom_and_spinor(n, delta, seed, decay=1.5)
    scale = l2_norm(dirac_apply(psi)) + l2_norm(psi)
    for sub, sign in (("plus", 1.0), ("minus", -1.0)):
        p = project(psi, sub)
        assert _close(dirac_apply(p), sign * abs_dirac_apply(p, 1.0), scale)
    assert _close(omega_mult(dirac_apply(psi)), -1.0 * dirac_apply(omega_mult(psi)), scale)
    assert _close(quaternion_j(dirac_apply(psi)), dirac_apply(quaternion_j(psi)), scale)


@PROPERTY
@given(n=GRIDS, delta=DELTAS)
def test_basis_elements_are_eigenspinors(n, delta):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    basis = build_basis(geom, cutoff=min(2.0, geom.nyquist_bound))
    count = len(basis.eigenvalues)
    for j in range(1, count + 1):
        lam = basis.eigenvalue(j)
        # Psi_j and its omega-mirror, of eigenvalue -lambda_j
        for psi, mu in ((basis.eigenspinor(j), lam), (omega_mult(basis.eigenspinor(j)), -lam)):
            assert l2_norm(psi) == pytest.approx(1.0, abs=1e-13)
            assert _close(dirac_apply(psi), mu * psi, lam)
    for l in range(basis.harmonic_dim):
        assert l2_norm(dirac_apply(basis.harmonic_spinor(l))) == 0.0


@PROPERTY
@given(n=GRIDS, delta=DELTAS, seed=SEEDS)
def test_values_and_coeffs_round_trip(n, delta, seed):
    geom, psi = _geom_and_spinor(n, delta, seed)
    scale = np.linalg.norm(psi.coeffs)
    back = SpinorField.from_values(geom, psi.values)
    assert np.linalg.norm(back.coeffs - psi.coeffs) <= 1e-13 * scale
    again = SpinorField.from_coeffs(geom, psi.coeffs)
    assert np.linalg.norm(again.values - psi.values) <= 1e-13 * np.linalg.norm(psi.values)
    # modes outside the spinor mask are dropped on the way in
    raw = np.ones((2, n, n), dtype=complex)
    assert np.all(SpinorField.from_coeffs(geom, raw).coeffs[:, ~geom.spinor_mask] == 0)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, seed=SEEDS, c=st.floats(-3.0, 3.0, allow_nan=False), rho=RHOS)
def test_fiber_solve_is_exact_for_constant_u_and_a_plus_spinor(n, delta, seed, c, rho):
    # D - rho cosh(c) commutes with P^-, so G at psi_free is exactly 0:
    # psi_free is its own fiber point, returned without a CG call, its a-
    # row's -0.0 entries read +0.0 as CG's +0 update left them
    geom, psi = _geom_and_spinor(n, delta, seed, decay=1.5)
    assume(geom.spectral_gap(rho) > 1e-6)
    calls = []
    real = sshg.nehari.cg

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    free = project(psi, "plus")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sshg.nehari, "cg", counted)
        point = fiber_solve(ScalarField.constant(geom, c), free, ActionParams(rho=rho))
    assert point.constraint_norm == 0.0
    assert calls == []
    expect = free.eig.copy()
    expect[1] += 0.0
    assert np.array_equal(point.psi.eig, free.eig)
    assert point.psi.eig.tobytes() == expect.tobytes()
