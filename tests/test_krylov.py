"""Krylov solvers checked against dense numpy solves in weighted metrics."""

import numpy as np
import pytest

from sshg.errors import ConditioningError
from sshg.krylov import cg, minres


class _Vec:
    """Thin wrapper so plain arrays satisfy the solver's vector protocol."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def __add__(self, other):
        return _Vec(self.a + other.a)

    def __sub__(self, other):
        return _Vec(self.a - other.a)

    def __mul__(self, t):
        return _Vec(float(t) * self.a)

    __rmul__ = __mul__

    def __neg__(self):
        return _Vec(-self.a)


def _weighted_setup(rng, n=24):
    # metric M (SPD) and a symmetric S; T = M^{-1} S is self-adjoint in <a,b>_M
    q = rng.standard_normal((n, n))
    M = q @ q.T + n * np.eye(n)
    s = rng.standard_normal((n, n))
    S = 0.5 * (s + s.T)
    Minv = np.linalg.inv(M)
    T = Minv @ S

    def inner(x, y):
        return float(x.a @ M @ y.a)

    def apply_op(x):
        return _Vec(T @ x.a)

    return T, inner, apply_op


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    n = 24
    q = rng.standard_normal((n, n))
    M = q @ q.T + n * np.eye(n)
    # SPD in the M-inner product: T = M^{-1} S with S SPD
    s = rng.standard_normal((n, n))
    S = s @ s.T + n * np.eye(n)
    T = np.linalg.inv(M) @ S

    def inner(x, y):
        return float(x.a @ M @ y.a)

    b = _Vec(rng.standard_normal(n))
    x, info = cg(lambda v: _Vec(T @ v.a), b, inner, tol=1e-13, maxiter=500)
    assert info.converged
    want = np.linalg.solve(T, b.a)
    assert np.max(np.abs(x.a - want)) < 1e-9


def test_cg_warm_start_returns_input():
    rng = np.random.default_rng(1)
    n = 12
    D = np.diag(rng.uniform(1.0, 3.0, n))

    def inner(x, y):
        return float(x.a @ y.a)

    b = _Vec(rng.standard_normal(n))
    x, info = cg(lambda v: _Vec(D @ v.a), b, inner, tol=1e-12)
    x2, info2 = cg(lambda v: _Vec(D @ v.a), b, inner, x0=x, tol=1e-11)
    assert info2.iterations == 0
    assert np.array_equal(x2.a, x.a)


def test_cg_iteration_cap_raises():
    rng = np.random.default_rng(2)
    n = 40
    d = np.concatenate([np.full(n - 1, 1.0), [1e-8]])
    D = np.diag(d)

    def inner(x, y):
        return float(x.a @ y.a)

    b = _Vec(rng.standard_normal(n))
    with pytest.raises(ConditioningError) as exc:
        cg(lambda v: _Vec(D @ v.a), b, inner, tol=1e-14, maxiter=1)
    assert exc.value.residual is not None


def test_minres_indefinite_weighted():
    rng = np.random.default_rng(3)
    T, inner, apply_op = _weighted_setup(rng)
    b = _Vec(rng.standard_normal(T.shape[0]))
    x, info = minres(apply_op, b, inner, tol=1e-12, maxiter=500)
    assert info.converged
    want = np.linalg.solve(T, b.a)
    assert np.max(np.abs(x.a - want)) < 1e-7


def test_minres_zero_rhs():
    def inner(x, y):
        return float(x.a @ y.a)

    x, info = minres(lambda v: v, _Vec(np.zeros(5)), inner)
    assert info.converged and np.all(x.a == 0)


@pytest.mark.parametrize("solver", [cg, minres])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_refused_before_any_apply(solver, bad):
    def inner(x, y):
        return float(x.a @ y.a)

    calls = []
    b = _Vec(np.ones(5))
    b.a[2] = bad
    with pytest.raises(ConditioningError, match="right-hand side is not finite"):
        solver(lambda v: calls.append(1) or v, b, inner)
    assert calls == []
