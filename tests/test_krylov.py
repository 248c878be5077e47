"""Krylov solvers checked against dense numpy solves in weighted metrics,
and CG's in-place working set against its plain expressions."""

import hashlib

import numpy as np
import pytest

from sshg.errors import ConditioningError
from sshg.krylov import cg, minres

from oracles import plain_cg


def _weighted_setup(rng, n=24):
    # metric M (SPD) and a symmetric S; T = M^{-1} S is self-adjoint in
    # <a,b>_M; MINRES's operator protocol on arrays: apply_op(v, out)
    q = rng.standard_normal((n, n))
    M = q @ q.T + n * np.eye(n)
    s = rng.standard_normal((n, n))
    S = 0.5 * (s + s.T)
    Minv = np.linalg.inv(M)
    T = Minv @ S

    def inner(x, y):
        return float(x @ M @ y)

    def apply_op(x, out):
        return np.matmul(T, x, out=out)

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
        return float(x @ M @ y)

    b = rng.standard_normal(n)
    x, info = cg(lambda v: T @ v, b, inner, tol=1e-13, maxiter=500)
    assert info.converged
    want = np.linalg.solve(T, b)
    assert np.max(np.abs(x - want)) < 1e-9


def test_cg_warm_start_returns_input():
    rng = np.random.default_rng(1)
    n = 12
    D = np.diag(rng.uniform(1.0, 3.0, n))

    def inner(x, y):
        return float(x @ y)

    b = rng.standard_normal(n)
    x, info = cg(lambda v: D @ v, b, inner, tol=1e-12)
    x2, info2 = cg(lambda v: D @ v, b, inner, x0=x, tol=1e-11)
    assert info2.iterations == 0
    assert np.array_equal(x2, x)


def test_cg_iteration_cap_raises():
    rng = np.random.default_rng(2)
    n = 40
    d = np.concatenate([np.full(n - 1, 1.0), [1e-8]])
    D = np.diag(d)

    def inner(x, y):
        return float(x @ y)

    b = rng.standard_normal(n)
    with pytest.raises(ConditioningError) as exc:
        cg(lambda v: D @ v, b, inner, tol=1e-14, maxiter=1)
    assert exc.value.residual is not None


def _ill_conditioned_setup(dtype=float):
    # T = W^{-1} S, S a symmetric diagonally dominant tridiagonal matrix with
    # diagonal from 1 to 1e4, is SPD in <x, y>_W = sum w Re(conj(x) y);
    # elementwise arithmetic only, so every iterate is reproducible bit for
    # bit.  A complex b gives the fiber solve's complex arrays
    n = 40
    rng = np.random.default_rng(11)
    d = np.logspace(0.0, 4.0, n)
    w = rng.uniform(0.5, 2.0, n)

    def apply_op(x):
        return (d * x - 0.3 * (np.roll(x, 1) + np.roll(x, -1))) / w

    def inner(x, y):
        return float(np.sum(w * np.conj(x) * y).real)

    b = rng.standard_normal(n)
    if dtype is complex:
        b = b + 1j * rng.standard_normal(n)
    return apply_op, inner, b, d, w


@pytest.mark.parametrize("precond", [None, lambda r: r])
def test_cg_with_the_identity_preconditioner_is_plain_cg(precond):
    # x, the iteration count and the residual of plain CG on this problem,
    # as the solver gave them before it took a preconditioner
    apply_op, inner, b, _, _ = _ill_conditioned_setup()
    x, info = cg(apply_op, b, inner, tol=1e-12, maxiter=500, precond=precond)
    assert info.iterations == 106
    assert info.relative_residual.hex() == "0x1.86d4c31888f75p-41"
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "11b4a9fe4f90e35afe19153de7a667d4a500a83bec59d8c820251f4e344c072b")


def test_diagonal_preconditioner_cuts_the_iterations():
    # Jacobi: M = W^{-1} diag(S), SPD in the W metric; the same solution to
    # tolerance in 12 iterations instead of 106, and the reported residual
    # is the true one up to the rounding of recomputing it
    apply_op, inner, b, d, w = _ill_conditioned_setup()
    x, info = cg(apply_op, b, inner, tol=1e-12, maxiter=500)
    xp, info_p = cg(apply_op, b, inner, tol=1e-12, maxiter=500,
                    precond=lambda r: r * w / d)
    assert info_p.converged and info_p.iterations < info.iterations
    assert np.max(np.abs(xp - x)) <= 1e-11 * np.max(np.abs(x))
    r = b - apply_op(xp)
    true_res = np.sqrt(inner(r, r) / inner(b, b))
    assert true_res <= 1e-12
    assert info_p.relative_residual == pytest.approx(true_res, rel=1e-2)


def test_cg_that_does_not_iterate_never_applies_the_preconditioner():
    # b = 0, b below the absolute floor and an exact start all return at
    # iteration 0 without one call of the preconditioner
    apply_op, inner, b, _, _ = _ill_conditioned_setup()
    x_exact, _ = cg(apply_op, b, inner, tol=1e-12)
    calls = []

    def precond(r):
        calls.append(1)
        return r

    norm_b = np.sqrt(inner(b, b))
    cases = [dict(b=0.0 * b), dict(b=b, atol=2.0 * norm_b),
             dict(b=apply_op(x_exact), x0=x_exact, tol=1e-8)]
    for case in cases:
        _, info = cg(apply_op, inner=inner, precond=precond, **case)
        assert info.converged and info.iterations == 0
    assert calls == []


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("jacobi", [False, True])
@pytest.mark.parametrize("start", ["none", "rough", "exact"])
def test_cg_working_set_is_the_plain_loop_bit_for_bit(dtype, jacobi, start):
    # the in-place updates reproduce the plain expressions' iterate,
    # iteration count and residual, and never write b or x0, which callers
    # reuse (the fiber solve's x0 is a view of its caller's spinor, and its
    # certificate reuses b when CG moves nothing)
    apply_op, inner, b, d, w = _ill_conditioned_setup(dtype)
    precond = (lambda r: r * w / d) if jacobi else None
    x0 = {"none": None,
          "rough": 0.1 * np.random.default_rng(5).standard_normal(b.shape).astype(dtype),
          "exact": plain_cg(apply_op, b, inner, tol=1e-13, precond=precond)[0]}[start]
    b_before = b.copy()
    x0_before = None if x0 is None else x0.copy()
    want, want_info = plain_cg(apply_op, b, inner, x0=x0, tol=1e-12, precond=precond)
    x, info = cg(apply_op, b, inner, x0=x0, tol=1e-12, precond=precond)
    assert x.dtype == want.dtype and x.tobytes() == want.tobytes()
    assert info == want_info
    assert (info.iterations == 0) == (start == "exact")
    assert b.tobytes() == b_before.tobytes()
    assert x0 is None or (x0.tobytes() == x0_before.tobytes() and not np.shares_memory(x, x0))
    assert not np.shares_memory(x, b)


def test_minres_indefinite_weighted():
    rng = np.random.default_rng(3)
    T, inner, apply_op = _weighted_setup(rng)
    b = rng.standard_normal(T.shape[0])
    b_before = b.tobytes()
    outs = []

    def recording_op(v, out):
        assert not np.shares_memory(v, out)
        outs.append(out)
        return apply_op(v, out)

    x, info = minres(recording_op, b, inner, tol=1e-12, maxiter=500)
    assert info.converged
    want = np.linalg.solve(T, b)
    assert np.max(np.abs(x - want)) < 1e-7
    # the iterate, iteration count and residual of the solver before it
    # updated a working set in place
    assert info.iterations == 32
    assert info.relative_residual.hex() == "0x1.8d963d8796e51p-43"
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "cdf3b3058652d12c530a2324e2e41666ba3592a808cfc72a51db9187e0ca8925")
    # the working set is allocated once: three arrays take turns as out
    assert len(outs) == info.iterations >= 10
    assert len({id(out) for out in outs}) <= 3
    assert b.tobytes() == b_before


def test_minres_zero_rhs():
    def inner(x, y):
        return float(x @ y)

    x, info = minres(lambda v, out: np.copyto(out, v) or out, np.zeros(5), inner)
    assert info.converged and np.all(x == 0)


@pytest.mark.parametrize("solver", [cg, minres])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_refused_before_any_apply(solver, bad):
    # plain arrays, which both solvers take; the operator takes CG's (v) and
    # MINRES's (v, out)
    def inner(x, y):
        return float(x @ y)

    calls = []
    b = np.ones(5)
    b[2] = bad
    with pytest.raises(ConditioningError, match="right-hand side is not finite"):
        solver(lambda v, *out: calls.append(1) or v, b, inner)
    assert calls == []


def _dot(x, y):
    return float(x @ y)


@pytest.mark.parametrize("diag, want", [((2.0, 2.0, 0.0, 0.0), 0.5), ((0.0,) * 4, 0.0)])
def test_minres_breakdown_reports_the_residual_of_its_iterate(diag, want):
    # a singular operator whose range misses b: the Krylov space stops
    # growing before the residual falls, so the solve is not converged and
    # reports the true relative residual of the x it returns
    d = np.array(diag)
    b = np.ones(4)
    x, info = minres(lambda v, out: np.multiply(d, v, out=out), b, _dot, tol=1e-12)
    np.testing.assert_allclose(x, np.full(4, want), rtol=1e-14, atol=0.0)
    true_relres = np.linalg.norm(b - d * x) / np.linalg.norm(b)
    assert not info.converged
    assert info.relative_residual == pytest.approx(true_relres, rel=1e-12)
    assert true_relres == pytest.approx(np.sqrt(0.5) if want else 1.0, rel=1e-12)


def test_minres_iteration_cap_is_not_converged():
    d = np.arange(1.0, 41.0)
    x, info = minres(lambda v, out: np.multiply(d, v, out=out), np.ones(40), _dot,
                     tol=1e-12, maxiter=3)
    assert not info.converged and info.iterations == 3
    assert info.relative_residual > 1e-12


def test_cg_refuses_an_indefinite_operator():
    # diag(1, -1): p.Ap = 0 on the first direction, with the residual at b
    d = np.array([1.0, -1.0])
    with pytest.raises(ConditioningError, match="positive definiteness") as exc:
        cg(lambda v: d * v, np.ones(2), _dot)
    assert exc.value.residual == 1.0
