"""Matrix-free Krylov solvers in user-supplied inner products.

Both iterate on numpy arrays.  CG's are the a- rows of E^- vectors, in
the fiber solve and in the multiplier's normal equations, whose operator
is two Hessian products (`nehari.multiplier_solve`).  Both update a
working set allocated once per solve in place; MINRES's, in Newton, are the
packed complex arrays (`fields.pack`: u's Fourier coefficients, then psi's
eigen-coordinates) that are the package's one representation of a (u, psi)
direction, and Newton's Hessian is formed once per step
(`action.linearize`).  `inner`
defines the metric; operators must be self-adjoint with respect to it, and
positive definite for CG.  CG takes an optional preconditioner, SPD in the
same metric; MINRES callers precondition by solving in a weighted metric
instead (Newton's |H0| metric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    relative_residual: float


def cg(apply_op, b, inner, x0=None, tol=1e-12, maxiter=500, atol=0.0, precond=None):
    """Preconditioned conjugate gradients for an SPD operator in the given
    inner product, on numpy arrays shaped like b.

    `precond` maps a residual r to z = M^{-1} r for an M that is SPD in
    `inner`; None is the identity, and then the iterates are plain CG's.
    It is called only once CG iterates, so a solve that exits at its start
    never applies it.  x, r and p are CG's own arrays, allocated once per
    solve and updated in place; b and x0 are copied in and never written.
    Each update forms its product in a scratch array of the working set
    and adds in place, so the iterates are the plain expressions' bit for
    bit.  Returns (x, SolveInfo).  Stops when the true residual
    ||r|| <= max(tol * ||b||, atol); the absolute floor lets callers whose
    right-hand side is roundoff of a larger problem scale exit cleanly
    instead of iterating on noise.  Reaching maxiter or a non-finite b
    raises ConditioningError.
    """
    norm_b = np.sqrt(max(inner(b, b), 0.0))
    if not np.isfinite(norm_b):
        raise ConditioningError(f"cg: right-hand side is not finite (norm {norm_b})")
    stop = max(tol * norm_b, atol)
    if norm_b == 0.0 or norm_b <= stop:
        return 0.0 * b, SolveInfo(True, 0, 0.0)

    if x0 is None:
        x = 0.0 * b
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply_op(x0)
    rr = inner(r, r)
    if np.sqrt(max(rr, 0.0)) <= stop:
        return x, SolveInfo(True, 0, float(np.sqrt(max(rr, 0.0)) / norm_b))

    if precond is None:
        def precond(v):
            return v
    z = precond(r)
    rz = inner(r, z)
    p = z.copy()
    scratch = np.empty_like(p)
    for it in range(1, maxiter + 1):
        ap = apply_op(p)
        pap = inner(p, ap)
        if pap <= 0:
            # legitimate exit if the residual already sits at the noise floor
            if np.sqrt(max(rr, 0.0)) <= max(stop, 1e-14 * norm_b):
                return x, SolveInfo(True, it, float(np.sqrt(max(rr, 0.0)) / norm_b))
            raise ConditioningError(
                f"cg: operator lost positive definiteness (p.Ap = {pap:.3e})",
                residual=float(np.sqrt(max(rr, 0.0)) / norm_b),
            )
        alpha = rz / pap
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(ap, alpha, out=scratch)
        rr = inner(r, r)
        if np.sqrt(max(rr, 0.0)) <= stop:
            return x, SolveInfo(True, it, float(np.sqrt(max(rr, 0.0)) / norm_b))
        z = precond(r)
        rz_new = inner(r, z)
        # z + beta p: addition commutes exactly
        p *= rz_new / rz
        p += z
        rz = rz_new

    relres = float(np.sqrt(max(rr, 0.0)) / norm_b)
    raise ConditioningError(
        f"cg: iteration cap {maxiter} exceeded (relative residual {relres:.3e})",
        residual=relres,
    )


def minres(apply_op, b, inner, tol=1e-12, maxiter=400):
    """MINRES for a self-adjoint, possibly indefinite operator on numpy
    arrays shaped like b.

    Lanczos with Givens rotations, all pairings through `inner`.  The seven
    vectors of the recurrence are allocated once per solve and updated in
    place: `apply_op(v, out)` writes the operator's value at v into out, an
    array of the working set that is free at that moment, and returns it
    (out never overlaps v; three arrays take turns as out).  Each vector
    update takes its products and sums in the order of the plain
    expressions, so the iterates are theirs bit for bit.  Returns
    (x, SolveInfo); the iteration cap is not an error here because callers
    (Newton) damp and retry.  A breakdown (the Krylov space stops growing)
    returns the current x with its residual |eta| / ||b||, converged only
    when that meets tol.  A non-finite b raises ConditioningError.
    """
    norm_b = np.sqrt(max(inner(b, b), 0.0))
    if not np.isfinite(norm_b):
        raise ConditioningError(f"minres: right-hand side is not finite (norm {norm_b})")
    if norm_b == 0.0:
        return 0.0 * b, SolveInfo(True, 0, 0.0)

    # v_prev, v and the free array the next operator value goes into; at
    # the first iteration v_prev holds no vector yet
    v_prev, v, v_next = np.empty_like(b), (1.0 / norm_b) * b, np.empty_like(b)
    beta = norm_b

    gamma_prev, gamma = 1.0, 1.0
    sigma_prev, sigma = 0.0, 0.0
    w_prev, w, w_next = 0.0 * b, 0.0 * b, np.empty_like(b)
    # x, which the caller keeps, is allocated last: glibc returns only the
    # top of its heap to the system, so the working set freed below x stays
    # mapped for the next solve instead of being faulted in again
    x = 0.0 * b
    eta = norm_b

    for it in range(1, maxiter + 1):
        av = apply_op(v, v_next)
        delta = inner(av, v)
        # v_next = av - delta v - beta v_prev, the products formed in the
        # free w_next; v_prev is free once it has been subtracted
        av -= np.multiply(v, delta, out=w_next)
        if it > 1:
            av -= np.multiply(v_prev, beta, out=w_next)
        beta_next = np.sqrt(max(inner(av, av), 0.0))

        a0 = gamma * delta - gamma_prev * sigma * beta
        a1 = np.hypot(a0, beta_next)
        a2 = sigma * delta + gamma_prev * gamma * beta
        a3 = sigma_prev * beta
        if a1 == 0.0:
            # breakdown: x stays as it is, and |eta| is its residual
            relres = abs(eta) / norm_b
            return x, SolveInfo(bool(relres <= tol), it, float(relres))

        gamma_next = a0 / a1
        sigma_next = beta_next / a1

        # w_next = (v - a3 w_prev - a2 w) / a1, then x += gamma_next eta w_next
        np.subtract(v, np.multiply(w_prev, a3, out=w_next), out=w_next)
        w_next -= np.multiply(w, a2, out=v_prev)
        w_next *= 1.0 / a1
        x += np.multiply(w_next, gamma_next * eta, out=v_prev)
        eta = -sigma_next * eta

        relres = abs(eta) / norm_b
        if relres <= tol or beta_next == 0.0:
            return x, SolveInfo(bool(relres <= tol), it, float(relres))

        av *= 1.0 / beta_next
        v_prev, v, v_next = v, av, v_prev
        beta = beta_next
        w_prev, w, w_next = w, w_next, w_prev
        gamma_prev, gamma = gamma, gamma_next
        sigma_prev, sigma = sigma, sigma_next

    return x, SolveInfo(False, maxiter, float(abs(eta) / norm_b))
