"""Self-test of the correctness checker: it must accept the hand-built
closed-form semi-trivial solution and reject the same solution with a
perturbed u.  Run as `python3 perfbench/selftest.py`; the benchmark also runs
it before every measurement.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checker  # noqa: E402


def closed_form_fields(n=32, rho=0.5, side_length=2.0 * np.pi, delta=(0.5, 0.5)):
    """u = arccosh(lambda_1/rho) and psi = sqrt(lambda_1) v e^{i xi.x} on the
    lowest mode k = 0, with v the unit +lambda_1 eigenvector of the symbol."""
    lam1 = checker.lambda1(side_length, delta)
    lat = checker.Lattice(n, side_length, delta)
    evals, evecs = np.linalg.eigh(lat.sym[:, :, 0, 0])
    if not abs(evals[-1] - lam1) <= 1e-12 * lam1:
        raise AssertionError("mode k = 0 does not carry lambda_1")
    psi = np.zeros((2, n, n), dtype=complex)
    psi[:, 0, 0] = np.sqrt(lam1) * evecs[:, -1]
    u = np.full((n, n), np.arccosh(lam1 / rho))
    return {"u": u, "psi": psi}, rho, side_length, delta


def run_selftest():
    """Raises AssertionError unless the checker passes and fails as it should."""
    fields, rho, side_length, delta = closed_form_fields()
    checker.check_semi_trivial(fields, rho, side_length, delta)

    n = fields["u"].shape[0]
    x = np.arange(n) * side_length / n
    bumped = dict(fields, u=fields["u"] + 1e-3 * np.cos(x)[:, None] * np.ones((1, n)))
    try:
        checker.check_semi_trivial(bumped, rho, side_length, delta)
    except checker.CheckFailed:
        return
    raise AssertionError("checker accepted a perturbed u")


if __name__ == "__main__":
    run_selftest()
    print("checker self-test passed")
