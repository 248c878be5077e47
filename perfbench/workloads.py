"""The benchmark workloads: inputs made from a seed, one operation, its check.

Every workload is a closed loop in one process: an operation starts when the
previous one has ended.  `prepare()` is the set-up (config validation,
geometry and basis, inputs); `operation(i, clock)` runs operation i of a
round under the `refclock.RefClock` and returns the seconds it took on that
clock, raising `checker.CheckFailed` if the output is wrong.
"""

from __future__ import annotations

import sys
import tempfile
import time

import numpy as np

import checker

PIPELINES = {
    # case-1 multiplicity: mountain pass, equivariant disk min-max, Newton
    "multiplicity-n32": {
        "grid_n": 32, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "multiplicity",
        "path_nodes": 17, "max_outer": 80, "grad_tol": 1e-3,
        "n_theta": 64, "n_theta_disk": 8, "n_radii": 3,
    },
    # default mountain-pass run at a larger grid
    "mountain-pass-n64": {
        "grid_n": 64, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "mountain_pass",
    },
}

PIPELINE_CHECKS = {
    "multiplicity-n32": checker.check_multiplicity_output,
    "mountain-pass-n64": checker.check_mountain_pass_output,
}


class PipelineWorkload:
    """One operation is `sshg.runner.run` on a fixed config, outputs included."""

    ops_per_round = 1

    def __init__(self, name, runs_dir):
        self.name = name
        self.runs_dir = runs_dir
        self.check = PIPELINE_CHECKS[name]

    def prepare(self, seed):
        """Validate the config and build its geometry and basis; returns the
        seconds spent on geometry and basis."""
        runner = sys.modules["sshg.runner"]
        spectral = sys.modules["sshg.spectral"]
        # the seed reaches the program as the config's own seed
        self.raw = dict(PIPELINES[self.name], seed=int(seed))
        config = runner.RunConfig.from_dict(self.raw)
        config.action_params()
        t0 = time.perf_counter()
        geom = config.geometry()
        spectral.build_basis(geom, min(float(config["cutoff"]), geom.nyquist_bound))
        basis_s = time.perf_counter() - t0
        self.run = runner.run
        self.RunConfig = runner.RunConfig
        return basis_s

    def operation(self, i, clock):
        with tempfile.TemporaryDirectory(dir=self.runs_dir) as out_dir:
            config = self.RunConfig.from_dict(dict(self.raw, output_dir=out_dir))
            with clock:
                t0 = clock.now()
                self.run(config)
                seconds = clock.now() - t0
            self.check(out_dir)
        return seconds


class NewtonWorkload:
    """Newton polish at grid 128 from perturbed semi-trivial starts.

    Start i: u = arccosh(lambda_1/rho) + du_i, psi = L sqrt(lambda_1) Psi_1.
    du_i is a smooth perturbation (Fourier modes |k_j| <= MODES, normal
    coefficients from generator i) scaled to max |du_i| = AMPLITUDE and
    translated on the grid by a shift drawn from the seed.  One operation is
    fiber_solve, constrained_gradient and newton_refine(check_pre=False); a
    round polishes the ops_per_round starts.
    """

    ops_per_round = 3
    GRID = 128
    RHO = 0.5
    DELTA = (0.5, 0.5)
    AMPLITUDE = 0.05
    MODES = 3

    def __init__(self, name, runs_dir):
        self.name = name

    def prepare(self, seed):
        geometry = sys.modules["sshg.geometry"]
        spectral = sys.modules["sshg.spectral"]
        action = sys.modules["sshg.action"]
        self.fields = sys.modules["sshg.fields"]
        self.nehari = sys.modules["sshg.nehari"]
        self.minmax = sys.modules["sshg.minmax"]

        self.params = action.ActionParams(rho=self.RHO)
        t0 = time.perf_counter()
        geom = geometry.TorusGeometry(grid_n=self.GRID, spin_delta=self.DELTA)
        basis = spectral.build_basis(geom, 3.0)
        basis_s = time.perf_counter() - t0
        self.geom = geom

        lam1 = basis.eigenvalue(1)
        self.psi_coeffs = (geom.side_length * np.sqrt(lam1)) * basis.eigenspinor(1).coeffs
        u_bar = float(np.arccosh(lam1 / self.RHO))
        x = np.arange(self.GRID) * geom.side_length / self.GRID
        k = np.arange(-self.MODES, self.MODES + 1)
        modes = [(a, b) for a in k for b in k if (a, b) != (0, 0)]
        shifts = np.random.default_rng(int(seed)).integers(0, self.GRID, size=(self.ops_per_round, 2))
        self.starts = []
        for i, shift in enumerate(shifts):
            coef = np.random.default_rng(i).standard_normal((len(modes), 2))
            pert = np.zeros((self.GRID, self.GRID))
            for (a, b), (cc, cs) in zip(modes, coef):
                phase = a * x[:, None] + b * x[None, :]
                pert += cc * np.cos(phase) + cs * np.sin(phase)
            pert *= self.AMPLITUDE / np.max(np.abs(pert))
            # a grid translation is an exact symmetry of the discrete problem:
            # the seed moves the inputs without changing the work they cost
            self.starts.append(u_bar + np.roll(pert, tuple(shift), axis=(0, 1)))
        return basis_s

    def operation(self, i, clock):
        geom, params = self.geom, self.params
        u = self.fields.ScalarField.from_values(geom, self.starts[i].copy())
        psi = self.fields.SpinorField.from_coeffs(geom, self.psi_coeffs)
        with clock:
            t0 = clock.now()
            point = self.nehari.fiber_solve(u, psi, params)
            self.nehari.constrained_gradient(point, params)
            record = self.minmax.newton_refine(point, params, check_pre=False)
            seconds = clock.now() - t0
        checker.check_newton_record(record.point.u.values, record.point.psi.coeffs,
                                    record.level, record.refined, self.RHO,
                                    geom.side_length, geom.spin_delta)
        return seconds


WORKLOADS = {
    "multiplicity-n32": PipelineWorkload,
    "mountain-pass-n64": PipelineWorkload,
    "newton-n128": NewtonWorkload,
}
