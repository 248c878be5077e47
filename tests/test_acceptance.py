"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy pipelines (the
mountain-pass run, the multiplicity pipeline, the linking run, all at
grid_n = 32) are module-scoped fixtures shared across criteria.
"""

import time

import numpy as np
import pytest

from sshg.action import (
    ActionParams,
    el_residual_norms,
    evaluate_J,
    gradient_J,
)
from sshg.fields import ScalarField
from sshg.geometry import GAMMA1, GAMMA2, TWO_PI, TorusGeometry
from sshg.minmax import (
    coercivity_probe,
    linking_constants,
    straight_path,
)
from sshg.nehari import (
    constrained_gradient,
    fiber_coercivity,
    fiber_solve,
)
from sshg.runner import RunConfig, run, run_multiplicity
from sshg.spectral import (
    build_basis,
    dirac_apply,
    h1_norm,
    hhalf_norm,
    l2_inner,
    project,
)
from sshg.sweepout import build_sweepout_chi, equivariant_family

from oracles import (
    dual_pair,
    fiber_rayleigh_margin,
    grid_l2_inner,
    hessian,
    interface_volume,
    l2_norm,
    omega_mult,
    quaternion_j,
    riesz_pair,
)

from test_spectral import enumerate_spectrum, random_scalar, random_spinor

LAM1 = np.sqrt(2.0) / 2.0
ALL_DELTAS = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]


class Criterion:
    """Collects named checks and prints a single PASS/FAIL line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []

    def check(self, label, ok):
        if not bool(ok):
            self.failures.append(label)

    def conclude(self):
        status = "PASS" if not self.failures else f"FAIL ({'; '.join(self.failures)})"
        print(f"ACCEPTANCE {self.number}: {status} - {self.title}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


@pytest.fixture(scope="module")
def setup32():
    geom = TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=3.0)
    return geom, basis


@pytest.fixture(scope="module")
def multiplicity_run():
    """Full multiplicity pipeline at grid 32, rho = 0.5 (shared by 6, 9, 10)."""
    config = RunConfig.from_dict({
        "grid_n": 32, "spin_delta": [0.5, 0.5], "rho": 0.5,
        "mode": "multiplicity", "seed": 0, "cutoff": 3.0,
        "path_nodes": 17, "max_outer": 80, "grad_tol": 1e-3,
        "n_theta": 64, "n_theta_disk": 8, "n_radii": 3,
    })
    geom = config.geometry()
    basis = build_basis(geom, cutoff=3.0)
    params = config.action_params()
    t0 = time.perf_counter()
    result = run_multiplicity(config, basis, params)
    result["elapsed"] = time.perf_counter() - t0
    # the path's endpoint, the last node straight_path solves
    consts = linking_constants(params, basis)
    result["endpoint_J"] = fiber_solve(ScalarField.constant(geom, consts.T),
                                       consts.s * basis.eigenspinor(consts.k_index + 1),
                                       params).J
    result["params"] = params
    result["basis"] = basis
    result["geom"] = geom
    return result


@pytest.fixture(scope="module")
def linking_run():
    """Linking pipeline at grid 32, rho = 1.0 (shared by 7 and 10)."""
    config = RunConfig.from_dict({
        "grid_n": 32, "spin_delta": [0.5, 0.5], "rho": 1.0,
        "mode": "linking", "seed": 0, "cutoff": 3.0,
        "max_outer": 60, "grad_tol": 1e-3, "r0": 0.02,
    })
    output = run(config)
    output["_config"] = config
    return output


def test_criterion_1_spectrum_conformance():
    crit = Criterion(1, "spectrum conformance at grid 32, all four spin structures")
    t0 = time.perf_counter()
    for delta in ALL_DELTAS:
        geom = TorusGeometry(grid_n=32, spin_delta=delta)
        basis = build_basis(geom, cutoff=3.0)
        want = enumerate_spectrum(delta, geom.side_length, 40)
        got = basis.eigenvalues[:40]
        rel = np.max(np.abs(got - want) / np.maximum(want, 1.0))
        crit.check(f"delta={delta} spectrum rel err {rel:.2e}", rel <= 1e-10)
        want_h = 4 if delta == (0.0, 0.0) else 0
        crit.check(f"delta={delta} harmonic dim", basis.harmonic_dim == want_h)
    elapsed = time.perf_counter() - t0
    crit.check(f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0)
    crit.conclude()


def test_criterion_2_operator_algebra(setup32):
    crit = Criterion(2, "operator algebra over 100 random fields")
    geom, basis = setup32
    t0 = time.perf_counter()
    gammas = [GAMMA1, GAMMA2]
    exact = all(
        np.array_equal(gammas[i] @ gammas[j] + gammas[j] @ gammas[i],
                       -2.0 * (i == j) * np.eye(2))
        for i in range(2) for j in range(2))
    crit.check("Clifford relation exact", exact)

    rng = np.random.default_rng(2024)
    worst = {"selfadj": 0.0, "omega": 0.0, "j": 0.0, "parseval": 0.0}
    for _ in range(100):
        psi = random_spinor(geom, rng)
        phi = random_spinor(geom, rng)
        scale = 1.0 + hhalf_norm(psi) + hhalf_norm(phi)
        sa = abs(grid_l2_inner(dirac_apply(psi), phi) - grid_l2_inner(psi, dirac_apply(phi)))
        worst["selfadj"] = max(worst["selfadj"], sa / scale)
        om = l2_norm(dirac_apply(omega_mult(psi)) + omega_mult(dirac_apply(psi)))
        worst["omega"] = max(worst["omega"], om / scale)
        jc = l2_norm(dirac_apply(quaternion_j(psi)) - quaternion_j(dirac_apply(psi)))
        worst["j"] = max(worst["j"], jc / scale)
        pv = abs(grid_l2_inner(psi, psi) - l2_inner(psi, psi))
        worst["parseval"] = max(worst["parseval"], pv / (1.0 + l2_inner(psi, psi)))
    for name, val in worst.items():
        crit.check(f"{name} {val:.2e} <= 1e-11", val <= 1e-11)
    elapsed = time.perf_counter() - t0
    crit.check(f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0)
    crit.conclude()


def test_criterion_3_variational_consistency(setup32):
    crit = Criterion(3, "gradient/Hessian consistency and symmetries of J")
    geom, basis = setup32
    params = ActionParams(rho=0.8)
    rng = np.random.default_rng(7)

    def smooth_pair(u_amp=0.4, psi_amp=0.7):
        u = random_scalar(geom, rng)
        u = u * (u_amp / max(np.max(np.abs(u.values)), 1e-12))
        psi = random_spinor(geom, rng, decay=2.0)
        psi = psi * (psi_amp / max(hhalf_norm(psi), 1e-12))
        return u, psi

    worst_fd = 0.0
    for _ in range(20):
        u, psi = smooth_pair()
        v, phi = smooth_pair()
        pairing = riesz_pair(gradient_J(u, psi, params), v, phi)
        best = np.inf
        for h in (1e-3, 1e-4, 1e-5):
            jp = evaluate_J(u + h * v, psi + h * phi, params)
            jm = evaluate_J(u - h * v, psi - h * phi, params)
            best = min(best, abs((jp - jm) / (2 * h) - pairing) / max(abs(pairing), 1e-10))
        worst_fd = max(worst_fd, best)
    crit.check(f"gradient vs finite differences {worst_fd:.2e} <= 1e-6", worst_fd <= 1e-6)

    u, psi = smooth_pair()
    worst_sym = 0.0
    for _ in range(5):
        a_u, a_psi = smooth_pair()
        b_u, b_psi = smooth_pair()
        hab = dual_pair(hessian(u, psi, a_u, a_psi, params), b_u, b_psi)
        hba = dual_pair(hessian(u, psi, b_u, b_psi, params), a_u, a_psi)
        worst_sym = max(worst_sym, abs(hab - hba) / (1.0 + abs(hab)))
    crit.check(f"Hessian symmetry {worst_sym:.2e} <= 1e-9", worst_sym <= 1e-9)

    worst_inv = 0.0
    for _ in range(10):
        u, psi = smooth_pair()
        j0 = evaluate_J(u, psi, params)
        worst_inv = max(worst_inv,
                        abs(evaluate_J(-1.0 * u, psi, params) - j0) / (1 + abs(j0)),
                        abs(evaluate_J(u, quaternion_j(psi), params) - j0) / (1 + abs(j0)))
    crit.check(f"Z2 x J invariance {worst_inv:.2e} <= 1e-12", worst_inv <= 1e-12)
    crit.conclude()


def test_criterion_4_nehari_certification(setup32):
    crit = Criterion(4, "fiber solves certified on 50 random pairs")
    geom, basis = setup32
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(11)

    def draw(h1_cap=1.0):
        u = random_scalar(geom, rng)
        u = u * (h1_cap / max(h1_norm(u), 1e-12))
        psi = random_spinor(geom, rng, decay=1.5)
        return u, psi - project(psi, "minus")

    worst_cert = 0.0
    for _ in range(50):
        u, free = draw(h1_cap=float(rng.uniform(0.2, 1.0)))
        pt = fiber_solve(u, free, params)
        worst_cert = max(worst_cert, pt.constraint_norm)
    crit.check(f"constraint residual {worst_cert:.2e} <= 1e-10", worst_cert <= 1e-10)

    _, free = draw()
    pt0 = fiber_solve(ScalarField.zeros(geom), free, params)
    zn = hhalf_norm(project(pt0.psi, "minus"))
    crit.check(f"u=0 gives psi_minus {zn:.2e} <= 1e-12", zn <= 1e-12)

    u, f1 = draw()
    _, f2 = draw()
    a, b = 1.3, -0.8
    combo = fiber_solve(u, a * f1 + b * f2, params)
    sep = a * project(fiber_solve(u, f1, params).psi, "minus") \
        + b * project(fiber_solve(u, f2, params).psi, "minus")
    lin = hhalf_norm(project(combo.psi, "minus") - sep)
    crit.check(f"fiber linearity {lin:.2e} <= 1e-10",
               lin <= 1e-10 * (1 + hhalf_norm(combo.psi)))

    even_same = np.array_equal(fiber_solve(u, f1, params).psi.coeffs,
                               fiber_solve(-1.0 * u, f1, params).psi.coeffs)
    crit.check("fiber evenness in u exact", even_same)

    worst_rayleigh = fiber_rayleigh_margin(u, params, rng, n_samples=50)
    bound = -fiber_coercivity(geom, params.rho, float(np.min(np.cosh(u.values))))
    crit.check(f"fiber operator margin ({worst_rayleigh:.3f} <= {bound:.3f})",
               worst_rayleigh <= bound)
    crit.conclude()


def test_criterion_5_semi_trivial(setup32):
    crit = Criterion(5, "eigenmode at rho = lambda_1 solves the system")
    geom, basis = setup32
    params = ActionParams(rho=basis.eigenvalue(1))
    ru, rp = el_residual_norms(
        geom, gradient_J(ScalarField.zeros(geom), basis.eigenspinor(1), params))
    crit.check(f"el residual {ru + rp:.2e} <= 1e-10", ru + rp <= 1e-10)
    crit.conclude()


def test_criterion_6_mountain_pass_run(multiplicity_run):
    crit = Criterion(6, "mountain-pass existence run at rho = 0.5, grid 32")
    result = multiplicity_run
    rec = result["records"][0]
    params = result["params"]
    basis = result["basis"]

    crit.check(f"endpoint energy {result['endpoint_J']:.3f} < 0", result["endpoint_J"] < 0)
    crit.check("record refined to an EL solution", rec.refined)
    crit.check(f"residuals {rec.res_u + rec.res_psi:.2e} <= 1e-6",
               rec.res_u + rec.res_psi <= 1e-6)
    crit.check(f"level c1 = {rec.level:.4f} > 0", rec.level > 0)
    crit.check(f"psi norm {rec.psi_hhalf:.4f} > 1e-3", rec.psi_hhalf > 1e-3)
    crit.check("classification nonzero",
               rec.classification in ("semi_trivial_constant_u", "nontrivial"))

    margin = coercivity_probe(params, basis, r0=0.05, tau=50.0,
                              n_samples=100, seed=3)
    crit.check(f"coercivity margin {margin:.4f} > 0", margin > 0)
    crit.check(f"c1 >= margin * r0^2 = {margin * 0.05**2:.2e}",
               rec.level >= margin * 0.05**2)
    crit.check(f"runtime {result['elapsed']:.0f}s < 600s", result["elapsed"] < 600.0)
    crit.conclude()


def test_criterion_7_linking(linking_run):
    crit = Criterion(7, "linking constants, path ends, min-max run at rho = 1.0")
    output = linking_run
    config = output["_config"]
    geom = config.geometry()
    basis = build_basis(geom, cutoff=3.0)
    params = config.action_params()

    consts = linking_constants(params, basis)
    rho, vol = params.rho, geom.vol
    crit.check("step (i): rho cosh(T) - lam_{k+1} > 1",
               rho * np.cosh(consts.T) - consts.lam_k1 > 1.0)
    crit.check("step (ii): endcap bound negative",
               4 * rho**2 * vol * np.sinh(consts.T) ** 2
               - 8 * consts.s**2 * (rho * np.cosh(consts.T) - consts.lam_k1) < 0)
    crit.check(f"endpoint reported: u_bar = T, s = {consts.s:.6f}",
               output["endpoint"]["u_bar"] == consts.T and output["endpoint"]["s"] == consts.s)

    nodes, _ = straight_path(ScalarField.constant(geom, consts.T), consts.s,
                             basis.eigenspinor(consts.k_index + 1), 5, params)
    j_origin = evaluate_J(nodes[0].u, nodes[0].psi, params)
    j_end = evaluate_J(nodes[-1].u, nodes[-1].psi, params)
    crit.check(f"J(origin) = {j_origin:.2e} == 0", j_origin == 0.0)
    crit.check(f"J(endpoint) = {j_end:.2e} < 0", j_end < 0)

    rec = output["records"][0]
    diag = output["diagnostics"]
    crit.check("PS diagnostics attached and consistent",
               len(diag["alpha_norms"]) == len(diag["energies"]) > 0)
    crit.check("record refined, not trivial",
               rec["refined"] and rec["classification"] != "trivial")
    if rec["refined"]:
        crit.check(f"residuals {rec['res_u'] + rec['res_psi']:.2e} <= 1e-5",
                   rec["res_u"] + rec["res_psi"] <= 1e-5)
        margin = coercivity_probe(params, basis, r0=0.02, tau=50.0,
                                  n_samples=50, seed=5)
        crit.check(f"level {rec['level']:.3f} >= margin*r0^2 = {margin * 4e-4:.2e}",
                   rec["level"] >= margin * 0.02**2)
        closed_form = 4 * (consts.lam_k1**2 - rho**2) * vol
        crit.check(f"level {rec['level']:.6f} = 4 (lam_k1^2 - rho^2) Vol = {closed_form:.6f}",
                   abs(rec["level"] - closed_form) <= 1e-10 * closed_form)
    crit.conclude()


def test_criterion_8_sweepout():
    crit = Criterion(8, "sweepout lemma and negative-energy equivariant family")
    n = 256
    epsilon = 0.05 * TWO_PI ** 2
    chi = build_sweepout_chi(TWO_PI, epsilon, n)

    crit.check("(i) chi(0,.) = 1 to 1e-12",
               np.max(np.abs(chi.line(0.0, n) - 1.0)) <= 1e-12)
    worst_anti = 0.0
    for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        worst_anti = max(worst_anti,
                         np.max(np.abs(chi.line(th, n) + chi.line(th + np.pi, n))))
    crit.check(f"(ii) antiperiodicity {worst_anti:.2e} <= 1e-12", worst_anti <= 1e-12)
    volume = interface_volume(chi, n)
    crit.check(f"(iii) interface volume {volume:.3f} < epsilon {epsilon:.3f}",
               volume < epsilon)

    solver_geom = TorusGeometry(grid_n=32, spin_delta=(0.5, 0.5))
    basis = build_basis(solver_geom, cutoff=3.0)
    params = ActionParams(rho=0.5)
    consts = linking_constants(params, basis)
    fam = equivariant_family(consts.T, consts.s, chi, params, basis, n_theta=64,
                             n_theta_disk=8)
    crit.check(f"family max J {max(fam.energies):.2f} < 0", max(fam.energies) < 0)
    crit.conclude()


def test_criterion_9_multiplicity(multiplicity_run):
    crit = Criterion(9, "multiplicity pipeline produces two distinct records")
    result = multiplicity_run
    c1 = result["levels"]["c1"]
    c2 = result["levels"]["c2"]
    records = result["records"]

    crit.check(f"c2 = {c2:.4f} >= c1 - 1e-9 = {c1:.4f} - 1e-9", c2 >= c1 - 1e-9)
    if abs(c2 - c1) <= 1e-6:
        crit.check("degenerate levels trigger the orthogonal restart",
                   len(records) >= 3)
        if len(records) >= 3:
            from sshg.spectral import sobolev_inner
            ortho = abs(sobolev_inner(records[2].point.u, records[0].point.u))
            crit.check(f"restart orthogonality {ortho:.2e} <= 1e-8", ortho <= 1e-8)
    crit.check("two records satisfy the distinctness ledger", result["distinct"])
    crit.conclude()


def test_criterion_10_diagnostics_fidelity(multiplicity_run, linking_run):
    crit = Criterion(10, "multiplier/residual fidelity for converged records")
    result = multiplicity_run
    params = result["params"]
    newton_tol = 1e-10

    converged = [r for r in result["records"] if r.refined]
    crit.check("at least one converged record exists", len(converged) >= 1)
    for i, rec in enumerate(converged):
        res = constrained_gradient(rec.point, params)
        crit.check(f"record {i}: multiplier {res.multiplier_norm:.2e} <= 10*newton_tol",
                   res.multiplier_norm <= 10 * newton_tol)
        crit.check(f"record {i}: alpha {res.alpha_norm:.2e} <= 1e-6",
                   res.alpha_norm <= 1e-6)
        crit.check(f"record {i}: beta {res.beta_norm:.2e} <= 1e-6",
                   res.beta_norm <= 1e-6)

    diag = result["diagnostics"]
    crit.check("norm traces bounded (multiplicity run)", diag.bounded())
    # the PS trace belongs to the disk (record 1): refined, it ends at the
    # converged residual level
    crit.check("disk record refined", result["records"][1].refined)
    crit.check(f"disk trace ends at alpha {diag.alpha_norms[-1]:.2e} <= 1e-6",
               diag.alpha_norms[-1] <= 1e-6)
    crit.check(f"disk trace ends at beta {diag.beta_norms[-1]:.2e} <= 1e-6",
               diag.beta_norms[-1] <= 1e-6)
    ldiag = linking_run["diagnostics"]
    crit.check("norm traces bounded (linking run)", bool(ldiag["bounded"]))
    crit.conclude()
