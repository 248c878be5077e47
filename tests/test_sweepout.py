"""Sweepout lemma, equivariant family, disk min-max, restart, distinctness."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import sshg.minmax
import sshg.runner
import sshg.sweepout
from sshg.action import ActionParams, el_residual_norms, evaluate_J, gradient_J
from sshg.errors import CertificationError, ConfigError, ResolutionError
from sshg.fields import ScalarField
from sshg.geometry import TWO_PI, TorusGeometry
from sshg.minmax import NEWTON_TOL, MinmaxConfig, linking_constants, newton_refine
from sshg.nehari import NehariPoint, fiber_solve
from sshg.runner import RunConfig, run
from sshg.spectral import build_basis, hhalf_norm, sobolev_inner
from sshg.sweepout import (
    build_sweepout_chi,
    case2_radius,
    certify_equivariance,
    equivariant_disk_mesh,
    equivariant_disk_minmax,
    equivariant_family,
    orthogonal_restart,
    records_distinct,
)

from oracles import full_equivariant_family, interface_volume, quaternion_j
from test_workcounts import CONFIG

LAM1 = np.sqrt(2.0) / 2.0


@pytest.fixture(scope="module")
def chi256():
    return build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 256)


@pytest.fixture(scope="module")
def mp16():
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.5)
    params = ActionParams(rho=0.5)
    return geom, basis, params


def test_sweepout_properties(chi256):
    chi = chi256
    n = 256
    # (i) chi(0,.) = 1 and chi(pi,.) = -1 exactly
    assert np.max(np.abs(chi.line(0.0, n) - 1.0)) <= 1e-12
    assert np.max(np.abs(chi.line(np.pi, n) + 1.0)) <= 1e-12
    # (ii) antiperiodicity on a theta sweep
    for th in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        assert np.max(np.abs(chi.line(th, n) + chi.line(th + np.pi, n))) <= 1e-12
    # (iii) interface volume below epsilon
    assert interface_volume(chi, n) < 0.05 * TWO_PI ** 2
    # range is [-1, 1]
    vals = chi.line(1.2345, n)
    assert np.max(vals) <= 1.0 + 1e-15 and np.min(vals) >= -1.0 - 1e-15
    # on a grid every row is the line, times the scale
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    u = chi.scalar(1.2345, geom, 2.5).values
    assert np.array_equal(u, np.tile(chi.line(1.2345, 16) * 2.5, (16, 1)))


def test_sweepout_resolution_guard():
    with pytest.raises(ResolutionError):
        build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 32)
    with pytest.raises(ConfigError):
        build_sweepout_chi(TWO_PI, 0.5 * TWO_PI ** 2, 32)


def test_sweepout_volume_scales_with_epsilon():
    v = []
    for frac in (0.05, 0.025):
        chi = build_sweepout_chi(TWO_PI, frac * TWO_PI ** 2, 512)
        v.append(interface_volume(chi, 512))
    assert v[1] < v[0]


@pytest.fixture(scope="module")
def family16(mp16, chi256):
    geom, basis, params = mp16
    consts = linking_constants(params, basis)
    return equivariant_family(consts.T, consts.s, chi256, params, basis,
                              n_theta=32, n_theta_disk=8)


def test_equivariant_family(mp16, family16):
    geom, basis, params = mp16
    fam = family16
    full = full_equivariant_family(fam, params, basis)
    half, stride = len(full) // 2, len(full) // 8
    assert len(fam.theta_grid) == len(fam.energies) == 32
    # theta = 0 member is the endpoint itself
    assert np.max(np.abs(fam.ring[0].u.values - fam.u_bar)) <= 1e-12
    # the ring is every stride-th point of the first half, bit for bit
    assert len(fam.ring) == 4
    for k, pt in enumerate(fam.ring):
        assert np.array_equal(pt.u.values, full[k * stride].u.values)
        assert np.array_equal(pt.psi.eig, full[k * stride].psi.eig)
        assert pt.constraint_norm == full[k * stride].constraint_norm
    # u antisymmetry exact, psi periodic with period pi: the second half is
    # the sigma-image of the first
    for i in range(half):
        image = sshg.sweepout._sigma_point(full[i])
        assert np.array_equal(image.u.values, full[i + half].u.values)
        assert np.array_equal(image.u.values, -full[i].u.values)
        assert hhalf_norm(image.psi - full[i + half].psi) == 0.0
        certify_equivariance(full[i], full[i + half])
    # the energies are J at every point of the circle, bit for bit, the
    # mirror half's evaluated at the images themselves, all negative; all
    # points certified
    assert fam.energies == [evaluate_J(pt.u, pt.psi, params) for pt in full]
    assert max(fam.energies) < 0
    assert all(pt.constraint_norm <= 1e-10 for pt in full)


def _skewed_sigma(pt):
    # the Z2 image with psi off by one part in 10^12
    return NehariPoint(u=-1.0 * pt.u, psi=(1.0 + 1e-12) * pt.psi,
                       constraint_norm=pt.constraint_norm, params=pt.params)


def test_family_refuses_inexact_partners(mp16, chi256, monkeypatch):
    # each sigma-image must be exact as it is formed: a relative psi drift
    # of 1e-12 is refused, not forgiven by a tolerance
    geom, basis, params = mp16
    consts = linking_constants(params, basis)
    monkeypatch.setattr(sshg.sweepout, "_sigma_point", _skewed_sigma)
    with pytest.raises(CertificationError, match="equivariance drift"):
        equivariant_family(consts.T, consts.s, chi256, params, basis,
                           n_theta=32, n_theta_disk=8)


def test_equivariance_certificate_refuses_one_ulp(family16):
    # a family point's sigma-image passes exactly; one ulp off in a single
    # image value is drift
    pt = family16.ring[1]
    image = sshg.sweepout._sigma_point(pt)
    certify_equivariance(pt, image)
    geom = pt.u.geom
    vals = image.u.values.copy()
    vals[0, 0] = np.nextafter(vals[0, 0], np.inf)
    drifted = NehariPoint(u=ScalarField.from_values(geom, vals), psi=image.psi,
                          constraint_norm=image.constraint_norm, params=image.params)
    with pytest.raises(CertificationError, match="equivariance drift"):
        certify_equivariance(pt, drifted)


def test_family_frees_a_failed_attempt_before_retrying(mp16, chi256, monkeypatch):
    # the grid-16 family passes on its first attempt, so its solve at angle
    # index 5 is given J = 0.0: the attempt stops there, after 6 solves and
    # 5 sigma-images (the ring had taken angles 0 and 4), and every one of
    # those points is freed when the retry's first fiber solve starts
    geom, basis, params = mp16
    consts = linking_constants(params, basis)
    fail = 5
    orig_solve, orig_sigma = sshg.sweepout.fiber_solve, sshg.sweepout._sigma_point
    solves, first_attempt, freed_at_retry = [], [], []

    def solve(*args, **kwargs):
        if len(solves) == fail + 1:   # the retry's first
            gc.collect()
            freed_at_retry.extend(ref() is None for ref in first_attempt)
        pt = orig_solve(*args, **kwargs)
        solves.append(1)
        if len(solves) <= fail + 1:
            if len(solves) == fail + 1:
                pt.J = 0.0
            first_attempt.append(weakref.ref(pt))
        return pt

    def sigma(pt):
        image = orig_sigma(pt)
        if len(solves) <= fail + 1:
            first_attempt.append(weakref.ref(image))
        return image

    monkeypatch.setattr(sshg.sweepout, "fiber_solve", solve)
    monkeypatch.setattr(sshg.sweepout, "_sigma_point", sigma)
    fam = equivariant_family(consts.T, consts.s, chi256, params, basis,
                             n_theta=32, n_theta_disk=8)
    assert fam.s == 1.5 * consts.s and max(fam.energies) < 0
    assert len(solves) == fail + 1 + 16
    assert len(freed_at_retry) == 2 * fail + 1 and all(freed_at_retry)


def test_family_failure_names_the_first_angle_with_nonnegative_J(mp16, chi256, monkeypatch):
    # in every attempt the solve at angle index k >= 2 is given
    # J = 0.25 (k - 1): each attempt stops after angle 2, and the error after
    # the last retry names angle 2 and its J, not the larger J further on.
    # An attempt's first solve is the one without a warm start
    geom, basis, params = mp16
    consts = linking_constants(params, basis)
    orig_solve = sshg.sweepout.fiber_solve
    solved = []

    def solve(u, psi_free, params, x0=None):
        k = 0 if x0 is None else solved[-1] + 1
        pt = orig_solve(u, psi_free, params, x0=x0)
        solved.append(k)
        if k >= 2:
            pt.J = 0.25 * (k - 1)
        return pt

    monkeypatch.setattr(sshg.sweepout, "fiber_solve", solve)
    theta = 2 * 2.0 * np.pi / 32
    with pytest.raises(CertificationError,
                       match=f"after 3 retries: J = 0.25 >= 0 at theta = {theta:.4f}"):
        equivariant_family(consts.T, consts.s, chi256, params, basis,
                           n_theta=32, n_theta_disk=8)
    assert solved == [0, 1, 2] * 4


def test_family_retries_keep_the_profile(mp16, monkeypatch):
    # every attempt fails at its first angle: each retry multiplies s by
    # 1.5, adds 0.3 to u_bar from the second retry on, and keeps the profile
    # it was given, even on a line where a halved epsilon would certify
    geom, basis, params = mp16
    chi = build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 512)
    attempts = []

    def fail_first_angle(u_bar, s, chi_, params_, basis_, thetas, stride):
        attempts.append((u_bar, s, chi_))
        return [0.0], None

    monkeypatch.setattr(sshg.sweepout, "_family_attempt", fail_first_angle)
    with pytest.raises(CertificationError, match="after 3 retries"):
        equivariant_family(1.0, 2.0, chi, params, basis, n_theta=32, n_theta_disk=8)
    assert all(c is chi for _, _, c in attempts)
    assert [s for _, s, _ in attempts] == [2.0, 3.0, 4.5, 6.75]
    assert [u for u, _, _ in attempts] == [1.0, 1.0, 1.0 + 0.3, 1.0 + 0.3 + 0.3]


def test_disk_starts_with_only_the_ring_of_the_family_alive(monkeypatch):
    # when the deformation of the grid-16 run's disk starts, the only family
    # points alive are the ring the disk holds as its frozen outer nodes: no
    # other orbit representative and no sigma-image
    orig_family, orig_solve = sshg.runner.equivariant_family, sshg.sweepout.fiber_solve
    orig_sigma = sshg.sweepout._sigma_point
    building, family_points, at_disk = [False], [], {}

    class DiskStarted(Exception):
        pass

    def family(*args, **kwargs):
        building[0] = True
        try:
            return orig_family(*args, **kwargs)
        finally:
            building[0] = False

    def solve(*args, **kwargs):
        pt = orig_solve(*args, **kwargs)
        if building[0]:
            family_points.append(weakref.ref(pt))
        return pt

    def sigma(pt):
        image = orig_sigma(pt)
        family_points.append(weakref.ref(image))
        return image

    def deform(nodes, frozen, *args, **kwargs):
        gc.collect()
        ring = [nd for nd, fz in zip(nodes, frozen) if fz]
        at_disk["alive"] = [ref() is not None for ref in family_points]
        at_disk["in_ring"] = [any(ref() is nd for nd in ring) for ref in family_points]
        raise DiskStarted

    monkeypatch.setattr(sshg.runner, "equivariant_family", family)
    monkeypatch.setattr(sshg.sweepout, "fiber_solve", solve)
    monkeypatch.setattr(sshg.sweepout, "_sigma_point", sigma)
    monkeypatch.setattr(sshg.sweepout, "minmax_deform", deform)
    with pytest.raises(DiskStarted):
        run(RunConfig.from_dict(CONFIG))
    assert len(family_points) == CONFIG["n_theta"]
    assert at_disk["alive"] == at_disk["in_ring"]
    assert sum(at_disk["in_ring"]) == CONFIG["n_theta_disk"] // 2


def test_disk_mesh_builds_each_orbit_once():
    # node() runs for the centers and the first n_theta/2 spokes only, in
    # mesh order, and the mesh holds exactly those nodes, with one radial
    # segment into each non-center node
    n_theta, n_r, half = 6, 2, 3
    calls = []

    def node(shell, it, ir):
        calls.append((shell, it, ir))
        return (shell, it, ir)

    nodes, frozen, centers, segments = equivariant_disk_mesh(
        [False, True], n_theta, n_r, node)
    first_half = [(it, ir) for it in range(half) for ir in range(1, n_r + 1)]
    expected = [(shell, *pos) for shell in (0, 1) for pos in [(0, 0)] + first_half]
    assert calls == expected
    assert nodes == expected
    assert centers == [0, 1 + half * n_r]
    assert frozen == [shell == 1 or ir == n_r for shell, _, ir in nodes]
    assert sorted(j for _, j in segments) == [k for k in range(len(nodes))
                                              if k not in centers]
    for i, j in segments:
        shell, it, ir = nodes[j]
        assert nodes[i] == ((shell, 0, 0) if ir == 1 else (shell, it, ir - 1))


def test_disk_minmax_builds_no_sigma_images(mp16, family16, monkeypatch):
    # once the family exists, the disk holds one representative per Z2
    # orbit: neither its mesh nor its deformation builds a sigma-image
    geom, basis, params = mp16

    def refuse(pt):
        pytest.fail("the disk built a sigma-image")

    monkeypatch.setattr(sshg.sweepout, "_sigma_point", refuse)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=3, seed=0)
    rec, diags = equivariant_disk_minmax(family16, config, params, basis, n_radii=3)
    assert diags.bounded()


def test_disk_minmax_unchanged_when_every_ridge_sample_is_solved(mp16, family16,
                                                                  monkeypatch):
    # ridge repair skips only samples whose fiber-energy bound shows they
    # could never be promoted: with an infinite bound every sample is solved,
    # as without the bound, and the disk's record and diagnostics are equal
    geom, basis, params = mp16
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=15, seed=0)
    solves = []
    orig = sshg.minmax._interp_points

    def counting_interp(*args, **kwargs):
        solves.append(1)
        return orig(*args, **kwargs)

    def disk():
        solves.clear()
        rec, diags = equivariant_disk_minmax(family16, config, params, basis, n_radii=3)
        return rec, diags, len(solves)

    monkeypatch.setattr(sshg.minmax, "_interp_points", counting_interp)
    rec, diags, bounded_solves = disk()
    monkeypatch.setattr(sshg.minmax, "fiber_energy_bounds",
                        lambda a, b, weights, params_: np.full(len(weights), np.inf))
    rec_all, diags_all, all_solves = disk()

    assert any(diags.repairs[:-1]) and bounded_solves < all_solves
    assert diags == diags_all
    # the reported fields; the multiplier solve holds fields compared by identity
    assert (dataclasses.replace(rec, point=None, multiplier=None)
            == dataclasses.replace(rec_all, point=None, multiplier=None))
    assert np.array_equal(rec.point.u.values, rec_all.point.u.values)
    assert np.array_equal(rec.point.psi.eig, rec_all.point.psi.eig)


def test_disk_minmax_and_restart(mp16, family16):
    geom, basis, params = mp16
    fam = family16
    # first solution: the refined mountain-pass record
    c_exact = float(np.arccosh(LAM1 / 0.5))
    s_exact = geom.side_length * np.sqrt(LAM1)
    seed_pt = fiber_solve(ScalarField.constant(geom, c_exact),
                          s_exact * basis.eigenspinor(1), params)
    rec1 = newton_refine(seed_pt, params)
    assert rec1.refined
    c1 = rec1.level

    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=40, seed=0)
    rec2, diags = equivariant_disk_minmax(fam, config, params, basis, n_radii=3)
    c2 = rec2.level
    assert diags.bounded()
    assert c2 >= c1 - 1e-9

    if abs(c2 - c1) <= 1e-6:
        rec3, rdiags = orthogonal_restart(rec1.point.u, fam, config, params, basis)
        ortho = abs(sobolev_inner(rec3.point.u, rec1.point.u))
        assert ortho <= 1e-8
        assert records_distinct(rec1, rec3)
    else:
        assert records_distinct(rec1, rec2)


def test_disk_minmax_refuses_bad_theta_sampling(mp16, chi256, monkeypatch):
    # 32 family angles: 10 and 6 do not divide 32, 2 is below 4; each used
    # to be replaced silently by another sampling.  The family keeps the
    # disk's angles, so it refuses them, before any solve
    geom, basis, params = mp16
    consts = linking_constants(params, basis)

    def refuse(*args, **kwargs):
        pytest.fail("the family solved before checking the disk's sampling")

    monkeypatch.setattr(sshg.sweepout, "fiber_solve", refuse)
    for n_theta_disk in (10, 6, 2):
        with pytest.raises(ConfigError, match="n_theta_disk"):
            equivariant_family(consts.T, consts.s, chi256, params, basis,
                               n_theta=32, n_theta_disk=n_theta_disk)


def test_orthogonal_restart_direct(mp16, family16):
    # exercised unconditionally: the degenerate-level branch may not trigger
    # in the pipeline run, but the fallback must work on demand
    geom, basis, params = mp16
    fam = family16
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    rec1 = newton_refine(
        fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params),
        params)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=30, seed=1)
    rec3, diags = orthogonal_restart(rec1.point.u, fam, config, params, basis)
    ortho = abs(sobolev_inner(rec3.point.u, rec1.point.u))
    assert ortho <= 1e-8
    assert diags.bounded()
    # Newton refines the restart to a solution that already lies in the
    # orthogonal complement, and the restart returns it refined
    assert rec3.refined
    assert rec3.classification == "nontrivial"
    # the restricted level cannot drop below the free min-max floor
    assert rec3.level > 0
    # theta-antisymmetry of the pairing: p(theta) + p(theta + pi) = 0, with
    # u_theta = chi(theta,.) * u_bar as the restart forms it
    thetas = fam.theta_grid
    half = len(thetas) // 2

    def u_at(theta):
        return fam.chi.scalar(float(theta), geom, fam.u_bar)

    for i in range(0, half, 4):
        a = sobolev_inner(rec1.point.u, u_at(thetas[i]))
        b = sobolev_inner(rec1.point.u, u_at(thetas[i + half]))
        assert abs(a + b) <= 1e-9 * (1 + abs(a))


def test_orbit_closure(mp16):
    geom, basis, params = mp16
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    pt = fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params)
    rec = newton_refine(pt, params)
    rng = np.random.default_rng(5)
    for _ in range(6):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        sigma = float(rng.choice([-1.0, 1.0]))
        # the Z2 x quaternionic group element (sigma, q) applied to the
        # solution, q = (a, b, c, d) acting through a + bI + cJ + dK
        a, b, c, d = (float(t) for t in q)
        psi = rec.point.psi
        jpsi = quaternion_j(psi)
        q_psi = a * psi + (1j * b) * psi + c * jpsi + (1j * d) * jpsi
        ru, rp = el_residual_norms(geom, gradient_J(sigma * rec.point.u, q_psi, params))
        assert ru + rp <= 1e-9


def test_case2_product_minmax_harmonic_block():
    # delta = (0,0): K = 4 harmonic directions, rho below the first eigenvalue
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis = build_basis(geom, cutoff=2.2)
    params = ActionParams(rho=0.5)
    chi = build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 256)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=30, seed=0)
    from sshg.sweepout import case2_block, case2_product_minmax
    consts = linking_constants(params, basis)
    rec, diags = case2_product_minmax(chi, consts, case2_block(basis, consts), config,
                                      params, basis, n_theta_disk=8, n_radii=3)
    assert diags.bounded()
    if rec.refined:
        assert rec.res_u + rec.res_psi <= NEWTON_TOL
        assert rec.classification != "trivial"
        assert rec.level > 0


def test_case2_disk_follows_n_theta_disk_and_n_radii(monkeypatch):
    # the case-2 disk is sampled on the configured angles and radii
    geom = TorusGeometry(grid_n=16, spin_delta=(0.0, 0.0))
    basis = build_basis(geom, cutoff=2.2)
    chi = build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 256)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=5, seed=0)
    mesh = sshg.sweepout.equivariant_disk_mesh
    built = []

    class MeshBuilt(Exception):
        pass

    def mesh_then_stop(shells_on_boundary, n_theta, n_r, node):
        built.append((n_theta, n_r, mesh(shells_on_boundary, n_theta, n_r, node)))
        raise MeshBuilt

    monkeypatch.setattr(sshg.sweepout, "equivariant_disk_mesh", mesh_then_stop)
    from sshg.sweepout import case2_block, case2_product_minmax
    with pytest.raises(MeshBuilt):
        params = ActionParams(rho=0.5)
        consts = linking_constants(params, basis)
        case2_product_minmax(chi, consts, case2_block(basis, consts), config, params, basis,
                             n_theta_disk=4, n_radii=2)
    (n_theta, n_r, (nodes, frozen, centers, segments)), = built
    assert (n_theta, n_r) == (4, 2)
    # each shell: a center and n_theta/2 spokes of n_r radial nodes, the
    # outermost of which is frozen
    per_shell = 1 + (4 // 2) * 2
    assert len(nodes) == per_shell * len(centers)
    assert centers == list(range(0, len(nodes), per_shell))
    assert frozen[centers[0] + 2] and not frozen[centers[0] + 1]


def test_case2_boundary_is_certified_once_on_one_mesh(monkeypatch):
    # grid 32, delta = (0,0), rho = 0.5: two boundary nodes on the phi = 0
    # rim at r = 1 have positive energy, which no radius R reaches.  The
    # product builds one mesh, and minmax_deform refuses its boundary
    geom = TorusGeometry(grid_n=32, spin_delta=(0.0, 0.0))
    basis = build_basis(geom, cutoff=3.0)
    params = ActionParams(rho=0.5)
    chi = build_sweepout_chi(TWO_PI, 0.05 * geom.vol, 256)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=1, seed=0)
    mesh = sshg.sweepout.equivariant_disk_mesh
    builds = []

    def counted_mesh(*args):
        builds.append(args)
        return mesh(*args)

    monkeypatch.setattr(sshg.sweepout, "equivariant_disk_mesh", counted_mesh)
    from sshg.sweepout import case2_block, case2_product_minmax
    consts = linking_constants(params, basis)
    with pytest.raises(CertificationError, match="frozen node .* positive energy at start"):
        case2_product_minmax(chi, consts, case2_block(basis, consts), config, params, basis,
                             n_theta_disk=8, n_radii=3)
    assert len(builds) == 1


def test_case2_capacity_guard(mp16):
    # delta = (1/2,1/2) at rho = 1.0 has K = 8 > 4: desk-scale capacity error
    geom16, basis, params_mp = mp16
    from sshg.errors import CapacityError
    from sshg.sweepout import case2_block, case2_product_minmax
    chi = build_sweepout_chi(TWO_PI, 0.05 * TWO_PI ** 2, 256)
    config = MinmaxConfig(path_nodes=9, grad_tol=1e-3, max_outer=5, seed=0)
    with pytest.raises(CapacityError):
        params = ActionParams(rho=1.0)
        consts = linking_constants(params, basis)
        case2_product_minmax(chi, consts, case2_block(basis, consts), config, params, basis,
                             n_theta_disk=8, n_radii=3)


def test_case2_run_forms_the_block_once(monkeypatch):
    # a case-2 run forms the block once and hands it to the product
    blocks = []
    orig_block = sshg.runner.case2_block

    class ProductStarted(Exception):
        pass

    def block(*args):
        blocks.append(orig_block(*args))
        return blocks[-1]

    def deform(*args, **kwargs):
        raise ProductStarted

    monkeypatch.setattr(sshg.runner, "case2_block", block)
    monkeypatch.setattr(sshg.sweepout, "case2_block", block)
    monkeypatch.setattr(sshg.sweepout, "minmax_deform", deform)
    with pytest.raises(ProductStarted):
        run(RunConfig.from_dict({"grid_n": 16, "spin_delta": [0.0, 0.0], "rho": 0.5,
                                 "mode": "multiplicity", "max_outer": 5}))
    assert len(blocks) == 1


def test_case2_radius_certifies_step_iii(mp16, monkeypatch):
    # step (iii): R grows like (rho - lam_k)^{-1/2} as rho decreases to lam_k
    geom, basis, _ = mp16

    def radius(rho):
        params = ActionParams(rho=rho)
        consts = linking_constants(params, basis)
        return case2_radius(consts, basis.eigenvalues[:consts.k_index], params, geom.vol)

    rs = [radius(rho) for rho in (0.75, 0.72, 0.71)]
    assert rs[0] < rs[1] < rs[2]
    # an R that does not dominate the bound is refused
    monkeypatch.setattr(sshg.sweepout, "LINKING_FACTOR", 0.5)
    with pytest.raises(CertificationError, match="step \\(iii\\)"):
        radius(0.75)


def test_records_distinct_ledger(mp16):
    geom, basis, params = mp16
    c = float(np.arccosh(LAM1 / 0.5))
    s = geom.side_length * np.sqrt(LAM1)
    pt = fiber_solve(ScalarField.constant(geom, c), s * basis.eigenspinor(1), params)
    rec = newton_refine(pt, params)
    # same record: same level, scalar components parallel -> not distinct
    assert not records_distinct(rec, rec)
    # sigma-mirror: same level, <u, -u> = -|u|^2 != 0 -> not distinct
    mirror = newton_refine(
        fiber_solve(-1.0 * rec.point.u, rec.point.psi, params), params)
    assert not records_distinct(rec, mirror)
