"""Z2-equivariant sweepouts, the second min-max level, and multiplicity tools.

A sweepout is a circle of [-1,1]-valued profiles chi(theta, .) with a thin
interface band, antiperiodic in theta with period pi.  Multiplying a large
constant by chi produces the equivariant family u_theta; the fountain-type
disk min-max over Z2-equivariant fillings of that family yields the second
critical level c2 >= c1, with an orthogonal-restart fallback inside
{<u, u1>_{H1} = 0} when the two levels coincide.

The symmetry sigma(u, psi) = (-u, psi) of J is applied once per Z2 orbit:
the family solves and evaluates one representative of each orbit, forms
its partner as the exact sigma-image (`_sigma_point`), checks it bit for bit
(`certify_equivariance`) and drops it, so no sigma-image is stored; the
family keeps J at every angle and only the representatives the disk reads
(its `ring`).  The disks hold only representatives, and `minmax_deform`
keeps their sigma-fixed centers at u = 0 (its `centers`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .action import ActionParams
from .errors import (
    CapacityError,
    CertificationError,
    ConfigError,
    ResolutionError,
)
from .fields import ScalarField, SpinorField
from .minmax import (
    LINKING_FACTOR,
    LinkingConstants,
    MinmaxConfig,
    SolutionRecord,
    make_record,
    minmax_deform,
    straight_path,
)
from .nehari import NehariPoint, fiber_solve, multiplier_solve, project_to_manifold
from .spectral import project, sobolev_inner

N_THETA_CHECK = 64  # theta samples on which a sweepout is certified
FAMILY_RETRIES = 3
CASE2_MAX_K = 4     # desk-scale cap on the case-2 block dimension
CASE2_MESH = (2, 4)  # (phi shells, phi directions) of the linking ball
DISTINCT_LEVEL_TOL = 1e-6
DISTINCT_ORTHO_TOL = 1e-8


# ---------------------------------------------------------------------------
# mollified antiperiodic profile
# ---------------------------------------------------------------------------

def _smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, flat at both ends."""
    x = np.asarray(x, dtype=float)
    gx = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    g1 = np.where(1 - x > 0, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    return gx / (gx + g1)


def _profile(t, delta):
    """Antiperiodic mollified square wave: +1 on (delta, pi-delta), F(t+pi) = -F(t)."""
    s = np.mod(t, 2.0 * np.pi)
    sign = np.where(s < np.pi, 1.0, -1.0)
    s = np.where(s < np.pi, s, s - np.pi)
    v = np.minimum(s, np.pi - s)
    ramp = np.where(v >= delta, 1.0, 2.0 * _smooth_step((v + delta) / (2.0 * delta)) - 1.0)
    return sign * ramp


@dataclass
class SweepoutChi:
    """Sweepout family evaluator with certified interface-volume budget.

    chi(theta, .) varies only along the second coordinate of the torus of
    side `side_length`, so it is certified and sampled as one line."""

    side_length: float
    width_delta: float       # mollification half-width in the profile argument
    delta_margin: float      # height function maps into [margin, pi - margin]

    def height(self, y):
        """Piecewise-linear two-to-one height into [margin, pi - margin]."""
        L = self.side_length
        w = np.mod(np.asarray(y, dtype=float), L) * (2.0 / L)
        tri = np.where(w <= 1.0, w, 2.0 - w)
        return self.delta_margin + (np.pi - 2.0 * self.delta_margin) * tri

    def line(self, theta, n: int) -> np.ndarray:
        """chi(theta, .) at n points along the second coordinate, which plays
        the Morse-height role (any resolution; chi is analytic)."""
        y = np.arange(n) * (self.side_length / n)
        return _profile(self.height(y) + theta, self.width_delta)

    def scalar(self, theta, geom, scale) -> ScalarField:
        """chi(theta, .) * scale on geom's grid: every row is `line`."""
        n = geom.grid_n
        return ScalarField.from_values(geom, np.ones((n, 1)) * self.line(theta, n)[None, :]
                                       * scale)


def build_sweepout_chi(side_length: float, epsilon: float, n_line: int) -> SweepoutChi:
    """Mollified square-wave sweepout with interface volume < epsilon.

    The profile is certified on a line of n_line points, each standing for
    a cell of an n_line x n_line grid on the torus of side side_length.  The
    transition strips must span at least 4 of its cells; together with the
    two-strip volume bound (0.7 epsilon by construction) this forces
    epsilon/Vol >= ~11.4/n_line, a resolution error otherwise.
    """
    vol = side_length ** 2
    if not (0.0 < epsilon < vol / 4.0):
        raise ConfigError(f"epsilon must lie in (0, Vol/4) = (0, {vol / 4.0:g})")
    eps_frac = epsilon / vol

    delta_margin = 0.15
    for _ in range(3):
        width_delta = 0.35 * eps_frac * (np.pi - 2.0 * delta_margin)
        delta_margin = max(0.15, 1.5 * width_delta)

    strip_cells = 0.35 * eps_frac * n_line
    if strip_cells < 4.0:
        raise ResolutionError(
            f"interface band spans {strip_cells:.2f} grid cells (< 4) at "
            f"n_line={n_line}; refine the line or enlarge epsilon"
        )

    chi = SweepoutChi(side_length=side_length, width_delta=width_delta,
                      delta_margin=delta_margin)

    # certify the three sweepout properties on a theta sweep, one line each;
    # the band's volume is its cells on the line, each repeated along the
    # first coordinate
    if np.max(np.abs(chi.line(0.0, n_line) - 1.0)) > 1e-12:
        raise CertificationError("sweepout property (i) failed: chi(0,.) != 1")
    worst = 0.0   # the largest interface volume
    for th in np.linspace(0.0, 2.0 * np.pi, N_THETA_CHECK, endpoint=False):
        a = chi.line(th, n_line)
        if np.max(np.abs(a + chi.line(th + np.pi, n_line))) > 1e-12:
            raise CertificationError("sweepout property (ii) failed: antiperiodicity")
        inside = np.count_nonzero(np.abs(a) < 1.0 - 1e-12)
        worst = max(worst, float(inside * n_line * (side_length / n_line) ** 2))
    if worst >= epsilon:
        raise CertificationError(
            f"sweepout property (iii) failed: interface volume {worst:.4g} "
            f">= epsilon {epsilon:.4g}"
        )
    return chi


# ---------------------------------------------------------------------------
# equivariant family
# ---------------------------------------------------------------------------

@dataclass
class EquivariantFamily:
    """A certified family, kept as its readers need it: J at every angle of
    `theta_grid` (a sigma-image's J is its partner's, bit for bit) and the
    orbit representatives the disk reads (`ring`, every (n_theta /
    n_theta_disk)-th angle of the first half).  The other points are
    dropped once solved; u at any angle is chi(theta,.) * u_bar."""

    theta_grid: np.ndarray
    energies: list
    ring: list
    u_bar: float
    s: float
    chi: SweepoutChi


def _sigma_point(pt: NehariPoint) -> NehariPoint:
    """The Z2 action on u: the image negates each view pt.u holds."""
    return replace(pt, u=-1.0 * pt.u)


def _family_attempt(u_bar, s, chi, params, basis, thetas, stride):
    """(J at every angle of `thetas`, the ring) of one attempt, or, if some
    J is not negative, (J up to the first such angle, None): the attempt
    stops there.  Each orbit representative is solved, warm-started from
    the last, its J read and its sigma-image formed, certified and dropped;
    the mirror half's energies are the first half's."""
    geom = basis.geom
    psi1 = basis.eigenspinor(1)
    energies, ring = [], []
    warm = None
    for i, th in enumerate(thetas[:len(thetas) // 2]):
        u = chi.scalar(float(th), geom, u_bar)
        pt = fiber_solve(u, s * psi1, params, x0=warm)
        warm = project(pt.psi, "minus")
        energies.append(pt.J)
        if not pt.J < 0.0:
            return energies, None
        certify_equivariance(pt, _sigma_point(pt))
        if i % stride == 0:
            ring.append(pt)
    return energies + energies, ring


def check_n_theta_disk(n_theta: int, n_theta_disk: int) -> None:
    """The family mirrors its first half onto the second: n_theta even,
    >= 32.  The disk takes every (n_theta / n_theta_disk)-th family angle:
    an even count >= 4 dividing n_theta, so antipodal angles stay on it."""
    if n_theta < 32 or n_theta % 2 != 0:
        raise ConfigError("n_theta must be even and >= 32")
    if n_theta_disk < 4 or n_theta_disk % 2 != 0 or n_theta % n_theta_disk != 0:
        raise ConfigError(f"n_theta_disk must be even, >= 4 and divide "
                          f"n_theta = {n_theta}, got {n_theta_disk}")


def equivariant_family(u_bar: float, s: float, chi: SweepoutChi, params: ActionParams,
                       basis, n_theta: int, n_theta_disk: int) -> EquivariantFamily:
    """Family (u_theta, psi_theta) on the manifold with max_theta J < 0 on
    all n_theta angles, every sigma-image certified as it is formed; it
    keeps the n_theta_disk / 2 representatives the disk reads.

    u_theta = chi(theta,.) * u_bar; the fiber part is continued in theta with
    warm starts.  An attempt stops at its first angle with J >= 0 and keeps
    none of its points; each retry keeps the profile chi and takes a larger
    s (from the second retry on, a larger u_bar too), and the error after
    the last retry names that angle and its J.
    """
    check_n_theta_disk(n_theta, n_theta_disk)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    stride = n_theta // n_theta_disk

    u_bar, s = float(u_bar), float(s)
    for attempt in range(FAMILY_RETRIES + 1):
        if attempt:
            s *= 1.5
        if attempt >= 2:
            u_bar += 0.3
        energies, ring = _family_attempt(u_bar, s, chi, params, basis, thetas, stride)
        if ring is not None:
            return EquivariantFamily(theta_grid=thetas, energies=energies, ring=ring,
                                     u_bar=u_bar, s=s, chi=chi)
    raise CertificationError(
        f"equivariant family certification failed after {FAMILY_RETRIES} retries: "
        f"J = {energies[-1]:.4g} >= 0 at theta = {thetas[len(energies) - 1]:.4f}"
    )


def certify_equivariance(pt: NehariPoint, image: NehariPoint) -> None:
    """`image` must be the exact sigma-image of `pt`: u negated in both views
    (an FFT can absorb a one-ulp change) and psi equal, bit for bit.  sigma,
    cosh (even) and sinh (odd) commute exactly with rounding, so an image
    built by `_sigma_point` passes and any drift is refused."""
    if not (np.array_equal(pt.u.values, -image.u.values)
            and np.array_equal(pt.u.coeffs, -image.u.coeffs)
            and np.array_equal(pt.psi.eig, image.psi.eig)):
        raise CertificationError("equivariance drift: a family point's partner is not "
                                 "its exact sigma-image")


# ---------------------------------------------------------------------------
# equivariant deformation (one representative per Z2 orbit)
# ---------------------------------------------------------------------------

def equivariant_disk_mesh(shells_on_boundary, n_theta: int, n_r: int, node):
    """Orbit representatives of Z2-equivariant disks, one disk per shell.

    Each shell is a center and n_theta spokes of n_r radial nodes; the spoke
    at angle index it + n_theta/2 is the sigma-image of spoke it, the center
    its own image.  The mesh holds each shell's center and its first
    n_theta/2 spokes: node(shell, it, ir) returns the point at angle index
    it < n_theta/2 and radius index ir = 1..n_r (the center is
    node(shell, 0, 0)), called in mesh order.  A node is frozen on a
    boundary shell or at ir = n_r.  Returns (nodes, frozen, centers,
    segments); the segments run from each center out along its spokes.
    """
    nodes, frozen, centers, segments = [], [], [], []
    for shell, on_boundary in enumerate(shells_on_boundary):
        centers.append(len(nodes))
        nodes.append(node(shell, 0, 0))
        frozen.append(on_boundary)
        for it in range(n_theta // 2):
            for ir in range(1, n_r + 1):
                k = len(nodes)
                nodes.append(node(shell, it, ir))
                frozen.append(on_boundary or ir == n_r)
                segments.append((centers[-1] if ir == 1 else k - 1, k))
    return nodes, frozen, centers, segments


def equivariant_disk_minmax(family: EquivariantFamily, config: MinmaxConfig,
                            params: ActionParams, basis, n_radii: int):
    """Fountain-type min-max over Z2-equivariant fillings of the family.

    The disk w(r e^{i theta}) = (r u_theta, fiber(sPsi_1)) is deformed
    through one representative of each Z2 orbit, on the 2 len(family.ring)
    angles the family kept; the boundary circle (the ring) stays fixed at
    negative energy.  Returns (SolutionRecord, PSDiagnostics); the record's
    level is c2.
    """
    geom = basis.geom
    free = family.s * basis.eigenspinor(1)
    radii = np.linspace(0.0, 1.0, n_radii + 1)
    warm = None

    def node(_, it, ir):
        # spokes are continued outward with warm starts and end on the family
        nonlocal warm
        if ir == 0:
            return fiber_solve(ScalarField.zeros(geom), free, params)
        fam_pt = family.ring[it]
        if ir == n_radii:
            return fam_pt
        u = ScalarField.from_values(geom, float(radii[ir]) * fam_pt.u.values)
        pt = fiber_solve(u, free, params, x0=warm if ir > 1 else None)
        warm = project(pt.psi, "minus")
        return pt

    nodes, frozen, centers, segments = equivariant_disk_mesh(
        [False], 2 * len(family.ring), n_radii, node)
    return minmax_deform(nodes, frozen, config, params, segments=segments, centers=centers)


# ---------------------------------------------------------------------------
# orthogonal restart
# ---------------------------------------------------------------------------

def orthogonal_restart(u1: ScalarField, family: EquivariantFamily,
                       config: MinmaxConfig, params: ActionParams, basis):
    """Mountain pass inside {<u, u1>_{H1} = 0} seeded through the family.

    theta_0 with <u1, u_{theta_0}> = 0 exists by the intermediate value
    theorem (the family is theta-antisymmetric); descent directions are
    projected against u1 so orthogonality propagates exactly.  A record
    that Newton refined inside {<u, u1>_{H1} = 0} is returned as it is.
    """
    geom = basis.geom
    u1_sq = sobolev_inner(u1, u1)
    if u1_sq <= 0:
        raise ConfigError("orthogonal restart needs a nonzero first solution")

    def pairing(theta: float) -> float:
        return sobolev_inner(u1, family.chi.scalar(float(theta), geom, family.u_bar))

    thetas = family.theta_grid
    vals = np.array([pairing(th) for th in thetas])
    if np.max(np.abs(vals)) <= 1e-12 * np.sqrt(u1_sq):
        theta0 = 0.0
    else:
        # antisymmetry p(theta+pi) = -p(theta) guarantees a sign change
        k = None
        for i in range(len(thetas)):
            a, b = vals[i], vals[(i + 1) % len(thetas)]
            if a == 0.0 or a * b < 0:
                k = i
                break
        if k is None:
            raise CertificationError(
                "no sign change in <u1, u_theta>: equivariant family corrupted")
        lo, hi = thetas[k], thetas[k] + (thetas[1] - thetas[0])
        flo = vals[k]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = pairing(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        theta0 = 0.5 * (lo + hi)

    def orthogonalize(u: ScalarField) -> ScalarField:
        coef = sobolev_inner(u, u1) / u1_sq
        return u - coef * u1

    u_t0 = orthogonalize(family.chi.scalar(theta0, geom, family.u_bar))
    nodes, frozen = straight_path(u_t0, family.s, basis.eigenspinor(1),
                                  config.path_nodes, params)
    if nodes[-1].J >= 0:
        raise CertificationError("restart endpoint energy is not negative")

    def tangent_filter(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[0] = orthogonalize(ScalarField(geom, coeffs=t[0])).coeffs
        return out

    record, diags = minmax_deform(nodes, frozen, config, params,
                                  tangent_filter=tangent_filter)
    # orthogonality certificate on the returned record; a refined record
    # that passes it as returned is kept, any other is re-projected first
    ortho = abs(sobolev_inner(record.point.u, u1))
    if not record.refined or ortho > 1e-8:
        point = project_to_manifold(orthogonalize(record.point.u), record.point.psi, params)
        record = replace(make_record(point, multiplier_solve(point, params),
                                     converged=record.converged, refined=False),
                         descent_level=record.descent_level,
                         handoff_grad=record.handoff_grad, exit=record.exit)
        ortho = abs(sobolev_inner(point.u, u1))
    if ortho > 1e-8:
        raise CertificationError(f"restart orthogonality defect {ortho:.3e} > 1e-8")
    return record, diags


# ---------------------------------------------------------------------------
# distinctness ledger
# ---------------------------------------------------------------------------

def records_distinct(r1: SolutionRecord, r2: SolutionRecord) -> bool:
    """Executable form of geometric distinctness of two non-trivial
    solutions: levels differ, or the scalar components are H^1-orthogonal."""
    if abs(r1.level - r2.level) > DISTINCT_LEVEL_TOL:
        return True
    return bool(abs(sobolev_inner(r1.point.u, r2.point.u)) <= DISTINCT_ORTHO_TOL)


# ---------------------------------------------------------------------------
# Case 2: (K+2)-dimensional equivariant set for the linking regime
# ---------------------------------------------------------------------------

def case2_block(basis, consts: LinkingConstants):
    """Eigen-elements spanning plus_b + zero, with their eigenvalues (0 for a
    harmonic spinor).

    The spectrum alone fixes the block, so its CapacityError comes before
    any solve.
    """
    h, k = consts.harmonic_dim, consts.k_index
    if h + k > CASE2_MAX_K:
        raise CapacityError(f"case-2 block dimension K={h + k} exceeds the "
                            f"desk-scale cap {CASE2_MAX_K}")
    fields = ([basis.harmonic_spinor(l) for l in range(h)]
              + [basis.eigenspinor(j) for j in range(1, k + 1)])
    return fields, np.concatenate([np.zeros(h), basis.eigenvalues[:k]])


def case2_radius(consts: LinkingConstants, lams, params: ActionParams, vol: float) -> float:
    """Step (iii): the radius R of the block ball, certified to satisfy
    neg_factor R^2 > max_t [4 rho^2 Vol sinh(t)^2 + 8 (lam_{k+1} - rho cosh t) A^2 t^2]
    over t in [0, T], A = s / T, where neg_factor = min (rho - lam)/(1 + lam)
    over the block's eigenvalues `lams`.  R grows like (rho - lam_k)^{-1/2}
    as rho decreases to lam_k."""
    rho, T = params.rho, consts.T
    A = consts.s / T
    tgrid = np.linspace(0.0, T, 1001)
    bound_max = float(np.max(4 * rho**2 * vol * np.sinh(tgrid) ** 2
                             + 8 * (consts.lam_k1 - rho * np.cosh(tgrid)) * A**2 * tgrid**2))
    neg_factor = float(np.min((rho - lams) / (1.0 + lams)))
    R = float(LINKING_FACTOR * np.sqrt(max(bound_max, 1e-12) / neg_factor))
    if not neg_factor * R**2 > bound_max:
        raise CertificationError("linking step (iii) failed: R does not dominate the bound")
    return R


def _block_directions(weights, n_dirs: int, seed: int) -> np.ndarray:
    """n_dirs random coefficient vectors of unit H^{1/2} norm in the block."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_dirs, len(weights)))
    dirs /= np.sqrt((dirs**2 * weights[None, :]).sum(axis=1))[:, None]
    return dirs


def _block_spinor(geom, fields, coefvec) -> SpinorField:
    """The spinor sum_l coefvec[l] fields[l]."""
    out = SpinorField.zeros(geom)
    for c, f in zip(coefvec, fields):
        if c != 0.0:
            out = out + float(c) * f
    return out


def case2_product_minmax(chi: SweepoutChi, consts: LinkingConstants, block,
                         config: MinmaxConfig, params: ActionParams, basis,
                         n_theta_disk: int, n_radii: int):
    """Equivariant min-max over the product of the linking ball and a disk.

    Elements are (u, psi) = (chi(theta,.) T r, phi + s r Psi_{k+1}) with
    phi in the plus_b + zero block (`case2_block`'s fields and eigenvalues),
    on n_theta_disk angles and n_radii radii, built once at the radius R
    that `case2_radius` certifies; `minmax_deform` certifies that the
    boundary {|phi| = R} u {r = 1} has nonpositive energy.  Returns
    (SolutionRecord, PSDiagnostics); the record's level is c2.
    """
    geom = basis.geom
    fields, lams = block
    K = len(fields)
    radius = case2_radius(consts, lams, params, geom.vol)

    n_rad_phi, n_sphere = CASE2_MESH
    dirs = _block_directions(1.0 + lams, n_sphere, config.seed)
    psi_top = basis.eigenspinor(consts.k_index + 1)
    shell_q = np.linspace(0, 1, n_rad_phi + 1)[1:]
    on_boundary = [False] + [bool(q == 1.0) for q in shell_q for _ in dirs]
    disk_r = np.linspace(0.0, 1.0, n_radii + 1)
    phi_fields = [_block_spinor(geom, fields, phiv) for phiv in
                  [np.zeros(K)] + [q * radius * d for q in shell_q for d in dirs]]

    def node(shell, it, ir):
        r = float(disk_r[ir])
        u = chi.scalar(2.0 * np.pi * it / n_theta_disk, geom, consts.T * r)
        return fiber_solve(u, phi_fields[shell] + (consts.s * r) * psi_top, params)

    nodes, frozen, centers, segments = equivariant_disk_mesh(
        on_boundary, n_theta_disk, n_radii, node)
    return minmax_deform(nodes, frozen, config, params, segments=segments, centers=centers)
