"""Reference oracles that only the tests read.

Each is an independent route to a quantity the package computes another
way (grid quadrature against Parseval, H^{-s} dual norms against Riesz
norms, the dense constraint against its a- row, the fiber solve's CG path
against its constant-u shortcut, the field-pair first
variation, Riesz maps, Re<psi, phi> and the constraint derivative against
the packed (u, psi) arrays and `hess_vec`, CG's plain expressions against
its in-place updates, the whole stored equivariant family against the J
values and ring an `EquivariantFamily` keeps, scalar fields that keep
their grids against compact constants, the `BasisElement` enumeration and
its tolerance count against the sorted mode table), or a helper the tests
need and the package does not: grid coordinates, |D|^s, E^- spinors from
a- rows, the Clifford volume element omega, the quaternionic structure,
Hermitian symmetry, a sweepout profile's interface volume, the reader of the
checkpoints that `checkpoint_save` and `save_point` write.
"""

import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from sshg.action import ActionParams, check_overflow, dirac_minus_potential, hess_vec, linearize
from sshg.checkpoint import MAGIC, VERSION
from sshg.errors import (
    CheckpointFormatError,
    ConditioningError,
    ConfigError,
    ResolutionError,
    SSHGError,
)
from sshg.fields import ScalarField, SpinorField, constant_value, pack, unpack
from sshg.geometry import TorusGeometry
from sshg.krylov import SolveInfo, cg
from sshg.nehari import (
    FIBER_MAXITER,
    FIBER_TOL,
    NehariPoint,
    _fiber_map,
    _mean_field_precond,
    _row_inner,
    _row_norm,
    fiber_solve,
)
from sshg.spectral import (
    dirac_apply,
    hhalf_norm,
    l2_inner,
    laplace_apply,
    project,
    sobolev_inner,
    sobolev_weight,
)


class IllPosedError(SSHGError):
    """Operator application is undefined for the given arguments."""


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def grid_x1(geom) -> np.ndarray:
    """The first grid coordinate, (n, n)."""
    j = np.arange(geom.grid_n) * (geom.side_length / geom.grid_n)
    return j[:, None] * np.ones((1, geom.grid_n))


def grid_x2(geom) -> np.ndarray:
    """The second grid coordinate, (n, n)."""
    j = np.arange(geom.grid_n) * (geom.side_length / geom.grid_n)
    return np.ones((geom.grid_n, 1)) * j[None, :]


class GridScalar:
    """A scalar field that keeps every view it computes, a constant
    included: `ScalarField`'s arithmetic before constants were compact.
    `constant(geom, c)` holds the grid values, `constant(geom, c, True)`
    also its coefficients, as a constant did once its J was read."""

    def __init__(self, geom, values=None, coeffs=None):
        self.geom = geom
        self._values = values
        self._coeffs = coeffs

    @classmethod
    def constant(cls, geom, c, with_coeffs=False):
        field = cls(geom, values=np.full((geom.grid_n, geom.grid_n), float(c)))
        if with_coeffs:
            field.coeffs
        return field

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.ifft2(self._coeffs * self.geom.grid_n ** 2).real
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = constant_value(self._values)
            if c is None:
                self._coeffs = np.fft.fft2(self._values) / self.geom.grid_n ** 2
            else:
                self._coeffs = np.zeros(self._values.shape, dtype=complex)
                self._coeffs[0, 0] = c + 0.0
        return self._coeffs

    def _combine(self, op, *others):
        fields = (self, *others)
        coeffs = values = None
        if all(f._coeffs is not None for f in fields):
            coeffs = op(*(f._coeffs for f in fields))
        if coeffs is None or all(f._values is not None for f in fields):
            values = op(*(f.values for f in fields))
        return GridScalar(self.geom, values=values, coeffs=coeffs)

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __mul__(self, a: float):
        a = float(a)
        return self._combine(lambda x: x * a)

    __rmul__ = __mul__


def hermitian_defect(u: ScalarField) -> float:
    """Max deviation of the coefficients of u from Hermitian symmetry."""
    c = u.coeffs
    mirrored = np.conj(np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1)))
    return float(np.max(np.abs(c - mirrored)))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def abs_dirac_apply(psi: SpinorField, s: float) -> SpinorField:
    """|D|^s as the scalar multiplier |xi|^s; harmonic block annihilated."""
    g = psi.geom
    lam = g.s_abs
    nz = lam > 0
    if s < 0:
        zero_mass = np.abs(psi.eig[:, ~nz]).max(initial=0.0)
        scale = np.abs(psi.eig).max(initial=0.0)
        if zero_mass > 1e-14 * max(scale, 1e-300):
            raise IllPosedError("|D|^s with s < 0 is undefined on the harmonic block")
    mult = np.where(nz, np.where(nz, lam, 1.0) ** s, 0.0)
    return SpinorField(g, eig=psi.eig * mult)


def quaternion_j(psi: SpinorField) -> SpinorField:
    """D-commuting almost-complex structure: omega composed with conjugation."""
    v = np.conj(psi.values)
    out = np.empty_like(v)
    out[0] = -v[1]
    out[1] = v[0]
    return SpinorField.from_values(psi.geom, out)


def omega_mult(psi: SpinorField) -> SpinorField:
    """Clifford action of the volume element, (c1, c2) -> (-c2, c1); it maps the
    +|xi| eigenvector to the -|xi| one, so it is the same swap on (a+, a-)."""
    a = psi.eig
    out = np.empty_like(a)
    out[0] = -a[1]
    out[1] = a[0]
    return SpinorField(psi.geom, eig=out)


# ---------------------------------------------------------------------------
# pairings and norms
# ---------------------------------------------------------------------------

def grid_l2_inner(a, b) -> float:
    """Real L^2 pairing by grid quadrature (independent of the spectral path)."""
    g = a.geom
    if isinstance(a, SpinorField):
        s = np.sum(np.conj(a.values) * b.values)
    else:
        s = np.sum(a.values * b.values)
    return float(g.quad_weight * np.real(s))


def l2_norm(a) -> float:
    return np.sqrt(max(l2_inner(a, a), 0.0))


def dual_pair(dual, v: ScalarField, phi: SpinorField) -> float:
    """The pairing of L^2 densities dual = (du, dpsi) against a test
    direction (v, phi)."""
    du, dpsi = dual
    return l2_inner(du, v) + l2_inner(dpsi, phi)


def riesz_pair(g: np.ndarray, v: ScalarField, phi: SpinorField) -> float:
    """The H^1 x H^{1/2} pairing of a packed Riesz gradient g with a test
    direction (v, phi): the dual pairing of the functional g represents."""
    gu, gpsi = unpack(v.geom, g)
    return sobolev_inner(gu, v) + sobolev_inner(gpsi, phi)


def riesz_hhalf(psi_dual: SpinorField) -> SpinorField:
    """Riesz representative in H^{1/2} of an L^2-represented functional:
    (1+|D|)^{-1} as the scalar multiplier (1+|xi|)^{-1}."""
    g = psi_dual.geom
    return SpinorField(g, eig=psi_dual.eig / sobolev_weight(g, SpinorField)[None, :, :])


def riesz_h1(u_dual: ScalarField) -> ScalarField:
    """Riesz representative in H^1 of an L^2-represented functional."""
    g = u_dual.geom
    return ScalarField(g, coeffs=u_dual.coeffs / sobolev_weight(g, ScalarField))


def field_gradient(u: ScalarField, psi: SpinorField, params):
    """The first variation of J at (u, psi) as L^2 densities (du, dpsi),
    each field with its own transforms:

        du = -2 Lap u + 8 rho^2 sinh(u) cosh(u) - 8 rho sinh(u) |psi|^2,
        dpsi = 16 (D psi - rho cosh(u) psi).
    """
    geom = u.geom
    uv = check_overflow(u)
    rho = params.rho
    sh, ch = np.sinh(uv), np.cosh(uv)
    gu_vals = 8.0 * rho * rho * sh * ch - 8.0 * rho * sh * psi.density()
    gu = ScalarField.from_values(geom, gu_vals) + (-2.0) * laplace_apply(u)
    return gu, 16.0 * dirac_minus_potential(psi, ch, rho)


def field_riesz_gradient(u: ScalarField, psi: SpinorField, params):
    """The Riesz pair of `field_gradient` in H^1 x H^{1/2}, which the
    package's packed `gradient_J` reproduces bit for bit."""
    gu, gpsi = field_gradient(u, psi, params)
    return riesz_h1(gu), riesz_hhalf(gpsi)


def field_dg_apply(point: NehariPoint, params, v: ScalarField, phi: SpinorField) -> SpinorField:
    """dG(u, psi)[v, phi] on the field pair, negative-subspace valued."""
    uv = point.u.values
    rho = params.rho
    lin = dirac_minus_potential(phi, np.cosh(uv), rho)
    lin = lin - point.psi.times(rho * np.sinh(uv) * v.values)
    return project(riesz_hhalf(lin), "minus")


def cross_density(psi: SpinorField, phi: SpinorField) -> np.ndarray:
    """Pointwise Re<psi, phi> on the grid."""
    return np.real(np.sum(np.conj(psi.values) * phi.values, axis=0))


def minus_spinor(geom, row: np.ndarray) -> SpinorField:
    """The E^- spinor whose a- row is row (a+ = 0)."""
    return SpinorField(geom, eig=np.stack((np.zeros_like(row), row)))


def field_dg_adjoint(point: NehariPoint, params, w: SpinorField):
    """dG(u, psi)^* w in H^1 x H^{1/2} as a field pair: the Riesz images of
    -rho sinh(u) Re<psi, w> and (D - rho cosh u) w."""
    uv = point.u.values
    rho = params.rho
    cross = cross_density(point.psi, w)
    du_dual = ScalarField.from_values(point.u.geom, -rho * np.sinh(uv) * cross)
    return riesz_h1(du_dual), riesz_hhalf(dirac_minus_potential(w, np.cosh(uv), rho))


def field_hess_vec(u: ScalarField, psi: SpinorField, v: ScalarField, phi: SpinorField,
                   params):
    """The second variation at (u, psi) applied to a primal direction
    (v, phi), returned as L^2 densities: the Hessian formula on the field
    types, with every grid product and every transform of its own, which
    the package's linearize-and-apply `hess_vec` reproduces bit for bit."""
    geom = u.geom
    uv = check_overflow(u)
    rho = params.rho
    vv = v.values
    sh, ch = np.sinh(uv), np.cosh(uv)
    dens = psi.density()
    cross = cross_density(psi, phi)

    hu_vals = (8.0 * rho * rho * np.cosh(2.0 * uv) * vv
               - 8.0 * rho * ch * vv * dens
               - 16.0 * rho * sh * cross)
    hu = ScalarField.from_values(geom, hu_vals) + (-2.0) * laplace_apply(v)

    hpsi_vals = (rho * ch)[None, :, :] * phi.values + (rho * sh * vv)[None, :, :] * psi.values
    hpsi = dirac_apply(phi) - SpinorField.from_values(geom, hpsi_vals)
    return hu, 16.0 * hpsi


def hessian(u: ScalarField, psi: SpinorField, v: ScalarField, phi: SpinorField, params):
    """The package's Hessian product at (u, psi) applied to (v, phi), as the
    pair of L^2 densities that `dual_pair` reads."""
    x = pack(v, phi)
    return unpack(u.geom, hess_vec(linearize(u, psi, params), x, np.empty_like(x)))


def hminus1_norm(u: ScalarField) -> float:
    """The H^{-1} dual norm of an L^2-represented functional: the inverse
    weight 1/(1+|xi|^2) on the coefficients."""
    g = u.geom
    s = np.sum((1.0 / (1.0 + g.xi_sq)) * np.conj(u.coeffs) * u.coeffs)
    return np.sqrt(max(float(g.vol * s.real), 0.0))


def hminushalf_norm(psi: SpinorField) -> float:
    """The H^{-1/2} dual norm of an L^2-represented functional: the inverse
    weight 1/(1+|xi|) on the eigen-coordinates."""
    g = psi.geom
    s = np.sum((1.0 / (1.0 + g.s_abs))[None, :, :] * np.conj(psi.eig) * psi.eig)
    return np.sqrt(max(float(g.vol * s.real), 0.0))


# ---------------------------------------------------------------------------
# the constraint
# ---------------------------------------------------------------------------

def constraint_G(u: ScalarField, psi: SpinorField, params) -> SpinorField:
    """G(u, psi) = P^- (1+|D|)^{-1} (D - rho cosh u) psi, supported in the
    negative spectral subspace: the dense form of `nehari._fiber_map`."""
    cosh_u = np.cosh(check_overflow(u))
    return project(riesz_hhalf(dirac_minus_potential(psi, cosh_u, params.rho)), "minus")


def cg_fiber_point(u: ScalarField, psi_free: SpinorField, params, x0=None):
    """(eigen-coordinates, certificate) of the point `fiber_solve` returns,
    by its CG path alone, which the constant-u shortcut skips: the right-hand
    side b = G(u, psi_free) on the a- row, CG's update added to psi_free's
    a- row, and the residual row's H^{1/2} norm."""
    geom = u.geom
    uv = check_overflow(u)
    free_scale = hhalf_norm(psi_free)
    g_map = _fiber_map(geom, np.cosh(uv), params.rho)
    b = g_map(psi_free)
    minus, _ = cg(lambda phi: -1.0 * g_map(phi), b, partial(_row_inner, geom),
                  x0=None if x0 is None else x0.eig[1], tol=FIBER_TOL, maxiter=FIBER_MAXITER,
                  atol=1e-14 * max(free_scale, 1.0),
                  precond=_mean_field_precond(geom, params.rho, uv, 1))
    eig = psi_free.eig.copy()
    eig[1] += minus
    residual = g_map(SpinorField(geom, eig=eig)) if minus.any() else b
    return eig, _row_norm(geom, residual)


def fiber_rayleigh_margin(u: ScalarField, params, rng, n_samples: int = 50) -> float:
    """Most positive Rayleigh quotient of A over random negative directions.

    Every quotient is at most -c, c = `fiber_coercivity` at min cosh u
    (which implies the weaker -min(lambda_1/(1+lambda_1), rho)); returns the
    max over samples.
    """
    geom = u.geom
    uv = check_overflow(u)
    g_map = _fiber_map(geom, np.cosh(uv), params.rho)
    worst = -np.inf
    n = geom.grid_n
    for _ in range(n_samples):
        c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        c *= (1.0 + geom.s_abs) ** -1.0
        phi = project(SpinorField.from_coeffs(geom, c), "minus").eig[1]
        quot = _row_inner(geom, g_map(phi), phi) / _row_inner(geom, phi, phi)
        worst = max(worst, quot)
    return float(worst)


# ---------------------------------------------------------------------------
# spectral basis
# ---------------------------------------------------------------------------

MULTIPLICITY_REL_TOL = 1e-9  # eigenvalues this close (relative) count as one

@dataclass(frozen=True)
class BasisElement:
    """One real basis direction: mode (k1,k2), eigen-coordinate row, phase 1
    or i.  Row 0 is the +|xi| eigenvector; a harmonic element (frame (1, 0))
    takes either row, i.e. either C^2 component."""
    k1: int
    k2: int
    row: int
    phase_imag: bool   # False -> v e_k, True -> (i v) e_k
    lam: float = 0.0


@dataclass(frozen=True)
class ReferenceBasis:
    """`spectral.SpectralBasis` as a tuple of `BasisElement`s, with
    multiplicities counted by a relative float tolerance.

    Eigenvalues are listed with real multiplicities (two per mode per sign:
    phases 1 and i).  Negative-index pairs are the exact omega-mirrors of the
    positive ones: lambda_{-j} = -lambda_j, Psi_{-j} = omega . Psi_j.
    """

    geom: TorusGeometry
    cutoff: float
    eigenvalues: np.ndarray = field(repr=False)      # positive block, ascending
    elements: tuple = field(repr=False)              # BasisElement per positive entry
    harmonic: tuple = field(repr=False)
    harmonic_dim: int = 0

    def eigenvalue(self, j: int) -> float:
        if j == 0:
            raise IndexError("eigenvalue index j runs over nonzero integers")
        lam = self.eigenvalues[abs(j) - 1]
        return float(lam if j > 0 else -lam)

    def eigenspinor(self, j: int) -> SpinorField:
        if j == 0:
            raise IndexError("eigenspinor index j runs over nonzero integers")
        psi = self._element_field(self.elements[abs(j) - 1])
        return omega_mult(psi) if j < 0 else psi

    def harmonic_spinor(self, l: int) -> SpinorField:
        return self._element_field(self.harmonic[l])

    def _element_field(self, el: BasisElement) -> SpinorField:
        """The one-hot eigen-coordinates of a basis element."""
        g = self.geom
        a = np.zeros((2, g.grid_n, g.grid_n), dtype=complex)
        amp = (1j if el.phase_imag else 1.0) / g.side_length
        a[el.row, int(el.k1) % g.grid_n, int(el.k2) % g.grid_n] = amp
        return SpinorField(g, eig=a)

    def multiplicity_of(self, lam: float) -> int:
        tol = MULTIPLICITY_REL_TOL * max(lam, 1.0)
        return int(np.count_nonzero(np.abs(self.eigenvalues - lam) <= tol))


def reference_basis(geom: TorusGeometry, cutoff: float) -> ReferenceBasis:
    """Enumerate all eigenpairs with |xi| <= cutoff, deterministically ordered,
    one `BasisElement` at a time.

    Ordering: harmonic block first, then by |k+delta| ascending, ties broken
    lexicographically on k, phase 1 before phase i; the negative branch is
    implicit through the omega pairing.
    """
    if cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    if cutoff > geom.nyquist_bound + 1e-12:
        raise ResolutionError(
            f"cutoff {cutoff} exceeds the Nyquist bound {geom.nyquist_bound:.6g} "
            f"for grid_n={geom.grid_n}"
        )
    mask = geom.spinor_mask
    lam = geom.s_abs
    keep = mask & (lam <= cutoff * (1.0 + 1e-12) + 1e-300)
    idx1, idx2 = np.nonzero(keep)
    k1 = geom.k_int[idx1]
    k2 = geom.k_int[idx2]
    # exact integer tie-breaking: 4|k+delta|^2 is an integer for delta in {0,1/2}
    m1 = 2 * k1 + int(2 * geom.spin_delta[0])
    m2 = 2 * k2 + int(2 * geom.spin_delta[1])
    key = m1 * m1 + m2 * m2
    order = np.lexsort((k2, k1, key))

    elements = []
    harmonic = []
    for t in order:
        kk1, kk2 = int(k1[t]), int(k2[t])
        lam_t = float(lam[idx1[t], idx2[t]])
        if lam_t == 0.0:
            for row in (0, 1):
                for ph in (False, True):
                    harmonic.append(BasisElement(kk1, kk2, row, ph))
            continue
        for ph in (False, True):
            elements.append(BasisElement(kk1, kk2, 0, ph, lam=lam_t))

    eigenvalues = np.array([el.lam for el in elements])
    return ReferenceBasis(
        geom=geom,
        cutoff=float(cutoff),
        eigenvalues=eigenvalues,
        elements=tuple(elements),
        harmonic=tuple(harmonic),
        harmonic_dim=len(harmonic),
    )


# ---------------------------------------------------------------------------
# equivariant family
# ---------------------------------------------------------------------------

def interface_volume(chi, n: int) -> float:
    """The largest interface volume of the sweepout profile `chi` over 64
    angles, each point of its n-point line standing for n cells of an n x n
    grid (the volume `build_sweepout_chi` certifies below epsilon)."""
    return max(np.count_nonzero(np.abs(chi.line(th, n)) < 1.0 - 1e-12) * n
               * (chi.side_length / n) ** 2
               for th in np.linspace(0, 2 * np.pi, 64, endpoint=False))


def full_equivariant_family(family, params, basis) -> list:
    """Every point of `family`'s circle, as the family was once stored: the
    first half solved in theta order with warm starts from the last point's
    negative part, the second half their sigma-images (-u, psi), whose J is
    left to be evaluated on its own."""
    geom = basis.geom
    free = family.s * basis.eigenspinor(1)
    points, warm = [], None
    for th in family.theta_grid[:len(family.theta_grid) // 2]:
        u = family.chi.scalar(float(th), geom, family.u_bar)
        points.append(fiber_solve(u, free, params, x0=warm))
        warm = project(points[-1].psi, "minus")
    return points + [NehariPoint(u=-1.0 * pt.u, psi=pt.psi, constraint_norm=pt.constraint_norm,
                                 params=pt.params) for pt in points]


# ---------------------------------------------------------------------------
# Krylov
# ---------------------------------------------------------------------------

def plain_cg(apply_op, b, inner, x0=None, tol=1e-12, maxiter=500, atol=0.0, precond=None):
    """`krylov.cg` as written before its working set: plain expressions, a
    new array per update, and x0 itself returned when the start already
    meets the tolerance.  The in-place iterates must be these bit for bit."""
    norm_b = np.sqrt(max(inner(b, b), 0.0))
    if not np.isfinite(norm_b):
        raise ConditioningError(f"cg: right-hand side is not finite (norm {norm_b})")
    stop = max(tol * norm_b, atol)
    if norm_b == 0.0 or norm_b <= stop:
        return 0.0 * b, SolveInfo(True, 0, 0.0)

    if x0 is None:
        x = 0.0 * b
        r = b
    else:
        x = x0
        r = b - apply_op(x0)
    rr = inner(r, r)
    if np.sqrt(max(rr, 0.0)) <= stop:
        return x, SolveInfo(True, 0, float(np.sqrt(max(rr, 0.0)) / norm_b))

    if precond is None:
        def precond(v):
            return v
    z = precond(r)
    rz = inner(r, z)
    p = z
    for it in range(1, maxiter + 1):
        ap = apply_op(p)
        pap = inner(p, ap)
        if pap <= 0:
            if np.sqrt(max(rr, 0.0)) <= max(stop, 1e-14 * norm_b):
                return x, SolveInfo(True, it, float(np.sqrt(max(rr, 0.0)) / norm_b))
            raise ConditioningError(
                f"cg: operator lost positive definiteness (p.Ap = {pap:.3e})",
                residual=float(np.sqrt(max(rr, 0.0)) / norm_b),
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        rr = inner(r, r)
        if np.sqrt(max(rr, 0.0)) <= stop:
            return x, SolveInfo(True, it, float(np.sqrt(max(rr, 0.0)) / norm_b))
        z = precond(r)
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    relres = float(np.sqrt(max(rr, 0.0)) / norm_b)
    raise ConditioningError(
        f"cg: iteration cap {maxiter} exceeded (relative residual {relres:.3e})",
        residual=relres,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointFormatError("truncated checkpoint file")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def checkpoint_load(path: str, geom=None):
    """Read a checkpoint; returns (state dict, TorusGeometry).

    If `geom` is given, the stored geometry must match it exactly (grid
    compatibility check).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointFormatError("bad magic: not an SSHG checkpoint")
    (version,) = r.unpack("<B")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    side_length, grid_n = r.unpack("<dI")
    d1, d2 = r.unpack("<BB")
    stored_geom = TorusGeometry(grid_n=int(grid_n), side_length=float(side_length),
                                spin_delta=(d1 / 2.0, d2 / 2.0))
    if geom is not None and (geom.grid_n != stored_geom.grid_n
                             or geom.side_length != stored_geom.side_length
                             or geom.spin_delta != stored_geom.spin_delta):
        raise CheckpointFormatError(
            f"checkpoint geometry (grid {stored_geom.grid_n}, L={stored_geom.side_length:g}, "
            f"delta={stored_geom.spin_delta}) does not match the requested geometry"
        )

    (nfields,) = r.unpack("<I")
    state = {}
    for _ in range(nfields):
        (name_len,) = r.unpack("<B")
        name = r.take(name_len).decode("ascii")
        kind, ndim = r.unpack("<BB")
        if kind == 3:
            (val,) = r.unpack("<d")
            state[name] = float(val)
            continue
        dims = tuple(r.unpack("<I")[0] for _ in range(ndim))
        count = int(np.prod(dims)) if dims else 1
        if kind == 1:
            data = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(dims)
            state[name] = data.copy()
        elif kind == 2:
            raw = np.frombuffer(r.take(16 * count), dtype="<f8").reshape(dims + (2,))
            state[name] = (raw[..., 0] + 1j * raw[..., 1]).reshape(dims)
        else:
            raise CheckpointFormatError(f"unknown field kind {kind}")
    if r.off != len(blob):
        raise CheckpointFormatError("trailing bytes after the last field")
    return state, stored_geom


def load_point(path: str, geom=None):
    """Inverse of `save_point`; returns (NehariPoint, rho, extras).  A point
    field that is missing or holds NaN/Inf is refused."""
    state, stored_geom = checkpoint_load(path, geom)
    for name in ("u_values", "psi_coeffs", "rho", "constraint_norm"):
        if name not in state or not np.all(np.isfinite(state[name])):
            raise CheckpointFormatError(f"checkpoint field {name!r} is missing or not finite")
    u = ScalarField.from_values(stored_geom, state.pop("u_values"))
    psi = SpinorField.from_coeffs(stored_geom, state.pop("psi_coeffs"))
    rho = state.pop("rho")
    cert = state.pop("constraint_norm")
    point = NehariPoint(u=u, psi=psi, constraint_norm=float(cert),
                        params=ActionParams(rho=float(rho)))
    return point, float(rho), state
