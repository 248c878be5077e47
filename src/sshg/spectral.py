"""Dirac/Laplace operators, the eigenbasis, spectral projections and norms.

Everything is diagonal per Fourier mode.  Spinors are stored in the
eigenframe of the Dirac symbol (see `sshg.fields`), coordinates (a+, a-) on
the +|xi| and -|xi| eigenvectors, so D is the multiplier (+|xi|, -|xi|),
|D|, (1+|D|)^{-1} and the Sobolev weights are scalar factors per mode, the
spectral projections are 0/1 masks, and the basis elements are one-hot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ResolutionError, SpectralGapError
from .fields import ScalarField, SpinorField
from .geometry import TorusGeometry

RHO_GAP = 1e-9  # hard guard: rho must stay outside this distance of the spectrum
MULTIPLICITY_REL_TOL = 1e-9  # eigenvalues this close (relative) count as one


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def dirac_apply(psi: SpinorField) -> SpinorField:
    """D as the multiplier (+|xi|, -|xi|) on the eigen-coordinates."""
    out = psi.eig * psi.geom.s_abs
    out[1] *= -1.0
    return SpinorField(psi.geom, eig=out)


def laplace_apply(u: ScalarField) -> ScalarField:
    """Fourier multiplier -|xi|^2 (divergence of the gradient)."""
    g = u.geom
    return ScalarField(g, coeffs=-g.xi_sq * u.coeffs)


def omega_mult(psi: SpinorField) -> SpinorField:
    """Clifford action of the volume element, (c1, c2) -> (-c2, c1); it maps the
    +|xi| eigenvector to the -|xi| one, so it is the same swap on (a+, a-)."""
    a = psi.eig
    out = np.empty_like(a)
    out[0] = -a[1]
    out[1] = a[0]
    return SpinorField(psi.geom, eig=out)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def l2_inner(a, b) -> float:
    """Real L^2 pairing; exact Parseval form on coefficients."""
    g = a.geom
    if isinstance(a, SpinorField):
        s = np.sum(np.conj(a.eig) * b.eig)
    else:
        s = np.sum(np.conj(a.coeffs) * b.coeffs)
    return float(g.vol * s.real)


def sobolev_weight(geom: TorusGeometry, field_type: type) -> np.ndarray:
    """The read-only per-mode multiplier of the Sobolev pairing of a field
    type: 1+|xi|^2 for a ScalarField (H^1), 1+|xi| for a SpinorField
    (H^{1/2}); a row of `packed_sobolev_weight`, so a call allocates no
    weights."""
    return packed_sobolev_weight(geom)[0 if field_type is ScalarField else 1]


@lru_cache(maxsize=16)
def packed_sobolev_weight(geom: TorusGeometry) -> np.ndarray:
    """The read-only per-mode multiplier (3, n, n) of the H^1 x H^{1/2}
    pairing on packed (u, psi) arrays (`fields.pack`): 1+|xi|^2 on u's row
    and 1+|xi| on psi's two rows."""
    mult = 1.0 + np.stack((geom.xi_sq, geom.s_abs, geom.s_abs))
    mult.flags.writeable = False
    return mult


def sobolev_inner(a, b) -> float:
    """The H^1 pairing of two scalar fields, or the H^{1/2} pairing of two
    spinors, via the diagonal multipliers of `sobolev_weight`."""
    g = a.geom
    mult = sobolev_weight(g, type(a))
    if isinstance(a, ScalarField):
        if a.compact and b.compact:
            # the k = 0 term alone (weight 1); an infinite product takes the
            # grid form, whose 0 * inf terms make it NaN
            p = a.common_value * b.common_value + 0.0
            if np.isfinite(p):
                return float(g.vol * p)
        s = np.sum(mult * np.conj(a.coeffs) * b.coeffs)
    else:
        s = np.sum(mult[None, :, :] * np.conj(a.eig) * b.eig)
    return float(g.vol * s.real)


def h1_norm(u: ScalarField) -> float:
    return np.sqrt(max(sobolev_inner(u, u), 0.0))


def hhalf_norm(psi: SpinorField) -> float:
    return np.sqrt(max(sobolev_inner(psi, psi), 0.0))


def sobolev_norms_sq(geom: TorusGeometry, x: np.ndarray) -> tuple[float, float]:
    """The squared H^1 norm of u and H^{1/2} norm of psi of a packed (u, psi)
    array, from the weights of `packed_sobolev_weight`: `sobolev_inner` of
    each field with itself, bit for bit."""
    s = packed_sobolev_weight(geom) * np.conj(x) * x
    return float(geom.vol * np.sum(s[0]).real), float(geom.vol * np.sum(s[1:]).real)


# ---------------------------------------------------------------------------
# spectral projections
# ---------------------------------------------------------------------------

def check_spectral_gap(geom: TorusGeometry, rho: float) -> float:
    gap = geom.spectral_gap(rho)
    if gap < RHO_GAP:
        raise SpectralGapError(
            f"rho={rho!r} lies within {gap:.3e} of a computed Dirac eigenvalue "
            f"(hard guard {RHO_GAP:g}); the analysis requires rho outside the spectrum"
        )
    return gap


def project(psi: SpinorField, subspace: str, rho: float | None = None) -> SpinorField:
    """Project onto a spectral subspace of D: plus/minus/zero/plus_a/plus_b,
    a 0/1 mask on the eigen-coordinates (plus_a/plus_b split plus at rho)."""
    g = psi.geom
    if subspace in ("plus_a", "plus_b"):
        if rho is None:
            raise ConfigError(f"subspace {subspace!r} requires rho")
        check_spectral_gap(g, rho)
    elif subspace in ("plus", "minus", "zero"):
        rho = None
    else:
        raise ConfigError(f"unknown spectral subspace {subspace!r}")
    return SpinorField(g, eig=psi.eig * subspace_mask(g, subspace, rho))


@lru_cache(maxsize=64)
def subspace_mask(geom: TorusGeometry, subspace: str, rho: float | None) -> np.ndarray:
    """The read-only 0/1 mask (2, n, n) of `project` on the eigen-coordinates."""
    lam = geom.s_abs
    nz, off = lam > 0, np.zeros(lam.shape, dtype=bool)
    rows = {"zero": (~nz, ~nz), "minus": (off, nz), "plus": (nz, off)}.get(subspace)
    if rows is None:
        rows = (nz & ((lam > rho) if subspace == "plus_a" else (lam < rho)), off)
    mask = np.stack(rows).astype(float)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

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
class SpectralBasis:
    """Ordered Dirac eigenpairs below a cutoff plus the harmonic block.

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


def build_basis(geom: TorusGeometry, cutoff: float) -> SpectralBasis:
    """Enumerate all eigenpairs with |xi| <= cutoff, deterministically ordered.

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
    return SpectralBasis(
        geom=geom,
        cutoff=float(cutoff),
        eigenvalues=eigenvalues,
        elements=tuple(elements),
        harmonic=tuple(harmonic),
        harmonic_dim=len(harmonic),
    )
