"""Dirac/Laplace operators, the eigenbasis, spectral projections and norms.

Everything is diagonal per Fourier mode.  Spinors are stored in the
eigenframe of the Dirac symbol (see `sshg.fields`), coordinates (a+, a-) on
the +|xi| and -|xi| eigenvectors, so D is the multiplier (+|xi|, -|xi|),
|D|, (1+|D|)^{-1} and the Sobolev weights are scalar factors per mode, the
spectral projections are 0/1 masks, and the basis spinors are one-hot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ResolutionError, SpectralGapError
from .fields import ScalarField, SpinorField, mode_view
from .geometry import TorusGeometry

RHO_GAP = 1e-9  # hard guard: rho must stay outside this distance of the spectrum


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def dirac_apply(psi: SpinorField) -> SpinorField:
    """D as the multiplier (+|xi|, -|xi|) on the eigen-coordinates."""
    (eig,), (s_abs,), mode = mode_view((psi,), (psi.geom.s_abs,))
    out = eig * s_abs
    out[1] *= -1.0
    return SpinorField.viewed(psi.geom, mode, out)


def laplace_apply(u: ScalarField) -> ScalarField:
    """Fourier multiplier -|xi|^2 (divergence of the gradient)."""
    g = u.geom
    return ScalarField(g, coeffs=-g.xi_sq * u.coeffs)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def l2_inner(a, b) -> float:
    """Real L^2 pairing; exact Parseval form on coefficients."""
    g = a.geom
    if isinstance(a, SpinorField):
        ea, eb = mode_view((a, b))[0]
        s = np.sum(np.conj(ea) * eb)
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
        (ea, eb), (mult,), _ = mode_view((a, b), (mult,))
        s = np.sum(mult[None, :, :] * np.conj(ea) * eb)
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
    (eig,), (mask,), mode = mode_view((psi,), (subspace_mask(g, subspace, rho),))
    return SpinorField.viewed(g, mode, eig * mask)


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
class SpectralBasis:
    """The Dirac eigenpairs with 0 < |xi| <= a cutoff, as one sorted table of
    grid modes, plus the harmonic block.

    Modes are ordered by the integer key 4|k+delta|^2, then k1, then k2, so
    a smaller cutoff gives a prefix of the table.  Each mode carries two real
    eigenpairs on its +|xi| row, phases 1 and i: eigenpair j >= 1 is mode
    (j-1)//2 with phase (j-1)%2.  A harmonic mode takes either row, i.e.
    either C^2 component: harmonic spinor l is row (l//2)%2 of harmonic mode
    l//4, phase l%2.  The -|xi| eigenpairs are the omega-images of these.
    """

    geom: TorusGeometry
    modes: np.ndarray = field(repr=False)        # (m, 2) grid indices, sorted
    keys: np.ndarray = field(repr=False)         # their keys 4|k+delta|^2
    eigenvalues: np.ndarray = field(repr=False)  # each mode's |xi|, twice, ascending
    harmonic: np.ndarray = field(repr=False)     # grid indices of the |xi| = 0 modes
    harmonic_dim: int = 0

    def eigenvalue(self, j: int) -> float:
        return float(self.eigenvalues[self._entry(j)])

    def eigenspinor(self, j: int) -> SpinorField:
        i = self._entry(j)
        return self._one_hot(self.modes[i // 2], 0, i % 2)

    def harmonic_spinor(self, l: int) -> SpinorField:
        return self._one_hot(self.harmonic[l // 4], (l // 2) % 2, l % 2)

    def multiplicity(self, j: int) -> int:
        """The real dimension of eigenpair j's eigenspace: two per mode of
        its key, an exact integer count."""
        return 2 * int(np.count_nonzero(self.keys == self.keys[self._entry(j) // 2]))

    def _entry(self, j: int) -> int:
        if j < 1:
            raise IndexError("eigenpair index j runs over positive integers")
        return j - 1

    def _one_hot(self, mode, row: int, phase: int) -> SpinorField:
        g = self.geom
        a = np.zeros((2, g.grid_n, g.grid_n), dtype=complex)
        a[row, mode[0], mode[1]] = (1j if phase else 1.0) / g.side_length
        return SpinorField.one_mode(g, a)


def build_basis(geom: TorusGeometry, cutoff: float) -> SpectralBasis:
    """Tabulate all eigenpairs with |xi| <= cutoff, deterministically ordered
    by the exact integer key 4|k+delta|^2 (delta in {0, 1/2}), then k1, then
    k2; the harmonic modes, key 0, are split off the front."""
    if cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    if cutoff > geom.nyquist_bound + 1e-12:
        raise ResolutionError(
            f"cutoff {cutoff} exceeds the Nyquist bound {geom.nyquist_bound:.6g} "
            f"for grid_n={geom.grid_n}"
        )
    lam = geom.s_abs
    idx1, idx2 = np.nonzero(geom.spinor_mask & (lam <= cutoff * (1.0 + 1e-12) + 1e-300))
    # m = 2(k + delta) is an integer and increases with k, so it orders k too
    m1 = 2 * geom.k_int[idx1] + int(2 * geom.spin_delta[0])
    m2 = 2 * geom.k_int[idx2] + int(2 * geom.spin_delta[1])
    keys = m1 * m1 + m2 * m2
    order = np.lexsort((m2, m1, keys))
    modes = np.stack((idx1, idx2), axis=1)[order]
    keys = keys[order]
    h = int(np.count_nonzero(keys == 0))
    return SpectralBasis(geom=geom, modes=modes[h:], keys=keys[h:],
                         eigenvalues=np.repeat(lam[modes[h:, 0], modes[h:, 1]], 2),
                         harmonic=modes[:h], harmonic_dim=4 * h)
