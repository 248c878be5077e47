"""Flat square torus with a uniform collocation grid and a fixed spin structure.

Spinors live in the rank-four real bundle realized as C^2-valued fields with
the real inner product Re<.,.>.  A spin structure is an offset delta in
{0, 1/2}^2: spinor Fourier modes sit at frequencies 2*pi*(k + delta)/L.
The Dirac operator is diagonal mode-by-mode with the 2x2 symbol

    A(xi) = [[-xi1, -xi2], [-xi2, xi1]],   eigenvalues +-|xi|,

coming from the Clifford generators GAMMA1, GAMMA2 below.  Its eigenframe is
written once, in `dirac_frame`: the real orthonormal pair of eigenvectors
per mode in which spinors are stored (see `sshg.fields`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi

# Anti-Hermitian Clifford generators, gamma_i^2 = -I.
GAMMA1 = np.array([[1j, 0.0], [0.0, -1j]])
GAMMA2 = np.array([[0.0, 1j], [1j, 0.0]])


@dataclass(frozen=True)
class TorusGeometry:
    """Square torus [0, L)^2, n x n grid, spin offset delta per axis."""

    grid_n: int
    side_length: float = TWO_PI
    spin_delta: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        n = self.grid_n
        if not isinstance(n, (int, np.integer)) or n < 8 or n % 2 != 0:
            raise ConfigError(f"grid_n must be an even integer >= 8, got {n!r}")
        if not self.side_length > 0:
            raise ConfigError(f"side_length must be positive, got {self.side_length!r}")
        delta = tuple(float(d) for d in self.spin_delta)
        if any(d not in (0.0, 0.5) for d in delta):
            raise ConfigError(f"spin_delta components must be 0 or 1/2, got {self.spin_delta!r}")
        object.__setattr__(self, "spin_delta", delta)

    # -- scalars ------------------------------------------------------------

    @property
    def vol(self) -> float:
        return self.side_length ** 2

    @property
    def quad_weight(self) -> float:
        # uniform weight (L/n)^2 per grid sample
        return (self.side_length / self.grid_n) ** 2

    @property
    def nyquist_bound(self) -> float:
        return (self.grid_n // 2 - 1) * TWO_PI / self.side_length

    @cached_property
    def k_int(self) -> np.ndarray:
        # integer FFT frequencies in numpy ordering: 0..n/2-1, -n/2..-1
        return np.fft.fftfreq(self.grid_n, d=1.0 / self.grid_n).astype(np.int64)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        xi = (TWO_PI / self.side_length) * self.k_int
        return xi[:, None] ** 2 + xi[None, :] ** 2

    # -- spinor modes ---------------------------------------------------------

    @cached_property
    def sxi1(self) -> np.ndarray:
        m1 = (self.k_int + self.spin_delta[0])[:, None] * np.ones((1, self.grid_n))
        return (TWO_PI / self.side_length) * m1

    @cached_property
    def sxi2(self) -> np.ndarray:
        m2 = np.ones((self.grid_n, 1)) * (self.k_int + self.spin_delta[1])[None, :]
        return (TWO_PI / self.side_length) * m2

    @cached_property
    def s_abs(self) -> np.ndarray:
        return np.hypot(self.sxi1, self.sxi2)

    @cached_property
    def spinor_mask(self) -> np.ndarray:
        """Modes kept in the discrete spinor space.

        On a delta=0 axis the k = -n/2 Nyquist line has no conjugate partner,
        which would break the exact quaternionic commutation; it is dropped.
        Half-offset axes are symmetric under k+delta -> -(k+delta) already.
        """
        n = self.grid_n
        keep1 = np.ones(n, dtype=bool)
        keep2 = np.ones(n, dtype=bool)
        if self.spin_delta[0] == 0.0:
            keep1[self.k_int == -n // 2] = False
        if self.spin_delta[1] == 0.0:
            keep2[self.k_int == -n // 2] = False
        return keep1[:, None] & keep2[None, :]

    @cached_property
    def spinor_mask_trivial(self) -> bool:
        return bool(self.spinor_mask.all())

    @cached_property
    def dirac_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Real orthonormal eigenframe per mode: (p, q) = (-xi2, xi1 + |xi|)/norm
        is the +|xi| eigenvector of the symbol, omega(p, q) = (-q, p) the -|xi|
        one; (1, 0) where xi1 + |xi| = 0 (harmonic mode, negative xi1 axis)."""
        p, q = -self.sxi2, self.sxi1 + self.s_abs
        norm = np.hypot(p, q)
        on_axis = norm == 0.0
        norm[on_axis] = 1.0
        return np.where(on_axis, 1.0, p / norm), q / norm

    @cached_property
    def spinor_phase(self) -> np.ndarray:
        """Grid phase e^{2 pi i delta.j / n} relating offset modes to plain FFT."""
        n = self.grid_n
        j = np.arange(n)
        p1 = np.exp(2j * np.pi * self.spin_delta[0] * j / n)
        p2 = np.exp(2j * np.pi * self.spin_delta[1] * j / n)
        return p1[:, None] * p2[None, :]

    # -- spectrum helpers -----------------------------------------------------

    @cached_property
    def spinor_levels(self) -> np.ndarray:
        """The distinct |xi| of the spinor modes kept, sorted."""
        return np.unique(self.s_abs[self.spinor_mask])

    def spectral_gap(self, rho: float) -> float:
        """Distance from rho to the computed Dirac spectrum (grid modes)."""
        lam = self.spinor_levels
        i = int(lam.searchsorted(rho))
        return float(min(abs(x - rho) for x in lam[max(i - 1, 0):i + 1].tolist()))
