"""Scalar and spinor fields with consistent grid/Fourier views.

Conventions
-----------
Scalar u:   u(x) = sum_k uhat[k] e^{2 pi i k.x / L},      uhat = fft2(values)/n^2.
Spinor psi: psi(x) = sum_k chat[:,k] e^{2 pi i (k+delta).x / L},
            chat = fft2(values * conj(phase)) / n^2 restricted to the valid
            mode mask of the geometry.

With these normalizations the grid quadrature of |field|^2 equals
L^2 * sum |coeff|^2 exactly for resolved fields (discrete Parseval).

A grid function whose values are all equal has the single Fourier mode
k = 0, so constant scalars and constant multipliers skip the FFTs.
"""

from __future__ import annotations

import numpy as np

from .geometry import TorusGeometry


def constant_value(a: np.ndarray):
    """The common value of an array whose entries are all equal, else None.

    Two far-apart entries are compared first, so most non-constant arrays
    are rejected without a full pass.
    """
    first = a.flat[0]
    if a.flat[-1] != first or a.flat[a.size // 2] != first or not np.all(a == first):
        return None
    return first


class ScalarField:
    """Real function on the torus; values and Fourier coefficients on demand."""

    __slots__ = ("geom", "_values", "_coeffs")

    def __init__(self, geom: TorusGeometry, values=None, coeffs=None):
        self.geom = geom
        self._values = values
        self._coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_values(cls, geom, values) -> "ScalarField":
        values = np.asarray(values, dtype=float)
        if values.shape != (geom.grid_n, geom.grid_n):
            raise ValueError(f"scalar values shape {values.shape} does not match grid {geom.grid_n}")
        return cls(geom, values=values)

    @classmethod
    def from_coeffs(cls, geom, coeffs) -> "ScalarField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (geom.grid_n, geom.grid_n):
            raise ValueError(f"scalar coeffs shape {coeffs.shape} does not match grid {geom.grid_n}")
        return cls(geom, coeffs=coeffs)

    @classmethod
    def zeros(cls, geom) -> "ScalarField":
        return cls(geom, values=np.zeros((geom.grid_n, geom.grid_n)))

    @classmethod
    def constant(cls, geom, c: float) -> "ScalarField":
        return cls(geom, values=np.full((geom.grid_n, geom.grid_n), float(c)))

    # -- views ------------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            n2 = self.geom.grid_n ** 2
            self._values = np.fft.ifft2(self._coeffs * n2).real
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            c = constant_value(self._values)
            if c is None:
                self._coeffs = np.fft.fft2(self._values) / self.geom.grid_n ** 2
            else:
                self._coeffs = np.zeros(self._values.shape, dtype=complex)
                self._coeffs[0, 0] = c
        return self._coeffs

    def hermitian_defect(self) -> float:
        """Max deviation of the coefficients from Hermitian symmetry."""
        c = self.coeffs
        mirrored = np.conj(np.roll(np.flip(c, axis=(0, 1)), shift=(1, 1), axis=(0, 1)))
        return float(np.max(np.abs(c - mirrored)))

    # -- arithmetic (new objects; used by the descent loops) ---------------------

    def __add__(self, other):
        return ScalarField(self.geom, values=self.values + other.values)

    def __sub__(self, other):
        return ScalarField(self.geom, values=self.values - other.values)

    def __mul__(self, a: float):
        return ScalarField(self.geom, values=self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.geom, values=-self.values)


def _spinor_coeffs(geom, values) -> np.ndarray:
    """Fourier coefficients of spinor grid values, restricted to the valid
    mode mask."""
    n2 = geom.grid_n ** 2
    conj_phase = np.conj(geom.spinor_phase)
    c = np.fft.fft2(values * conj_phase[None, :, :], axes=(1, 2)) / n2
    if not geom.spinor_mask_trivial:
        c = c * geom.spinor_mask[None, :, :]
    return c


class SpinorField:
    """C^2-valued field with real metric Re<.,.>; Fourier support on k+delta.

    The coefficient view is the source of truth and is always restricted to
    the geometry's valid mode mask, so conjugation-based operators close
    exactly on the discrete space.
    """

    __slots__ = ("geom", "_values", "_coeffs")

    def __init__(self, geom: TorusGeometry, values=None, coeffs=None):
        self.geom = geom
        self._values = values
        self._coeffs = coeffs

    @classmethod
    def from_values(cls, geom, values) -> "SpinorField":
        values = np.asarray(values, dtype=complex)
        if values.shape != (2, geom.grid_n, geom.grid_n):
            raise ValueError(f"spinor values shape {values.shape} does not match grid {geom.grid_n}")
        coeffs = _spinor_coeffs(geom, values)
        if not geom.spinor_mask_trivial:
            return cls(geom, coeffs=coeffs)
        return cls(geom, values=values, coeffs=coeffs)

    @classmethod
    def from_coeffs(cls, geom, coeffs) -> "SpinorField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (2, geom.grid_n, geom.grid_n):
            raise ValueError(f"spinor coeffs shape {coeffs.shape} does not match grid {geom.grid_n}")
        if not geom.spinor_mask_trivial:
            coeffs = coeffs * geom.spinor_mask[None, :, :]
        return cls(geom, coeffs=coeffs)

    @classmethod
    def zeros(cls, geom) -> "SpinorField":
        return cls(geom, coeffs=np.zeros((2, geom.grid_n, geom.grid_n), dtype=complex))

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _spinor_coeffs(self.geom, self._values)
        return self._coeffs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            n2 = self.geom.grid_n ** 2
            v = np.fft.ifft2(self.coeffs * n2, axes=(1, 2))
            self._values = v * self.geom.spinor_phase[None, :, :]
        return self._values

    def density(self) -> np.ndarray:
        """Pointwise |psi|^2 on the grid."""
        v = self.values
        return (v.real ** 2 + v.imag ** 2).sum(axis=0)

    def cross_density(self, other) -> np.ndarray:
        """Pointwise Re<self, other> on the grid."""
        return np.real(np.sum(np.conj(self.values) * other.values, axis=0))

    def times(self, f: np.ndarray) -> "SpinorField":
        """Pointwise product with a real grid function."""
        c = constant_value(f)
        if c is not None:
            return SpinorField(self.geom, coeffs=self.coeffs * c)
        return SpinorField.from_values(self.geom, f[None, :, :] * self.values)

    def __add__(self, other):
        return SpinorField(self.geom, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SpinorField(self.geom, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, a):
        # complex scalars are allowed: multiplication by i is the first
        # almost-complex structure of the quaternionic family
        return SpinorField(self.geom, coeffs=self.coeffs * complex(a))

    __rmul__ = __mul__

    def __neg__(self):
        return SpinorField(self.geom, coeffs=-self.coeffs)
