"""Scalar and spinor fields with consistent grid/Fourier views.

Conventions
-----------
Scalar u:   u(x) = sum_k uhat[k] e^{2 pi i k.x / L},      uhat = fft2(values)/n^2.
Spinor psi: psi(x) = sum_k chat[:,k] e^{2 pi i (k+delta).x / L},
            chat = fft2(values * conj(phase)) / n^2 restricted to the valid
            mode mask of the geometry.

A spinor is stored in Dirac eigen-coordinates (a+, a-) = F^T chat per mode,
F = [[p, -q], [q, p]] the geometry's orthonormal `dirac_frame`: a+ weighs
the +|xi| eigenvector, a- the -|xi| one.  Only this module reads the frame,
at the FFT boundary (with the 1/n^2, the n^2 and the mode mask folded in)
and for `coeffs`, the component-basis view checkpoints keep.

With these normalizations the grid quadrature of |field|^2 equals L^2 *
sum |coeff|^2 (either basis) exactly for resolved fields (discrete Parseval).

A grid function whose values are all equal has the single Fourier mode
k = 0, so constant scalars and constant multipliers skip the FFTs.
"""

from __future__ import annotations

from functools import lru_cache

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
                self._coeffs[0, 0] = c + 0.0  # fft2 of a -0.0 array gives +0.0
        return self._coeffs

    # -- arithmetic (new objects; used by the descent loops) ---------------------

    def _combine(self, op, *others):
        """op on each view all operands hold (else values): no FFT for a missing view."""
        fields = (self, *others)
        coeffs = values = None
        if all(f._coeffs is not None for f in fields):
            coeffs = op(*(f._coeffs for f in fields))
        if coeffs is None or all(f._values is not None for f in fields):
            values = op(*(f.values for f in fields))
        return ScalarField(self.geom, values=values, coeffs=coeffs)

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __mul__(self, a: float):
        a = float(a)
        return self._combine(lambda x: x * a)

    __rmul__ = __mul__

    def __neg__(self):
        return self._combine(np.negative)


@lru_cache(maxsize=16)
def _boundary(geom: TorusGeometry):
    """FFT-boundary data: conj(phase), the frame (p, q) * mask / n^2 into
    eigen-coordinates and its inverse (p, -q) * n^2."""
    p, q = geom.dirac_frame
    n2 = geom.grid_n ** 2
    m = geom.spinor_mask / n2
    return np.conj(geom.spinor_phase)[None, :, :], (p * m, q * m), (p * n2, -q * n2)


def _rotate(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """F^T x per mode for F = [[p, -q], [q, p]], on x of shape (..., 2, n, n);
    (p, -q) gives F x."""
    out = np.empty_like(x)
    out[..., 0, :, :] = p * x[..., 0, :, :] + q * x[..., 1, :, :]
    out[..., 1, :, :] = p * x[..., 1, :, :] - q * x[..., 0, :, :]
    return out


def spinor_eig(geom: TorusGeometry, values: np.ndarray) -> np.ndarray:
    """Masked eigen-coordinates of spinor grid values of shape (..., 2, n, n):
    one fft2 over the whole stack."""
    conj_phase, into, _ = _boundary(geom)
    return _rotate(np.fft.fft2(values * conj_phase, axes=(-2, -1)), *into)


def minus_row_times(geom: TorusGeometry, f: np.ndarray, values=None, row=None) -> np.ndarray:
    """The a- row of f psi for a real grid function f, non-constant.

    psi is given by its grid values (..., 2, n, n), with f of shape
    (..., n, n), or it is the E^- vector whose a- row is `row` (n, n), with
    a+ = 0, whose grid values come in through the a- column of the inverse
    frame only.  Either way this is `psi.times(f).eig[1]` bit for bit: the
    same ifft2 (for a row) and fft2 calls, phase multiplies and operation
    order, with only the a- row of the rotation into eigen-coordinates.
    """
    conj_phase, (p, q), (p_out, mq_out) = _boundary(geom)
    if values is None:
        c = np.empty((2,) + row.shape, dtype=complex)
        c[0] = mq_out * row
        c[1] = p_out * row
        values = np.fft.ifft2(c, axes=(1, 2)) * geom.spinor_phase[None, :, :]
    x = np.fft.fft2(f[..., None, :, :] * values * conj_phase, axes=(-2, -1))
    return p * x[..., 1, :, :] - q * x[..., 0, :, :]


class SpinorField:
    """C^2-valued field with real metric Re<.,.>; Fourier support on k+delta.

    The eigen-coordinates `eig`, (a+, a-) per mode, are the source of truth
    and always restricted to the geometry's valid mode mask, so
    conjugation-based operators close exactly on the discrete space.
    """

    __slots__ = ("geom", "eig", "_values", "_coeffs")

    def __init__(self, geom: TorusGeometry, values=None, eig=None):
        self.geom = geom
        self.eig = eig
        self._values = values
        self._coeffs = None

    @classmethod
    def from_values(cls, geom, values) -> "SpinorField":
        values = np.asarray(values, dtype=complex)
        if values.shape != (2, geom.grid_n, geom.grid_n):
            raise ValueError(f"spinor values shape {values.shape} does not match grid {geom.grid_n}")
        eig = spinor_eig(geom, values)
        if not geom.spinor_mask_trivial:
            return cls(geom, eig=eig)
        return cls(geom, values=values, eig=eig)

    @classmethod
    def from_coeffs(cls, geom, coeffs) -> "SpinorField":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (2, geom.grid_n, geom.grid_n):
            raise ValueError(f"spinor coeffs shape {coeffs.shape} does not match grid {geom.grid_n}")
        if not geom.spinor_mask_trivial:
            coeffs = np.where(geom.spinor_mask, coeffs, 0)
        field = cls(geom, eig=_rotate(coeffs, *geom.dirac_frame))
        field._coeffs = coeffs
        return field

    @classmethod
    def zeros(cls, geom) -> "SpinorField":
        return cls(geom, eig=np.zeros((2, geom.grid_n, geom.grid_n), dtype=complex))

    @property
    def coeffs(self) -> np.ndarray:
        """Component-basis coefficients chat, the checkpoint format; +0 off the
        mask, so save -> load -> save is byte-identical."""
        if self._coeffs is None:
            p, q = self.geom.dirac_frame
            self._coeffs = np.where(self.geom.spinor_mask, _rotate(self.eig, p, -q), 0)
        return self._coeffs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            c = _rotate(self.eig, *_boundary(self.geom)[2])
            self._values = np.fft.ifft2(c, axes=(1, 2)) * self.geom.spinor_phase[None, :, :]
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
            return SpinorField(self.geom, eig=self.eig * c)
        return SpinorField.from_values(self.geom, f[None, :, :] * self.values)

    def __add__(self, other):
        return SpinorField(self.geom, eig=self.eig + other.eig)

    def __sub__(self, other):
        return SpinorField(self.geom, eig=self.eig - other.eig)

    def __mul__(self, a):
        # complex scalars are allowed: multiplication by i is the first
        # almost-complex structure of the quaternionic family
        return SpinorField(self.geom, eig=self.eig * complex(a))

    __rmul__ = __mul__

    def __neg__(self):
        return SpinorField(self.geom, eig=-self.eig)
