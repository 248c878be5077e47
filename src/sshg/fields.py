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
k = 0, so constant scalars and constant multipliers skip the FFTs.  A
scalar field tests its constancy and finds its max|u| once, on first read
(`ScalarField.common_value`, `ScalarField.max_abs`), and keeps both: a
field's arrays are not mutated after construction, so neither goes stale.

`ScalarField.constant` and `ScalarField.zeros` build a compact constant,
which keeps its common value and max|u| and no grid: its `values` (the
`np.full` grid) and `coeffs` (c + 0.0 at k = 0, zeros elsewhere) are built
afresh on every read and never kept.  Arithmetic counts it as holding both
views, and arithmetic among compact constants is done on their common
values, elementwise IEEE arithmetic on one entry.  A NaN has no common
value (`constant_value`), so a NaN constant is kept as a grid.

A spinor is compact when `SpinorField.one_mode` finds its eigen-coordinates
+0.0, bit for bit, at every mode but one (the basis spinors, `zeros` and
the constant-u points of `nehari.fiber_solve`), or when it is built from
compact ones.  It keeps that grid `mode` and a (2, 1, 2) view: the (a+, a-)
pair there and each row's zero elsewhere (-0.0 after a negative factor).
Its `eig` is built afresh on every read and never kept; like any spinor
it keeps `values` and `coeffs` once read, so it makes the FFTs a full one
does.  Arithmetic among compact spinors on one mode, a product with a
constant, `spectral.l2_inner`, `sobolev_inner`, `dirac_apply` and
`project`, the zero-row test and fast path of `nehari.fiber_solve` and the
endpoint pairings of `nehari.fiber_energy_bounds` skip the grid: they apply
the full arrays' numpy operations to the views (`mode_view`), so their
results are the full arrays' bit for bit.  Every other reader reads `eig`.
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


_UNREAD = object()   # a kept grid fact not computed yet


class ScalarField:
    """Real function on the torus; values, Fourier coefficients, the common
    value and max|u| on demand, each computed at most once, or a compact
    constant (see the module docstring)."""

    __slots__ = ("geom", "_values", "_coeffs", "_common", "_max_abs")

    def __init__(self, geom: TorusGeometry, values=None, coeffs=None):
        self.geom = geom
        self._values = values
        self._coeffs = coeffs
        self._common = self._max_abs = _UNREAD

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
        return cls.constant(geom, 0.0)

    @classmethod
    def constant(cls, geom, c: float) -> "ScalarField":
        """The compact constant c (a grid if c is NaN)."""
        c = np.float64(float(c))
        if np.isnan(c):
            return cls(geom, values=np.full((geom.grid_n, geom.grid_n), c))
        field = cls(geom)
        field._common, field._max_abs = c, float(abs(c))
        return field

    # -- views ------------------------------------------------------------------

    @property
    def compact(self) -> bool:
        """Whether this is a compact constant, which keeps no grid."""
        return self._values is None and self._coeffs is None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            if self._coeffs is None:
                return np.full((self.geom.grid_n, self.geom.grid_n), self._common)
            n2 = self.geom.grid_n ** 2
            self._values = np.fft.ifft2(self._coeffs * n2).real
        return self._values

    @property
    def common_value(self):
        """`constant_value` of the grid values: their common value if all
        are equal, else None; computed once."""
        if self._common is _UNREAD:
            self._common = constant_value(self.values)
        return self._common

    @property
    def max_abs(self) -> float:
        """max |u| over the grid values (NaN if any is NaN); computed once."""
        if self._max_abs is _UNREAD:
            self._max_abs = float(np.max(np.abs(self.values)))
        return self._max_abs

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is not None:
            return self._coeffs
        n = self.geom.grid_n
        c = self.common_value
        if c is None:
            coeffs = np.fft.fft2(self._values) / n ** 2
        else:
            coeffs = _constant_coeffs(c, np.empty((n, n), dtype=complex))
        if not self.compact:
            self._coeffs = coeffs
        return coeffs

    # -- arithmetic (new objects; used by the descent loops) ---------------------

    def _combine(self, op, *others):
        """op on each view all operands hold (else values): no FFT for a
        missing view.  A compact constant holds both; op on compact
        constants only acts on their common values."""
        fields = (self, *others)
        if all(f.compact for f in fields):
            return ScalarField.constant(self.geom, op(*(f._common for f in fields)))
        coeffs = values = None
        if all(f.compact or f._coeffs is not None for f in fields):
            coeffs = op(*(f.coeffs for f in fields))
        if coeffs is None or all(f.compact or f._values is not None for f in fields):
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


@lru_cache(maxsize=16)
def _boundary(geom: TorusGeometry):
    """FFT-boundary data: conj(phase), the frame (p, q) * mask / n^2 into
    eigen-coordinates, its inverse (p, -q) * n^2 and the unscaled inverse
    (p, -q)."""
    p, q = geom.dirac_frame
    n2 = geom.grid_n ** 2
    m = geom.spinor_mask / n2
    return (np.conj(geom.spinor_phase)[None, :, :], (p * m, q * m), (p * n2, -q * n2),
            (p, -q))


def _constant_coeffs(c, out: np.ndarray) -> np.ndarray:
    """The Fourier coefficients of a grid array whose entries all equal c,
    written into out (n, n): c at k = 0, zero elsewhere."""
    out[...] = 0.0
    out[0, 0] = c + 0.0  # fft2 of a -0.0 array gives +0.0
    return out


def _rotate(x: np.ndarray, p: np.ndarray, q: np.ndarray, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """F^T x per mode for F = [[p, -q], [q, p]], on x of shape (..., 2, n, n),
    written into out; scratch (..., n, n) holds one product at a time, and
    neither it nor out overlaps x.  (p, -q) gives F x."""
    x0, x1, out0, out1 = x[..., 0, :, :], x[..., 1, :, :], out[..., 0, :, :], out[..., 1, :, :]
    np.multiply(p, x0, out=out0)
    out0 += np.multiply(q, x1, out=scratch)
    np.multiply(p, x1, out=out1)
    out1 -= np.multiply(q, x0, out=scratch)
    return out


def _rotated(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`_rotate` into a new array."""
    return _rotate(x, p, q, np.empty_like(x), np.empty_like(x[..., 0, :, :]))


def spinor_eig(geom: TorusGeometry, values: np.ndarray) -> np.ndarray:
    """Masked eigen-coordinates of spinor grid values of shape (..., 2, n, n):
    one fft2 over the whole stack."""
    conj_phase, into = _boundary(geom)[:2]
    return _rotated(np.fft.fft2(values * conj_phase, axes=(-2, -1)), *into)


def minus_row_times(geom: TorusGeometry, f: np.ndarray, values=None, row=None) -> np.ndarray:
    """The a- row of f psi for a real grid function f, non-constant.

    psi is given by its grid values (..., 2, n, n), with f of shape
    (..., n, n), or it is the E^- vector whose a- row is `row` (n, n), with
    a+ = 0, whose grid values come in through the a- column of the inverse
    frame only.  Either way this is `psi.times(f).eig[1]` bit for bit: the
    same ifft2 (for a row) and fft2 calls, phase multiplies and operation
    order, with only the a- row of the rotation into eigen-coordinates.
    """
    conj_phase, (p, q), (p_out, mq_out), _ = _boundary(geom)
    if values is None:
        c = np.empty((2,) + row.shape, dtype=complex)
        c[0] = mq_out * row
        c[1] = p_out * row
        values = np.fft.ifft2(c, axes=(1, 2)) * geom.spinor_phase[None, :, :]
    x = np.fft.fft2(f[..., None, :, :] * values * conj_phase, axes=(-2, -1))
    return p * x[..., 1, :, :] - q * x[..., 0, :, :]


def frame_transfer(geom: TorusGeometry, mode, pair) -> np.ndarray:
    """F_m^T F_mode pair at every grid mode m, (2, n, n), zero off the mode
    mask: the eigen-coordinates at m of the C^2 components that the
    (a+, a-) pair `pair` has at `mode`.  A scalar Fourier mode times a
    spinor on one mode carries its components to another mode, where these
    are its eigen-coordinates."""
    p, q = geom.dirac_frame
    c0 = p[mode] * pair[0] - q[mode] * pair[1]
    c1 = q[mode] * pair[0] + p[mode] * pair[1]
    return np.stack((p * c0 + q * c1, p * c1 - q * c0)) * geom.spinor_mask


class SpinorField:
    """C^2-valued field with real metric Re<.,.>; Fourier support on k+delta.

    The eigen-coordinates `eig`, (a+, a-) per mode, are the source of truth
    and always restricted to the geometry's valid mode mask, so
    conjugation-based operators close exactly on the discrete space.  A
    compact spinor keeps one grid `mode` and its view (`mode_view`).
    """

    __slots__ = ("geom", "mode", "_view", "_eig", "_values", "_coeffs")

    def __init__(self, geom: TorusGeometry, values=None, eig=None):
        self.geom = geom
        self.mode = self._view = None
        self._eig = eig
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
        field = cls(geom, eig=_rotated(coeffs, *geom.dirac_frame))
        field._coeffs = coeffs
        return field

    @classmethod
    def zeros(cls, geom) -> "SpinorField":
        return cls.one_mode(geom, np.zeros((2, geom.grid_n, geom.grid_n), dtype=complex))

    @classmethod
    def one_mode(cls, geom, eig: np.ndarray) -> "SpinorField":
        """The spinor with eigen-coordinates eig (2, n, n), compact when eig
        is +0.0, bit for bit, at every mode but one."""
        words = eig.view(np.uint64).reshape(2, -1, 2)   # (row, mode, real/imaginary)
        k = int(np.argmax(words.ravel() != 0)) // 2 % words.shape[1]   # the first nonzero's mode
        if np.count_nonzero(words) != np.count_nonzero(words[:, k]):
            return cls(geom, eig=eig)
        i, j = divmod(k, geom.grid_n)
        view = np.zeros((2, 1, 2), dtype=complex)
        view[:, 0, 0] = eig[:, i, j]
        return cls.viewed(geom, (i, j), view)

    @classmethod
    def viewed(cls, geom, mode, x: np.ndarray) -> "SpinorField":
        """The spinor whose eigen-coordinates x, shaped like the views of a
        `mode_view` whose mode is `mode`, give."""
        if mode is None:
            return cls(geom, eig=x)
        field = cls(geom)
        field.mode, field._view = mode, x
        return field

    @property
    def eig(self) -> np.ndarray:
        if self.mode is None:
            return self._eig
        eig = np.empty((2, self.geom.grid_n, self.geom.grid_n), dtype=complex)
        eig[...] = self._view[:, :, 1:]
        eig[(slice(None),) + self.mode] = self._view[:, 0, 0]
        return eig

    @property
    def coeffs(self) -> np.ndarray:
        """Component-basis coefficients chat, the checkpoint format; +0 off the
        mask, so save -> load -> save is byte-identical."""
        if self._coeffs is None:
            p, q = self.geom.dirac_frame
            self._coeffs = np.where(self.geom.spinor_mask, _rotated(self.eig, p, -q), 0)
        return self._coeffs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            c = _rotated(self.eig, *_boundary(self.geom)[2])
            self._values = np.fft.ifft2(c, axes=(1, 2)) * self.geom.spinor_phase[None, :, :]
        return self._values

    def density(self) -> np.ndarray:
        """Pointwise |psi|^2 on the grid."""
        v = self.values
        return (v.real ** 2 + v.imag ** 2).sum(axis=0)

    def _map(self, op, *others) -> "SpinorField":
        eigs, _, mode = mode_view((self, *others))
        return SpinorField.viewed(self.geom, mode, op(*eigs))

    def times(self, f: np.ndarray) -> "SpinorField":
        """Pointwise product with a real grid function."""
        c = constant_value(f)
        if c is not None:
            return self._map(lambda e: e * c)
        return SpinorField.from_values(self.geom, f[None, :, :] * self.values)

    def __add__(self, other):
        return self._map(np.add, other)

    def __sub__(self, other):
        return self._map(np.subtract, other)

    def __mul__(self, a):
        # complex scalars are allowed: multiplication by i is the first
        # almost-complex structure of the quaternionic family
        a = complex(a)
        return self._map(lambda e: e * a)

    __rmul__ = __mul__


def mode_view(spinors, grids=()):
    """(eigs, grids, mode): the spinors' eigen-coordinates and the per-mode
    grids (..., n, n), for a reader that may skip the grid, and the mode.

    When every spinor is compact on one mode, each is its (2, 1, 2) view:
    column 0 its (a+, a-) at the mode, column 1 each row's entry at every
    other mode, a zero.  Each grid is then (..., 1, 2): its value at the
    mode, and 1.0, which gives a zero the sign any finite nonnegative weight
    gives it, so the grids must be such weights.  Elementwise arithmetic on
    the views is the full arrays' at those entries, bit for bit, and a sum
    over a view is the full sum, whose other terms are zeros.  Otherwise
    the views are the full arrays and mode is None.
    """
    mode = spinors[0].mode
    if mode is None or any(s.mode != mode for s in spinors):
        return [s.eig for s in spinors], grids, None
    i, j = mode
    return ([s._view for s in spinors],
            [np.stack((g[..., i, j], np.ones(g.shape[:-2])), axis=-1)[..., None, :]
             for g in grids], mode)


# -- packed (u, psi) arrays -----------------------------------------------------
#
# A (u, psi) direction (a gradient, a tangent, a Newton step) is one complex
# array (3, n, n): row 0 holds u's Fourier coefficients, rows 1-2 psi's
# eigen-coordinates.  The two stacked transforms below carry a Hessian
# product to the grid and back in one fft2 each, written into arrays the
# caller gives, bit for bit the per-field views on power-of-two grids.

def pack(u: ScalarField, psi: SpinorField) -> np.ndarray:
    """The packed array of the pair (u, psi)."""
    x = np.empty((3,) + psi.eig.shape[1:], dtype=complex)
    x[0] = u.coeffs
    x[1:] = psi.eig
    return x


def unpack(geom: TorusGeometry, x: np.ndarray) -> tuple[ScalarField, SpinorField]:
    """The pair (u, psi) of a packed array, as views of its rows."""
    return ScalarField(geom, coeffs=x[0]), SpinorField(geom, eig=x[1:])


def stacked_values(geom: TorusGeometry, scalar_coeffs, eig: np.ndarray, out: np.ndarray):
    """The grid values of k >= 1 scalar Fourier coefficient arrays (n, n)
    and of the spinor with eigen-coordinates eig (2, n, n), none of them
    overlapping out (k + 2, n, n), computed in out by one fft2 over its
    rows.  Returns (values, the spinor holding both views): values is the
    real view of out[:k], and the spinor's grid values are out[k:].

    The inverse transform is conj(fft2(conj(c))) with the n^2 pre-scale
    dropped, since numpy's ifft2 leaves an out= array unwritten.  On
    power-of-two grids, where the scalings by n^2 and 1/n are exact, this is
    `ScalarField.values` and `SpinorField.values` bit for bit; elsewhere
    they agree to rounding."""
    k = len(scalar_coeffs)
    _rotate(eig, *_boundary(geom)[3], out[k:], out[0])
    for row, coeffs in zip(out, scalar_coeffs):
        np.conjugate(coeffs, out=row)
    spinor = out[k:]
    np.conjugate(spinor, out=spinor)
    np.fft.fft2(out, axes=(-2, -1), out=out)
    # the real parts of the scalar rows need no conjugation
    np.conjugate(spinor, out=spinor)
    spinor *= geom.spinor_phase[None, :, :]
    return out[:k].real, SpinorField(geom, values=spinor, eig=eig)


def stacked_coeffs(geom: TorusGeometry, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The packed array of a scalar and a spinor whose grid values are the
    rows of s (3, n, n), row 0 (real) the scalar's, written into out by one
    fft2 over s, in place, so s is consumed.  Row 0 is `ScalarField.coeffs`
    (with its constant shortcut) and rows 1-2 `SpinorField.from_values(...).eig`,
    bit for bit."""
    conj_phase, into = _boundary(geom)[:2]
    c = constant_value(s[0])
    s[1:] *= conj_phase
    np.fft.fft2(s, axes=(-2, -1), out=s)
    if c is None:
        np.divide(s[0], geom.grid_n ** 2, out=out[0])
    else:
        _constant_coeffs(c.real, out[0])
    _rotate(s[1:], *into, out[1:], s[0])
    return out
