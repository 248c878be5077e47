"""Independent correctness checks for solver outputs (numpy only, no sshg).

Everything here is recomputed from the raw fields with this file's own FFT
code: the action J, the Euler-Lagrange residuals of

    Lap u = 2 rho^2 sinh(2u) - 4 rho sinh(u) |psi|^2,    D psi = rho cosh(u) psi,

and the first Dirac eigenvalue lambda_1 = min |k + delta| * 2 pi / L over the
spinor lattice.  D acts on the Fourier mode e^{i xi.x}, xi = 2 pi (k+delta)/L,
as the 2x2 symbol i (xi_1 gamma_1 + xi_2 gamma_2) built from the Clifford
generators gamma_1 = diag(i, -i), gamma_2 = [[0, i], [i, 0]].

Field conventions (those of the checkpoint files): u is given by its grid
values; psi by coefficients c[:, k] with psi(x) = sum_k c[:, k] e^{i xi.x}.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

GAMMA1 = np.array([[1j, 0.0], [0.0, -1j]])
GAMMA2 = np.array([[0.0, 1j], [1j, 0.0]])

# Tolerances, fixed here and quoted in the README.
LEVEL_RTOL = 1e-8        # level vs. the closed form, and vs. the recomputed J
RESIDUAL_ATOL = 1e-8     # H^-1 / H^-1/2 norms of the two residuals
CONST_U_ATOL = 1e-8      # max |u - mean u| for a constant scalar component
NONCONST_U_MIN = 1e-3    # max |u - mean u| for a non-constant one
DENSITY_RTOL = 1e-8      # max | |psi|^2 - lambda_1 | / lambda_1
LEVEL_GAP = 1e-6         # c2 > c1 + LEVEL_GAP


class CheckFailed(Exception):
    """An output violated a property the method guarantees."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def lambda1(side_length, delta):
    """Smallest nonzero |k + delta| * 2 pi / L over the integer lattice."""
    k = np.arange(-3, 4)
    m1 = (k + delta[0])[:, None]
    m2 = (k + delta[1])[None, :]
    r = np.hypot(m1, m2).ravel()
    return float(r[r > 0].min() * 2.0 * np.pi / side_length)


def closed_form_level(rho, side_length, delta):
    """J of the semi-trivial solution u = arccosh(lambda_1/rho), |psi|^2 = lambda_1."""
    u_bar = np.arccosh(lambda1(side_length, delta) / rho)
    return float(4.0 * rho ** 2 * np.sinh(u_bar) ** 2 * side_length ** 2)


class Lattice:
    """Fourier data of an n x n grid on [0, L)^2 with spin offset delta."""

    def __init__(self, n, side_length, delta):
        self.n, self.L, self.delta = n, float(side_length), tuple(float(d) for d in delta)
        k = np.fft.fftfreq(n, d=1.0 / n)
        scale = 2.0 * np.pi / self.L
        self.xi_sq = scale ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
        s1 = scale * (k + self.delta[0])[:, None] * np.ones((1, n))
        s2 = scale * np.ones((n, 1)) * (k + self.delta[1])[None, :]
        self.s_abs = np.hypot(s1, s2)
        # D symbol per mode: sym[a, b] = i (s1 gamma1 + s2 gamma2)[a, b]
        self.sym = 1j * (GAMMA1[:, :, None, None] * s1 + GAMMA2[:, :, None, None] * s2)
        j = np.arange(n) / n
        self.phase = (np.exp(2j * np.pi * self.delta[0] * j)[:, None]
                      * np.exp(2j * np.pi * self.delta[1] * j)[None, :])
        keep = [np.ones(n, dtype=bool), np.ones(n, dtype=bool)]
        for axis in (0, 1):
            if self.delta[axis] == 0.0:
                keep[axis][k == -n // 2] = False   # unpaired Nyquist line
        self.mask = keep[0][:, None] & keep[1][None, :]
        self.quad = (self.L / n) ** 2

    def scalar_coeffs(self, values):
        return np.fft.fft2(values) / self.n ** 2

    def scalar_values(self, coeffs):
        return np.fft.ifft2(coeffs * self.n ** 2).real

    def spinor_coeffs(self, values):
        c = np.fft.fft2(values * np.conj(self.phase), axes=(1, 2)) / self.n ** 2
        return c * self.mask

    def spinor_values(self, coeffs):
        return np.fft.ifft2(coeffs * self.n ** 2, axes=(1, 2)) * self.phase

    def dirac(self, coeffs):
        return np.einsum("abij,bij->aij", self.sym, coeffs)


def analyse(u_values, psi_coeffs, rho, side_length, delta):
    """Recompute J, both residual norms and the shape data of (u, psi)."""
    u = np.asarray(u_values, dtype=float)
    c = np.asarray(psi_coeffs, dtype=complex)
    lat = Lattice(u.shape[0], side_length, delta)
    vol = lat.L ** 2
    u_hat = lat.scalar_coeffs(u)
    psi = lat.spinor_values(c)
    dens = (psi.real ** 2 + psi.imag ** 2).sum(axis=0)
    d_c = lat.dirac(c)

    level = (vol * float(np.sum(lat.xi_sq * np.abs(u_hat) ** 2))
             + 8.0 * vol * float(np.sum(np.conj(c) * d_c).real)
             - 8.0 * rho * lat.quad * float(np.sum(np.cosh(u) * dens))
             + 4.0 * rho ** 2 * lat.quad * float(np.sum(np.sinh(u) ** 2)))

    lap_u = lat.scalar_values(-lat.xi_sq * u_hat)
    res_u = lap_u - 2.0 * rho ** 2 * np.sinh(2.0 * u) + 4.0 * rho * np.sinh(u) * dens
    res_u_hat = lat.scalar_coeffs(res_u)
    res_u_norm = np.sqrt(vol * np.sum(np.abs(res_u_hat) ** 2 / (1.0 + lat.xi_sq)))

    res_psi = d_c - lat.spinor_coeffs((rho * np.cosh(u))[None, :, :] * psi)
    res_psi_norm = np.sqrt(vol * np.sum(np.abs(res_psi) ** 2 / (1.0 + lat.s_abs)[None]))

    return {
        "level": level,
        "res_u": float(res_u_norm),
        "res_psi": float(res_psi_norm),
        "u_spread": float(np.max(np.abs(u - u.mean()))),
        "density": dens,
    }


# ---------------------------------------------------------------------------
# properties per workload
# ---------------------------------------------------------------------------

def check_solution(fields, rho, side_length, delta, reported_level=None):
    """Residuals small and (if given) the reported level equal to J."""
    a = analyse(fields["u"], fields["psi"], rho, side_length, delta)
    _require(a["res_u"] <= RESIDUAL_ATOL and a["res_psi"] <= RESIDUAL_ATOL,
             f"Euler-Lagrange residuals too large: res_u={a['res_u']:.3e}, "
             f"res_psi={a['res_psi']:.3e}")
    if reported_level is not None:
        _require(abs(a["level"] - reported_level) <= LEVEL_RTOL * max(1.0, abs(a["level"])),
                 f"reported level {reported_level!r} != recomputed J {a['level']!r}")
    return a


def check_semi_trivial(fields, rho, side_length, delta, reported_level=None):
    """The closed-form semi-trivial solution: constant u, |psi|^2 = lambda_1."""
    a = check_solution(fields, rho, side_length, delta, reported_level)
    c1 = closed_form_level(rho, side_length, delta)
    _require(abs(a["level"] - c1) <= LEVEL_RTOL * abs(c1),
             f"level {a['level']!r} != closed form {c1!r}")
    _require(a["u_spread"] <= CONST_U_ATOL, f"u is not constant (spread {a['u_spread']:.3e})")
    lam1 = lambda1(side_length, delta)
    dev = float(np.max(np.abs(a["density"] - lam1))) / lam1
    _require(dev <= DENSITY_RTOL, f"|psi|^2 deviates from lambda_1 by {dev:.3e} (relative)")
    return a


# ---------------------------------------------------------------------------
# reading pipeline outputs
# ---------------------------------------------------------------------------

def read_checkpoint(path):
    """Parse an SSHG0001 checkpoint; returns (fields dict, (L, n, delta))."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _require(blob[:8] == b"SSHG0001" and blob[8] == 1, f"{path}: bad magic or version")
    side_length, n = struct.unpack_from("<dI", blob, 9)
    d1, d2 = struct.unpack_from("<BB", blob, 21)
    (count,) = struct.unpack_from("<I", blob, 23)
    off = 27
    out = {}
    for _ in range(count):
        name_len = blob[off]
        name = blob[off + 1:off + 1 + name_len].decode("ascii")
        off += 1 + name_len
        kind, ndim = blob[off], blob[off + 1]
        off += 2
        if kind == 3:
            (out[name],) = struct.unpack_from("<d", blob, off)
            off += 8
            continue
        dims = struct.unpack_from("<" + "I" * ndim, blob, off)
        off += 4 * ndim
        size = int(np.prod(dims)) * (2 if kind == 2 else 1)
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=off)
        off += 8 * size
        out[name] = (data[0::2] + 1j * data[1::2]).reshape(dims) if kind == 2 else data.reshape(dims)
    _require(off == len(blob), f"{path}: trailing bytes")
    return out, (side_length, n, (d1 / 2.0, d2 / 2.0))


def _pipeline_records(out_dir, expected):
    with open(os.path.join(out_dir, "run_output.json")) as fh:
        summary = json.load(fh)
    records = summary["records"]
    _require(len(records) == expected, f"expected {expected} records, got {len(records)}")
    loaded = []
    for i, rec in enumerate(records):
        state, (side_length, _, delta) = read_checkpoint(os.path.join(out_dir, f"record_{i}.sshg"))
        fields = {"u": state["u_values"], "psi": state["psi_coeffs"]}
        _require(state["level"] == rec["level"], f"record {i}: checkpoint and summary levels differ")
        loaded.append((rec, fields, state["rho"], side_length, delta))
    return summary, loaded


def check_multiplicity_output(out_dir):
    """Case-1 multiplicity: semi-trivial c1, nontrivial c2 > c1, both refined."""
    summary, loaded = _pipeline_records(out_dir, expected=2)
    (rec1, f1, rho, side_length, delta), (rec2, f2, _, _, _) = loaded
    _require(rec1["refined"] and rec2["refined"], "both records must be refined")
    check_semi_trivial(f1, rho, side_length, delta, rec1["level"])
    a2 = check_solution(f2, rho, side_length, delta, rec2["level"])
    _require(a2["u_spread"] >= NONCONST_U_MIN,
             f"record 2 has (near-)constant u (spread {a2['u_spread']:.3e})")
    c1, c2 = summary["levels"]["c1"], summary["levels"]["c2"]
    _require(c1 == rec1["level"] and c2 == rec2["level"], "levels disagree with the records")
    _require(c2 > c1 + LEVEL_GAP, f"c2 = {c2!r} is not above c1 = {c1!r}")


def check_mountain_pass_output(out_dir):
    """Mountain pass at rho < lambda_1: the semi-trivial solution at c1."""
    summary, loaded = _pipeline_records(out_dir, expected=1)
    rec, fields, rho, side_length, delta = loaded[0]
    _require(summary["levels"]["c1"] == rec["level"], "c1 disagrees with the record")
    check_semi_trivial(fields, rho, side_length, delta, rec["level"])


def check_newton_record(u_values, psi_coeffs, level, refined, rho, side_length, delta):
    """Newton polish of a perturbed semi-trivial start returns to it."""
    _require(refined, "Newton did not reach its tolerance")
    check_semi_trivial({"u": u_values, "psi": psi_coeffs}, rho, side_length, delta, level)
