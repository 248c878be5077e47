"""Binary checkpoint container: magic 'SSHG0001', versioned, bit-exact.

Layout (little-endian throughout):

    magic     8 bytes  b"SSHG0001"
    version   1 byte   (currently 1)
    header    side_length f64, grid_n u32, spin_delta halves u8 x 2
    nfields   u32
    per field:
        name_len u8, name ascii
        kind     u8   (1 = real f64 array, 2 = complex f64 array, 3 = scalar f64)
        ndim     u8, dims u32 each (kind 3 stores no dims)
        payload  f64 data (complex stored as interleaved re/im)

Save goes through a temp file plus rename, so a killed writer never leaves a
partial checkpoint behind.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointFormatError
from .geometry import TorusGeometry

MAGIC = b"SSHG0001"
VERSION = 1


def _pack_field(name: str, value) -> bytes:
    chunks = []
    raw_name = name.encode("ascii")
    if len(raw_name) > 255:
        raise CheckpointFormatError(f"field name too long: {name!r}")
    chunks.append(struct.pack("<B", len(raw_name)))
    chunks.append(raw_name)
    if np.isscalar(value) or getattr(value, "ndim", None) == 0:
        chunks.append(struct.pack("<BB", 3, 0))
        chunks.append(struct.pack("<d", float(value)))
        return b"".join(chunks)
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        kind = 2
        payload = np.empty(arr.shape + (2,), dtype="<f8")
        payload[..., 0] = arr.real
        payload[..., 1] = arr.imag
    else:
        kind = 1
        payload = np.ascontiguousarray(arr, dtype="<f8")
    chunks.append(struct.pack("<BB", kind, arr.ndim))
    for d in arr.shape:
        chunks.append(struct.pack("<I", d))
    chunks.append(payload.tobytes())
    return b"".join(chunks)


def write_atomic(path: str, data: bytes) -> str:
    """Write bytes through a temp file plus rename; returns the path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def checkpoint_save(state: dict, geom: TorusGeometry, path: str) -> str:
    """Write named fields atomically; returns the final path."""
    chunks = [MAGIC, struct.pack("<B", VERSION)]
    chunks.append(struct.pack("<dI", float(geom.side_length), int(geom.grid_n)))
    chunks.append(struct.pack("<BB", int(2 * geom.spin_delta[0]), int(2 * geom.spin_delta[1])))
    chunks.append(struct.pack("<I", len(state)))
    for name, value in state.items():
        chunks.append(_pack_field(name, value))
    return write_atomic(path, b"".join(chunks))


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


def checkpoint_load(path: str, geom: TorusGeometry | None = None):
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


def save_point(point, params, path: str, extra: dict | None = None) -> str:
    """Checkpoint a manifold point (u values, psi coefficients, rho)."""
    state = {
        "u_values": point.u.values,
        "psi_coeffs": point.psi.coeffs,
        "rho": params.rho,
        "constraint_norm": point.constraint_norm,
    }
    if extra:
        state.update(extra)
    return checkpoint_save(state, point.u.geom, path)


def load_point(path: str, geom: TorusGeometry | None = None):
    """Inverse of save_point; returns (NehariPoint, rho, extras).  A point field
    that is missing or holds NaN/Inf is refused."""
    from .fields import ScalarField, SpinorField
    from .nehari import NehariPoint

    state, stored_geom = checkpoint_load(path, geom)
    for name in ("u_values", "psi_coeffs", "rho", "constraint_norm"):
        if name not in state or not np.all(np.isfinite(state[name])):
            raise CheckpointFormatError(f"checkpoint field {name!r} is missing or not finite")
    u = ScalarField.from_values(stored_geom, state.pop("u_values"))
    psi = SpinorField.from_coeffs(stored_geom, state.pop("psi_coeffs"))
    rho = state.pop("rho")
    cert = state.pop("constraint_norm")
    point = NehariPoint(u=u, psi=psi, constraint_norm=float(cert))
    return point, float(rho), state
