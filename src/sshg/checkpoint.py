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
