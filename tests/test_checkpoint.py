"""Checkpoint container: bit-exact round trips, format validation."""

import numpy as np
import pytest

from sshg.action import ActionParams
from sshg.checkpoint import checkpoint_save, save_point
from sshg.errors import CheckpointFormatError
from sshg.fields import ScalarField
from sshg.geometry import TorusGeometry
from sshg.nehari import fiber_solve
from sshg.spectral import build_basis

from oracles import checkpoint_load, load_point


def test_roundtrip_bit_exact(tmp_path):
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    rng = np.random.default_rng(0)
    state = {
        "real_block": rng.standard_normal((16, 16)),
        "complex_block": rng.standard_normal((2, 16, 16))
        + 1j * rng.standard_normal((2, 16, 16)),
        "rho": 0.53125,
    }
    path = str(tmp_path / "state.sshg")
    checkpoint_save(state, geom, path)
    loaded, g2 = checkpoint_load(path)
    assert g2 == geom
    assert np.array_equal(loaded["real_block"], state["real_block"])
    assert np.array_equal(loaded["complex_block"], state["complex_block"])
    assert loaded["rho"] == state["rho"]


def test_point_roundtrip(tmp_path):
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    basis = build_basis(geom, cutoff=2.0)
    params = ActionParams(rho=0.5)
    pt = fiber_solve(ScalarField.constant(geom, 0.7), 2.0 * basis.eigenspinor(1), params)
    path = str(tmp_path / "pt.sshg")
    save_point(pt, params, path, extra={"level": 1.25})
    back, rho, extras = load_point(path, geom)
    assert rho == params.rho
    assert extras["level"] == 1.25
    assert np.array_equal(back.u.values, pt.u.values)
    assert np.array_equal(back.psi.coeffs, pt.psi.coeffs)
    assert back.constraint_norm == pt.constraint_norm


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.sshg"
    path.write_bytes(b"NOTSSHG1" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(str(path))


def test_truncated_file(tmp_path):
    geom = TorusGeometry(grid_n=16)
    path = str(tmp_path / "t.sshg")
    checkpoint_save({"x": np.ones((16, 16))}, geom, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path)


def test_cross_grid_load_rejected(tmp_path):
    g16 = TorusGeometry(grid_n=16)
    g32 = TorusGeometry(grid_n=32)
    path = str(tmp_path / "g.sshg")
    checkpoint_save({"x": 1.0}, g16, path)
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path, geom=g32)


def test_atomic_write_leaves_no_partial(tmp_path):
    geom = TorusGeometry(grid_n=16)
    target = tmp_path / "out.sshg"

    class Boom(Exception):
        pass

    class Exploding:
        ndim = 2
        shape = (4, 4)

        def __array__(self, dtype=None):
            raise Boom()

    with pytest.raises(Exception):
        checkpoint_save({"x": Exploding()}, geom, str(target))
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp")) == []
