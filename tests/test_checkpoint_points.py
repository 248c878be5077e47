"""Checkpointed manifold points: a re-save of a loaded point is byte-identical
in every spin structure, and, a checkpoint being input from outside the
program, a point field that is missing or holds NaN or Inf is refused on
load, naming the field."""

import numpy as np
import pytest

from sshg.action import ActionParams
from sshg.checkpoint import checkpoint_save, save_point
from sshg.errors import CheckpointFormatError
from sshg.fields import ScalarField
from sshg.geometry import TorusGeometry
from sshg.nehari import fiber_solve
from sshg.spectral import project

from oracles import grid_x1, load_point

from test_spectral import ALL_DELTAS, random_spinor


@pytest.mark.parametrize("delta", ALL_DELTAS)
def test_resave_is_byte_identical(tmp_path, delta):
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    psi = random_spinor(geom, np.random.default_rng(3), decay=2.0)
    params = ActionParams(rho=0.3)
    u = ScalarField.from_values(geom, 0.3 * np.cos(grid_x1(geom)) + 0.1)
    pt = fiber_solve(u, psi - project(psi, "minus"), params)
    first, second = tmp_path / "a.sshg", tmp_path / "b.sshg"
    save_point(pt, params, str(first))
    save_point(load_point(str(first), geom)[0], params, str(second))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["u_values", "psi_coeffs", "rho", "constraint_norm"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, None])
def test_non_finite_or_missing_point_field_refused(tmp_path, name, bad):
    geom = TorusGeometry(grid_n=16, spin_delta=(0.5, 0.5))
    n = geom.grid_n
    state = {"u_values": np.full((n, n), 0.7), "psi_coeffs": np.zeros((2, n, n), dtype=complex),
             "rho": 0.5, "constraint_norm": 0.0}
    if bad is None:
        del state[name]
    elif np.ndim(state[name]):
        state[name][(0,) * state[name].ndim] = bad
    else:
        state[name] = bad
    path = str(tmp_path / "bad.sshg")
    checkpoint_save(state, geom, path)
    with pytest.raises(CheckpointFormatError, match=name):
        load_point(path, geom)
