"""A grid function whose values are all equal has a single Fourier mode.

Constant scalars get their DC-only coefficients without an FFT, products with
a constant multiplier stay in coefficient space, the energy at constant u
uses discrete Parseval, and at constant u a free spinor with a zero a- row
is its own fiber point.  Each fast path is checked against the FFT or CG
formula it replaces, across even grids (powers of two and not) and all spin
structures.  A scalar field keeps its common value and max|u| once read;
both are checked against the scans they replace.  A compact constant keeps
no grid: its views, its arithmetic and the readers that skip its grid are
checked against a field that keeps its grids (`oracles.GridScalar`).  A
compact spinor keeps one mode: its readers and its arithmetic are checked
against a spinor holding the same eigen-coordinates as a full array, and a
constant-u fiber point, its J, its H^{1/2} norm and a segment bound built
from compact spinors are checked to make no FFT and no (2, n, n) array.
"""

import tracemalloc
import types
from contextlib import contextmanager

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

import sshg.fields
import sshg.nehari
from sshg.action import U_CAP, ActionParams, check_overflow, evaluate_J
from sshg.errors import OverflowGuardError
from sshg.fields import ScalarField, SpinorField, constant_value
from sshg.geometry import TorusGeometry
from sshg.minmax import _interp_points, _product_dist
from sshg.nehari import fiber_energy_bounds, fiber_solve
from sshg.spectral import (build_basis, dirac_apply, hhalf_norm, l2_inner, project,
                           sobolev_inner, subspace_mask)

from oracles import GridScalar, cg_fiber_point
from test_spectral import ALL_DELTAS, random_spinor

GRIDS = st.integers(4, 24).map(lambda h: 2 * h)          # even grids 8..48
DELTAS = st.sampled_from(ALL_DELTAS)
SEEDS = st.integers(0, 2**32 - 1)
CONSTS = st.floats(-10.0, 10.0, allow_nan=False)
PROPERTY = settings(max_examples=40, deadline=None)


@contextmanager
def counting_ffts():
    """Count the fft2/ifft2 calls made through `sshg.fields.np`: each kind
    and their total "fft"."""
    counts = {"fft": 0, "fft2": 0, "ifft2": 0}
    real = sshg.fields.np

    def counted(name):
        fn = getattr(real.fft, name)

        def wrapper(*args, **kwargs):
            counts["fft"] += 1
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fft = types.SimpleNamespace(**vars(real.fft))
    fft.fft2 = counted("fft2")
    fft.ifft2 = counted("ifft2")
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(real.__dict__)
    proxy.fft = fft
    sshg.fields.np = proxy
    try:
        yield counts
    finally:
        sshg.fields.np = real


def _relerr(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=CONSTS, seed=SEEDS)
def test_times_constant_matches_the_fft_product(n, delta, c, seed):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    psi = random_spinor(geom, np.random.default_rng(seed))
    f = np.full((n, n), c)
    ref = SpinorField.from_values(geom, f[None, :, :] * psi.values).coeffs
    with counting_ffts() as counts:
        fast = psi.times(f).coeffs
    assert counts["fft"] == 0
    assert _relerr(fast, ref) <= 1e-14
    assert np.all(fast[:, ~geom.spinor_mask] == 0)


@PROPERTY
@given(n=GRIDS, c=st.floats(-1e6, 1e6, allow_nan=False))
def test_constant_scalar_is_dc_only(n, c):
    geom = TorusGeometry(grid_n=n)
    u = ScalarField.constant(geom, c)
    with counting_ffts() as counts:
        coeffs = u.coeffs
    assert counts["fft"] == 0
    expect = np.zeros((n, n), dtype=complex)
    expect[0, 0] = c + 0.0  # the DC entry of a constant -0.0 is +0.0, as in fft2
    assert coeffs.tobytes() == expect.tobytes()
    if n & (n - 1) == 0:
        # on power-of-two grids the FFT of a constant is exactly DC-only
        assert coeffs.tobytes() == (np.fft.fft2(u.values) / n**2).tobytes()


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=CONSTS, seed=SEEDS,
       rho=st.floats(0.1, 2.0, allow_nan=False))
def test_energy_at_constant_u_matches_the_grid_sum(n, delta, c, seed, rho):
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    psi = random_spinor(geom, np.random.default_rng(seed))
    u = ScalarField.constant(geom, c)
    terms = (8.0 * l2_inner(dirac_apply(psi), psi),
             -8.0 * rho * geom.quad_weight * float(np.sum(np.cosh(u.values) * psi.density())),
             4.0 * rho * rho * geom.quad_weight * float(np.sum(np.sinh(u.values) ** 2)))
    got = evaluate_J(u, psi, ActionParams(rho=rho))
    assert abs(got - sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)


@PROPERTY
@given(n=GRIDS, c=CONSTS, data=st.data())
def test_one_ulp_off_takes_the_fft_path(n, c, data):
    geom = TorusGeometry(grid_n=n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    f = np.full((n, n), c)
    f[i, j] = np.nextafter(c, np.inf)
    assert constant_value(f) is None
    psi = SpinorField.from_coeffs(geom, np.ones((2, n, n), dtype=complex))
    with counting_ffts() as counts:
        ScalarField.from_values(geom, f).coeffs
    assert counts["fft"] == 1
    with counting_ffts() as counts:
        psi.times(f)
    assert counts["fft"] == 2


def test_constant_value():
    assert constant_value(np.full((8, 8), 2.5)) == 2.5
    assert constant_value(np.arange(64.0).reshape(8, 8)) is None
    assert constant_value(np.full((8, 8), np.nan)) is None


def _free_with_signed_zeros(geom, rng):
    """A random free spinor whose masked a- row holds zeros of random sign."""
    psi = random_spinor(geom, rng, decay=1.5)
    eig = (psi - project(psi, "minus")).eig.copy()
    mask = subspace_mask(geom, "minus", None)[1] > 0
    for part in (eig[1].real, eig[1].imag):
        part[mask] = np.where(rng.integers(0, 2, size=int(mask.sum())), -0.0, 0.0)
    return SpinorField(geom, eig=eig), mask


def _solve_counting_cg(u, free, params, x0):
    """fiber_solve's point, its CG calls and its FFTs."""
    calls = []
    real = sshg.nehari.cg

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, counting_ffts() as ffts:
        mp.setattr(sshg.nehari, "cg", counted)
        point = fiber_solve(u, free, params, x0=x0)
    return point, len(calls), ffts["fft"]


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=st.floats(-3.0, 3.0, allow_nan=False), seed=SEEDS,
       rho=st.floats(0.1, 2.0, allow_nan=False), warm=st.booleans())
def test_fiber_solve_at_constant_u_needs_no_fft(n, delta, c, seed, rho, warm):
    # psi_free with a zero masked a- row, its zeros signed at random, with
    # and without a warm start: the point is the CG path's bit for bit, with
    # no CG call and no FFT, and its certificate is exactly 0
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    params = ActionParams(rho=rho)
    assume(geom.spectral_gap(rho) > 1e-6)
    rng = np.random.default_rng(seed)
    free, _ = _free_with_signed_zeros(geom, rng)
    x0 = project(random_spinor(geom, rng), "minus") if warm else None
    u = ScalarField.constant(geom, c)
    eig, cert = cg_fiber_point(u, free, params, x0)
    point, cg_calls, ffts = _solve_counting_cg(u, free, params, x0)
    assert cg_calls == 0 and ffts == 0
    assert point.constraint_norm == 0.0 == cert
    assert point.psi.eig.tobytes() == eig.tobytes()


@PROPERTY
@given(n=GRIDS, delta=DELTAS, c=st.floats(-3.0, 3.0, allow_nan=False), seed=SEEDS,
       tiny=st.sampled_from([1e-300, -1e-300, 1e-300j, 5e-324]), data=st.data())
def test_a_nonzero_minus_row_takes_the_cg_path(n, delta, c, seed, tiny, data):
    # one masked a- row entry of psi_free off zero, even far below what its
    # H^1/2 norm can resolve, and the solve runs CG as before
    geom = TorusGeometry(grid_n=n, spin_delta=delta)
    params = ActionParams(rho=0.5)
    assume(geom.spectral_gap(params.rho) > 1e-6)
    free, mask = _free_with_signed_zeros(geom, np.random.default_rng(seed))
    i, j = np.argwhere(mask)[data.draw(st.integers(0, int(mask.sum()) - 1))]
    free.eig[1, i, j] += tiny
    u = ScalarField.constant(geom, c)
    eig, cert = cg_fiber_point(u, free, params)
    point, cg_calls, _ = _solve_counting_cg(u, free, params, None)
    assert cg_calls == 1
    assert point.constraint_norm == cert
    assert point.psi.eig.tobytes() == eig.tobytes()


KINDS = ("constant", "negative_zero", "one_ulp", "nan", "inf", "random")


@PROPERTY
@given(n=GRIDS, c=CONSTS, kind=st.sampled_from(KINDS), via_coeffs=st.booleans(),
       data=st.data())
def test_kept_grid_facts_match_the_scans(n, c, kind, via_coeffs, data):
    # a field's common value and max|u|, read twice, are the scans of its
    # grid values bit for bit, and the constancy scan runs once for both
    # reads and the coefficients
    geom = TorusGeometry(grid_n=n)
    vals = np.full((n, n), c)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    if kind == "negative_zero":
        vals = np.where(np.random.default_rng(i * n + j).integers(0, 2, (n, n)), -0.0, 0.0)
    elif kind == "one_ulp":
        vals[i, j] = np.nextafter(c, np.inf)
    elif kind == "nan":
        vals[i, j] = np.nan
    elif kind == "inf":
        vals[i, j] = data.draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "random":
        vals = np.random.default_rng(i).standard_normal((n, n))
    scans = []
    real = sshg.fields.constant_value

    def counted(a):
        scans.append(1)
        return real(a)

    # the FFTs of a field holding NaN or inf are all NaN
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        if via_coeffs:
            u = ScalarField.from_coeffs(geom, np.fft.fft2(vals) / n ** 2)
        else:
            u = ScalarField.from_values(geom, vals)
        expect_c = constant_value(u.values)
        expect_m = np.max(np.abs(u.values))
        mp.setattr(sshg.fields, "constant_value", counted)
        got = [u.common_value, u.common_value]
        u.coeffs
    assert len(scans) == 1
    for got_c in got:
        if expect_c is None:
            assert got_c is None
        else:
            assert np.float64(got_c).tobytes() == np.float64(expect_c).tobytes()
    for got_m in (u.max_abs, u.max_abs):
        assert isinstance(got_m, float)
        assert np.array_equal(got_m, expect_m, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(U_CAP, np.inf),
                                 -np.nextafter(U_CAP, np.inf), 1e300])
def test_check_overflow_refuses_what_the_kept_max_refuses(bad):
    # through a field's kept max|u|, read before or not, and through a stack
    # of grid values; |u| = U_CAP itself passes
    geom = TorusGeometry(grid_n=8)
    vals = np.full((8, 8), 0.5)
    vals[3, 5] = bad
    for read_first in (False, True):
        u = ScalarField.from_values(geom, vals)
        if read_first:
            u.max_abs
        with pytest.raises(OverflowGuardError, match="overflow cap"):
            check_overflow(u)
    with pytest.raises(OverflowGuardError, match="overflow cap"):
        check_overflow(np.stack((np.zeros((8, 8)), vals)))
    vals[3, 5] = -U_CAP
    u = ScalarField.from_values(geom, vals)
    assert check_overflow(u) is u.values
    assert u.max_abs == U_CAP


# -- compact constants ----------------------------------------------------------

SPECIAL = (0.0, -0.0, 1.3, -2.5, np.inf, -np.inf, np.nan)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _views_match(u, ref):
    """u's values and coefficients are ref's bit for bit, read twice."""
    with np.errstate(invalid="ignore"):
        return all(_same(u.values, ref.values) and _same(u.coeffs, ref.coeffs)
                   for _ in range(2))


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("c", SPECIAL)
def test_compact_constant_matches_the_grid_constant(n, c):
    # views, common value and max|u| are the grid constant's bit for bit,
    # with no FFT; the views are built on each read and never kept, and a
    # NaN, which no grid holds in common, is kept as a grid
    geom = TorusGeometry(grid_n=n)
    grid = ScalarField.from_values(geom, np.full((n, n), c))
    with counting_ffts() as counts:
        u = ScalarField.constant(geom, c)
        common, peak = u.common_value, u.max_abs
        views = _views_match(u, GridScalar.constant(geom, c))
    assert views
    assert u.compact == (c == c)
    if u.compact:
        assert counts["fft"] == 0
        assert u.values is not u.values and u.coeffs is not u.coeffs
    if grid.common_value is None:
        assert common is None
    else:
        assert _same(common, grid.common_value)
    assert isinstance(peak, float) and _same(peak, grid.max_abs)
    if c == 0.0:
        zero = ScalarField.zeros(geom)
        assert zero.compact and _same(zero.values, np.zeros((n, n)))


COMPACT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.3, -2.5]),
                           st.floats(-10.0, 10.0, allow_nan=False))
SCALES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 0.5]),
                   st.floats(-3.0, 3.0, allow_nan=False))
STEPS = st.lists(st.tuples(st.sampled_from(["add", "sub", "rsub", "mul"]),
                           COMPACT_VALUES, SCALES), min_size=1, max_size=6)


def _step(x, op, other, a):
    return {"add": lambda: x + other, "sub": lambda: x - other, "rsub": lambda: other - x,
            "mul": lambda: a * x}[op]()


@PROPERTY
@given(n=st.sampled_from([8, 12]), c=COMPACT_VALUES, steps=STEPS)
def test_arithmetic_among_compact_constants_is_the_grid_arithmetic(n, c, steps):
    # chains of +, - and scalar * among compact constants stay
    # compact, and their views are those of the grid constants' arithmetic
    # on values (a grid constant holding both views would also combine its
    # coefficients, whose zeros can take the other sign: 0.0 * -1.0)
    geom = TorusGeometry(grid_n=n)
    u, ref = ScalarField.constant(geom, c), GridScalar.constant(geom, c)
    for op, other, a in steps:
        u = _step(u, op, ScalarField.constant(geom, other), a)
        ref = _step(ref, op, GridScalar.constant(geom, other), a)
        assert u.compact
    assert _views_match(u, ref)


def _operand(geom, kind, rng):
    """A ScalarField and its GridScalar twin: a compact constant (whose twin
    holds both views, as a constant did once its J was read), or a random
    field holding only its values or only its coefficients."""
    if kind == "compact":
        c = rng.choice([0.0, -0.0, 1.3, -2.5, rng.standard_normal()])
        return ScalarField.constant(geom, c), GridScalar.constant(geom, c, True)
    vals = rng.standard_normal((geom.grid_n, geom.grid_n))
    if kind == "values":
        return ScalarField.from_values(geom, vals), GridScalar(geom, values=vals)
    coeffs = np.fft.fft2(vals) / geom.grid_n ** 2
    return ScalarField.from_coeffs(geom, coeffs), GridScalar(geom, coeffs=coeffs)


@PROPERTY
@given(n=st.sampled_from([8, 12]), first=st.sampled_from(["values", "coeffs"]),
       rest=st.lists(st.sampled_from(["compact", "values", "coeffs"]), min_size=1, max_size=3),
       ops=st.lists(st.sampled_from(["add", "sub", "rsub", "mul"]), min_size=3,
                    max_size=3), seed=SEEDS)
def test_mixed_arithmetic_takes_the_grid_constants_route(n, first, rest, ops, seed):
    # a compact operand counts as holding both views: mixed with fields
    # holding only values or only coefficients, every result holds the
    # views the grid arithmetic's does, bit for bit (the chain starts off
    # constant, so it never combines two compact constants)
    assume("compact" in rest)
    geom = TorusGeometry(grid_n=n)
    rng = np.random.default_rng(seed)
    operands = [_operand(geom, kind, rng) for kind in (first, *rest)]
    (u, ref), rest = operands[0], operands[1:]
    for i, (other, other_ref) in enumerate(rest):
        a = rng.standard_normal()
        u, ref = _step(u, ops[i], other, a), _step(ref, ops[i], other_ref, a)
        assert (u._values is None, u._coeffs is None) == (ref._values is None,
                                                          ref._coeffs is None)
    assert _views_match(u, ref)


@pytest.mark.parametrize("n", [8, 12])
def test_compact_readers_are_the_grid_results(n):
    # J, the H^1 pairing and the overflow guard read a compact constant's
    # common value and max|u| where they can, and return what the grid
    # constant gives bit for bit; an infinite pairing takes the grid form
    geom = TorusGeometry(grid_n=n)
    psi = random_spinor(geom, np.random.default_rng(n))
    params = ActionParams(rho=0.5)
    for a in (0.0, -0.0, 1.3, -2.5, 1e-300, np.inf):
        grid_a = ScalarField.from_coeffs(geom, ScalarField.constant(geom, a).coeffs)
        if abs(a) <= U_CAP:
            u = ScalarField.constant(geom, a)
            full = ScalarField.from_values(geom, np.full((n, n), a))
            assert _same(evaluate_J(u, psi, params), evaluate_J(full, psi, params))
            assert _same(check_overflow(u), full.values)
        for b in (0.0, -0.0, -2.5, 1e-300, np.inf, -np.inf):
            grid_b = ScalarField.from_coeffs(geom, ScalarField.constant(geom, b).coeffs)
            with np.errstate(invalid="ignore"):
                got = sobolev_inner(ScalarField.constant(geom, a), ScalarField.constant(geom, b))
                assert _same(got, sobolev_inner(grid_a, grid_b))
    with pytest.raises(OverflowGuardError, match="overflow cap"):
        check_overflow(ScalarField.constant(geom, np.nextafter(U_CAP, np.inf)))


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_a_constant_u_node_keeps_no_grid(delta):
    # a fiber point at constant u, its J, a segment bound, a distance and
    # a blend of two such points: none of them leaves a grid on u
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    rng = np.random.default_rng(5)
    a, b = (fiber_solve(ScalarField.constant(geom, c), _free_with_signed_zeros(geom, rng)[0],
                        params) for c in (0.4, -1.1))
    assert a.u.compact and b.u.compact
    a.J, b.J
    fiber_energy_bounds(a, b, (0.25, 0.5, 0.75), params)
    assert _product_dist(a, b) > 0.0
    assert a.u.compact and b.u.compact
    mid = _interp_points(a, b, 0.5, params)
    mid.J
    assert mid.u.compact


# -- compact spinors ------------------------------------------------------------

PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-10.0, 10.0, allow_nan=False))
PAIRS = st.tuples(PARTS, PARTS, PARTS, PARTS).map(
    lambda t: (complex(t[0], t[1]), complex(t[2], t[3])))
# a negative scale gives the zeros off the mode the sign -0.0
SPINOR_SCALES = st.one_of(st.sampled_from([1.0, -1.0, -0.0, 0.5j]),
                          st.floats(-3.0, 3.0, allow_nan=False))
COMPACT_GEOMS = st.builds(TorusGeometry, grid_n=st.sampled_from([8, 16]),
                          spin_delta=st.sampled_from([(0.5, 0.5), (0.0, 0.0)]))


def _on_mode(geom, mode, pair):
    """The compact spinor on mode whose eigen-coordinates are pair there and
    +0.0 elsewhere (`one_mode` would put a zero pair on mode (0, 0))."""
    view = np.zeros((2, 1, 2), dtype=complex)
    view[:, 0, 0] = pair
    return SpinorField.viewed(geom, mode, view)


def _draw_mode(geom, data):
    """A valid grid mode, drawn among all of them or among the lowest |xi|,
    which hold the harmonic mode of delta = (0, 0)."""
    modes = np.argwhere(geom.spinor_mask)
    modes = modes[np.argsort(geom.s_abs[geom.spinor_mask], kind="stable")]
    i = data.draw(st.one_of(st.integers(0, 3), st.integers(0, len(modes) - 1)))
    return tuple(int(k) for k in modes[i])


def _compact(geom, mode, data):
    """A compact spinor on mode, a scaled `_on_mode` spinor, and its twin
    that holds the same eigen-coordinates as a full array."""
    psi = data.draw(SPINOR_SCALES) * _on_mode(geom, mode, data.draw(PAIRS))
    assert psi.mode is not None
    return psi, SpinorField(geom, eig=psi.eig)


@PROPERTY
@given(geom=COMPACT_GEOMS, c=st.floats(-3.0, 3.0, allow_nan=False),
       rho=st.floats(0.1, 2.0, allow_nan=False), data=st.data())
def test_compact_spinor_readers_and_arithmetic_are_the_full_arrays(geom, c, rho, data):
    # every reader that skips the grid returns the full array's result bit
    # for bit, and arithmetic on one mode stays compact with the full
    # arithmetic's eigen-coordinates, zeros off the mode included; no FFT
    assume(geom.spectral_gap(rho) > 1e-6)
    mode = _draw_mode(geom, data)
    (a, fa), (b, fb) = _compact(geom, mode, data), _compact(geom, mode, data)
    f = np.full((geom.grid_n, geom.grid_n), c)
    with counting_ffts() as counts:
        for reader in (l2_inner, sobolev_inner):
            assert _same(reader(a, b), reader(fa, fb))
        assert _same(hhalf_norm(a), hhalf_norm(fa))
        pairs = [(dirac_apply(a), dirac_apply(fa)), (a + b, fa + fb), (a - b, fa - fb),
                 (c * a, c * fa), ((1.0 - 2.0j) * b, (1.0 - 2.0j) * fb),
                 (a.times(f), fa.times(f))]
        pairs += [(project(a, sub, rho), project(fa, sub, rho))
                  for sub in ("plus", "minus", "zero", "plus_a", "plus_b")]
        for got, ref in pairs:
            assert got.mode is not None and _same(got.eig, ref.eig)
        assert a.eig is not a.eig
    assert counts["fft"] == 0
    # the views are built from the full array's eigen-coordinates and kept
    for view in ("values", "coeffs"):
        assert _same(getattr(a, view), getattr(fa, view))
        assert getattr(a, view) is getattr(a, view)
    u = ScalarField.constant(geom, c)
    params = ActionParams(rho=rho)
    assert _same(evaluate_J(u, a, params), evaluate_J(u, fa, params))
    free, full_free = a - project(a, "minus"), fa - project(fa, "minus")
    p, q = fiber_solve(u, free, params), fiber_solve(u, full_free, params)
    assert p.psi.mode is not None and _same(p.psi.eig, q.psi.eig)
    assert p.constraint_norm == q.constraint_norm == 0.0


@PROPERTY
@given(geom=COMPACT_GEOMS, c=st.floats(-3.0, 3.0, allow_nan=False),
       rho=st.floats(0.1, 2.0, allow_nan=False), w=st.floats(0.0, 1.0), data=st.data())
def test_compact_segment_bounds_are_the_full_arrays(geom, c, rho, w, data):
    # two constant-u fiber points on one mode: their segment bounds pair
    # the mode views, and agree with the full arrays' far inside the pad
    assume(geom.spectral_gap(rho) > 1e-6)
    mode = _draw_mode(geom, data)
    params = ActionParams(rho=rho)
    ends = []
    for shift in (0.0, 0.5):
        psi, full = _compact(geom, mode, data)
        u = ScalarField.constant(geom, c + shift)
        ends.append([fiber_solve(u, x - project(x, "minus"), params) for x in (psi, full)])
    (a, fa), (b, fb) = ends
    assert a.psi.mode is not None and b.psi.mode is not None
    got = fiber_energy_bounds(a, b, (0.0, w, 1.0), params)
    ref = fiber_energy_bounds(fa, fb, (0.0, w, 1.0), params)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@PROPERTY
@given(geom=COMPACT_GEOMS, data=st.data())
def test_arithmetic_on_two_modes_materializes(geom, data):
    m1 = _draw_mode(geom, data)
    m2 = _draw_mode(geom, data)
    assume(m1 != m2)
    (a, fa), (b, fb) = _compact(geom, m1, data), _compact(geom, m2, data)
    for got, ref in ((a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa)):
        assert got.mode is None and _same(got.eig, ref.eig)
    assert _same(l2_inner(a, b), l2_inner(fa, fb))
    assert _same(sobolev_inner(a, b), sobolev_inner(fa, fb))


@PROPERTY
@given(geom=COMPACT_GEOMS, data=st.data())
def test_one_mode_detection_reads_bytes(geom, data):
    # an array +0.0 at every mode but one becomes compact, with its bytes;
    # a -0.0 or a nonzero entry at a second mode keeps it full
    mode, other = _draw_mode(geom, data), _draw_mode(geom, data)
    assume(mode != other)
    pair = data.draw(PAIRS)
    assume(np.array(pair).view(np.uint64).any())
    eig = _on_mode(geom, mode, pair).eig
    psi = SpinorField.one_mode(geom, eig.copy())
    assert psi.mode is not None and _same(psi.eig, eig)
    zero = np.zeros_like(eig)
    assert SpinorField.one_mode(geom, zero).mode is not None
    row = data.draw(st.integers(0, 1))
    for stray in (complex(-0.0, 0.0), complex(0.0, -0.0), 1e-300, 1.0):
        bad = eig.copy()
        bad[(row,) + other] = stray
        full = SpinorField.one_mode(geom, bad)
        assert full.mode is None and full.eig is bad


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_fiber_solve_compacts_a_one_mode_point(delta):
    # a full psi_free on one mode at constant u gives a compact point; a
    # -0.0 off the mode in the a+ row (the a- row's read +0.0) keeps it full
    geom = TorusGeometry(grid_n=16, spin_delta=delta)
    params = ActionParams(rho=0.5)
    u = ScalarField.constant(geom, 0.3)
    eig = (2.0 * build_basis(geom, 2.5).eigenspinor(1)).eig
    assert fiber_solve(u, SpinorField(geom, eig=eig.copy()), params).psi.mode is not None
    eig[1, 3, 4] = -0.0
    assert fiber_solve(u, SpinorField(geom, eig=eig.copy()), params).psi.mode is not None
    eig[0, 3, 4] = -0.0
    point = fiber_solve(u, SpinorField(geom, eig=eig.copy()), params)
    eig[1] += 0.0
    assert point.psi.mode is None and _same(point.psi.eig, eig)


def test_constant_u_one_mode_work_makes_no_fft_and_no_spinor_array():
    # a constant-u fiber solve from a one-mode spinor, its J, its H^1/2
    # norm and a segment bound: no FFT, and tracemalloc's peak stays below
    # the size of one (2, n, n) complex array, which any such array would
    # reach by itself; the same calls on full arrays reach it
    n = 128
    geom = TorusGeometry(grid_n=n)
    params = ActionParams(rho=0.5)
    psi1 = build_basis(geom, 2.5).eigenspinor(1)

    def work(psi):
        a = fiber_solve(ScalarField.constant(geom, 0.3), 2.0 * psi, params)
        b = fiber_solve(ScalarField.constant(geom, 0.7), 5.0 * psi, params)
        return a.J, hhalf_norm(a.psi), fiber_energy_bounds(a, b, (0.25, 0.5, 0.75), params)

    def peak(psi):
        work(psi)  # fills the caches keyed on the geometry
        tracemalloc.start()
        try:
            with counting_ffts() as counts:
                out = work(psi)
            return tracemalloc.get_traced_memory()[1], counts["fft"], out
        finally:
            tracemalloc.stop()

    size = 2 * n * n * np.dtype(complex).itemsize
    compact_peak, ffts, got = peak(psi1)
    full_peak, _, ref = peak(SpinorField(geom, eig=psi1.eig))
    assert ffts == 0
    assert compact_peak < size <= full_peak
    assert got[:2] == ref[:2]
    assert np.all(np.abs(got[2] - ref[2]) <= 1e-14 * np.abs(ref[2]))
