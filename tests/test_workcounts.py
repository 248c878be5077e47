"""Work-count guard: a fixed small run must not silently do more work.

Counts, not timings: the solver is deterministic for a given (config, seed),
so the number of fiber solves, bounded ridge samples, energy evaluations, CG
calls and iterations, constrained gradients and first variations of a fixed
run is a property of the code.  A solution record costs one first variation
and one multiplier CG solve at its point, on one linearization there
(`action.linearize`): its right-hand side dG[gradient] is one Hessian
product, each Gram apply dG dG^* two, and the tangent gradient - dG^* w one
more unless CG returns w = 0.  A hand-off's final PS entry reuses them.
Ridge repair bounds every segment sample (one `fiber_energy_bounds` call
per moved segment, counted here per sample) and solves samples above the
promotion threshold best bound first, stopping once the best solved J
beats every remaining bound, so most of its samples count as bounds, not
as fiber solves, J evaluations or CG work.
A point keeps its J once evaluated (`nehari.NehariPoint.J`), so no
(u, psi) pair is passed to `evaluate_J` twice.
A fiber solve at constant u whose free spinor has a zero a- row returns
it as its own fiber point without calling CG (`nehari.fiber_solve`).
Every fiber solve of the mountain pass is one, so its CG calls are its
multiplier solves.  Both CG solves, fiber and multiplier, are
preconditioned with the mean-field Dirac symbol
(`nehari.mean_field_symbol`), which is formed only once a solve iterates;
the mountain pass's multiplier solves never iterate, so it keeps every
count it had without it.
The FFTs (fft2/ifft2 through `sshg.fields.np`, the binding the perfbench
tracer wraps) also move with rounding luck: they depend on whether an
accepted descent step leaves u exactly constant.  A Hessian product,
Newton's or the multiplier solve's, makes two of them, two stacked fft2
calls, the inverse one conjugated (`action.hess_vec`).  The MINRES
iterations move by a few at most: each Newton step solves, in the |H0|
metric (`minmax._abs_metric`), only to a tolerance sized to its residual
(`minmax.NEWTON_FORCING`), so no solve runs down to the rounding floor,
where the near-singular orbit directions made the count swing.  The
ceilings are the counts measured for the two grid-16 configs below, the
case-1 multiplicity run and the default mountain pass, whose descent hands
off to one Newton trial at outer iteration 30 instead of spending its
150-step budget; a change that lowers them lowers the ceilings too.

Memory is guarded the same way: `tracemalloc`'s peak over one run of the
grid-16 multiplicity config, after a first run has filled the caches keyed
on its geometry, stays under `PEAK_CEILING_MB`.  The equivariant family
keeps only J at each angle and the ring the disk reads, and the sweepout
profile is certified one grid line at a time; the peak, 0.72 MB, now sits
in the disk's Newton trial.  It read 2.71 MB before those changes, set
then by the 256 x 256 profile grids (the family itself held 0.47 MB of
points through the disk).  The ceiling is that 0.72 MB plus about 10 %;
a change that lowers the peak lowers the ceiling too.

The mountain pass is guarded the same way, under
`MOUNTAIN_PASS_PEAK_CEILING_MB`.  Its path lives at constant u with its
spinor on one mode.  A constant u is compact (`fields.ScalarField.constant`),
and so is such a spinor (`fields.SpinorField.one_mode`): its nodes,
re-spread nodes and ridge samples keep no u grid and no (2, n, n)
eigen-coordinates, and every node of the path is compact at exit.  The peak
read 1.22 MB when each of them kept a value and a coefficient grid, 0.87 MB
with compact constants and 0.46 MB with compact spinors; the ceiling is
0.46 MB plus about 10 %.
"""

import gc
import sys
import tracemalloc

import sshg.action
import sshg.krylov
import sshg.minmax
import sshg.nehari
import sshg.runner
from sshg.minmax import minmax_deform
from sshg.runner import RunConfig, run

from test_constant_fields import counting_ffts

CONFIG = {
    "grid_n": 16, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "multiplicity",
    "seed": 1, "cutoff": 2.5, "path_nodes": 9, "max_outer": 10,
    "n_theta": 32, "n_theta_disk": 8, "n_radii": 3,
}

CEILINGS = {
    "fiber_solve": 111,
    "bounded_samples": 420,
    "evaluate_J": 111,
    "cg.calls": 61,
    "cg.iters": 85,
    "minres.iters": 14,
    "constrained_gradient": 22,
    "gradient_J": 34,
    "newton_refine": 2,
    "fft": 633,
}

PEAK_CEILING_MB = 0.8

MOUNTAIN_PASS = {
    "grid_n": 16, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "mountain_pass",
    "seed": 1, "cutoff": 2.5,
}

MOUNTAIN_PASS_CEILINGS = {
    "fiber_solve": 278,
    "bounded_samples": 894,
    "evaluate_J": 278,
    "cg.calls": 32,
    "cg.iters": 0,
    "minres.iters": 6,
    "constrained_gradient": 31,
    "gradient_J": 36,
    "newton_refine": 1,
    "fft": 216,
}

MOUNTAIN_PASS_PEAK_CEILING_MB = 0.51


def _count_calls(monkeypatch, orig, on_call):
    """Rebind every by-name binding of `orig` in the sshg modules;
    on_call(out, args) sees each call's result and positional arguments."""

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        on_call(out, args)
        return out

    for name, mod in list(sys.modules.items()):
        if name == "sshg" or name.startswith("sshg."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)


def _work_counts(monkeypatch, config):
    """The counts of one run of `config`."""
    counts = dict.fromkeys(("fiber_solve", "bounded_samples", "evaluate_J", "cg.calls",
                            "cg.iters", "minres.iters", "constrained_gradient",
                            "gradient_J", "newton_refine"), 0)

    def bump(**inc):
        def on_call(out, args):
            for key, val in inc.items():
                counts[key] += val(out) if callable(val) else val
        return on_call

    # the (u, psi) of every J evaluation, held so that no id() is reused
    evaluated = []

    def on_evaluate_J(out, args):
        counts["evaluate_J"] += 1
        evaluated.append(args[:2])

    _count_calls(monkeypatch, sshg.nehari.fiber_solve, bump(fiber_solve=1))
    _count_calls(monkeypatch, sshg.nehari.fiber_energy_bounds,
                 bump(bounded_samples=lambda out: len(out)))
    _count_calls(monkeypatch, sshg.action.evaluate_J, on_evaluate_J)
    _count_calls(monkeypatch, sshg.nehari.constrained_gradient,
                 bump(constrained_gradient=1))
    _count_calls(monkeypatch, sshg.action.gradient_J, bump(gradient_J=1))
    _count_calls(monkeypatch, sshg.krylov.cg,
                 bump(**{"cg.calls": 1, "cg.iters": lambda out: out[1].iterations}))
    _count_calls(monkeypatch, sshg.krylov.minres,
                 bump(**{"minres.iters": lambda out: out[1].iterations}))
    _count_calls(monkeypatch, sshg.minmax.newton_refine, bump(newton_refine=1))

    with counting_ffts() as ffts:
        run(RunConfig.from_dict(config))
    counts["fft"] = ffts["fft"]
    assert counts["fiber_solve"] > 0 and counts["minres.iters"] > 0
    # a point keeps its J: no pair is evaluated twice
    assert len({(id(u), id(psi)) for u, psi in evaluated}) == len(evaluated)
    return counts


def _check(counts, ceilings):
    for key, ceiling in ceilings.items():
        assert counts[key] <= ceiling, f"{key}: {counts[key]} > {ceiling}"


def test_work_counts_do_not_grow(monkeypatch):
    _check(_work_counts(monkeypatch, CONFIG), CEILINGS)


def test_mountain_pass_hands_off_within_its_work_counts(monkeypatch):
    # a hand-off that stops firing spends the whole budget: about five
    # times these counts
    _check(_work_counts(monkeypatch, MOUNTAIN_PASS), MOUNTAIN_PASS_CEILINGS)


def _peak_mb(config) -> float:
    """tracemalloc's peak, in MB, over one run of config after a warm-up run."""
    run(RunConfig.from_dict(config))
    gc.collect()
    tracemalloc.start()
    try:
        run(RunConfig.from_dict(config))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_multiplicity_peak_memory_stays_under_its_ceiling():
    peak = _peak_mb(CONFIG)
    assert peak <= PEAK_CEILING_MB, f"peak {peak:.3f} MB > {PEAK_CEILING_MB} MB"


def test_mountain_pass_peak_memory_stays_under_its_ceiling(monkeypatch):
    meshes = []

    def deform(nodes, *args, **kwargs):
        meshes.append(nodes)
        return minmax_deform(nodes, *args, **kwargs)

    monkeypatch.setattr(sshg.runner, "minmax_deform", deform)
    peak = _peak_mb(MOUNTAIN_PASS)
    assert peak <= MOUNTAIN_PASS_PEAK_CEILING_MB, \
        f"peak {peak:.3f} MB > {MOUNTAIN_PASS_PEAK_CEILING_MB} MB"
    # the mesh is deformed in place: at exit it holds the final path
    assert len(meshes) == 2 and len(meshes[-1]) > 2
    assert all(node.psi.mode is not None for node in meshes[-1][1:-1])
