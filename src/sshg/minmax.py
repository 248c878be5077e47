"""Mountain-pass and linking min-max on the constraint manifold.

The deformation scheme repeatedly locates the maximum-energy node of a
discretized path or disk, takes a backtracking step along the negative
constrained gradient, retracts onto the manifold, and periodically re-spreads
nodes.  The linking min-max is the mountain-pass path with the plus_b + zero
block filtered out of every descent direction (`block_filter`).  Flagged
(non-converged) outcomes are first-class results carried with full
Palais-Smale diagnostics; a damped Newton pass on the free system sharpens
candidates to Euler-Lagrange solutions.  `minmax_deform` ends every descent
itself: a path hands over to Newton inside its descent, once Newton contracts
from the max node to the descent's level (Choi & McKenna), and any other
descent hands its max free node to Newton when it ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .action import (
    ActionParams,
    Linearization,
    el_residual_norms,
    gradient_J,
    hess_vec,
    linearize,
)
from .errors import (
    CertificationError,
    ConeStarvationError,
    ConfigError,
    SSHGError,
)
from .fields import ScalarField, SpinorField, unpack
from .krylov import minres
from .nehari import (
    MultiplierData,
    NehariPoint,
    constrained_gradient,
    fiber_energy_bounds,
    fiber_solve,
    multiplier_solve,
    project_to_manifold,
)
from .spectral import (
    check_spectral_gap,
    h1_norm,
    hhalf_norm,
    packed_sobolev_weight,
    project,
    sobolev_norms_sq,
    subspace_mask,
)

SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 25
DESCENT_STEP = 0.1         # initial backtracking step, halved per backtrack
RESPREAD_EVERY = 5
NEWTON_PRE_GRAD = 1e-3
HANDOFF_RTOL = 1e-3        # a path hands off when Newton lands this close to its level
NEWTON_MAX_STEPS = 30
NEWTON_TOL = 1e-10         # Newton stops once res_u + res_psi is at most this
NEWTON_FORCING = 1e-2      # largest relative MINRES tolerance of a Newton step
# Least per-mode weight of Newton's |H0| metric (`_abs_metric`); 2 is the u
# block's high-mode weight.  Without a floor the near-kernel modes at lambda_1
# (weight about `shift`) dominate the MINRES residual norm, so a solve stops
# before the other modes are resolved.  MINRES iterations, seed 1, on the
# three newton-n128 starts (Newton steps) and the multiplicity-n32 disk
# hand-off (steps); no preconditioner: 138/141/140 (4), 634 (10):
#   floor 0: 113/120/113 (5), 847 (11)    floor 1: 77/77/75 (4), 492 (10)
#   floor 2:  76/76/76   (4), 414 (10)    floor 3: 72/71/70 (4), 817 (13)
#   floor 4:  69/69/69   (4), 515 (11)
NEWTON_METRIC_FLOOR = 2.0
TRACE_CAP = 1e8            # PS traces beyond this magnitude count as unbounded
LINKING_T_MARGIN = 0.5     # T clears the step-(i) threshold by this much
LINKING_FACTOR = 1.5       # safety factor of s and R over their thresholds
# Sobolev decay of the coercivity probe's random directions; PSI_DECAY must
# stay moderate, or the low plus_b modes starve the outside-cone sampling
U_DECAY = 1.0
PSI_DECAY = 0.75


# ---------------------------------------------------------------------------
# configuration and result records
# ---------------------------------------------------------------------------

@dataclass
class MinmaxConfig:
    path_nodes: int                    # odd, >= 5
    grad_tol: float
    max_outer: int
    seed: int = 0

    def __post_init__(self):
        if self.path_nodes < 5 or self.path_nodes % 2 == 0:
            raise ConfigError("path_nodes must be odd and >= 5")
        if not self.grad_tol > 0:
            raise ConfigError("grad_tol must be positive")
        if min(self.max_outer, self.seed) < 0:
            raise ConfigError("max_outer and seed must be non-negative")


@dataclass
class LinkingConstants:
    """Certified endpoint (T, s Psi_{k+1}) of the first min-max path: steps
    (i)-(ii) make its energy negative.  The block, harmonic spinors plus the
    k eigenvalues below rho, is empty in the mountain-pass regime, where the
    endpoint is (ubar, s Psi_1); in the paper's linking notation A = s / T."""

    T: float
    s: float
    k_index: int
    lam_k1: float         # smallest eigenvalue above rho
    harmonic_dim: int

    @property
    def block_dim(self) -> int:
        """Dimension of the plus_b + zero block; 0 selects the mountain pass."""
        return self.harmonic_dim + self.k_index

    def certify(self, params, vol) -> None:
        rho = params.rho
        if not (rho * np.cosh(self.T) - self.lam_k1 > 1.0):
            raise CertificationError("linking step (i) failed: rho cosh(T) - lam_{k+1} <= 1")
        if not (4 * rho**2 * vol * np.sinh(self.T) ** 2
                - 8 * self.s**2 * (rho * np.cosh(self.T) - self.lam_k1) < 0):
            raise CertificationError("linking step (ii) failed: endcap energy not negative")


@dataclass
class PSDiagnostics:
    """Per-iterate residual traces of the constrained descent, and why it
    stopped: `exit` is grad_tol, handoff, stall or budget."""

    alpha_norms: list = field(default_factory=list)
    beta_norms: list = field(default_factory=list)
    multiplier_norms: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    u_h1_trace: list = field(default_factory=list)
    psi_hhalf_trace: list = field(default_factory=list)
    # per entry: the level may rise there (a ridge repair or the hand-off's Newton entry)
    repairs: list = field(default_factory=list)
    exit: str = "budget"

    def record(self, res: MultiplierData, level, u_h1, psi_hhalf, repaired):
        self.alpha_norms.append(res.alpha_norm)
        self.beta_norms.append(res.beta_norm)
        self.multiplier_norms.append(res.multiplier_norm)
        self.energies.append(level)
        self.grad_norms.append(res.norm)
        self.u_h1_trace.append(u_h1)
        self.psi_hhalf_trace.append(psi_hhalf)
        self.repairs.append(repaired)

    def bounded(self) -> bool:
        arrays = [self.u_h1_trace, self.psi_hhalf_trace, self.energies]
        return all(np.all(np.isfinite(a)) and (len(a) == 0 or np.max(np.abs(a)) <= TRACE_CAP)
                   for a in arrays)


@dataclass
class SolutionRecord:
    """A solution candidate; every field but `point` and `multiplier` is
    reported, in this order."""

    point: NehariPoint
    multiplier: MultiplierData     # the one multiplier solve at point
    classification: str            # trivial / semi_trivial_constant_u / nontrivial
    level: float
    res_u: float
    res_psi: float
    u_variance: float
    multiplier_norm: float
    u_h1: float
    psi_hhalf: float
    converged: bool                # descent reached grad_tol
    refined: bool                  # Newton reached NEWTON_TOL
    newton_steps: int = 0          # accepted steps of the Newton that built it
    minres_iters: int = 0          # MINRES iterations that Newton spent
    minres_capped: int = 0         # its MINRES solves that stopped at the iteration cap
    # set by minmax_deform for the descent that built the record; None on
    # a record of a bare newton_refine
    descent_level: float | None = None  # the descent's max level at its exit
    handoff_grad: float | None = None   # constrained-gradient norm at the point handed to Newton
    exit: str | None = None             # why the descent stopped (PSDiagnostics.exit)


def u_variance(u: ScalarField) -> float:
    """Mean-square deviation of u from its average."""
    uv = u.values
    return float(np.mean((uv - np.mean(uv)) ** 2))


def classify(u: ScalarField, psi: SpinorField) -> tuple[str, float]:
    """Trivial when psi vanishes: with psi = 0 the u-equation
    Lap u = 2 rho^2 sinh(2u) has only u = 0 (multiply by u and integrate)."""
    var = u_variance(u)
    if hhalf_norm(psi) <= 1e-8:
        return "trivial", var
    if var <= 1e-8:
        return "semi_trivial_constant_u", var
    return "nontrivial", var


def make_record(point: NehariPoint, multiplier: MultiplierData, converged: bool,
                refined: bool) -> SolutionRecord:
    """The record of point from its multiplier solve: the Euler-Lagrange
    residuals are read off the solve's Riesz gradient, the multiplier norm
    off its multiplier, the level off the point."""
    ru, rp = el_residual_norms(point.u.geom, multiplier.gradient)
    cls, var = classify(point.u, point.psi)
    return SolutionRecord(
        point=point,
        multiplier=multiplier,
        level=point.J,
        res_u=ru,
        res_psi=rp,
        classification=cls,
        u_variance=var,
        converged=converged,
        refined=refined,
        multiplier_norm=multiplier.multiplier_norm,
        u_h1=h1_norm(point.u),
        psi_hhalf=hhalf_norm(point.psi),
    )


# ---------------------------------------------------------------------------
# endpoint constants
# ---------------------------------------------------------------------------

def linking_constants(params: ActionParams, basis) -> LinkingConstants:
    """The certified endpoint constants (T, s) for every rho.

    Step (i) is implemented with the orientation rho cosh(T) - lam_{k+1} > 1,
    the one consistent with step (ii)'s sign; s carries LINKING_FACTOR over
    the sign-change threshold of
    4 rho^2 sinh(T)^2 Vol - 8 (rho cosh(T) - lam_{k+1}) s^2.
    """
    rho = params.rho
    check_spectral_gap(basis.geom, rho)
    lam = basis.eigenvalues
    above = lam[lam > rho]
    if above.size == 0:
        raise ConfigError("basis cutoff too small: no eigenvalue above rho tabulated")
    lam_k1 = float(above.min())

    vol = basis.geom.vol
    T = float(np.arccosh((lam_k1 + 1.0) / rho) + LINKING_T_MARGIN)
    s = float(LINKING_FACTOR * np.sqrt(4 * rho**2 * np.sinh(T) ** 2 * vol
                                       / (8 * (rho * np.cosh(T) - lam_k1))))
    consts = LinkingConstants(T=T, s=s, k_index=int(np.count_nonzero(lam < rho)),
                              lam_k1=lam_k1, harmonic_dim=basis.harmonic_dim)
    consts.certify(params, vol)
    return consts


def straight_path(u_end: ScalarField, s: float, psi: SpinorField, n_nodes: int,
                  params: ActionParams):
    """Path t -> fiber(t u_end, t s psi), t in [0, 1], from the origin to the
    endpoint (u_end, s psi); returns (nodes, frozen) with both ends frozen."""
    nodes = []
    for t in np.linspace(0.0, 1.0, n_nodes):
        nodes.append(fiber_solve(float(t) * u_end, (float(t) * s) * psi, params))
    frozen = [True] + [False] * (n_nodes - 2) + [True]
    return nodes, frozen


def block_filter(geom, rho: float):
    """Tangent filter of the linking min-max: removes the plus_b + zero block
    (eigenvalues below rho and harmonic spinors), on which J is negative, from
    a packed descent direction, so the descent runs outside the block."""
    check_spectral_gap(geom, rho)
    plus_b, zero = subspace_mask(geom, "plus_b", rho), subspace_mask(geom, "zero", None)

    def tangent_filter(t: np.ndarray) -> np.ndarray:
        out = t.copy()
        out[1:] -= t[1:] * plus_b + t[1:] * zero
        return out
    return tangent_filter


# ---------------------------------------------------------------------------
# deformation loop
# ---------------------------------------------------------------------------

def _norm(geom, x: np.ndarray) -> float:
    """The H^1 x H^{1/2} norm of a packed (u, psi) array."""
    h1_sq, hhalf_sq = sobolev_norms_sq(geom, x)
    return float(np.sqrt(h1_sq + hhalf_sq))


def _product_dist(a: NehariPoint, b: NehariPoint) -> float:
    return float(np.sqrt(h1_norm(a.u - b.u) ** 2 + hhalf_norm(a.psi - b.psi) ** 2))


def _interp_points(a: NehariPoint, b: NehariPoint, w: float, params) -> NehariPoint:
    """Linear blend of (u, psi) retracted to the manifold, warm-started at its minus part."""
    u, psi = (1.0 - w) * a.u + w * b.u, (1.0 - w) * a.psi + w * b.psi
    minus = project(psi, "minus")
    return fiber_solve(u, psi - minus, params, x0=minus)


def _respread_path(nodes, params, segcache):
    """Arclength reparametrization in the product norm (endpoints fixed);
    segment lengths come from segcache.  Only chains re-spread, and a
    chain's frozen ends are distinct (J = 0 at the origin, J < 0 at the
    end), so the total length is positive."""
    m = len(nodes)
    seg = np.array([segcache.length(nodes, i, i + 1) for i in range(m - 1)])
    total = seg.sum()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, m)
    out = [nodes[0]]
    for i in range(1, m - 1):
        t = targets[i]
        j = int(np.searchsorted(cum, t, side="right") - 1)
        j = min(max(j, 0), m - 2)
        w = 0.0 if seg[j] == 0 else (t - cum[j]) / seg[j]
        out.append(_interp_points(nodes[j], nodes[j + 1], float(w), params))
    out.append(nodes[-1])
    return out


SEGMENT_SAMPLES = (0.25, 0.5, 0.75)


class _SegmentCache:
    """Interior samples of mesh segments, bounded when an endpoint moves and
    solved only when their bound reaches the promotion threshold, and the
    segments' product lengths.

    A discrete node set can cheat the min-max level by letting one segment
    jump the energy ridge unsampled; tracking interior samples and promoting
    any sample that exceeds the node max repairs that unfaithfulness.  A
    sample's fiber maximum is at most its `fiber_energy_bounds` entry, so a
    sample whose bound stays at or below the threshold could never be
    promoted and is not solved.  Each entry keeps its endpoint objects alive
    and compares them by identity: an id() of a freed node may be reused by
    its replacement, and the nodes of a respread path are all new objects.
    """

    def __init__(self, segments, params):
        self.segments = list(segments)
        self.params = params
        # (i, j) -> [a, b, bounds, [point or None per sample], length or None]
        self._cache = {}

    def _current(self, nodes, i, j):
        hit = self._cache.get((i, j))
        return hit if hit is not None and hit[0] is nodes[i] and hit[1] is nodes[j] else None

    def refresh(self, nodes, floor):
        """Bound the samples of every segment whose endpoint moved, then
        solve unsolved samples above floor in decreasing bound order until
        the best solved J exceeds every remaining bound (a tie is solved); a
        solved J above its bound raises CertificationError.

        Returns (i, j, point) of the highest solved sample, the first in
        segment and sample order among equals, or None.  A skipped sample
        has J <= bound < that J, so this is the sample that solving every
        sample above floor would pick.
        """
        top, todo = -np.inf, []
        for (i, j) in self.segments:
            hit = self._current(nodes, i, j)
            if hit is None:
                a, b = nodes[i], nodes[j]
                bounds = fiber_energy_bounds(a, b, SEGMENT_SAMPLES, self.params).tolist()
                hit = self._cache[(i, j)] = [a, b, bounds, [None] * len(SEGMENT_SAMPLES), None]
            a, b, bounds, solved, _ = hit
            for k, sample in enumerate(solved):
                if sample is not None:
                    top = max(top, sample.J)
                elif bounds[k] > floor:
                    todo.append((bounds[k], k, a, b, solved))
        for bound, k, a, b, solved in sorted(todo, key=lambda t: -t[0]):
            if top > bound:
                break
            pt = _interp_points(a, b, SEGMENT_SAMPLES[k], self.params)
            if not pt.J <= bound:
                raise CertificationError(
                    f"ridge sample J {pt.J!r} exceeds its fiber bound {bound!r}")
            solved[k] = pt
            top = max(top, pt.J)
        samples = [(i, j, pt) for (i, j) in self.segments
                   for pt in self._cache[(i, j)][3] if pt is not None]
        return max(samples, key=lambda s: s[2].J, default=None)

    def length(self, nodes, i, j) -> float:
        """Product distance of nodes i and j: computed on the first call
        while the segment's entry is current and kept there, else computed
        and not stored."""
        hit = self._current(nodes, i, j)
        if hit is None:
            return _product_dist(nodes[i], nodes[j])
        if hit[4] is None:
            hit[4] = _product_dist(nodes[i], nodes[j])
        return hit[4]


class _Mesh:
    """A path or disk under deformation: nodes, frozen flags and the
    `_SegmentCache` of its segments ("chain": a path's consecutive pairs).
    `assign`, the only place a node changes, re-solves `centers` at u = 0.
    `nodes` is the caller's list, deformed in place: a re-spread replaces its
    contents, so no reference to the list keeps the replaced nodes alive."""

    def __init__(self, nodes, frozen, segments, centers, params, step_hook):
        if all(frozen) or not any(frozen):
            raise ConfigError("deformation needs a free node and a frozen one")
        self.nodes = nodes
        self.frozen = list(frozen)
        # a min-max boundary must have nonpositive energy (tolerance 1e-9)
        bad = [i for i, (nd, fz) in enumerate(zip(nodes, self.frozen)) if fz and nd.J > 1e-9]
        if bad:
            raise CertificationError(f"frozen node {bad[0]} has positive energy at start")
        self.chain = segments == "chain"
        if self.chain:
            segments = [(i, i + 1) for i in range(len(self.nodes) - 1)]
        self.segcache = _SegmentCache(segments, params)
        self.centers = set(centers)
        self.params = params
        self.step_hook = step_hook
        self._boundary = {k: nd for k, nd in enumerate(self.nodes) if self.frozen[k]}

    def level(self) -> float:
        """The max of J over the nodes, the level the descent lowers."""
        return max(nd.J for nd in self.nodes)

    def max_free(self) -> int:
        return int(np.argmax([nd.J if not fz else -np.inf
                              for nd, fz in zip(self.nodes, self.frozen)]))

    def assign(self, k, pt):
        """Store pt at node k; a pinned center is then re-solved at u = 0
        from pt's free part."""
        self.nodes[k] = pt
        if self.step_hook is not None:
            self.step_hook(k, pt, self.nodes, [nd.J for nd in self.nodes], self.params)
        if k in self.centers:
            self.nodes[k] = fiber_solve(ScalarField.zeros(pt.u.geom), pt.free_part(),
                                        self.params)

    def repair(self) -> bool:
        """Promote ridge samples hiding inside segments; returns True if any."""
        did = False
        for _ in range(3 * len(self.nodes)):
            node_max = self.level()
            threshold = node_max + 1e-9 * (1.0 + abs(node_max))
            best = self.segcache.refresh(self.nodes, threshold)
            if best is None or best[2].J <= threshold:
                break
            i, j, pt = best
            free_ends = [k for k in (i, j) if not self.frozen[k]]
            if not free_ends:
                break
            k_rep = min(free_ends, key=lambda k: self.nodes[k].J)
            self.assign(k_rep, pt)
            did = True
        return did

    def respread(self):
        """Re-spread a chain by arclength, unless that raises the node max."""
        nodes = _respread_path(self.nodes, self.params, self.segcache)
        top = self.level()
        if max(nd.J for nd in nodes) <= top + 1e-12 * (1 + abs(top)):
            self.nodes[:] = nodes
            self.segcache._cache.clear()  # each entry holds a replaced node

    def check_boundary(self):
        """Frozen nodes are never moved."""
        if any(self.nodes[k] is not nd for k, nd in self._boundary.items()):
            raise CertificationError("boundary node was moved during deformation")


def minmax_deform(nodes, frozen, config: MinmaxConfig, params: ActionParams,
                  segments="chain", centers=(), step_hook=None, tangent_filter=None):
    """Descend the max-energy node until its constrained gradient is small,
    or, on a path, until Newton takes over; then hand the result to Newton.

    Each outer iteration: repair discretization gaps (promote any segment
    sample that exceeds the node max), locate the max-energy node, take a
    backtracking step along the negative constrained gradient, retract, and,
    when the segments are the "chain" of a path, periodically re-spread the
    nodes by arclength.  On a path, right after a re-spread, Newton is tried
    from the max node once the level has almost stopped falling; a trial
    that refines to a non-trivial solution within HANDOFF_RTOL of the level
    ends the descent with that record, and any other changes nothing.  Any
    other exit (grad_tol, stall, budget) tries Newton from the max free
    node.  Returns (SolutionRecord, PSDiagnostics), with the reason in
    `diags.exit`: Newton's record when a hand-off was accepted, else the max
    free node flagged unrefined.  Either record carries the descent's max
    level at exit (`descent_level`), the constrained-gradient norm at the
    point handed to Newton (`handoff_grad`, in the filtered norm for a trial
    inside the loop) and `exit`.  The mesh needs a free node and a frozen
    one (ConfigError); a frozen node with J > 1e-9 at the start, a moved
    frozen node or a rising max level raises CertificationError.
    The list `nodes` is deformed in place: on return it holds the final
    mesh, with the frozen nodes it was given, and no node the descent
    replaced, so a caller that still needs the initial mesh passes a copy.
    Nodes in `centers` stay at u = 0.  step_hook(k, point, nodes, energies,
    params), for the perfbench tracer and tests only, runs after each
    accepted step or ridge promotion has stored node k, before a center is
    re-solved, and may replace node k in place; `energies` is read off the nodes.
    """
    mesh = _Mesh(nodes, frozen, segments, centers, params, step_hook)
    diags = PSDiagnostics()
    step = DESCENT_STEP
    record = None          # Newton's record, once a hand-off is accepted
    critical_levels = []   # levels Newton refined to in rejected trials
    stalls = 0
    prev_max = np.inf

    for outer in range(config.max_outer):
        repaired = mesh.repair()

        idx = mesh.max_free()
        point = mesh.nodes[idx]
        level = mesh.level()

        res = constrained_gradient(point, params)
        if tangent_filter is not None:
            # restricted manifolds (orthogonal restart, the linking block)
            # project the descent direction; convergence is then measured in
            # the filtered norm
            filt = tangent_filter(res.tangent)
            res = replace(res, tangent=filt, norm=_norm(point.u.geom, filt))
        diags.record(res, level, h1_norm(point.u), hhalf_norm(point.psi), repaired)

        # descent never raises the certified max; repairs may (logged above)
        if not repaired and level > prev_max + 1e-9 * (1.0 + abs(prev_max)):
            raise CertificationError("max level increased during deformation")
        prev_max = level

        if res.norm <= config.grad_tol:
            diags.exit = "grad_tol"
            break
        # a trial needs a level that fell by at most HANDOFF_RTOL over the
        # last period, and no critical level found farther than that from it
        if (mesh.chain and outer > 0 and outer % RESPREAD_EVERY == 0
                and diags.energies[-1 - RESPREAD_EVERY] - level <= HANDOFF_RTOL * abs(level)
                and all(_near(level, c) for c in critical_levels)):
            trial = _newton_trial(point, params)
            if trial is not None and trial.refined:
                critical_levels.append(trial.level)
                if _near(level, trial.level):
                    record = _accept_refined(trial, diags, converged=False)
            if record is not None:
                diags.exit = "handoff"
                break

        # backtracking descent on the selected node; the displacement is
        # capped near the local mesh scale so the max node cannot leap across
        # the ridge in one accepted step, with a floor at the median segment
        # length so promotion-induced clustering cannot freeze the descent
        trial_step = step
        cache = mesh.segcache
        gap = min(cache.length(mesh.nodes, i, j) for i, j in cache.segments if idx in (i, j))
        med = np.median([cache.length(mesh.nodes, i, j) for i, j in cache.segments])
        cap = 0.5 * max(gap, 0.25 * med)
        if cap > 0 and res.norm > 0:
            trial_step = min(trial_step, cap / res.norm)
        t_u, t_psi = unpack(point.u.geom, res.tangent)
        for _ in range(MAX_BACKTRACKS):
            try:
                cand = project_to_manifold(point.u - trial_step * t_u,
                                           point.psi - trial_step * t_psi, params)
                j_new = cand.J
            except (SSHGError, FloatingPointError):
                trial_step *= 0.5
                continue
            if j_new <= point.J - SUFFICIENT_DECREASE * trial_step * res.norm ** 2:
                mesh.assign(idx, cand)
                del cand  # a re-spread may replace the node: hold no reference
                step = min(DESCENT_STEP, 4.0 * trial_step)
                stalls = 0
                break
            trial_step *= 0.5
        else:
            stalls += 1
            if stalls >= 3:
                diags.exit = "stall"
                break

        if mesh.chain and (outer + 1) % RESPREAD_EVERY == 0:
            mesh.respread()
        mesh.check_boundary()

    if record is None:
        # any other exit: Newton from the max free node, not the one just stepped
        point = mesh.nodes[mesh.max_free()]
        converged = diags.exit == "grad_tol"
        res = constrained_gradient(point, params)
        record = _accept_refined(_newton_trial(point, params), diags, converged=converged)
        if record is None:
            record = make_record(point, res, converged=converged, refined=False)
    # res is the constrained gradient at the point handed to Newton, by the
    # loop's trial or by the exit
    return replace(record, descent_level=mesh.level(),
                   handoff_grad=res.norm, exit=diags.exit), diags


# ---------------------------------------------------------------------------
# Newton refinement on the free system
# ---------------------------------------------------------------------------

def _abs_metric(u: ScalarField, lin: Linearization, params: ActionParams, shift: float):
    """The per-mode multiplier W = max(|R H0| + shift, NEWTON_METRIC_FLOOR)
    of Newton's MINRES, and the inner product <a, W b> in H^1 x H^{1/2}, on
    packed arrays (`fields.pack`).

    H0 is the Hessian at (u, psi) with u and |psi|^2 replaced by their grid
    means and the u-psi coupling dropped, so it is diagonal per mode: with
    a_u = mean(8 rho^2 cosh 2u - 8 rho cosh u |psi|^2), read off the
    linearization lin, and c = mean(cosh u), |R H0| is
    |2|xi|^2 + a_u| / (1+|xi|^2) on u's coefficients and
    16 |+-|xi| - rho c| / (1+|xi|) on psi's eigen-coordinates (R the Riesz
    map).  W is positive, even in xi, and commutes with the product metric,
    so W^{-1} (R H + shift) stays self-adjoint in <a, W b>: the
    absolute-value preconditioner of Vecharynski & Knyazev (SIAM J. Sci.
    Comput. 35, 2013).  Returns (1/W, inner); inner forms its products in
    lin's idle `spec` array, so it must not be called during a Hessian
    product.
    """
    geom = u.geom
    a_u = np.mean(lin.uu - lin.uu_dens * lin.dens)
    rho_c = params.rho * np.mean(np.cosh(u.values))
    lam = geom.s_abs
    w = np.stack((np.abs(2.0 * geom.xi_sq + a_u) / (1.0 + geom.xi_sq),
                  16.0 * np.abs(lam - rho_c) / (1.0 + lam),
                  16.0 * np.abs(-lam - rho_c) / (1.0 + lam))) + shift
    w = np.maximum(w, NEWTON_METRIC_FLOOR)
    m = geom.vol * packed_sobolev_weight(geom) * w

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        # the products go into lin's idle `spec`; taking u's row and psi's
        # rows apart keeps numpy's buffer for casting m to complex to two rows
        mb = lin.spec
        return float(np.vdot(a[0], np.multiply(m[0], b[0], out=mb[0])).real
                     + np.vdot(a[1:], np.multiply(m[1:], b[1:], out=mb[1:])).real)

    return 1.0 / w, inner


def _forcing(res: float) -> float:
    """Relative MINRES tolerance of a Newton step from residual res (inexact
    Newton: Dembo, Eisenstat & Steihaug 1982).  Far from a solution the linear
    error stays below Newton's quadratic error (eta <= NEWTON_FORCING * res);
    near one MINRES lands about 1000 times below NEWTON_TOL."""
    return max(1e-12, min(NEWTON_FORCING, NEWTON_FORCING * res),
               NEWTON_FORCING * NEWTON_TOL / (10.0 * res))


def _newton_direction(u: ScalarField, psi: SpinorField, g: np.ndarray, params: ActionParams,
                      shift: float, tol: float):
    """MINRES's (d, SolveInfo) for (R H + shift) d = -g at (u, psi), solved
    to relative tolerance tol in the |H0| metric (`_abs_metric`).  The
    linearization and its work arrays live only as long as the solve."""
    lin = linearize(u, psi, params)
    inv_w, inner = _abs_metric(u, lin, params, shift)
    riesz_w = packed_sobolev_weight(u.geom)

    def hess_op(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # W^{-1} (R H + shift) x, each factor a per-mode multiplier; the
        # shifted term is formed in lin's idle `spec`.  The real multipliers
        # act on u's row, then on psi's rows: numpy casts a real operand to
        # complex through a fresh buffer of up to 8192 entries, which on a
        # small grid would otherwise be a whole packed array per call
        h = hess_vec(lin, x, out)
        sx = np.multiply(x, shift, out=lin.spec)
        for rows in (slice(0, 1), slice(1, 3)):
            h[rows] /= riesz_w[rows]
            h[rows] += sx[rows]
            h[rows] *= inv_w[rows]
        return h

    return minres(hess_op, (-1.0 * g) * inv_w, inner, tol=tol, maxiter=250)


def newton_refine(candidate: NehariPoint, params: ActionParams,
                  check_pre: bool = True) -> SolutionRecord:
    """Damped inexact Newton on the full Euler-Lagrange system via Hessian
    products.

    Terminates when res_u + res_psi (`el_residual_norms`) is at most
    NEWTON_TOL.  Divergence (no damped decrease across 10 halvings) stops at
    the last accepted iterate, and so does the step cap; the record is built
    at that iterate re-projected onto the manifold, flagged unrefined.  The
    record's `converged` is False: no descent ran here; it carries the
    accepted steps, the MINRES iterations spent and the number of MINRES
    solves that stopped at the cap unconverged (their step is still tried).
    """
    if check_pre:
        pre = constrained_gradient(candidate, params)
        if pre.norm > NEWTON_PRE_GRAD:
            raise ConfigError(
                f"newton_refine expects a candidate with constrained gradient "
                f"<= {NEWTON_PRE_GRAD:g}, got {pre.norm:.3e}"
            )

    u, psi = candidate.u, candidate.psi
    geom = u.geom
    refined = False
    steps = iters = capped = 0
    g = gradient_J(u, psi, params)
    gnorm = _norm(geom, g)
    for _ in range(NEWTON_MAX_STEPS):
        res_u, res_psi = el_residual_norms(geom, g)
        res = res_u + res_psi
        if res <= NEWTON_TOL:
            refined = True
            break

        # solutions come in group orbits, so the Hessian is singular along
        # the orbit directions; a gradient-sized shift keeps the Krylov solve
        # from amplifying kernel noise while preserving fast local convergence
        d, info = _newton_direction(u, psi, g, params, min(1e-2, gnorm), _forcing(res))
        iters += info.iterations
        capped += not info.converged
        d_u, d_psi = unpack(geom, d)
        lam = 1.0
        for _ in range(10):
            u_try = u + lam * d_u
            psi_try = psi + lam * d_psi
            try:
                g_try = gradient_J(u_try, psi_try, params)
            except (SSHGError, FloatingPointError):
                lam *= 0.5
                continue
            gn = _norm(geom, g_try)
            if gn <= (1.0 - SUFFICIENT_DECREASE * lam) * gnorm:
                u, psi, g, gnorm = u_try, psi_try, g_try, gn
                break
            lam *= 0.5
        else:
            break
        steps += 1

    point = project_to_manifold(u, psi, params)
    return replace(make_record(point, multiplier_solve(point, params),
                               converged=False, refined=refined),
                   newton_steps=steps, minres_iters=iters, minres_capped=capped)


def _near(level: float, critical_level: float) -> bool:
    return abs(level - critical_level) <= HANDOFF_RTOL * abs(critical_level)


def _newton_trial(point: NehariPoint, params: ActionParams):
    """newton_refine from point, or None when a solver check refused it."""
    try:
        return newton_refine(point, params, check_pre=False)
    except SSHGError:
        return None


def _accept_refined(trial, diags: PSDiagnostics, converged: bool):
    """The hand-off's acceptance test, written once: a Newton record that
    refined to a non-trivial solution is returned with the descent's
    `converged` flag and ends the PS trace `diags` with the record's own
    multiplier solve (no further solve), so the final iterate carries the
    converged residual levels; any other trial gives None."""
    if trial is None or not trial.refined or trial.classification == "trivial":
        return None
    diags.record(trial.multiplier, trial.level, trial.u_h1, trial.psi_hhalf, True)
    return replace(trial, converged=converged)


# ---------------------------------------------------------------------------
# coercivity probe
# ---------------------------------------------------------------------------

def _random_direction(geom, rng):
    n = geom.grid_n
    uc = (rng.standard_normal((n, n)))
    u = ScalarField.from_values(geom, uc)
    u = ScalarField.from_coeffs(geom, u.coeffs * (1.0 + geom.xi_sq) ** -U_DECAY)
    u = ScalarField.from_values(geom, u.values)
    c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    c *= (1.0 + geom.s_abs) ** -PSI_DECAY
    psi = SpinorField.from_coeffs(geom, c)
    free = psi - project(psi, "minus")
    return u, free


def coercivity_probe(params: ActionParams, basis, r0: float, tau: float,
                     n_samples: int, seed: int) -> float:
    """Estimate of inf J/(||u||^2 + ||psi||^2) on the r0-sphere outside the
    cone around the negative-Hessian block: a sample minimum, so an upper bound.

    Rejection sampling on the negated cone inequality; starvation raises with
    a suggestion to enlarge tau.
    """
    geom = basis.geom
    check_spectral_gap(geom, params.rho)
    rng = np.random.default_rng(seed)
    margin = np.inf
    accepted = 0
    attempts = 0
    max_attempts = 50 * n_samples
    while accepted < n_samples:
        if attempts >= max_attempts:
            raise ConeStarvationError(
                f"only {accepted}/{n_samples} samples outside the cone after "
                f"{attempts} draws; increase tau (currently {tau})"
            )
        attempts += 1
        u, free = _random_direction(geom, rng)
        # scale onto the r0 sphere of the product norm (fiber re-solved)
        point = fiber_solve(u, free, params)
        for _ in range(3):
            r = np.sqrt(point.product_norm_sq())
            if abs(r - r0) <= 1e-12 * r0:
                break
            scale = r0 / r
            u = scale * u
            free = scale * free
            point = fiber_solve(u, free, params)
        lhs = (h1_norm(point.u) ** 2
               + hhalf_norm(project(point.psi, "minus")) ** 2
               + hhalf_norm(project(point.psi, "plus_a", params.rho)) ** 2)
        rhs = (hhalf_norm(project(point.psi, "plus_b", params.rho)) ** 2
               + hhalf_norm(project(point.psi, "zero")) ** 2)
        if lhs < tau * rhs:
            continue  # inside the cone
        accepted += 1
        quot = point.J / point.product_norm_sq()
        margin = min(margin, quot)
    return float(margin)
