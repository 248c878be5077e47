"""Experiment orchestration: config validation, pipelines, persistence.

A run is deterministic given (config, seed): all randomness flows from the
seed, the computation is sequential, and outputs are written atomically with
floats at 17 significant digits.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .action import ActionParams, evaluate_J
from .checkpoint import save_point, write_atomic
from .errors import ConfigError
from .fields import ScalarField
from .geometry import TWO_PI, TorusGeometry
from .minmax import (
    MinmaxConfig,
    build_cylinder,
    coercivity_probe,
    linking_constants,
    minmax_deform,
    mountain_pass_endpoint,
    refine_if_possible,
    straight_path,
)
from .nehari import fiber_solve
from .spectral import build_basis, check_spectral_gap
from .sweepout import (
    build_sweepout_chi,
    case2_product_minmax,
    equivariant_disk_minmax,
    equivariant_family,
    orthogonal_restart,
    records_distinct,
)

MODES = ("spectrum", "mountain_pass", "linking", "multiplicity", "probe")
SPECTRAL_REPORT_COUNT = 40  # eigenvalues listed in every run's spectral summary

_DEFAULTS = {
    "side_length": TWO_PI,
    "grid_n": 32,
    "spin_delta": [0.5, 0.5],
    "rho": None,
    "mu": None,
    "b": None,
    "mode": None,
    "output_dir": None,
    "seed": 0,
    "threads": 1,
    "cutoff": 3.0,
    "path_nodes": 33,
    "descent_step": 0.1,
    "grad_tol": 1e-3,
    "newton_tol": 1e-10,
    "max_outer": 150,
    "r0": 0.05,
    "tau": 50.0,
    "n_samples": 100,
    "n_theta": 64,
    "epsilon_frac": 0.05,
    "chi_grid_n": 256,
    "cylinder_nt": 5,
    "cylinder_nsphere": 6,
    "n_theta_disk": 8,
    "n_radii": 3,
}


@dataclass
class RunConfig:
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(_DEFAULTS)
        merged.update(data)
        if merged["mode"] not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {merged['mode']!r}")
        has_rho = merged["rho"] is not None
        has_mu, has_b = merged["mu"] is not None, merged["b"] is not None
        if has_mu != has_b:
            raise ConfigError("mu and b must be given together")
        if has_rho == (has_mu and has_b):
            raise ConfigError("provide exactly one of rho or the pair (mu, b)")
        return cls(raw=merged)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a flat JSON object")
        return cls.from_dict(data)

    def __getitem__(self, key):
        return self.raw[key]

    def geometry(self) -> TorusGeometry:
        delta = tuple(float(d) for d in self.raw["spin_delta"])
        return TorusGeometry(grid_n=int(self.raw["grid_n"]),
                             side_length=float(self.raw["side_length"]),
                             spin_delta=delta)

    def action_params(self) -> ActionParams:
        if self.raw["rho"] is not None:
            return ActionParams(rho=float(self.raw["rho"]))
        return ActionParams(mu=float(self.raw["mu"]), b=float(self.raw["b"]))

    def minmax_config(self) -> MinmaxConfig:
        r = self.raw
        return MinmaxConfig(
            path_nodes=int(r["path_nodes"]),
            descent_step=float(r["descent_step"]),
            grad_tol=float(r["grad_tol"]),
            newton_tol=float(r["newton_tol"]),
            max_outer=int(r["max_outer"]),
            seed=int(r["seed"]),
        )


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".17g")


def _to_jsonable(obj):
    """Recursive conversion with floats rendered at 17 significant digits."""
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return f"@@F:{_fmt(obj)}@@"
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    return obj


def _render_json(obj) -> str:
    """JSON text with float tokens inlined (full 17-digit precision)."""
    import re
    blob = json.dumps(_to_jsonable(obj), indent=1, sort_keys=False)
    return re.sub(r'"@@F:([^"]*)@@"', r"\1", blob)


def write_json_atomic(obj, path: str) -> str:
    return write_atomic(path, _render_json(obj).encode())


def _record_summary(rec, checkpoint: str | None = None) -> dict:
    out = {
        "classification": rec.classification,
        "level": rec.level,
        "res_u": rec.res_u,
        "res_psi": rec.res_psi,
        "u_variance": rec.u_variance,
        "multiplier_norm": rec.multiplier_norm,
        "u_h1": rec.u_h1,
        "psi_hhalf": rec.psi_hhalf,
        "converged": rec.converged,
        "refined": rec.refined,
    }
    if checkpoint:
        out["checkpoint"] = checkpoint
    return out


def _diag_summary(diags) -> dict:
    return {
        "alpha_norms": list(diags.alpha_norms),
        "beta_norms": list(diags.beta_norms),
        "multiplier_norms": list(diags.multiplier_norms),
        "energies": list(diags.energies),
        "grad_norms": list(diags.grad_norms),
        "u_h1_trace": list(diags.u_h1_trace),
        "psi_hhalf_trace": list(diags.psi_hhalf_trace),
        "bounded": diags.bounded(),
    }


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _spectral_summary(basis) -> dict:
    # the report always lists SPECTRAL_REPORT_COUNT eigenvalues even when the
    # solver basis was built with a smaller cutoff
    count = SPECTRAL_REPORT_COUNT
    report = basis
    cutoff = basis.cutoff
    while len(report.eigenvalues) < count and cutoff < basis.geom.nyquist_bound:
        cutoff = min(1.5 * max(cutoff, 1.0), basis.geom.nyquist_bound)
        report = build_basis(basis.geom, cutoff)
    lam = report.eigenvalues[:count]
    return {
        "harmonic_dim": report.harmonic_dim,
        "eigenvalues": list(lam),
        "lambda1": report.eigenvalue(1) if len(report.eigenvalues) else None,
        "lambda1_multiplicity": report.multiplicity_of(report.eigenvalue(1))
        if len(report.eigenvalues) else 0,
    }


def run_mountain_pass(config: RunConfig, geom, basis, params):
    mm = config.minmax_config()
    u_bar, s = mountain_pass_endpoint(params, basis)
    u_end = ScalarField.constant(geom, u_bar)
    psi1 = basis.eigenspinor(1)
    end_pt = fiber_solve(u_end, s * psi1, params)
    j_end = evaluate_J(end_pt.u, end_pt.psi, params)
    nodes, frozen = straight_path(u_end, s, psi1, mm.path_nodes, params)
    candidate, diags = minmax_deform(nodes, frozen, mm, params)
    record = refine_if_possible(candidate, diags, params, mm.newton_tol)
    return {
        "endpoint": {"u_bar": u_bar, "s": s, "J": j_end},
        "record": record,
        "diagnostics": diags,
        "level": record.level,
    }


def run_linking(config: RunConfig, geom, basis, params):
    mm = config.minmax_config()
    consts = linking_constants(params, basis)
    mesh = (int(config["cylinder_nt"]), int(config["cylinder_nsphere"]))
    nodes, frozen, _ = build_cylinder(consts, mesh, params, basis, seed=mm.seed)
    # segment control runs along a chain ordered by the scalar level t
    candidate, diags = minmax_deform(nodes, frozen, mm, params,
                                     segments=_cylinder_segments(nodes),
                                     respread=None)
    record = refine_if_possible(candidate, diags, params, mm.newton_tol)
    return {
        "constants": {"T": consts.T, "A": consts.A, "R": consts.R,
                      "k_index": consts.k_index, "lam_k": consts.lam_k,
                      "lam_k1": consts.lam_k1},
        "record": record,
        "diagnostics": diags,
        "level": record.level,
    }


def _cylinder_segments(nodes):
    """Chain segments through the node list ordered by scalar level t."""
    tvals = [float(np.mean(nd.u.values)) for nd in nodes]
    order = np.argsort(tvals, kind="stable")
    return [(int(order[i]), int(order[i + 1])) for i in range(len(order) - 1)]


def run_multiplicity(config: RunConfig, geom, basis, params):
    mm = config.minmax_config()
    rho = params.rho
    lam1 = basis.eigenvalue(1)
    chi_geom = TorusGeometry(grid_n=int(config["chi_grid_n"]),
                             side_length=geom.side_length,
                             spin_delta=geom.spin_delta)
    epsilon = float(config["epsilon_frac"]) * chi_geom.vol
    chi = build_sweepout_chi(chi_geom, epsilon)

    if basis.harmonic_dim == 0 and rho < lam1:
        first = run_mountain_pass(config, geom, basis, params)
        rec1 = first["record"]
        c1 = rec1.level
        fam = equivariant_family(first["endpoint"]["u_bar"], first["endpoint"]["s"],
                                 chi, params, basis, n_theta=int(config["n_theta"]))
        rec2, c2, diags2 = equivariant_disk_minmax(
            fam, mm, params, basis,
            n_theta_disk=int(config["n_theta_disk"]),
            n_radii=int(config["n_radii"]))
        out = {
            "case": 1,
            "records": [rec1, rec2],
            "levels": {"c1": c1, "c2": c2},
            "first": first,
            "family_max_energy": fam.max_energy,
            "theta_grid": list(fam.theta_grid),
            "family_energies": [evaluate_J(p.u, p.psi, params) for p in fam.points],
            "diagnostics": diags2,
        }
        if abs(c2 - c1) <= 1e-6:
            rec3, diags3 = orthogonal_restart(rec1.point.u, fam, mm, params, basis)
            out["records"].append(rec3)
            out["restart_diagnostics"] = diags3
        out["distinct"] = _any_distinct(out["records"])
        return out

    # linking regime: (K+2)-dimensional equivariant product construction
    first = run_linking(config, geom, basis, params)
    rec1 = first["record"]
    rec2, c2, diags2 = case2_product_minmax(chi, mm, params, basis)
    out = {
        "case": 2,
        "records": [rec1, rec2],
        "levels": {"c1": rec1.level, "c2": c2},
        "first": first,
        "diagnostics": diags2,
    }
    out["distinct"] = _any_distinct(out["records"])
    return out


def _any_distinct(records) -> bool:
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            if records_distinct(records[i], records[j]):
                return True
    return False


def run(config: RunConfig) -> dict:
    """Execute the configured pipeline; returns the serializable RunOutput."""
    t_start = time.perf_counter()
    geom = config.geometry()
    params = config.action_params()
    mode = config["mode"]
    timings = {}

    t0 = time.perf_counter()
    cutoff = min(float(config["cutoff"]), geom.nyquist_bound)
    basis = build_basis(geom, cutoff)
    timings["build_basis"] = time.perf_counter() - t0

    output = {
        "config": dict(config.raw),
        "mode": mode,
        "seed": int(config["seed"]),
        "threads": int(config["threads"]),
        "rho": params.rho,
        "spectral": _spectral_summary(basis),
    }

    records, diags, extra_csv = [], None, {}
    if mode == "spectrum":
        pass
    elif mode == "probe":
        gap = check_spectral_gap(geom, params.rho)
        t0 = time.perf_counter()
        margin = coercivity_probe(params, basis, r0=float(config["r0"]),
                                  tau=float(config["tau"]),
                                  n_samples=int(config["n_samples"]),
                                  seed=int(config["seed"]))
        timings["probe"] = time.perf_counter() - t0
        output["probe"] = {"margin": margin, "spectral_gap": gap,
                           "r0": float(config["r0"]), "tau": float(config["tau"])}
    elif mode == "mountain_pass":
        t0 = time.perf_counter()
        result = run_mountain_pass(config, geom, basis, params)
        timings["minmax"] = time.perf_counter() - t0
        records = [result["record"]]
        diags = result["diagnostics"]
        output["endpoint"] = result["endpoint"]
        output["levels"] = {"c1": result["level"]}
    elif mode == "linking":
        t0 = time.perf_counter()
        result = run_linking(config, geom, basis, params)
        timings["minmax"] = time.perf_counter() - t0
        records = [result["record"]]
        diags = result["diagnostics"]
        output["linking_constants"] = result["constants"]
        output["levels"] = {"c1": result["level"]}
    elif mode == "multiplicity":
        t0 = time.perf_counter()
        result = run_multiplicity(config, geom, basis, params)
        timings["minmax"] = time.perf_counter() - t0
        records = result["records"]
        diags = result["diagnostics"]
        output["levels"] = result["levels"]
        output["case"] = result["case"]
        output["distinct"] = result["distinct"]
        if "theta_grid" in result:
            extra_csv["theta_sweep"] = (result["theta_grid"], result["family_energies"])
            output["family_max_energy"] = result["family_max_energy"]

    out_dir = config["output_dir"]
    checkpoints = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for i, rec in enumerate(records):
            path = os.path.join(out_dir, f"record_{i}.sshg")
            save_point(rec.point, params, path, extra={"level": rec.level})
            checkpoints.append(path)

    output["records"] = [
        _record_summary(r, checkpoints[i] if i < len(checkpoints) else None)
        for i, r in enumerate(records)
    ]
    if diags is not None:
        output["diagnostics"] = _diag_summary(diags)
    # a run converges only when Newton refined every record: a descent that
    # meets grad_tol may still sit next to the trivial point
    output["converged"] = all(r.refined for r in records)
    timings["total"] = time.perf_counter() - t_start
    output["timings"] = timings
    output["checkpoints"] = checkpoints
    output["_extra_csv"] = extra_csv  # stripped before serialization

    if out_dir:
        payload = {k: v for k, v in output.items() if not k.startswith("_")}
        write_json_atomic(payload, os.path.join(out_dir, "run_output.json"))
        emit_plotdata(output, out_dir)
    return output


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def emit_plotdata(output: dict, out_dir: str) -> list:
    """Fixed-header CSV files: energy trace, theta sweep, spectrum."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "spectrum.csv")
    lines = ["index,lambda"]
    lam = output.get("spectral", {}).get("eigenvalues", [])
    h = output.get("spectral", {}).get("harmonic_dim", 0)
    for i in range(h):
        lines.append(f"0,{_fmt(0.0)}")
    for i, v in enumerate(lam, start=1):
        lines.append(f"{i},{_fmt(v)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())
    written.append(path)

    path = os.path.join(out_dir, "energy_trace.csv")
    lines = ["iteration,J_max,grad_norm"]
    diag = output.get("diagnostics")
    if diag:
        for i, (e, g) in enumerate(zip(diag["energies"], diag["grad_norms"])):
            lines.append(f"{i},{_fmt(e)},{_fmt(g)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())
    written.append(path)

    path = os.path.join(out_dir, "theta_sweep.csv")
    lines = ["theta,J"]
    sweep = output.get("_extra_csv", {}).get("theta_sweep")
    if sweep:
        for th, j in zip(*sweep):
            lines.append(f"{_fmt(th)},{_fmt(j)}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())
    written.append(path)
    return written
