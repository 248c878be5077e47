"""Experiment orchestration: config validation, pipelines, persistence.

A run is deterministic given (config, seed): all randomness flows from the
seed, the computation is sequential, and outputs are written atomically with
floats at 17 significant digits.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .action import ActionParams
from .checkpoint import save_point, write_atomic
from .errors import ConfigError
from .fields import ScalarField
from .geometry import TWO_PI, TorusGeometry
from .minmax import (
    MinmaxConfig,
    block_filter,
    coercivity_probe,
    linking_constants,
    minmax_deform,
    straight_path,
)
from .spectral import build_basis, check_spectral_gap
from .sweepout import (
    DISTINCT_LEVEL_TOL,
    build_sweepout_chi,
    case2_block,
    case2_product_minmax,
    check_n_theta_disk,
    equivariant_disk_minmax,
    equivariant_family,
    orthogonal_restart,
    records_distinct,
)

SPECTRAL_REPORT_COUNT = 40  # eigenvalues listed in every run's spectral summary
EPSILON_FRAC = 0.05         # sweepout interface volume bound, as a fraction of Vol
CHI_GRID_N = 256            # points of the line on which the sweepout profile is certified

_DEFAULTS = {
    "side_length": TWO_PI,
    "grid_n": 32,
    "spin_delta": [0.5, 0.5],
    "rho": None,
    "mode": None,
    "output_dir": None,
    "seed": 0,
    "cutoff": 3.0,
    "path_nodes": 33,
    "grad_tol": 1e-3,
    "max_outer": 150,
    "r0": 0.05,
    "tau": 50.0,
    "n_samples": 100,
    "n_theta": 64,
    "n_theta_disk": 8,
    "n_radii": 3,
}
# a zero or negative value leaves the probe, its report or the disk meaningless
_POSITIVE = ("r0", "tau", "n_samples", "n_radii")


def _number(key, value, kind):
    """value as a finite `kind` (int or float); integral floats pass as ints."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(value)
    raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                      f"got {value!r}")


def _typed(key, value):
    """The config value converted to its key's type; ConfigError if mistyped."""
    if key == "mode":
        if value not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {value!r}")
        return value
    if key == "output_dir":
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"output_dir must be a path, got {value!r}")
        return value
    if key == "spin_delta":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"spin_delta must be a pair of numbers, got {value!r}")
        return [_number(key, d, float) for d in value]
    if key == "rho":   # required: its default None is refused
        return _number(key, value, float)
    return _number(key, value, type(_DEFAULTS[key]))


def read_config_file(path: str) -> dict:
    """The flat JSON object in `path`; an unreadable file is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a flat JSON object")
    return data


def _minmax_config(raw: dict) -> MinmaxConfig:
    """The deformation settings; MinmaxConfig refuses out-of-range values."""
    return MinmaxConfig(path_nodes=raw["path_nodes"], grad_tol=raw["grad_tol"],
                        max_outer=raw["max_outer"], seed=raw["seed"])


@dataclass
class RunConfig:
    raw: dict
    minmax: MinmaxConfig

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(_DEFAULTS)
        merged.update(data)
        merged = {key: _typed(key, value) for key, value in merged.items()}
        for key in _POSITIVE:
            if merged[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {merged[key]!r}")
        if merged["cutoff"] < 0:
            raise ConfigError(f"cutoff must be nonnegative, got {merged['cutoff']!r}")
        check_n_theta_disk(merged["n_theta"], merged["n_theta_disk"])
        return cls(raw=merged, minmax=_minmax_config(merged))

    def __getitem__(self, key):
        return self.raw[key]

    def geometry(self) -> TorusGeometry:
        return TorusGeometry(grid_n=self.raw["grid_n"],
                             side_length=self.raw["side_length"],
                             spin_delta=tuple(self.raw["spin_delta"]))

    def action_params(self) -> ActionParams:
        return ActionParams(rho=self.raw["rho"])


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
    return obj


def _render_json(obj) -> str:
    """JSON text with float tokens inlined (full 17-digit precision)."""
    import re
    blob = json.dumps(_to_jsonable(obj), indent=1, sort_keys=False)
    return re.sub(r'"@@F:([^"]*)@@"', r"\1", blob)


def write_json_atomic(obj, path: str) -> str:
    return write_atomic(path, _render_json(obj).encode())


def _record_summary(rec) -> dict:
    return {f.name: getattr(rec, f.name) for f in fields(rec)
            if f.name not in ("point", "multiplier")}


def _diag_summary(diags) -> dict:
    out = {f.name: list(getattr(diags, f.name)) for f in fields(diags)
           if f.name not in ("repairs", "exit")}
    return {**out, "bounded": diags.bounded(), "exit": diags.exit}


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _spectral_summary(basis) -> dict:
    # the report always lists SPECTRAL_REPORT_COUNT eigenvalues even when the
    # solver basis was built with a smaller cutoff; the table's order makes
    # that basis a prefix of the one at the Nyquist bound
    report = basis
    if len(basis.eigenvalues) < SPECTRAL_REPORT_COUNT:
        report = build_basis(basis.geom, basis.geom.nyquist_bound)
    found = len(report.eigenvalues) > 0
    return {
        "harmonic_dim": report.harmonic_dim,
        "eigenvalues": list(report.eigenvalues[:SPECTRAL_REPORT_COUNT]),
        "lambda1": report.eigenvalue(1) if found else None,
        "lambda1_multiplicity": report.multiplicity(1) if found else 0,
    }


# Every pipeline(config, basis, params) returns a dict with the
# solution `records` (a list) and the PS trace `diagnostics` of its last
# deformation (None without one), plus the keys its mode reports.

def run_spectrum(config: RunConfig, basis, params):
    return {"records": [], "diagnostics": None}


def run_probe(config: RunConfig, basis, params):
    gap = check_spectral_gap(basis.geom, params.rho)
    margin = coercivity_probe(params, basis, r0=config["r0"], tau=config["tau"],
                              n_samples=config["n_samples"], seed=config["seed"])
    return {
        "probe": {"margin": margin, "spectral_gap": gap,
                  "r0": config["r0"], "tau": config["tau"]},
        "records": [],
        "diagnostics": None,
    }


def run_path(config: RunConfig, basis, params, consts):
    """The straight path from the origin to the certified endpoint
    (T, s Psi_{k+1}) of `consts`, deformed outside the plus_b + zero block
    when that block is not empty and handed to Newton by minmax_deform."""
    mm = config.minmax
    nodes, frozen = straight_path(ScalarField.constant(basis.geom, consts.T), consts.s,
                                  basis.eigenspinor(consts.k_index + 1), mm.path_nodes, params)
    record, diags = minmax_deform(
        nodes, frozen, mm, params,
        tangent_filter=block_filter(basis.geom, params.rho) if consts.block_dim else None)
    return {
        "endpoint": {"u_bar": consts.T, "s": consts.s, "J": nodes[-1].J},
        "levels": {"c1": record.level},
        "records": [record],
        "diagnostics": diags,
    }


def run_first_solution(config: RunConfig, basis, params):
    """The mountain_pass and linking modes: the path pipeline, in the regime
    the mode names."""
    consts = linking_constants(params, basis)
    if config["mode"] == "mountain_pass" and consts.block_dim:
        raise ConfigError(
            f"mountain-pass regime requires h = 0 and 0 < rho < lambda_1 "
            f"(rho={params.rho}, lambda_1={basis.eigenvalue(1)}, h={consts.harmonic_dim})")
    if config["mode"] == "linking" and not consts.block_dim:
        raise ConfigError("linking regime requires rho > lambda_1 or harmonic spinors")
    return run_path(config, basis, params, consts)


def run_multiplicity(config: RunConfig, basis, params):
    mm = config.minmax
    geom = basis.geom
    chi = build_sweepout_chi(geom.side_length, EPSILON_FRAC * geom.vol, CHI_GRID_N)
    consts = linking_constants(params, basis)
    # case 2 (a plus_b + zero block): its capacity check needs only the spectrum
    block = case2_block(basis, consts) if consts.block_dim else None
    rec1 = run_path(config, basis, params, consts)["records"][0]
    if block is None:
        fam = equivariant_family(consts.T, consts.s, chi, params, basis,
                                 n_theta=config["n_theta"],
                                 n_theta_disk=config["n_theta_disk"])
        rec2, diags = equivariant_disk_minmax(fam, mm, params, basis,
                                              n_radii=config["n_radii"])
        records = [rec1, rec2]
        if abs(rec2.level - rec1.level) <= DISTINCT_LEVEL_TOL:
            records.append(orthogonal_restart(rec1.point.u, fam, mm, params, basis)[0])
        extra = {"family_max_energy": max(fam.energies),
                 "theta_sweep": list(zip(fam.theta_grid, fam.energies))}
    else:
        rec2, diags = case2_product_minmax(
            chi, consts, block, mm, params, basis,
            n_theta_disk=config["n_theta_disk"], n_radii=config["n_radii"])
        records, extra = [rec1, rec2], {}
    return {
        "case": 1 if block is None else 2,
        "records": records,
        "levels": {"c1": rec1.level, "c2": rec2.level},
        "distinct": _any_distinct(records),
        **extra,
        "diagnostics": diags,
    }


def _any_distinct(records) -> bool:
    """Some two solutions are distinct; only refined, non-trivial records count."""
    solutions = [r for r in records if r.refined and r.classification != "trivial"]
    return any(records_distinct(a, b) for a, b in itertools.combinations(solutions, 2))


# mode -> (pipeline, timing key of the pipeline call or None, result keys
# copied into the run output in this order when present)
_MODE_TABLE = {
    "spectrum": (run_spectrum, None, ()),
    "mountain_pass": (run_first_solution, "minmax", ("endpoint", "levels")),
    "linking": (run_first_solution, "minmax", ("endpoint", "levels")),
    "multiplicity": (run_multiplicity, "minmax",
                     ("levels", "case", "distinct", "family_max_energy")),
    "probe": (run_probe, "probe", ("probe",)),
}
MODES = tuple(_MODE_TABLE)


def run(config: RunConfig) -> dict:
    """Execute the configured pipeline; returns the serializable RunOutput.
    The output directory is created after the geometry and coupling are
    checked and before any solve, so a path that cannot be created is a
    ConfigError."""
    t_start = time.perf_counter()
    geom = config.geometry()
    params = config.action_params()
    out_dir = config["output_dir"]
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir {out_dir!r}: {exc.strerror}") from exc
    pipeline, stage, keys = _MODE_TABLE[config["mode"]]

    t0 = time.perf_counter()
    basis = build_basis(geom, min(config["cutoff"], geom.nyquist_bound))
    timings = {"build_basis": time.perf_counter() - t0}

    output = {
        "config": dict(config.raw),
        "mode": config["mode"],
        "seed": config["seed"],
        "rho": params.rho,
        "spectral": _spectral_summary(basis),
    }
    t0 = time.perf_counter()
    result = pipeline(config, basis, params)
    if stage is not None:
        timings[stage] = time.perf_counter() - t0
    output.update((key, result[key]) for key in keys if key in result)
    records, diags = result["records"], result["diagnostics"]

    output["records"], checkpoints = [], []
    for i, rec in enumerate(records):
        output["records"].append(_record_summary(rec))
        if out_dir:
            path = os.path.join(out_dir, f"record_{i}.sshg")
            save_point(rec.point, params, path, extra={"level": rec.level})
            output["records"][-1]["checkpoint"] = path
            checkpoints.append(path)
    if diags is not None:
        output["diagnostics"] = _diag_summary(diags)
    # a run converges only when Newton refined every record: a descent that
    # meets grad_tol may still sit next to the trivial point
    output["converged"] = all(r.refined for r in records)
    timings["total"] = time.perf_counter() - t_start
    output["timings"] = timings
    output["checkpoints"] = checkpoints

    if out_dir:
        write_json_atomic(output, os.path.join(out_dir, "run_output.json"))
        emit_plotdata(output, out_dir, result.get("theta_sweep", []))
    return output


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def emit_plotdata(output: dict, out_dir: str, theta_sweep) -> list:
    """Fixed-header CSV files: spectrum, energy trace, and the theta sweep
    from its (theta, J) rows."""
    spectral, diag = output["spectral"], output.get("diagnostics")
    trace = zip(diag["energies"], diag["grad_norms"]) if diag else []
    tables = {
        "spectrum.csv": ["index,lambda"] + [f"0,{_fmt(0.0)}"] * spectral["harmonic_dim"]
        + [f"{i},{_fmt(v)}" for i, v in enumerate(spectral["eigenvalues"], start=1)],
        "energy_trace.csv": ["iteration,J_max,grad_norm"]
        + [f"{i},{_fmt(e)},{_fmt(g)}" for i, (e, g) in enumerate(trace)],
        "theta_sweep.csv": ["theta,J"] + [f"{_fmt(th)},{_fmt(j)}" for th, j in theta_sweep],
    }
    return [write_atomic(os.path.join(out_dir, name), ("\n".join(lines) + "\n").encode())
            for name, lines in tables.items()]
