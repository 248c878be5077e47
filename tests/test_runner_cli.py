"""Runner pipelines, JSON/CSV outputs, CLI exit codes, determinism."""

import dataclasses
import json
import os

import numpy as np
import pytest

import sshg.cli
import sshg.minmax
import sshg.nehari
from sshg.cli import main
from sshg.errors import ConfigError
from sshg.minmax import linking_constants
from sshg.runner import RunConfig, run, write_json_atomic
from sshg.spectral import build_basis

LAM1 = np.sqrt(2.0) / 2.0


def base_config(**over):
    cfg = {
        "grid_n": 16,
        "spin_delta": [0.5, 0.5],
        "rho": 0.5,
        "mode": "spectrum",
        "seed": 1,
        "cutoff": 2.5,
    }
    cfg.update(over)
    return cfg


def test_config_validation():
    # deleted keys (the linking cylinder's, the step, sweepout, Newton
    # tolerance and profile grid constants, and the (mu, b) alias of rho) are
    # unknown keys like any other
    for key in ("bogus_key", "cylinder_nt", "cylinder_nsphere", "descent_step",
                "epsilon_frac", "newton_tol", "chi_grid_n", "mu", "b"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(base_config(**{key: 1}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(mode="nonsense"))
    # rho is the only coupling input, and it is required
    cfg = base_config()
    del cfg["rho"]
    for data in (cfg, {**cfg, "mu": 1.0 / (2 * np.pi), "b": 1.0}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)


def test_theta_sampling_validated(tmp_path):
    # the disk takes every (n_theta / n_theta_disk)-th family angle; a count
    # that is odd, below 4 or not a divisor is refused, not replaced
    for over in ({"n_theta_disk": 10}, {"n_theta_disk": 7, "n_theta": 70},
                 {"n_theta_disk": 2}, {"n_theta": 31, "n_theta_disk": 1},
                 {"n_theta": 30, "n_theta_disk": 6}):
        with pytest.raises(ConfigError, match="n_theta"):
            RunConfig.from_dict(base_config(mode="multiplicity", **over))
    config = RunConfig.from_dict(base_config(n_theta=48, n_theta_disk=12))
    assert (config["n_theta"], config["n_theta_disk"]) == (48, 12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(mode="multiplicity", n_theta_disk=10)))
    assert main(["solve", "--config", str(bad)]) == 2


# values a run cannot honour, refused when the config is loaded
OUT_OF_RANGE = ({"n_samples": 0}, {"r0": 0}, {"r0": -0.05}, {"tau": 0}, {"tau": -1.0},
                {"seed": -1}, {"n_radii": 0}, {"max_outer": -1}, {"path_nodes": 4},
                {"path_nodes": 10}, {"grad_tol": 0}, {"cutoff": -1})


def test_config_values_are_typed():
    for over in ({"grid_n": "abc"}, {"max_outer": "ten"}, {"grid_n": 16.5},
                 {"rho": "0.5"}, {"seed": True}, {"spin_delta": [0.5]},
                 {"output_dir": 3}, {"cutoff": float("nan")}, {"tau": 10**400},
                 *OUT_OF_RANGE):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(base_config(**over))
    # integral numbers convert to the key's type, so the echo is unchanged
    config = RunConfig.from_dict(base_config(grid_n=16.0, rho=1, spin_delta=[0, 0.5]))
    assert config["grid_n"] == 16 and isinstance(config["grid_n"], int)
    assert config["rho"] == 1.0 and isinstance(config["rho"], float)
    assert config["spin_delta"] == [0.0, 0.5]


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_mistyped_value_exits_2(tmp_path):
    # a value refused by the config or by the geometry and coupling it
    # builds leaves no output directory behind
    out_dir = tmp_path / "out"
    for over in ({"grid_n": "abc"}, {"max_outer": "ten"}, *OUT_OF_RANGE,
                 {"grid_n": 7}, {"rho": -1}, {"spin_delta": [0.3, 0.5]},
                 {"side_length": 0}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(output_dir=str(out_dir), **over)))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert not out_dir.exists(), over


def test_cli_config_threads_exits_2(tmp_path, capsys):
    # the solver is sequential, so threads is an unknown key like any other
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(threads=2)))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


def test_cli_coupling_is_rho_only(tmp_path, capsys):
    # mu and b are unknown keys, and a config without rho is refused
    cfg_path = tmp_path / "cfg.json"
    no_rho = base_config()
    del no_rho["rho"]
    for cfg, err in ((base_config(mu=1.0), "unknown config keys: ['mu']"),
                     (base_config(b=1.0), "unknown config keys: ['b']"),
                     (no_rho, "rho must be a number")):
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert err in capsys.readouterr().err


def test_cli_threads_flag_is_unknown(tmp_path):
    # an unknown flag is argparse's usage error, returned as the config-error
    # code rather than raised out of main()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert main(["solve", "--config", str(cfg_path), "--threads", "2"]) == 2


def test_spectrum_mode(tmp_path):
    config = RunConfig.from_dict(base_config(output_dir=str(tmp_path / "out")))
    output = run(config)
    spec = output["spectral"]
    assert spec["harmonic_dim"] == 0
    assert spec["lambda1"] == pytest.approx(LAM1, rel=1e-12)
    assert spec["lambda1_multiplicity"] == 8
    assert len(spec["eigenvalues"]) == 40
    # JSON written with full-precision floats
    data = json.loads((tmp_path / "out" / "run_output.json").read_text())
    assert data["spectral"]["lambda1"] == pytest.approx(LAM1, rel=1e-15)
    # spectrum CSV: first row after the (empty) harmonic block is lambda_1
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,lambda"
    assert float(lines[1].split(",")[1]) == pytest.approx(LAM1, rel=1e-15)


def test_probe_mode_and_gap_error(tmp_path):
    config = RunConfig.from_dict(base_config(
        mode="probe", n_samples=10, r0=0.05, tau=50.0, output_dir=str(tmp_path)))
    output = run(config)
    assert output["probe"]["margin"] > 0

    bad = RunConfig.from_dict(base_config(mode="probe", rho=float(LAM1) + 1e-10))
    from sshg.errors import SpectralGapError
    with pytest.raises(SpectralGapError):
        run(bad)


def test_mountain_pass_mode(tmp_path):
    config = RunConfig.from_dict(base_config(
        mode="mountain_pass", output_dir=str(tmp_path / "mp"),
        path_nodes=9, max_outer=60, grad_tol=1e-3))
    output = run(config)
    rec = output["records"][0]
    assert output["endpoint"]["J"] < 0
    assert rec["classification"] in ("semi_trivial_constant_u", "nontrivial")
    assert rec["refined"]
    assert rec["res_u"] + rec["res_psi"] <= 1e-6
    assert output["levels"]["c1"] > 0
    assert rec["psi_hhalf"] > 1e-3
    # diagnostics and artifacts
    assert output["diagnostics"]["bounded"]
    out = tmp_path / "mp"
    assert (out / "run_output.json").exists()
    assert (out / "energy_trace.csv").exists()
    assert (out / "record_0.sshg").exists()
    lines = (out / "energy_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,J_max,grad_norm"
    assert len(lines) > 2
    # theta sweep is header-only for mountain_pass runs
    sweep = (out / "theta_sweep.csv").read_text().splitlines()
    assert sweep == ["theta,J"]


def test_refined_record_keeps_the_descent_flag():
    # five outer iterations leave the descent far above grad_tol; Newton
    # still refines the candidate, and the record reports the descent as
    # unconverged while the run (every record refined) converges
    output = run(RunConfig.from_dict(base_config(
        mode="mountain_pass", path_nodes=9, max_outer=5, grad_tol=1e-3)))
    rec = output["records"][0]
    grads = output["diagnostics"]["grad_norms"]
    assert len(grads) == 5 + 1  # descent iterates, then the refined record
    assert grads[-2] > 0.5
    assert rec["refined"] and not rec["converged"]
    assert output["converged"] is True


def test_an_accepted_hand_off_solves_the_multiplier_once_at_its_point(tmp_path, monkeypatch):
    # the record's residuals and multiplier norm and the PS trace's final
    # entry all come from one multiplier solve at the record's point
    solved, accepted = [], []
    orig_solve, orig_accept = sshg.nehari.multiplier_solve, sshg.minmax._accept_refined

    def multiplier_solve(point, params):
        solved.append(point)
        return orig_solve(point, params)

    def accept_refined(*args, **kwargs):
        record = orig_accept(*args, **kwargs)
        if record is not None:
            accepted.append(record)
        return record

    for module in (sshg.nehari, sshg.minmax):
        monkeypatch.setattr(module, "multiplier_solve", multiplier_solve)
    monkeypatch.setattr(sshg.minmax, "_accept_refined", accept_refined)
    output = run(RunConfig.from_dict(base_config(
        mode="mountain_pass", path_nodes=9, max_outer=5, grad_tol=1e-3,
        output_dir=str(tmp_path))))
    (record,) = accepted
    assert output["records"][0]["refined"]
    assert sum(point is record.point for point in solved) == 1
    assert output["diagnostics"]["multiplier_norms"][-1] == record.multiplier_norm


def test_records_report_newton_work(tmp_path, monkeypatch):
    # newton_steps, minres_iters and newton_block_steps of the record match
    # what the Newton that built it did: one MINRES solve per accepted step,
    # each in the block metric here, and one multiplier solve, its record's
    # (the loop reads its residual off the gradient it holds)
    calls = []
    orig_newton, orig_minres, orig_solve, orig_direction = (
        sshg.minmax.newton_refine, sshg.minmax.minres, sshg.nehari.multiplier_solve,
        sshg.minmax._newton_direction)

    def newton_refine(*args, **kwargs):
        calls.append({"minres": 0, "iters": 0, "solves": 0, "blocks": 0, "open": True})
        try:
            return orig_newton(*args, **kwargs)
        finally:
            calls[-1]["open"] = False

    def minres(*args, **kwargs):
        out = orig_minres(*args, **kwargs)
        calls[-1]["minres"] += 1
        calls[-1]["iters"] += out[1].iterations
        return out

    def multiplier_solve(*args, **kwargs):
        if calls and calls[-1]["open"]:
            calls[-1]["solves"] += 1
        return orig_solve(*args, **kwargs)

    def newton_direction(*args):
        out = orig_direction(*args)
        calls[-1]["blocks"] += out[2]
        return out

    monkeypatch.setattr(sshg.minmax, "newton_refine", newton_refine)
    monkeypatch.setattr(sshg.minmax, "minres", minres)
    monkeypatch.setattr(sshg.minmax, "_newton_direction", newton_direction)
    for module in (sshg.nehari, sshg.minmax):
        monkeypatch.setattr(module, "multiplier_solve", multiplier_solve)
    run(RunConfig.from_dict(base_config(
        mode="mountain_pass", path_nodes=9, max_outer=5, grad_tol=1e-3,
        output_dir=str(tmp_path))))
    rec = json.loads((tmp_path / "run_output.json").read_text())["records"][0]
    (call,) = calls
    assert rec["refined"] and rec["newton_steps"] > 0
    assert rec["newton_steps"] == call["minres"]
    assert call["solves"] == 1
    assert rec["minres_iters"] == call["iters"]
    assert rec["newton_block_steps"] == call["blocks"] == rec["newton_steps"]
    assert rec["minres_capped"] == 0


def test_records_report_capped_minres_solves(tmp_path, monkeypatch):
    # a Newton step whose MINRES solve stops at its cap unconverged is still
    # tried, and the record says how many such solves its Newton made
    orig = sshg.minmax.minres
    capped = []

    def minres(*args, **kwargs):
        x, info = orig(*args, **kwargs)
        if not capped:
            capped.append(info.iterations)
            info = dataclasses.replace(info, converged=False)
        return x, info

    monkeypatch.setattr(sshg.minmax, "minres", minres)
    run(RunConfig.from_dict(base_config(
        mode="mountain_pass", path_nodes=9, max_outer=5, grad_tol=1e-3,
        output_dir=str(tmp_path))))
    rec = json.loads((tmp_path / "run_output.json").read_text())["records"][0]
    assert len(capped) == 1
    assert rec["refined"] and rec["minres_capped"] == 1


def test_multiplicity_case1_outputs(tmp_path):
    config = RunConfig.from_dict(base_config(
        mode="multiplicity", rho=0.5, path_nodes=9, max_outer=25,
        n_theta=32, n_theta_disk=8, n_radii=3,
        output_dir=str(tmp_path / "m1")))
    output = run(config)
    assert output["case"] == 1
    assert output["levels"]["c2"] >= output["levels"]["c1"] - 1e-9
    out = tmp_path / "m1"
    sweep = (out / "theta_sweep.csv").read_text().splitlines()
    assert sweep[0] == "theta,J"
    assert len(sweep) == 1 + 32  # one row per family theta
    assert all(float(row.split(",")[1]) < 0 for row in sweep[1:])
    spec_rows = (out / "spectrum.csv").read_text().splitlines()
    assert float(spec_rows[1].split(",")[1]) == pytest.approx(LAM1, rel=1e-12)
    # this coarse config finds no second solution: the disk (record 1) runs
    # out of budget at a constant-u point that Newton does not refine
    data = json.loads((out / "run_output.json").read_text())
    disk = data["records"][1]
    assert data["levels"]["c2"] == pytest.approx(165.78228280172323, rel=1e-8)
    assert disk["res_psi"] > 1.0
    assert disk["classification"] == "semi_trivial_constant_u"
    assert not disk["refined"] and not disk["converged"]
    # a rejected Newton trial leaves no work on the descent's own record
    assert disk["newton_steps"] == disk["minres_iters"] == disk["newton_block_steps"] == 0
    assert disk["exit"] == "budget" and disk["descent_level"] >= disk["level"]
    assert 0.0 < disk["handoff_grad"] <= 1e3
    assert data["distinct"] is False and data["converged"] is False
    assert data["diagnostics"]["exit"] == "budget"


def test_multiplicity_case2_route(tmp_path):
    # delta=(0,0): harmonic block -> linking-regime first solution plus the
    # (K+2)-dimensional equivariant product construction
    config = RunConfig.from_dict(base_config(
        mode="multiplicity", spin_delta=[0.0, 0.0], rho=0.5,
        max_outer=15, output_dir=str(tmp_path / "c2")))
    output = run(config)
    assert output["case"] == 2
    assert len(output["records"]) == 2
    assert "c2" in output["levels"]


def test_case2_reproducer_refines_a_second_solution():
    # the paper's multiplicity theorem where it is reproduced today: the
    # grid-16 harmonic-block config refines a nontrivial second solution, so
    # the PS trace ends at the refined residual level
    output = run(RunConfig.from_dict(base_config(
        mode="multiplicity", spin_delta=[0.0, 0.0], rho=0.5, seed=0,
        path_nodes=9, max_outer=60)))
    assert output["case"] == 2
    records = output["records"]
    assert [r["refined"] for r in records] == [True, True]
    assert records[1]["classification"] == "nontrivial"
    assert output["distinct"] is True and output["converged"] is True
    assert output["levels"]["c1"] == pytest.approx(118.43525281307231, rel=1e-8)
    assert output["levels"]["c2"] == pytest.approx(177.57371436995513, rel=1e-8)
    diag = output["diagnostics"]
    assert diag["alpha_norms"][-1] <= 1e-6
    assert diag["beta_norms"][-1] <= 1e-6


def test_case2_capacity_refused_before_linking(tmp_path, monkeypatch):
    # delta=(1/2,1/2), rho=1: the plus_b block is wider than the case-2 cap,
    # which the spectrum alone decides, so no linking path is spent on it
    import sshg.runner
    calls = []
    monkeypatch.setattr(sshg.runner, "run_path", lambda *a: calls.append(a))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(mode="multiplicity", rho=1.0)))
    assert main(["solve", "--config", str(cfg_path)]) == 3
    assert calls == []


@pytest.mark.parametrize("mode, rho, message", [
    ("mountain_pass", 0.9, "mountain-pass regime requires h = 0 and 0 < rho < lambda_1"),
    ("linking", 0.5, "linking regime requires rho > lambda_1 or harmonic spinors"),
])
def test_mode_regime_mismatch_exits_2(tmp_path, mode, rho, message):
    # delta = (1/2, 1/2): the block is empty below lambda_1 = 0.707 and not
    # above it; a mode that names the other regime is a config error
    cfg = base_config(mode=mode, rho=rho)
    with pytest.raises(ConfigError, match=message):
        run(RunConfig.from_dict(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 2


def test_determinism(tmp_path):
    cfg = base_config(mode="mountain_pass", path_nodes=9, max_outer=25, grad_tol=1e-3)
    out_a = run(RunConfig.from_dict({**cfg, "output_dir": str(tmp_path / "a")}))
    out_b = run(RunConfig.from_dict({**cfg, "output_dir": str(tmp_path / "b")}))
    assert out_a["levels"]["c1"] == out_b["levels"]["c1"]
    ja = (tmp_path / "a" / "run_output.json").read_text()
    jb = (tmp_path / "b" / "run_output.json").read_text()
    # identical modulo the embedded output paths and wall-clock timings
    da, db = json.loads(ja), json.loads(jb)
    for d in (da, db):
        d.pop("timings")
        d.pop("checkpoints")
        d["config"].pop("output_dir")
        for r in d["records"]:
            r.pop("checkpoint", None)
    assert da == db


def test_json_float_precision(tmp_path):
    path = str(tmp_path / "x.json")
    write_json_atomic({"x": 0.1 + 0.2, "nested": [1.0 / 3.0]}, path)
    text = open(path).read()
    assert "0.30000000000000004" in text
    assert "0.33333333333333331" in text


def test_cli_solve(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "run_output.json").exists()


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(bogus=1)))
    assert main(["solve", "--config", str(bad)]) == 2

    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(base_config(mode="probe", rho=float(LAM1) + 5e-11)))
    assert main(["solve", "--config", str(gap)]) == 2

    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(base_config(
        mode="multiplicity", rho=1.0, max_outer=5)))
    assert main(["solve", "--config", str(cap)]) == 3

    assert main(["unknown-command"]) == 2


def test_uncreatable_output_dir_exits_2_before_any_solve(tmp_path, monkeypatch, capsys):
    # an output_dir under a regular file cannot be created: the run refuses
    # it as a config error before it builds the basis
    import sshg.runner

    def build_basis(*args):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(sshg.runner, "build_basis", build_basis)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(mode="multiplicity", output_dir=out)))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert f"config error: cannot create output_dir {out!r}" in capsys.readouterr().err


def test_cli_solver_error_exit_code(tmp_path, monkeypatch):
    # solver failures get their own code, apart from config errors (2)
    import sshg.cli
    from sshg.errors import CertificationError

    def failing(config):
        raise CertificationError("equivariance drift 1e-3 exceeds 1e-9")

    monkeypatch.setattr(sshg.cli, "run", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert main(["solve", "--config", str(cfg_path)]) == 5


# the grid-16 case-1 config of test_multiplicity_case1_outputs on a ten-step
# budget: the disk descent ends far from a solution and Newton cannot refine
# record 1 (res_psi ~1.7)
UNREFINED_CASE1 = base_config(mode="multiplicity", rho=0.5, path_nodes=9, max_outer=10,
                              n_theta=32, n_theta_disk=8, n_radii=3)


@pytest.fixture(scope="module")
def unrefined_case1():
    return run(RunConfig.from_dict(UNREFINED_CASE1))


def test_unrefined_run_is_not_converged(unrefined_case1, tmp_path):
    # without every record refined the run reports non-convergence and exits 4
    rec = unrefined_case1["records"][1]
    assert not rec["refined"] and rec["res_psi"] > 1e-3
    assert unrefined_case1["converged"] is False
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(UNREFINED_CASE1))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
    assert (tmp_path / "o" / "run_output.json").exists()


def test_distinct_counts_only_refined_records(unrefined_case1):
    # an unrefined c2 is no second solution, whatever its level; c2 still
    # reports record 1's level
    records = unrefined_case1["records"]
    assert records[0]["refined"] and not records[1]["refined"]
    assert unrefined_case1["levels"]["c2"] == records[1]["level"]
    assert unrefined_case1["distinct"] is False


@pytest.mark.parametrize("delta, rho", [([0.5, 0.5], 1.0), ([0.0, 0.0], 0.5),
                                        ([0.5, 0.0], 0.8)])
def test_linking_returns_the_semi_trivial_solution(tmp_path, delta, rho):
    # the block-filtered path min-max lands on the semi-trivial branch
    # rho cosh(u) = lam_{k+1}, at level 4 (lam_{k+1}^2 - rho^2) Vol
    cfg = base_config(mode="linking", spin_delta=delta, rho=rho, seed=0,
                      path_nodes=9, max_outer=60)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    data = json.loads((tmp_path / "o" / "run_output.json").read_text())
    config = RunConfig.from_dict(cfg)
    geom = config.geometry()
    lam_k1 = linking_constants(config.action_params(), build_basis(geom, cfg["cutoff"])).lam_k1
    rec = data["records"][0]
    assert rec["refined"] and rec["classification"] != "trivial"
    assert rec["level"] == pytest.approx(4 * (lam_k1**2 - rho**2) * geom.vol, rel=1e-10)
    assert data["converged"] is True


# the grid-16 default mountain pass: its path max is near c1 by outer
# iteration 30, where Newton from the max node refines to c1
DEFAULT_MOUNTAIN_PASS = base_config(mode="mountain_pass")


@pytest.fixture(scope="module")
def default_mountain_pass():
    return run(RunConfig.from_dict(DEFAULT_MOUNTAIN_PASS))


def test_mountain_pass_hands_off_to_newton(default_mountain_pass):
    diag = default_mountain_pass["diagnostics"]
    assert diag["exit"] == "handoff"
    # one entry per outer iteration, then the refined record: Newton takes
    # over long before the 150-step budget
    assert len(diag["energies"]) <= 41
    rec = default_mountain_pass["records"][0]
    assert rec["refined"] and not rec["converged"]
    assert rec["classification"] == "semi_trivial_constant_u"
    # the record reports the descent that built it: the level and gradient
    # of the iteration that handed off, the entry before the refined point
    assert rec["exit"] == "handoff"
    assert rec["descent_level"] == diag["energies"][-2] > rec["level"]
    assert rec["handoff_grad"] == diag["grad_norms"][-2]
    vol = (2 * np.pi) ** 2
    c1 = 4 * 0.5**2 * np.sinh(np.arccosh(LAM1 / 0.5)) ** 2 * vol
    assert default_mountain_pass["levels"]["c1"] == pytest.approx(c1, rel=1e-12)


def test_linking_hands_off_to_newton():
    output = run(RunConfig.from_dict(base_config(mode="linking", rho=1.0, seed=0)))
    # the same endpoint report as a mountain pass: (u_bar, s) = (T, A T)
    assert list(output["endpoint"]) == ["u_bar", "s", "J"] and output["endpoint"]["J"] < 0
    assert output["diagnostics"]["exit"] == "handoff"
    assert output["records"][0]["refined"]
    assert output["levels"]["c1"] == pytest.approx(236.87050562614442, rel=1e-12)


def test_rejected_handoff_changes_nothing(default_mountain_pass, monkeypatch):
    # every trial rejected: the descent runs on to its budget along exactly
    # the iterates it takes when no trial is ever made, and, up to the
    # hand-off, along those of the unpatched run
    import sshg.minmax
    newton = sshg.minmax.newton_refine
    trials = []

    def never_refined(*args, **kwargs):
        trials.append(1)
        return dataclasses.replace(newton(*args, **kwargs), refined=False)

    monkeypatch.setattr(sshg.minmax, "newton_refine", never_refined)
    # outer iterations of the unpatched descent, the hand-off's included
    before = default_mountain_pass["diagnostics"]
    iters = len(before["energies"]) - 1
    config = RunConfig.from_dict({**DEFAULT_MOUNTAIN_PASS, "max_outer": iters + 10})
    rejected = run(config)
    assert len(trials) >= 2  # the rejected hand-off, then the one after the budget
    diag = rejected["diagnostics"]
    assert diag["exit"] == "budget" and len(diag["energies"]) == iters + 10
    assert not rejected["records"][0]["refined"]
    assert diag["energies"][:iters] == before["energies"][:iters]
    assert diag["grad_norms"][:iters] == before["grad_norms"][:iters]

    # a negative tolerance admits no trial: it asks the positive max level
    # to have risen by its own size over a re-spread period
    monkeypatch.setattr(sshg.minmax, "HANDOFF_RTOL", -1.0)
    trials.clear()
    untried = run(config)
    assert len(trials) == 1  # only the one after the budget
    for key in ("energies", "grad_norms", "alpha_norms", "beta_norms", "u_h1_trace"):
        assert untried["diagnostics"][key] == diag[key]


def test_cli_batch_workers(tmp_path):
    # independent configs fan out across worker processes
    paths = []
    for i, rho in enumerate((0.4, 0.5)):
        p = tmp_path / f"cfg{i}.json"
        p.write_text(json.dumps(base_config(rho=rho, output_dir=str(tmp_path / f"o{i}"))))
        paths.append(str(p))
    code = main(["solve", "--config", paths[0], "--config", paths[1], "--workers", "2"])
    assert code == 0
    for i in range(2):
        assert (tmp_path / f"o{i}" / "run_output.json").exists()


def _batch_configs(tmp_path, n):
    paths = []
    for i in range(n):
        p = tmp_path / f"cfg{i}.json"
        p.write_text(json.dumps(base_config(output_dir=str(tmp_path / f"o{i}"))))
        paths.append(str(p))
    return [arg for path in paths for arg in ("--config", path)]


def test_cli_batch_pool_never_exceeds_the_configs(tmp_path, monkeypatch):
    # the pool forks all its workers on the first task, so --workers is
    # capped at the number of configs; the stand-in pool runs the jobs in
    # this process and starts none
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(sshg.cli, "ProcessPoolExecutor", Pool)
    assert main(["solve", *_batch_configs(tmp_path, 2), "--workers", "100000"]) == 0
    assert sizes == [2]
    assert main(["solve", *_batch_configs(tmp_path, 3), "--workers", "2"]) == 0
    assert sizes == [2, 2]
    # a single config runs in this process
    assert main(["solve", *_batch_configs(tmp_path, 1), "--workers", "100000"]) == 0
    assert sizes == [2, 2]
    for i in range(3):
        assert (tmp_path / f"o{i}" / "run_output.json").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_refuses_fewer_than_one_worker(tmp_path, monkeypatch, workers):
    def pool(max_workers):
        raise AssertionError("no pool for a refused worker count")

    monkeypatch.setattr(sshg.cli, "ProcessPoolExecutor", pool)
    assert main(["solve", *_batch_configs(tmp_path, 2), "--workers", workers]) == 2
    assert not (tmp_path / "o0").exists()
