"""Fingerprints of fixed runs, for refactors that must not change a bit.

Run by hand (pytest does not collect it):

    PYTHONPATH=src python tests/fingerprint.py [name ...]

Each config below runs with a temporary `output_dir`.  The tool prints one
sha256 over `sshg.runner.run`'s output, rendered as the run's JSON (floats
at 17 significant digits) with `timings`, `config.output_dir` and the
checkpoint paths dropped, and over the sha256 of every CSV and checkpoint
the run wrote, by sorted name; then the run's levels, each record's
`classification`, `refined` and `exit`, and the run's `converged`.  Two
trees print the same line for a config exactly when their outputs and
files agree bit for bit; where a rounding-level change moves the hash, the
tail of the line shows whether it moved a classification or an exit.

`fingerprints.txt` holds the committed lines, which `test_fingerprints.py`
checks in tier-1; a change that moves a line on purpose rewrites the file
(`PYTHONPATH=src python tests/fingerprint.py > tests/fingerprints.txt`) and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

from sshg.runner import RunConfig, _render_json, run

from test_workcounts import CONFIG, MOUNTAIN_PASS

CONFIGS = {
    # the two work-count configs of test_workcounts
    "workcounts-multiplicity": CONFIG,
    "workcounts-mountain-pass": MOUNTAIN_PASS,
    # grid 16 with n_radii 5: the disk's Newton lands below c1
    "multiplicity-n16-radii5": {
        "grid_n": 16, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "multiplicity",
        "n_radii": 5,
    },
    # the harmonic block at delta = (0, 0): case 2, the (K+2)-dimensional set
    "case2-n16": {
        "grid_n": 16, "spin_delta": [0.0, 0.0], "rho": 0.5, "mode": "multiplicity",
    },
    # the multiplicity-n32 benchmark workload, seed 1
    "multiplicity-n32": {
        "grid_n": 32, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "multiplicity",
        "path_nodes": 17, "max_outer": 80, "grad_tol": 1e-3,
        "n_theta": 64, "n_theta_disk": 8, "n_radii": 3, "seed": 1,
    },
    # the mountain-pass-n64 benchmark workload, seed 1
    "mountain-pass-n64": {
        "grid_n": 64, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "mountain_pass",
        "seed": 1,
    },
    # the linking run of test_acceptance: a non-empty block, filtered descent
    "linking-n32": {
        "grid_n": 32, "spin_delta": [0.5, 0.5], "rho": 1.0, "mode": "linking",
        "seed": 0, "cutoff": 3.0, "max_outer": 60, "grad_tol": 1e-3, "r0": 0.02,
    },
}


def fingerprint(config: dict) -> tuple[str, dict]:
    """(sha256 of the run's output without timings or paths and of its
    written files, the output)."""
    with tempfile.TemporaryDirectory() as out_dir:
        output = run(RunConfig.from_dict({**config, "output_dir": out_dir}))
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out_dir)):
            if name.endswith((".csv", ".sshg")):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digest.update(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    for key in ("timings", "checkpoints"):
        output.pop(key)
    output["config"].pop("output_dir")
    for record in output["records"]:
        record.pop("checkpoint", None)
    digest.update(_render_json(output).encode())
    return digest.hexdigest(), output


def line(name: str) -> str:
    """The printed line of the config `name`."""
    digest, output = fingerprint(CONFIGS[name])
    shown = [f"{k}={v!r}" for k, v in output.get("levels", {}).items()]
    shown += [f"record{i}={r['classification']}/refined={r['refined']}/exit={r['exit']}"
              for i, r in enumerate(output["records"])]
    shown.append(f"converged={output['converged']}")
    return f"{name} {digest} {' '.join(shown)}"


def main(names) -> None:
    for name in names or CONFIGS:
        print(line(name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
