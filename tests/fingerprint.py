"""Fingerprints of fixed runs, for refactors that must not change a bit.

Run by hand (pytest does not collect it):

    PYTHONPATH=src python tests/fingerprint.py [name ...]

Each config below runs with a temporary `output_dir`.  The tool prints one
sha256 over `sshg.runner.run`'s output, rendered as the run's JSON (floats
at 17 significant digits) with `timings`, `config.output_dir` and the
checkpoint paths dropped, and over the sha256 of every CSV and checkpoint
the run wrote, by sorted name; then the run's levels, each record's
`classification`, `refined`, `exit` and residual res_u + res_psi (`res`, 17
significant digits), the run's `distinct` where it reports one, and its
`converged`.  Two trees print the same line for a config exactly when their
outputs and files agree bit for bit; where a rounding-level change moves
the hash, the tail of the line shows what it moved.

    PYTHONPATH=src python tests/fingerprint.py --compare [name ...]

reruns the configs and, per config, prints `unchanged` when its line equals
the committed one, and otherwise the relative change of every level and
residual and every flip of `classification`, `refined`, `exit`,
`converged` and `distinct`; it exits with status 1 when any config changed.

`fingerprints.txt` holds the committed lines, which `test_fingerprints.py`
checks in tier-1; a change that moves a line on purpose rewrites the file
(`PYTHONPATH=src python tests/fingerprint.py > tests/fingerprints.txt`),
quotes the `--compare` output and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

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
    # a second case-2 block, at delta = (1/2, 0): the nontrivial c2 lies below
    # the semi-trivial c1, yet the run reports both and exits 0
    "case2-n16-half0": {
        "grid_n": 16, "spin_delta": [0.5, 0.0], "rho": 0.8, "mode": "multiplicity",
        "path_nodes": 9, "max_outer": 60, "seed": 0, "cutoff": 2.5,
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
    # 16 disk angles and 5 radii at grid 16: the disk's Newton lands on c1,
    # so the run takes the orthogonal restart
    "restart-n16": {
        "grid_n": 16, "spin_delta": [0.5, 0.5], "rho": 0.5, "mode": "multiplicity",
        "n_theta_disk": 16, "n_radii": 5,
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
              f"/res={r['res_u'] + r['res_psi']:.17g}"
              for i, r in enumerate(output["records"])]
    if "distinct" in output:
        shown.append(f"distinct={output['distinct']}")
    shown.append(f"converged={output['converged']}")
    return f"{name} {digest} {' '.join(shown)}"


def golden_lines() -> dict:
    """The committed lines of `fingerprints.txt`, by config name."""
    text = Path(__file__).with_name("fingerprints.txt").read_text()
    return {ln.split(" ", 1)[0]: ln for ln in text.splitlines()}


def parse(text: str):
    """A printed line as (hash, its run-level key=value fields in line order,
    its records, each a dict of the `/`-separated fields)."""
    _, digest, *items = text.split()
    fields, records = {}, []
    for item in items:
        key, value = item.split("=", 1)
        if key.startswith("record"):
            cls, *rest = value.split("/")
            records.append({"classification": cls, **dict(kv.split("=", 1) for kv in rest)})
        else:
            fields[key] = value
    return digest, fields, records


def _relative(old: str, new: str) -> str:
    a, b = float(old), float(new)
    return f"{old} -> {new} (relative {(b - a) / abs(a) if a else b - a:+.2e})"


def compare(golden: str, current: str) -> list[str]:
    """What moved from the line `golden` to the line `current`: ["unchanged"]
    when they are equal, else "changed" followed by whether the hash moved,
    the relative change of every level and residual and every flip of a
    classification, refined, exit, distinct or converged."""
    if golden == current:
        return ["unchanged"]
    (old_hash, old, old_recs), (new_hash, new, new_recs) = parse(golden), parse(current)
    report = ["changed"] + (["hash moved"] if old_hash != new_hash else [])
    for key in {**old, **new}:
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        flag = key in ("distinct", "converged") or None in (a, b)
        report.append(f"{key}: {a} -> {b}" if flag else f"{key}: {_relative(a, b)}")
    if len(old_recs) != len(new_recs):
        report.append(f"records: {len(old_recs)} -> {len(new_recs)}")
    for i, (a, b) in enumerate(zip(old_recs, new_recs)):
        for key in ("classification", "refined", "exit"):
            if a[key] != b[key]:
                report.append(f"record{i} {key}: {a[key]} -> {b[key]}")
        if a["res"] != b["res"]:
            report.append(f"record{i} res: {_relative(a['res'], b['res'])}")
    return report


def main(argv) -> int:
    """Print the lines, or with --compare what moved; the exit status is 1
    when --compare finds a changed config, else 0."""
    names = [a for a in argv if a != "--compare"] or list(CONFIGS)
    if "--compare" not in argv:
        for name in names:
            print(line(name), flush=True)
        return 0
    golden = golden_lines()
    status = 0
    for name in names:
        first, *rest = compare(golden[name], line(name))
        print(f"{name} {first}", *(f"  {r}" for r in rest), sep="\n", flush=True)
        status |= first != "unchanged"
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
