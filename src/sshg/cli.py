"""Command-line entry points.

    sshg solve --config cfg.json [--seed N] [--out DIR] [--workers N]

Exit codes: 0 success, 2 config error, 3 capacity/resolution error,
4 non-convergence (the flagged output is still written; a run converges
only when Newton refined every record), 5 solver failure (a certificate,
an inner solve or the overflow guard failed; no output is written).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import (
    CapacityError,
    ConfigError,
    ResolutionError,
    SpectralGapError,
    SSHGError,
)
from .runner import RunConfig, read_config_file, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NONCONVERGED = 4
EXIT_SOLVER = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sshg")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", description="Run a solver pipeline")
    p.add_argument("--config", action="append", required=True,
                   help="path to a flat JSON config (repeat for a batch)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=None, help="override output_dir")
    p.add_argument("--workers", type=int, default=1,
                   help="process count for batch configs (one run per process, "
                        "at most one per config)")
    return parser


def _load_config(path: str, args) -> RunConfig:
    # a flag overrides the config's value only when given
    overrides = {"seed": args.seed, "output_dir": args.out}
    return RunConfig.from_dict({**read_config_file(path),
                                **{k: v for k, v in overrides.items() if v is not None}})


def _execute(config: RunConfig) -> int:
    output = run(config)
    return EXIT_OK if output["converged"] else EXIT_NONCONVERGED


def _run_one(path_and_args) -> int:
    path, args = path_and_args
    try:
        return _execute(_load_config(path, args))
    except (ConfigError, SpectralGapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapacityError, ResolutionError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SSHGError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:   # argparse's usage error or --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    if args.workers < 1:
        print(f"config error: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return EXIT_CONFIG
    jobs = [(path, args) for path in args.config]
    # the pool starts all its workers at once, so it gets no more than the jobs
    workers = min(args.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_run_one, jobs))
    else:
        codes = [_run_one(job) for job in jobs]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
