"""sshg benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run repeats whole rounds of operations while
the next round is expected to end within S seconds (at least one round) and
reports the end-to-end metrics, timed on the reference clock of
`refclock.py`.  With `--trace 1` it runs one untraced round
and then one round with the layer tracer installed, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
sys.path.insert(0, HERE)

import checker  # noqa: E402
import selftest  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 20
MODULES = ("sshg.runner", "sshg.sweepout", "sshg.minmax", "sshg.nehari", "sshg.krylov",
           "sshg.action", "sshg.spectral", "sshg.fields", "sshg.geometry", "sshg.checkpoint")


def metric_units(kind):
    """Units of the `end_to_end` or `per_layer` metrics named in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.wall = []      # burst-free wall seconds of the passed operations


def import_sshg():
    """(Re-)import the package from this checkout's src/."""
    for name in [k for k in sys.modules if k == "sshg" or k.startswith("sshg.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(name)
    origin = os.path.abspath(sys.modules["sshg"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"sshg imported from {origin}, not from {SRC}")


def set_up(workload, seed, clock):
    """SETUP_REPEATS times: import the package and prepare the inputs.
    Returns the median set-up seconds on `clock` and the median
    geometry+basis wall seconds."""
    total, basis = [], []
    with clock:
        for _ in range(SETUP_REPEATS):
            t0 = clock.now()
            import_sshg()
            basis.append(workload.prepare(seed))
            total.append(clock.now() - t0)
    return statistics.median(total) * clock.scale(), statistics.median(basis)


def run_round(workload, clock, tally):
    """One round of operations; returns the seconds on `clock` of those
    that passed."""
    times = []
    for i in range(workload.ops_per_round):
        tally.attempted += 1
        try:
            seconds = workload.operation(i, clock)
            tally.wall.append(seconds)
            times.append(seconds * clock.scale())
        except checker.CheckFailed as exc:
            tally.failed += 1
            tally.correct = False
            print(f"operation {i}: correctness check failed: {exc}", file=sys.stderr)
        except Exception:  # a failed operation is counted, the run goes on
            tally.failed += 1
            print(f"operation {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
    return times


def run_untraced(workload, seconds, clock, tally):
    """Whole rounds, the next one only if it is expected to end within
    `seconds` of the start (a round is expected to last as long as the last)."""
    times = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times += run_round(workload, clock, tally)
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return times


def layer_metrics(tracer, n_ops, basis_s, overhead_s):
    stats, calls_under = summarize(tracer)
    counts = tracer.counts

    def get(label, key):
        return stats.get(label, {}).get(key, 0)

    def per_op(label, key="s"):
        return get(label, key) / n_ops

    def per_call(label, scale):
        calls = get(label, "calls")
        return get(label, "s") / calls * scale if calls else 0.0

    trials = calls_under("nehari.project_to_manifold", "minmax.deform")
    cg_calls = get("krylov.cg", "calls")
    return {
        "minmax.ridge_repair.s": per_op("minmax.ridge_repair"),
        "minmax.ridge_repair.samples": calls_under("nehari.fiber_solve", "minmax.ridge_repair") / n_ops,
        "minmax.deform.s": per_op("minmax.deform"),
        "minmax.deform.self_s": per_op("minmax.deform", "self_s"),
        "minmax.outer_iters": calls_under("nehari.constrained_gradient", "minmax.deform") / n_ops,
        "minmax.descent_accept_ratio": counts["descent.accepted"] / trials if trials else 0.0,
        "minmax.respread.s": per_op("minmax.respread"),
        "minmax.newton.s": per_op("minmax.newton"),
        "krylov.minres.iters": counts["minres.iters"] / n_ops,
        "krylov.minres.s": per_op("krylov.minres"),
        "action.hess_vec.calls": per_op("action.hess_vec", "calls"),
        "action.hess_vec.s": per_op("action.hess_vec"),
        "nehari.fiber_solve.calls": per_op("nehari.fiber_solve", "calls"),
        "nehari.fiber_solve.ms": per_call("nehari.fiber_solve", 1e3),
        "nehari.operator_apply.calls": per_op("nehari.operator_apply", "calls"),
        "nehari.operator_apply.us": per_call("nehari.operator_apply", 1e6),
        "nehari.constrained_gradient.calls": per_op("nehari.constrained_gradient", "calls"),
        "nehari.constrained_gradient.ms": per_call("nehari.constrained_gradient", 1e3),
        "krylov.cg.calls": cg_calls / n_ops,
        "krylov.cg.iters": counts["cg.iters"] / n_ops,
        "krylov.cg.iters_per_solve": counts["cg.iters"] / cg_calls if cg_calls else 0.0,
        "krylov.cg.s": per_op("krylov.cg"),
        "spectral.project.calls": per_op("spectral.project", "calls"),
        "spectral.project.s": per_op("spectral.project"),
        "fields.fft.calls": per_op("fields.fft", "calls"),
        "fields.fft.s": per_op("fields.fft"),
        "fields.fft.bytes_computed": counts["fft.bytes"] / n_ops,
        "sweepout.family.s": per_op("sweepout.family"),
        "sweepout.disk_minmax.self_s": per_op("sweepout.disk_minmax", "self_s"),
        "runner.write_outputs.s": per_op("runner.write_outputs"),
        "checkpoint.bytes": counts["checkpoint.bytes"] / n_ops,
        "geometry.build_basis.s": basis_s,
        "trace.overhead_s": overhead_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sshg", "__init__.py")):
        print(f"no sshg package under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    selftest.run_selftest()
    os.makedirs(RUNS, exist_ok=True)

    workload = WORKLOADS[args.workload](args.workload, RUNS)
    # the traced runs take raw wall times: bursts would land in their spans
    clock = RefClock(sample=not args.trace)
    setup_s, basis_s = set_up(workload, args.seed, clock)
    tally = Tally()
    if not args.trace:
        times = run_untraced(workload, args.seconds, clock, tally)
        metrics = {
            "solve_s": statistics.median(times) if times else None,
            "setup_s": setup_s,
            # the reference clock's table is not the workload's memory
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                            - clock.footprint) / 2**20,
        }
        units = metric_units("end_to_end")
    else:
        plain = run_round(workload, clock, tally)
        tracer = Tracer()
        tracer.install()
        traced = run_round(workload, clock, tally)
        overhead = (statistics.median(traced) - statistics.median(plain)
                    if plain and traced else None)
        metrics = layer_metrics(tracer, workload.ops_per_round, basis_s, overhead)
        tracer.save(os.path.join(RUNS, f"trace-{args.workload}.npz"))
        units = metric_units("per_layer")

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    if any(v is None for v in metrics.values()):
        print("every operation failed; no metrics", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace:
        print(f"(not a metric) median burst-free wall time of an operation: "
              f"{statistics.median(tally.wall)!r} s; last burst median "
              f"{statistics.median(clock.bursts)!r} s; clock footprint {clock.footprint} bytes")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
