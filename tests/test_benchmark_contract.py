"""The solver names the benchmark tracer binds to must exist, and every
benchmark workload must run.

`perfbench/tracer.py` wraps the layer entry points listed in its `LAYERS`
by name, so renaming one silently drops a layer from the benchmark.  The
table is read with `ast`; the tracer itself is not installed.  The
workloads of `perfbench/workloads.py` call the solver by name too
(`runner.run`, `fiber_solve`, `constrained_gradient`,
`newton_refine(check_pre=False)`, `record.point.psi.coeffs`, ...): one
checked operation of each, under a stub clock, fails here on any change to
what they call.
"""

import ast
import importlib
import inspect
import json
import pathlib
import time

import pytest

import sshg.action
import sshg.fields
import sshg.geometry
import sshg.nehari
import sshg.runner
import sshg.spectral
from sshg.minmax import _SegmentCache, minmax_deform, newton_refine

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_tracer_layers_exist():
    layers = _layers()
    assert layers
    missing = [(mod, attr) for mod, attr, _ in layers
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"tracer layers missing from sshg: {missing}"


def test_tracer_hooks_exist():
    assert "step_hook" in inspect.signature(minmax_deform).parameters
    assert "check_pre" in inspect.signature(newton_refine).parameters
    assert callable(_SegmentCache.refresh)
    assert callable(sshg.fields.np.fft.fft2) and callable(sshg.fields.np.fft.ifft2)


class _StubClock:
    """What a workload's operation uses of `refclock.RefClock`: a context
    and `now()`, here the perf counter, with no reference bursts."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def now(self):
        return time.perf_counter()


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_one_checked_operation(workloads, name, tmp_path):
    # the workload's own prepare, operation and output check; a failed check
    # raises checker.CheckFailed
    workload = workloads.WORKLOADS[name](name, str(tmp_path))
    assert workload.prepare(1) >= 0.0
    assert workload.operation(0, _StubClock()) > 0.0
