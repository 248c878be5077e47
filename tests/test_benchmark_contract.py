"""The solver names the benchmark tracer binds to must exist.

`perfbench/tracer.py` wraps the layer entry points listed in its `LAYERS`
by name, so renaming one silently drops a layer from the benchmark.  The
table is read with `ast`; the tracer itself is not installed.
"""

import ast
import importlib
import inspect
import pathlib

import sshg.fields
from sshg.minmax import _SegmentCache, minmax_deform, newton_refine

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
