"""Span tracer for the sshg layers, installed from outside the package.

`Tracer.install()` replaces each layer entry point with a wrapper that
records a span (name, start, end, parent span) and a call count.  A module
that imported a function by name holds its own binding, so the wrapper is
written into every `sshg.*` module attribute and every function default that
holds the original; one wrapper per function, so each call is counted once.
The FFTs of `sshg.fields` are reached through a copy of the numpy namespace
whose `fft2`/`ifft2` are wrapped.

Spans stay in compact in-memory arrays and are written out by `save()`.
"""

from __future__ import annotations

import array
import inspect
import json
import os
import sys
import time
import types
from collections import Counter

import numpy as np

# (module, attribute, span name): the layer entry points.  `_respread_path`
# precedes `minmax_deform`, whose default argument holds it: once wrapped,
# minmax_deform is no longer visible to the default-argument scan.
LAYERS = (
    ("sshg.minmax", "_respread_path", "minmax.respread"),
    ("sshg.minmax", "minmax_deform", "minmax.deform"),
    ("sshg.minmax", "newton_refine", "minmax.newton"),
    ("sshg.krylov", "cg", "krylov.cg"),
    ("sshg.krylov", "minres", "krylov.minres"),
    ("sshg.action", "hess_vec", "action.hess_vec"),
    ("sshg.nehari", "fiber_solve", "nehari.fiber_solve"),
    ("sshg.nehari", "project_to_manifold", "nehari.project_to_manifold"),
    ("sshg.nehari", "dirac_minus_potential", "nehari.operator_apply"),
    ("sshg.nehari", "constrained_gradient", "nehari.constrained_gradient"),
    ("sshg.spectral", "project", "spectral.project"),
    ("sshg.sweepout", "equivariant_family", "sweepout.family"),
    ("sshg.sweepout", "equivariant_disk_minmax", "sweepout.disk_minmax"),
    ("sshg.checkpoint", "checkpoint_save", "checkpoint.save"),
    ("sshg.runner", "save_point", "runner.write_outputs"),
    ("sshg.runner", "write_json_atomic", "runner.write_outputs"),
    ("sshg.runner", "emit_plotdata", "runner.write_outputs"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("h")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self._stack = [-1]
        self.counts = Counter()          # counts carried by results
        self._last_retraction = None

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "sshg" or k.startswith("sshg.")]
        on_result = {
            "krylov.cg": lambda out: self.counts.update({"cg.iters": out[1].iterations}),
            "krylov.minres": lambda out: self.counts.update({"minres.iters": out[1].iterations}),
            "checkpoint.save": lambda path: self.counts.update(
                {"checkpoint.bytes": os.path.getsize(path)}),
            "nehari.project_to_manifold": self._note_retraction,
        }
        for mod_name, attr, span in LAYERS:
            orig = getattr(sys.modules[mod_name], attr)
            fn = orig
            if attr == "minmax_deform":
                fn = self._count_accepted_steps(orig)
            _rebind(modules, orig, self.wrap(span, fn, on_result.get(span)))

        minmax = sys.modules["sshg.minmax"]
        cache = minmax._SegmentCache
        cache.refresh = self.wrap("minmax.ridge_repair", cache.refresh)

        fields = sys.modules["sshg.fields"]
        fields.np = _numpy_with_traced_fft(self, fields.np)

    def _note_retraction(self, point):
        self._last_retraction = point

    def _count_accepted_steps(self, deform):
        """minmax_deform with a pass-through step hook that counts accepted
        descent steps: a node assignment whose point is the latest retraction
        (ridge promotions assign segment samples instead).  Without a caller
        hook the pass-through does what minmax_deform does itself."""
        sig = inspect.signature(deform)
        from sshg.action import evaluate_J

        def deform_counting(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            user_hook = bound.arguments["step_hook"]

            def hook(k, pt, nodes, energies, params):
                if pt is self._last_retraction:
                    self.counts["descent.accepted"] += 1
                if user_hook is not None:
                    user_hook(k, pt, nodes, energies, params)
                else:
                    nodes[k] = pt
                    energies[k] = evaluate_J(pt.u, pt.psi, params)

            bound.arguments["step_hook"] = hook
            return deform(*bound.args, **bound.kwargs)

        return deform_counting

    # -- results ----------------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return name, start, end, parent

    def save(self, path):
        name, start, end, parent = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, name=name.astype(np.int16), start=start, end=end,
                 parent=parent.astype(np.int32), names=np.array(json.dumps(self.names)))


def _rebind(modules, orig, wrapper):
    """Point every binding of `orig` in the given modules at `wrapper`."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif isinstance(val, types.FunctionType) and val.__defaults__:
                if any(d is orig for d in val.__defaults__):
                    val.__defaults__ = tuple(wrapper if d is orig else d
                                             for d in val.__defaults__)


def _numpy_with_traced_fft(tracer, np_module):
    """A copy of the numpy namespace whose fft2/ifft2 record spans and bytes."""
    def count_bytes(out):
        tracer.counts["fft.bytes"] += out.nbytes

    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np_module.fft.__dict__)
    fft.fft2 = tracer.wrap("fields.fft", np_module.fft.fft2, count_bytes)
    fft.ifft2 = tracer.wrap("fields.fft", np_module.fft.ifft2, count_bytes)
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np_module.__dict__)
    proxy.fft = fft
    return proxy


def summarize(tracer):
    """Per-name call counts, total and self seconds, plus parent-name pairs."""
    name, start, end, parent = tracer.arrays()
    dur = end - start
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = np.bincount(name, weights=dur - child, minlength=n_names)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def ids(label):
        return tracer.names.index(label) if label in tracer.names else -2

    def calls_under(label, parent_label):
        return int(np.count_nonzero((name == ids(label)) & (parent_name == ids(parent_label))))

    stats = {}
    for i, label in enumerate(tracer.names):
        stats[label] = {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_time[i])}
    return stats, calls_under
