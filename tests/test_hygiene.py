"""Source hygiene: invariants are never asserts, broad handlers never swallow,
nothing is imported unused, no local is assigned unread, no config key and
no dataclass field goes unread, nothing reads the environment, every FFT is
an `np.fft.fft2` or `np.fft.ifft2` call in fields.py, and every
module-level function and class, and every method and property but the
dunders, is read outside the tests.

`python -O` strips assert statements, so every certificate must raise an
SSHGError instead.  A handler for Exception, BaseException or a bare except
may only clean up and re-raise.
"""

import ast
import pathlib
import tomllib

from sshg.runner import _DEFAULTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sshg"
BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _reraises(handler: ast.ExceptHandler) -> bool:
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_asserts_and_no_swallowing_handlers():
    bad = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                bad.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.ExceptHandler) and _is_broad(node) and not _reraises(node):
                bad.append(f"{path.name}:{node.lineno}: broad handler without a bare raise")
    assert not bad, "\n".join(bad)


def test_no_handler_only_passes():
    # a handler whose body is a lone `pass` hides what it caught: a failure
    # either changes what the code does next or is not caught
    bad = [f"{path.name}:{node.lineno}: handler body is a lone pass"
           for path, tree in _trees() for node in ast.walk(tree)
           if isinstance(node, ast.ExceptHandler)
           and len(node.body) == 1 and isinstance(node.body[0], ast.Pass)]
    assert not bad, "\n".join(bad)


def _exported(tree) -> set:
    """The names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_imports():
    bad = []
    for path, tree in _trees():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        bad.append(f"{path.name}:{node.lineno}: {name} imported, never used")
    assert not bad, "\n".join(bad)


def _own_scope(func):
    """The nodes of `func` outside its nested functions and classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(func) -> set:
    """Plain names `func` assigns but neither it nor a nested function reads.
    Tuple-unpacking targets are exempt (a solver's info may be unpacked
    unread), and so are names `func` declares nonlocal or global: the
    enclosing scope reads those."""
    read = {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assigned, shared = set(), set()
    for node in _own_scope(func):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            shared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned.update(t.id for t in targets if isinstance(t, ast.Name))
    return assigned - read - shared


def test_no_dead_locals():
    bad = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += [f"{path.name}:{node.lineno}: {node.name} assigns {name}, never reads it"
                        for name in sorted(_dead_locals(node))]
    assert not bad, "\n".join(bad)


def test_every_config_key_is_read():
    # a key only RunConfig.from_dict validates configures nothing
    read = set()
    for _, tree in _trees():
        skip = {id(n) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "from_dict"
                for n in ast.walk(f)}
        read |= {n.slice.value for n in ast.walk(tree)
                 if isinstance(n, ast.Subscript) and id(n) not in skip
                 and isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)}
    assert not set(_DEFAULTS) - read, f"config keys nothing reads: {sorted(set(_DEFAULTS) - read)}"


def test_no_environment_reads():
    # a run is configured by its config file and flags alone; an environment
    # variable would be a knob no config records
    names = {"environ", "getenv"}
    bad = [f"{path.name}:{node.lineno}: environment read"
           for path, tree in _trees() for node in ast.walk(tree)
           if (isinstance(node, ast.Attribute) and node.attr in names)
           or (isinstance(node, ast.ImportFrom) and node.module == "os"
               and names & {alias.name for alias in node.names})]
    assert not bad, "environment reads:\n" + "\n".join(bad)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    targets = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def test_every_dataclass_field_is_read():
    # a field that the package, its tests and its benchmark never read as an
    # attribute is stored for nobody
    read = set()
    for folder in (SRC, ROOT / "tests", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}: {cls.name}.{stmt.target.id}"
              for path, tree in _trees()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, "dataclass fields nothing reads:\n" + "\n".join(unread)


def test_dirac_frame_is_read_only_at_the_fft_boundary():
    # the symbol's eigenframe is defined once, in geometry.py, and read only
    # by the conversions in fields.py; everywhere else spinors are already in
    # eigen-coordinates, so a read elsewhere brings 2x2 algebra back
    defined, read = set(), set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "dirac_frame":
                defined.add(path.name)
            elif ((isinstance(node, ast.Attribute) and node.attr == "dirac_frame")
                  or (isinstance(node, ast.Constant) and node.value == "dirac_frame")):
                read.add(path.name)
    assert defined == {"geometry.py"}, f"dirac_frame defined in {sorted(defined)}"
    assert read == {"fields.py"}, f"dirac_frame read in {sorted(read)}"


def test_compact_spinor_view_is_read_only_by_fields_spectral_and_nehari():
    # `mode_view` hands out a compact spinor's mode and (2, 1, 2) view, a
    # storage format defined in fields.py; the per-mode readers of spectral.py
    # and nehari.py skip the grid through it, and every other reader reads
    # `eig`, so the format stays out of the rest of the package
    defined, read = set(), set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "mode_view":
                defined.add(path.name)
            elif ((isinstance(node, ast.Name) and node.id == "mode_view")
                  or (isinstance(node, ast.Attribute) and node.attr == "mode_view")
                  or (isinstance(node, ast.alias) and node.name == "mode_view")
                  or (isinstance(node, ast.Constant) and node.value == "mode_view")):
                read.add(path.name)
    assert defined == {"fields.py"}, f"mode_view defined in {sorted(defined)}"
    assert read == {"fields.py", "spectral.py", "nehari.py"}, f"mode_view read in {sorted(read)}"


def test_ffts_are_called_only_in_fields():
    # the perfbench tracer and the work-count ceilings see the FFTs through
    # `sshg.fields.np`; a transform called anywhere else escapes both
    # (`fftfreq` only builds the frequency grid)
    names = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2",
             "irfft2", "rfftn", "irfftn", "hfft", "ihfft"}
    bad = [f"{path.name}:{node.lineno}: {node.func.attr}"
           for path, tree in _trees() if path.name != "fields.py"
           for node in ast.walk(tree)
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr in names]
    assert not bad, "FFT calls outside fields.py:\n" + "\n".join(bad)


def test_fields_calls_only_fft2_and_ifft2():
    # `fft2` and `ifft2` are the only names the perfbench tracer and
    # `counting_ffts` wrap, so a 1-D pass escapes both; numpy 2.4's ifft2
    # hands out=None on to its n-D pass, so an out= buffer would be left
    # unwritten (fft2 honours it)
    (tree,) = [tree for path, tree in _trees() if path.name == "fields.py"]
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        f = node.func
        through_np_fft = (isinstance(f.value, ast.Attribute) and f.value.attr == "fft"
                          and isinstance(f.value.value, ast.Name) and f.value.value.id == "np")
        if through_np_fft and f.attr in ("fft2", "ifft2"):
            if f.attr == "ifft2" and any(kw.arg == "out" for kw in node.keywords):
                bad.append(f"fields.py:{node.lineno}: ifft2 with out=")
        elif through_np_fft or (f.attr.startswith(("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"))
                                and f.attr != "fftfreq"):
            bad.append(f"fields.py:{node.lineno}: {ast.unparse(f)}")
    assert not bad, "transforms other than np.fft.fft2/ifft2:\n" + "\n".join(bad)


def _entry_point_names() -> set:
    """The attribute names of the console scripts in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    return {target.rpartition(":")[2] for target in scripts.values()}


def _read_outside_tests() -> set:
    """The names the package, the benchmark and the console script read:
    loaded names and attributes, and the benchmark's strings, from which the
    perfbench tracer resolves names."""
    read = _entry_point_names()
    for folder in (SRC, ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            for n in ast.walk(ast.parse(path.read_text())):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
                elif folder != SRC and isinstance(n, ast.Constant) and isinstance(n.value, str):
                    read.add(n.value)
    return read


def test_every_module_level_definition_is_read_outside_tests():
    # a function or class that only tests read is an oracle, and oracles
    # live in tests/
    read = _read_outside_tests()
    unread = [f"{path.name}:{node.lineno}: {node.name}"
              for path, tree in _trees() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]
    assert not unread, "definitions only tests read:\n" + "\n".join(unread)


def test_every_method_is_read_outside_tests():
    # the same rule for the methods and properties of the package's classes;
    # dunders are called by the language, not read by name
    read = _read_outside_tests()
    unread = [f"{path.name}:{node.lineno}: {cls.name}.{node.name}"
              for path, tree in _trees()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in read]
    assert not unread, "methods only tests read:\n" + "\n".join(unread)
