"""Source hygiene: invariants are never asserts, broad handlers never swallow.

`python -O` strips assert statements, so every certificate must raise an
SSHGError instead.  A handler for Exception, BaseException or a bare except
may only clean up and re-raise.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sshg"
BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


def _reraises(handler: ast.ExceptHandler) -> bool:
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


def test_no_asserts_and_no_swallowing_handlers():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                bad.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.ExceptHandler) and _is_broad(node) and not _reraises(node):
                bad.append(f"{path.name}:{node.lineno}: broad handler without a bare raise")
    assert not bad, "\n".join(bad)
