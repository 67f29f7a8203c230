"""Checks on the package source itself."""

import ast
from pathlib import Path

import diagalg

SOURCE = Path(diagalg.__file__).parent


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    """Certificates raise InvariantViolated: an assert would vanish under
    python -O, and a bare AssertionError would not name the failed check."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, f"assert or raise AssertionError in the package: {found}"
