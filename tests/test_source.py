"""Checks on the package source itself."""

import ast
from pathlib import Path

import diagalg

SOURCE = Path(diagalg.__file__).parent


def test_no_assert_statements():
    """Certificates raise InvariantViolated: an assert would vanish under
    python -O."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
