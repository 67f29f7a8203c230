"""Checks on the package source itself."""

import ast
import importlib
import re
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


def _docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _references(stmt):
    """Identifiers a statement refers to: names, attributes, imported names,
    and identifier-like words in string constants other than docstrings
    (the benchmark's layer table names functions by string)."""
    docstrings = {id(node.value) for node in ast.walk(stmt) if _docstring(node)}
    words = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return words


def _statements():
    """(path, module-level statement) over the package, the tests and the
    benchmark."""
    root = SOURCE.parents[1]
    for base in (root / "src", Path(__file__).parent, root / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                yield path, stmt


def test_every_module_level_name_is_used():
    """Every module-level function and class of the package is referenced
    outside its own definition, somewhere in the package, the tests or the
    benchmark."""
    defined = []
    used = set()
    for path, stmt in _statements():
        refs = _references(stmt)
        if path.parent == SOURCE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.append(f"{path.stem}.{stmt.name}")
            refs.discard(stmt.name)
        used |= refs
    dead = [name for name in defined if name.split(".", 1)[1] not in used]
    assert not dead, f"module-level names nothing refers to: {dead}"


def _called_implicitly(cls, name):
    """Dunder methods and overrides of a base class's method are reached
    through the protocol or the base class, not by their name."""
    return (name.startswith("__") and name.endswith("__")
            or any(name in vars(base) for base in cls.__mro__[1:]))


def test_every_method_is_used():
    """Every method defined on a package class is referenced by name outside
    its own definition, somewhere in the package, the tests or the
    benchmark."""
    defined = []
    used = set()
    for path, stmt in _statements():
        if path.parent != SOURCE or not isinstance(stmt, ast.ClassDef):
            used |= _references(stmt)
            continue
        cls = getattr(importlib.import_module(f"diagalg.{path.stem}"), stmt.name)
        for node in stmt.bases + stmt.keywords + stmt.decorator_list:
            used |= _references(node)
        for item in stmt.body:
            refs = _references(item)
            if isinstance(item, ast.FunctionDef) and not _called_implicitly(cls, item.name):
                defined.append(f"{path.stem}.{stmt.name}.{item.name}")
                refs.discard(item.name)
            used |= refs
    dead = [name for name in defined if name.rsplit(".", 1)[1] not in used]
    assert not dead, f"methods nothing refers to: {dead}"


def test_every_export_is_reached_outside_the_tests():
    """Every name the package's ``__init__`` imports is referenced somewhere
    in the package outside its own definition and ``__init__``, or in the
    benchmark: an export that only its own tests reach is a dead wrapper."""
    init = SOURCE / "__init__.py"
    exported = [alias.asname or alias.name for stmt in ast.parse(init.read_text()).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    used = set()
    paths = [path for path in sorted(SOURCE.glob("*.py")) if path != init]
    for path in paths + sorted((SOURCE.parents[1] / "perfbench").rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _references(stmt)
            if path.parent == SOURCE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            used |= refs
    unreached = [name for name in exported if name not in used]
    assert not unreached, f"exports only the tests reach: {unreached}"
