"""Every function and class defined in the package is used by the package.

A definition counts as used when its name appears as an identifier or an
attribute in `src/`, other than in its own `def` or `class` line and in
an `__all__` list: a definition that only `tests/` or `perfbench/` reach
belongs with them.  Names are matched without their owner, so a method
is kept alive by any attribute of the same name.  String constants do
not count: a dictionary key that happens to share a function's name is
not a call of it.  Likewise every field of a dataclass defined in the
package is read as an attribute somewhere in `src/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biconsurf"

# name -> why the package keeps it although only tests and the benchmark reach it
ALLOWED = {"h0_inverse": "wrapped by name in perfbench/tracing.py",
           "solve_ode": "wrapped by name in perfbench/tracing.py"}

# dataclass field -> why the package keeps it although only tests and the benchmark read it
ALLOWED_FIELDS = {"normal": "TestSphereNormals pins the oracle's normal",
                  "turn": "OdeSolution stays with the stepper for the tracer, item 16"}


def _references(tree):
    """Identifiers and attribute names used in a module, outside `__all__`."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _used(*tops):
    return {name for top in tops for path in sorted((ROOT / top).rglob("*.py"))
            for name in _references(ast.parse(path.read_text()))}


def _attributes_read(top):
    """Attribute names loaded anywhere under `top`."""
    return {node.attr for path in sorted((ROOT / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _dataclass_fields():
    """(module, class, field) of every annotated field of a dataclass in the package."""
    return [(path.name, node.name, stmt.target.id) for path in sorted(PACKAGE.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def test_every_dataclass_field_is_read():
    fields = _dataclass_fields()
    assert fields
    read = _attributes_read("src")
    assert [f"{mod}: {cls}.{name}" for mod, cls, name in fields
            if name not in read and name not in ALLOWED_FIELDS] == []
    # an allowed field is still a field, still unread here, and still read outside
    outside = _attributes_read("tests") | _attributes_read("perfbench")
    names = {name for _, _, name in fields}
    assert [name for name in ALLOWED_FIELDS if name not in names
            or name in read or name not in outside] == []


def test_every_definition_is_referenced():
    defined = [(path.name, node.name) for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert defined
    used = _used("src")
    assert [f"{mod}: {name}" for mod, name in defined
            if name not in used and name not in ALLOWED] == []
    # an allowed name is still defined, still unused here, and still used outside
    outside = _used("tests", "perfbench")
    assert [name for name in ALLOWED if name in used or name not in outside
            or name not in {n for _, n in defined}] == []
