"""Every function and class defined in the package is used somewhere.

A definition counts as used when its name appears as an identifier or an
attribute in `src/`, `tests/` or `perfbench/`, other than in its own
`def` or `class` line and in an `__all__` list.  Names are matched
without their owner, so a method is kept alive by any attribute of the
same name.  String constants do not count: a dictionary key that
happens to share a function's name is not a call of it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biconsurf"
SCANNED = ("src", "tests", "perfbench")


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


def test_every_definition_is_referenced():
    used, defined = set(), []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            used.update(_references(tree))
            if PACKAGE in path.parents:
                defined += [(path.name, node.name) for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.ClassDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert defined
    assert [f"{mod}: {name}" for mod, name in defined if name not in used] == []
