"""Every name a library module imports is used there or re-exported through ``__all__``.

A stale import hides a dependency that is gone, and the benchmark's tracing
patches names in the module that imports them, so an import kept for nothing
would be traced for nothing.  No linter ships with the test dependencies, so
the check reads each module's syntax tree with the standard library.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cpick"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_left_behind_is_reported():
    source = "from .kset import complement_structure, smallest_missing\n\nsmallest_missing(k)\n"
    assert unused_imports(source) == ["complement_structure (line 1)"]
    assert unused_imports('from .kset import KSpec\n\n__all__ = ["KSpec"]\n') == []
