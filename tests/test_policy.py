"""Every verdict threshold is defined once, in the table at the top of ``pickmat``.

A float bound to a module-level name, or given to a dataclass field as its
default, is a tolerance, radius or slack; in a module other than ``pickmat``
it would be a second owner of how strict cpick's numerics are.  As in
``test_imports``, the check reads each module's syntax tree with the standard
library.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cpick"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "pickmat.py"))
# The search heuristic's clamp on its simplex trials: not a verdict threshold,
# and it goes with the grid and simplex once a convex search replaces them.
ALLOWED = {"feasibility.py": ["LAMBDA_CLAMP"]}


def _has_float(node) -> bool:
    return any(isinstance(n, ast.Constant) and isinstance(n.value, float) for n in ast.walk(node))


def float_bindings(source: str) -> list[str]:
    """Module-level names bound to an expression with a float literal, and dataclass fields defaulting to one."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _has_float(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            found += [
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and "ClassVar" not in ast.unparse(stmt.annotation)  # a class constant, not a field
                and _has_float(stmt.value)
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_pickmat_binds_a_float(path):
    assert float_bindings(path.read_text(encoding="utf-8")) == ALLOWED.get(path.name, [])


def test_a_threshold_outside_the_table_is_reported():
    assert float_bindings("OVERSHOOT_TOL = 1e-9\nLIMIT: float = -0.5\nN = 16\n") == ["OVERSHOOT_TOL", "LIMIT"]
    source = (
        "@dataclass(frozen=True)\nclass Tolerances:\n"
        "    grid: ClassVar[tuple[float, ...]] = (0.5,)\n    interp: float = 1e-7\n    norm: float = NORM_TOL\n"
    )
    assert float_bindings(source) == ["Tolerances.interp"]
    assert float_bindings("def f():\n    x = 0.5\n    return x\n") == []
