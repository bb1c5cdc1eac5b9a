"""The names the benchmark's tracer swaps are bound where it swaps them.

``perfbench/tracing.py`` wraps each function of its ``BOUNDARIES`` table in
every module the table lists for it, and its ``grid_size`` reads ``radii``
and ``angles`` off ``cpick.SearchConfig()``.  A refactor that drops one of
these bindings otherwise fails only a traced benchmark run.  The table is
read from the file's syntax tree, so the benchmark is neither imported nor
run here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cpick

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def boundaries() -> dict:
    """``BOUNDARIES`` of ``perfbench/tracing.py``: metric prefix -> (function name, modules)."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no BOUNDARIES")


BINDINGS = [(prefix, name, module) for prefix, (name, modules) in boundaries().items() for module in modules]


@pytest.mark.parametrize("prefix,name,module", BINDINGS, ids=[f"{m}.{n}" for _, n, m in BINDINGS])
def test_each_traced_name_is_the_library_function_in_its_module(prefix, name, module):
    # the metric prefix names the defining module, e.g. "pickmat.constrained_pick"
    defined = getattr(importlib.import_module("cpick." + prefix.split(".")[0]), name)
    assert getattr(importlib.import_module(module), name, None) is defined


def test_the_tracer_reads_the_search_grid_off_a_default_config():
    cfg = cpick.SearchConfig()
    assert all(isinstance(r, float) for r in cfg.radii) and isinstance(cfg.angles, int)
