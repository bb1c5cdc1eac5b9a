"""Spans around cpick's public functions, and the per-layer metrics they give.

The traced run swaps each public function for a wrapper in the namespace
it is called through (``cpick.interp.find_lambda`` is the name ``construct``
calls, ``cpick.find_lambda`` the one the benchmark calls), records a span
per call and restores the originals afterwards.  Spans carry the operation
id, the enclosing span and, for the search, the ``FeasibilityResult``, so
self time and work counts come from the same records.  The untraced run
never enters ``patched`` and runs the library unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

from instances import reject_reasons

# layer metric prefix -> (function name, modules whose binding is swapped)
BOUNDARIES = {
    "feasibility.find_lambda": ("find_lambda", ("cpick", "cpick.interp", "cpick.cli")),
    "pickmat.constrained_pick": ("constrained_pick", ("cpick.feasibility",)),
    "pickmat.psd_check": ("psd_check", ("cpick.feasibility",)),
    "analytic.np_solve": ("np_solve", ("cpick.interp",)),
    "analytic.sup_norm_estimate": ("sup_norm_estimate", ("cpick.interp",)),
    "analytic.taylor_coeffs": ("taylor_coeffs", ("cpick.interp",)),
    "bruno.compose_derivative": ("compose_derivative", ("cpick.interp",)),
    "interp.construct": ("construct", ("cpick", "cpick.cli")),
    "interp.verify_interpolant": ("verify_interpolant", ("cpick", "cpick.cli")),
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "result")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = start
        self.error = None
        self.result = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` names the operation in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._open[-1] if self._open else None, time.process_time_ns())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.process_time_ns()
                self._open.pop()

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap every boundary for its traced wrapper; restore on exit."""
    saved = []
    try:
        for name, (attr, modules) in BOUNDARIES.items():
            for modname in modules:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def grid_size(cfg) -> int:
    """Distinct grid points of a search config, enumerated as the search does."""
    return len({complex(r * np.exp(2j * np.pi * ai / cfg.angles)) for r in cfg.radii for ai in range(cfg.angles)})


def layer_metrics(spans: list[Span], ops: int, passes: int, grid: int) -> dict[str, float]:
    """Per-layer counts and times from one traced phase.

    ``.calls`` is calls per workload operation, ``.ms`` the mean inclusive
    CPU milliseconds per call and ``.self_ms`` the mean per call minus the
    traced calls inside it.  Search counts are over non-pinned searches;
    reject counts are per pass over the pool.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.ns
    by_name: dict[str, list[int]] = {name: [] for name in BOUNDARIES}
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    out: dict[str, float] = {}

    def share(a, b):
        return a / b if b else 0.0

    for name in BOUNDARIES:
        idx = by_name[name]
        out[f"{name}.calls"] = share(len(idx), ops)
        out[f"{name}.ms"] = share(sum(spans[i].ns for i in idx), len(idx)) / 1e6
        out[f"{name}.self_ms"] = share(sum(spans[i].ns - child_ns[i] for i in idx), len(idx)) / 1e6

    searches = [spans[i] for i in by_name["feasibility.find_lambda"] if spans[i].result is not None]
    free = [s for s in searches if not s.result.pinned]
    evals = sum(s.result.evaluations for s in free)
    out["feasibility.evals_per_call"] = share(evals, len(free))
    out["feasibility.grid_evals_per_call"] = float(grid) if free else 0.0
    out["feasibility.refine_evals_per_call"] = out["feasibility.evals_per_call"] - out["feasibility.grid_evals_per_call"]
    out["feasibility.us_per_eval"] = share(sum(s.ns for s in free), evals) / 1e3
    out["feasibility.pinned_share"] = share(len(searches) - len(free), len(searches))
    out["feasibility.found_ratio"] = share(sum(s.result.feasible for s in searches), len(searches))

    solves = [spans[i] for i in by_name["analytic.np_solve"]]
    out["analytic.np_solve.fail_ratio"] = share(sum(s.error in ("Infeasible", "DomainError") for s in solves), len(solves))

    rejects = {"residual": 0, "norm": 0, "taylor": 0}
    for i in by_name["interp.verify_interpolant"]:
        if spans[i].result is not None:
            for reason in reject_reasons(spans[i].result):
                rejects[reason] += 1
    for key, count in rejects.items():
        out[f"interp.verify.{key}_rejects"] = share(count, passes)
    return out
