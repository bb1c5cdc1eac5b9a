"""Search for a Möbius parameter making the constrained Pick matrix PSD.

Feasibility of a constrained interpolation problem is an existential
statement over a disk parameter lam.  When some node sits at the origin the
parameter is pinned exactly (any interpolant satisfies f(0) = target), so a
single evaluation settles the question up to the PSD tolerance.  Otherwise
the feasible region has no known description and the search is heuristic:
a coarse polar grid followed by a derivative-free simplex refinement of the
smallest eigenvalue.  A positive answer carries a verifiable witness; a
negative answer is evidence only, except in the pinned case.

A search builds one ``pickmat.PickBuilder`` and reads every objective value
from it.  Its verdict is ``psd_check`` of one matrix, and the
``best_min_eigenvalue`` it reports is that verdict's eigenvalue: without a
pinned node the matrix is ``constrained_pick``'s at the chosen parameter;
with one, it is the block left after removing the pinned node's row and
column, which vanish exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidConfig
from .kset import _integer
from .pickmat import PickBuilder, Problem, constrained_pick, psd_check

__all__ = [
    "SearchConfig",
    "FeasibilityResult",
    "find_lambda",
]

DEFAULT_RADII = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
# Witnesses are kept strictly inside the disk; the criterion requires it.
LAMBDA_CLAMP = 0.999


def _real(value) -> float:
    """``value`` as a float; a boolean or a string raises ``TypeError`` where ``float`` would cast or parse it."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


@dataclass(frozen=True)
class SearchConfig:
    """Grid and refinement parameters for the parameter search.

    Every field is converted and checked here, whether it comes from the
    constructor, ``from_json`` or ``dataclasses.replace``; a field of the
    wrong type or range raises ``InvalidConfig``.
    """

    radii: tuple[float, ...] = DEFAULT_RADII
    angles: int = 64
    refine_iters: int = 200
    tol: float = 1e-8

    def __post_init__(self):
        try:
            # + 0.0 turns a -0.0 radius into 0.0: configs that compare equal share one grid
            radii = tuple(_real(r) + 0.0 for r in self.radii)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"'radii' must be a list of numbers, got {self.radii!r}") from exc
        object.__setattr__(self, "radii", radii)
        if not radii or any(not 0.0 <= r < 1.0 for r in radii):
            raise InvalidConfig(f"'radii' must be nonempty and lie in [0, 1), got {radii}")
        try:
            object.__setattr__(self, "tol", _real(self.tol))
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"tolerance 'tol' must be a number, got {self.tol!r}") from exc
        for field in ("angles", "refine_iters"):
            value = getattr(self, field)
            try:
                object.__setattr__(self, field, _integer(value))
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(f"{field!r} must be an integer, got {value!r}") from exc
        if self.angles < 1:
            raise InvalidConfig(f"need at least one angle, got {self.angles}")
        if self.refine_iters < 0:
            raise InvalidConfig(f"refinement iterations must be nonnegative, got {self.refine_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidConfig(f"tolerance 'tol' must be finite and nonnegative, got {self.tol}")

    def to_json(self) -> dict:
        return {
            "radii": list(self.radii),
            "angles": self.angles,
            "refine_iters": self.refine_iters,
            "tol": self.tol,
        }

    @staticmethod
    def from_json(obj: dict) -> "SearchConfig":
        if not isinstance(obj, dict):
            raise InvalidConfig(f"search config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(SearchConfig)}
        if unknown:
            raise InvalidConfig(f"unknown search config keys: {sorted(unknown)}")
        return SearchConfig(**obj)


# Shared by every search given no config; frozen, so sharing is safe.
DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a parameter search.

    ``feasible`` is ``psd_check``'s verdict at the search tolerance on one
    matrix, and ``best_min_eigenvalue`` is the smallest eigenvalue it judged.
    ``pinned`` marks the exact single-point search forced by a node at the
    origin; its matrix is the constrained Pick matrix at the pinned parameter
    without that node's row and column, which vanish there (no matrix and
    0.0 when no other node is left).  ``psd_check(constrained_pick(<the
    nodes other than 0>, <their targets>, lam, E, d), tol)`` at the pinned
    lam re-judges it exactly, its entries being the block's bit for bit; the
    full matrix's zero eigenvalue can compute negative.  Otherwise the
    matrix is ``constrained_pick``'s at the best parameter found.  Only a pinned
    negative can be certified, and only for a necessary criterion.
    ``lambda_`` is present exactly when ``feasible``.
    ``evaluations`` counts every grid point, each ranked whether or not its
    bound ruled out an eigensolve, plus every simplex trial the simplex used.
    """

    feasible: bool
    lambda_: complex | None
    best_min_eigenvalue: float
    evaluations: int
    pinned: bool


@functools.lru_cache(maxsize=8)
def _grid_points(radii: tuple[float, ...], angles: int) -> np.ndarray:
    """The polar grid as one read-only array in (radius, angle) order.

    A point equal to one already listed is dropped.  Cached: equal arguments
    return the same array, which is why it cannot be written to.
    """
    points = dict.fromkeys(complex(r * np.exp(2j * np.pi * ai / angles)) for r in radii for ai in range(angles))
    a = np.array(list(points))
    a.flags.writeable = False
    return a


def _clamp(x: float, y: float) -> tuple[float, float]:
    """The point (x, y) pulled radially onto modulus ``LAMBDA_CLAMP`` if it lies outside.

    CPython computes ``abs(complex(x, y))`` with C's ``hypot``, the libm
    function ``np.hypot`` calls, so the clamp decides bit for bit as
    ``np.hypot`` would.  NaN compares false and passes through unclamped.
    """
    r = abs(complex(x, y))
    return (x * (LAMBDA_CLAMP / r), y * (LAMBDA_CLAMP / r)) if r > LAMBDA_CLAMP else (x, y)


def find_lambda(problem: Problem, E: int, d: int, cfg: SearchConfig | None = None) -> FeasibilityResult:
    """Search the disk for a parameter with a PSD constrained Pick matrix.

    A node at the origin pins the parameter to its target (at most one node
    can be zero), collapsing the search to a single exact evaluation: one
    ``psd_check`` of the block left after removing that node's row and
    column, which vanish at the pinned parameter.
    Otherwise all grid candidates radius x angle (exact duplicates dropped,
    built once per config) are ranked by ``PickBuilder.min_eigenvalue_bounds``.
    The three with the largest bounds are scored by the smallest-eigenvalue
    objective, then every other point whose bound is not below the smallest
    of those three values; a point skipped has value at most its bound, so
    it cannot be among the three best, which are the full grid's.  They
    start a reflection/contraction simplex capped at ``cfg.refine_iters``
    iterations with trial points clamped to modulus 0.999.  Each iteration
    scores its reflection and contraction in one stacked eigensolve.
    ``evaluations`` counts every grid point, scored or ruled out by its
    bound, and every simplex trial the simplex uses; a contraction scored
    alongside an accepted reflection is not counted.
    The verdict is ``psd_check`` of ``constrained_pick`` at the best point,
    which judges the value the simplex reports.  Fully deterministic for a
    fixed config; grid ties resolve to the smallest (radius index, angle
    index).
    """
    cfg = cfg or DEFAULT_CONFIG
    pick = PickBuilder(problem, E, d)
    if 0 in problem.nodes:
        # At lam = w_0 the pinned node's row and column vanish exactly, so the
        # matrix is PSD exactly when the block without them is; that block gives
        # both the verdict and the value reported, in one eigensolve.
        origin = problem.nodes.index(0)
        lam = problem.targets[origin]
        keep = [i for i in range(problem.n) if i != origin]
        feasible, best = True, 0.0
        if keep:
            verdict = psd_check(pick.entries(lam).take(keep, 0).take(keep, 1), cfg.tol)
            feasible, best = verdict.is_psd, verdict.min_eigenvalue
        return FeasibilityResult(
            feasible=feasible,
            lambda_=lam if feasible else None,
            best_min_eigenvalue=best,
            evaluations=1,
            pinned=True,
        )

    points = _grid_points(cfg.radii, cfg.angles)
    evaluations = len(points)

    # A point whose bound is below the third-best value seen cannot reach the
    # top three: its value is at most its bound.  A NaN bound is never below.
    bounds = pick.min_eigenvalue_bounds(points)
    by_bound = np.argsort(-bounds, kind="stable")
    first, others = by_bound[:3], by_bound[3:]
    first_values = pick.min_eigenvalues(points[first])
    rest = others[~(bounds[others] < np.min(first_values))]
    scored = np.concatenate([first, rest])
    values = np.concatenate([first_values, pick.min_eigenvalues(points[rest])])
    # grid indices follow (radius, angle) order, which breaks ties in value
    ranked = np.lexsort((scored, -values))[:3]
    top = scored[ranked]
    best_obj, best_lam = float(values[ranked[0]]), complex(points[top[0]])

    def solve(*xys: tuple[float, float]) -> list[float]:
        """The objective at each vertex, in one stacked eigensolve; nothing is recorded."""
        return pick.min_eigenvalues(np.array([complex(x, y) for x, y in xys])).tolist()

    def record(xy: tuple[float, float], val: float) -> float:
        """Count a scored vertex the simplex uses, and keep it if it is the best so far."""
        nonlocal best_obj, best_lam, evaluations
        evaluations += 1
        if val > best_obj:
            best_obj, best_lam = val, complex(*xy)
        return val

    simplex = [(float(points[i].real), float(points[i].imag)) for i in top]
    x0, y0 = simplex[0]
    # degenerate user grids: pad around the best point
    simplex += [(x0 + 0.01, y0 + 0.0), (x0 + 0.0, y0 + 0.01)][len(simplex) - 1 :]
    simplex = [_clamp(x, y) for x, y in simplex]
    vals = [record(xy, val) for xy, val in zip(simplex, solve(*simplex))]
    for _ in range(cfg.refine_iters):
        order = sorted(range(3), key=lambda i: -vals[i])
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        (x0, y0), (x1, y1), (x2, y2) = simplex
        # Loosening this stop (1e-9, say) moves lam, and acceptance criterion 5
        # then fails: np_solve refuses the lam it would choose.  It carries that
        # weight until the search judges PSD on the scale np_solve uses
        # (ROADMAP item 1).
        if max(abs(x0 - x1), abs(y0 - y1), abs(x0 - x2), abs(y0 - y2)) < 1e-12:
            break
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        reflected = _clamp(cx + (cx - x2), cy + (cy - y2))
        contracted = _clamp(cx + 0.5 * (x2 - cx), cy + 0.5 * (y2 - cy))
        f_r, f_c = solve(reflected, contracted)
        record(reflected, f_r)
        if f_r > vals[0]:
            expanded = _clamp(cx + 2.0 * (cx - x2), cy + 2.0 * (cy - y2))
            f_e = record(expanded, pick.min_eigenvalue(complex(*expanded)))
            simplex[2], vals[2] = (expanded, f_e) if f_e > f_r else (reflected, f_r)
        elif f_r > vals[1]:
            simplex[2], vals[2] = reflected, f_r
        elif record(contracted, f_c) > vals[2]:  # only now is the contraction used
            simplex[2], vals[2] = contracted, f_c
        else:
            shrunk = [_clamp(x0 + 0.5 * (x - x0), y0 + 0.5 * (y - y0)) for x, y in simplex[1:]]
            simplex[1:] = shrunk
            vals[1:] = [record(xy, val) for xy, val in zip(shrunk, solve(*shrunk))]

    verdict = psd_check(constrained_pick(problem.nodes, problem.targets, best_lam, E, d), cfg.tol)
    return FeasibilityResult(
        feasible=verdict.is_psd,
        lambda_=best_lam if verdict.is_psd else None,
        best_min_eigenvalue=best_obj,
        evaluations=evaluations,
        pinned=False,
    )
