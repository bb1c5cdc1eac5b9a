"""Construction and verification of interpolants in constrained classes.

An interpolant is represented as f(z) = phi_inverse(lam, (z^d)^m * h(z^d))
with h a Schur function: the inner factor has power-series support inside
the complement of K by choice of (m, d), and post-composing with a disk
automorphism preserves membership, so f lands in the constrained class by
structure.  Construction picks lam by the feasibility search, divides the
transformed targets by the node powers, and solves the residual classical
problem for h.

The three exponent modes have different epistemic weight and the API makes
callers choose one:

  iff         exact criterion, only for K = {1, ..., k}: exponent k+1.
  sufficient  feasibility implies existence for any algebra K: exponent
              max(K)+1 for finite K, scaled for infinite K.
  necessary   existence implies feasibility: exponent = smallest integer
              missing from K.

For non-prefix K the sufficient and necessary exponents differ and neither
is sharp; no sharper criterion is guessed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DomainError,
    Infeasible,
    InvalidConfig,
    InvalidProblem,
    NotFound,
    NotPrefixK,
    NumericalError,
    Unsupported,
)
from .kset import KSpec, is_algebra, smallest_missing, _conductor, _constrained, _integer, _read
from .analytic import SchurFunction, _circle, np_solve, sup_norm_estimate, taylor_coeffs
from .bruno import compose_derivative
from .feasibility import DEFAULT_CONFIG, FeasibilityResult, SearchConfig, find_lambda
from .pickmat import (
    BOUNDARY_TOL, CLASSICAL_PSD_TOL, INTERP_TOL, NORM_TOL, SUP_NORM_RADIUS, SUP_NORM_SAMPLES, TAYLOR_ORDER,
    TAYLOR_RADIUS, TAYLOR_SAMPLES, TAYLOR_TOL, Problem, _complex_array, _mobius, h_data,
)

__all__ = [
    "Interpolant",
    "Tolerances",
    "VerificationReport",
    "NecessaryReport",
    "Mode",
    "exponent_plan",
    "construct",
    "necessary_check",
    "verify_interpolant",
    "roundtrip_generate",
]

Mode = Literal["iff", "sufficient", "necessary"]

# Orders 1 .. 6 of the derivative cross-check.
CROSSCHECK_ORDER = 6

# Node draws before roundtrip_generate gives up: for large d, z^d lies within 0.9^d of 0.
NODE_DRAWS = 10_000


@dataclass(frozen=True)
class Interpolant:
    """Composite representation f(z) = phi_inverse(lam, (z^d)^m * h(z^d)).

    f(0) = lam, the sup norm never exceeds 1, and every Taylor coefficient
    of f at an index constrained by the K the interpolant was built for
    vanishes (the inner support starts at m*d and advances in steps of d).
    An h that is not a ``SchurFunction`` raises ``InvalidProblem``.
    """

    lambda_: complex
    m: int
    d: int
    h: SchurFunction

    def __post_init__(self):
        lam = complex(_complex_array(self.lambda_, "the base value lambda", 0))
        object.__setattr__(self, "lambda_", lam)
        for field in ("m", "d"):
            value = _read(
                getattr(self, field), _integer, InvalidProblem, f"exponent {field!r}", "a positive integer",
                lambda n: n >= 1,
            )
            object.__setattr__(self, field, value)
        if not abs(lam) < 1.0:  # NaN fails too
            raise InvalidProblem("the base value lambda must lie strictly inside the disk")
        if not isinstance(self.h, SchurFunction):
            raise InvalidProblem(f"h must be a SchurFunction, got {type(self.h).__name__}")

    def __call__(self, z):
        z = _complex_array(z, "evaluation point")
        w = _power(np.atleast_1d(z), self.d)  # as in ``SchurFunction``, a scalar runs the array arithmetic
        out = self._outer(w, self.h(w))
        return complex(out[0]) if z.ndim == 0 else out

    def _outer(self, w: np.ndarray, hw: np.ndarray) -> np.ndarray:
        """f from w = z^d and h(w): phi_inverse(lam, w^m h(w)), the one implementation of that formula."""
        return _mobius(-self.lambda_, _power(w, self.m) * hw)


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z**k for an integer k >= 1 by repeated squaring, in array multiplications; z**1 is z itself.

    numpy's complex ``**`` gives the same powers up to rounding, at far more
    cost per element.
    """
    out = None
    while True:
        if k & 1:
            out = z if out is None else out * z
        k >>= 1
        if not k:
            return out
        z = z * z


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for verification, by default ``pickmat``'s ``INTERP_TOL``, ``NORM_TOL`` and ``TAYLOR_TOL``."""

    interp: float = INTERP_TOL
    norm: float = NORM_TOL
    taylor: float = TAYLOR_TOL


@dataclass(frozen=True)
class VerificationReport:
    """Independent re-check of interpolation, norm and membership.

    Its fields are the keys of the CLI's verification report, written by
    ``dataclasses.asdict``, so renaming one renames a report key.

    ``taylor_violations`` lists (index, |coefficient|) for constrained
    indices up to ``TAYLOR_ORDER`` whose coefficient exceeds the tolerance;
    ``passed`` requires all residuals within tolerance, sup norm at most
    1 + tol, no violations, and h's chain in the disk: every node inside the
    open disk, every step value and the tail within ``BOUNDARY_TOL`` of the
    closed one.
    ``derivative_crosscheck`` is the largest disagreement, over orders up to
    6, between f's Taylor coefficients from circle sampling and those from
    the composition-derivative expansion; it is diagnostic and does not gate
    ``passed``.  The expansion takes h's coefficients from circle sampling
    too, from h's samples on the membership circle; what it checks
    independently of the sampling is the composition: the automorphism's
    derivatives, read off lam exactly, and their Faà di Bruno sum with the
    inner factor's.
    """

    residuals: tuple[float, ...]
    sup_norm: float
    taylor_violations: tuple[tuple[int, float], ...]
    passed: bool
    tolerances: Tolerances
    derivative_crosscheck: float


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the necessary-condition check.

    ``certified_negative`` is True only when the search was pinned by a node
    at the origin and still failed: then no interpolant exists in the class,
    by the contrapositive of the necessary criterion.
    """

    passes: bool
    witness: complex | None
    certified_negative: bool
    pinned: bool
    best_min_eigenvalue: float


def _require_algebra(k: KSpec) -> None:
    if not is_algebra(k):
        raise Unsupported("constraint set fails the semigroup criterion")
    if k.d == 1 and not k.gaps:
        raise Unsupported("constraint set is empty")


def _certified_negative(result: FeasibilityResult, mode: Mode) -> bool:
    """Whether a failed search proves that no interpolant exists.

    Only a pinned (exact) search does, and only for a criterion necessary for existence.
    """
    return not result.feasible and result.pinned and mode in ("iff", "necessary")


def _is_prefix(k: KSpec) -> bool:
    return k.d == 1 and bool(k.gaps) and k.gaps == tuple(range(1, len(k.gaps) + 1))


def exponent_plan(k: KSpec, mode: Mode) -> tuple[int, int]:
    """Exponent pair (m, d) for a mode; the matrix uses E = m*d.

    iff:        K must equal {1, ..., k}; then (k+1, 1).
    sufficient: finite K gives (max(K)+1, 1).  Infinite K substitutes V=z^d
                and uses m = max(n1+1, conductor) with n1 the smallest
                scaled complement element: n1+1 alone would let the inner
                support hit scaled gaps above n1, breaking membership, so
                the conductor is enforced as a floor (equal to n1+1 whenever
                the semigroup has no gaps past n1).
    necessary:  m = smallest positive integer not in K, divided by d.
    """
    _require_algebra(k)
    if mode == "iff":
        if not _is_prefix(k):
            raise NotPrefixK("the biconditional criterion requires K = {1, ..., k}")
        return (k.gaps[-1] + 1, 1)
    if mode == "sufficient":
        if k.d == 1:
            return (k.gaps[-1] + 1, 1)
        return (max(smallest_missing(k) // k.d + 1, _conductor(k)), k.d)
    if mode == "necessary":
        return (smallest_missing(k) // k.d, k.d)
    raise InvalidConfig(f"mode must be 'iff', 'sufficient' or 'necessary', got {mode!r}")


def construct(
    problem: Problem,
    k: KSpec,
    mode: Literal["iff", "sufficient"],
    cfg: SearchConfig | None = None,
) -> Interpolant:
    """Build an interpolant in the constrained class, or raise ``NotFound``.

    Runs the feasibility search at the mode's exponents; on success the
    targets transform to h-data v_i = phi(lam, w_i) / z_i^(m*d) on the d-th
    powers of the nodes by ``pickmat.h_data`` (a node at the origin is
    absorbed by the pinned lam and dropped), and the classical solver
    produces h.  Where a node power underflows, or the solver refuses the
    h-data at the search's lam, the uncertified ``NotFound`` carries the
    reason.  A ``NotFound`` from iff mode with a pinned parameter is a
    certified nonexistence result; from sufficient mode it is inconclusive.
    """
    if mode not in ("iff", "sufficient"):
        raise InvalidConfig(f"construction mode must be 'iff' or 'sufficient', got {mode!r}")
    cfg = cfg or DEFAULT_CONFIG
    m, d = exponent_plan(k, mode)
    E = m * d
    result = find_lambda(problem, E, d, cfg)
    if not result.feasible:
        raise NotFound(
            f"no feasible parameter found (best eigenvalue {result.best_min_eigenvalue:.3e})",
            result=result,
            certified=_certified_negative(result, mode),
        )
    try:
        h_nodes, h_values = h_data(problem, result.lambda_, E, d)
        h = np_solve(h_nodes, h_values, tol=max(cfg.tol, CLASSICAL_PSD_TOL))
    except (NumericalError, Infeasible, DomainError) as exc:  # no h-data at lam, or np_solve refused them
        raise NotFound(str(exc), result=result) from exc
    return Interpolant(lambda_=result.lambda_, m=m, d=d, h=h)


def necessary_check(problem: Problem, k: KSpec, cfg: SearchConfig | None = None) -> NecessaryReport:
    """Run the necessary criterion: any interpolant forces a feasible lam.

    Passing says nothing for non-prefix K (the condition is necessary, not
    sufficient).  Failing with a pinned parameter certifies that the class
    contains no interpolant for this data.
    """
    m, d = exponent_plan(k, "necessary")
    result = find_lambda(problem, m * d, d, cfg)
    return NecessaryReport(
        passes=result.feasible,
        witness=result.lambda_,
        certified_negative=_certified_negative(result, "necessary"),
        pinned=result.pinned,
        best_min_eigenvalue=result.best_min_eigenvalue,
    )


def _crosscheck_derivatives(f: Interpolant, coeffs, h_coeffs) -> float:
    """Compare sampled Taylor coefficients against the composition expansion.

    The inner factor u(z) = z^(m d) h(z^d) has derivative j! * c_t(h) at
    order j = m*d + t*d and zero elsewhere; composing with the automorphism
    phi_inverse(lam, .) whose derivatives at 0 are i! (-conj lam)^(i-1)
    (1 - |lam|^2) gives a second, independent route to f^(k)(0).
    ``h_coeffs`` are h's sampled coefficients c_0 .. c_((6 - m*d) // d),
    empty when m*d exceeds the compared orders.  Below order m*d, u vanishes
    to that order, every Faà di Bruno sum is exactly 0, and the disagreement
    there is |c_k|, taken without forming the sums, with the bits that
    forming them gives; a NaN |c_k| counts at no order either way.
    """
    E = f.m * f.d
    first_sum = min(E, CROSSCHECK_ORDER + 1)  # the lowest order whose sum can be nonzero
    worst = max([0.0, *(abs(c) for c in coeffs[1:first_sum])])
    if first_sum > CROSSCHECK_ORDER:
        return worst
    u_derivs = [0j] * (CROSSCHECK_ORDER + 1)
    for t, c in enumerate(h_coeffs):
        j = E + t * f.d
        u_derivs[j] = math.factorial(j) * c
    lam = f.lambda_
    g_derivs = [lam] + [
        math.factorial(i) * (-lam.conjugate()) ** (i - 1) * (1.0 - abs(lam) ** 2)
        for i in range(1, CROSSCHECK_ORDER + 1)
    ]
    for order in range(first_sum, CROSSCHECK_ORDER + 1):
        via_bruno = compose_derivative(g_derivs, u_derivs, order) / math.factorial(order)
        worst = max(worst, abs(via_bruno - coeffs[order]))
    return worst


def verify_interpolant(f: Interpolant, problem: Problem, k: KSpec) -> VerificationReport:
    """Re-check interpolation residuals, sup norm and membership.

    Residuals come from f at all nodes, the norm from the circle of
    ``SUP_NORM_RADIUS`` and membership from the Taylor coefficients of the
    circle of ``TAYLOR_RADIUS``, at every constrained index up to
    ``TAYLOR_ORDER``; ``pickmat``'s table gives the bounds that set them.
    The derivative cross-check reads h's coefficients off the same samples:
    h(z^d) there carries h's t-th coefficient at index t*d, at most
    ``CROSSCHECK_ORDER``, where roundoff grows by at most ``TAYLOR_RADIUS``
    ** -``CROSSCHECK_ORDER``, about 1.9.

    All of these come from one pass of h's Schur chain, whatever the number
    of nodes: the two circles and the nodes are raised to the power d
    together, h is evaluated once on that array by ``SchurFunction._eval``,
    without the closed-disk check of a call, as every point lies inside the
    disk, and f is formed from it once; the samplers read its slices.  Every
    value has the bits a separate evaluation of f or h at those points
    gives, so the report is the one three evaluations of f and one of h
    would give.  Every check uses the default ``Tolerances``, whatever
    ``f.h.low_confidence`` says, so an artifact cannot loosen its own check.
    ``passed`` also requires h's chain to lie in the disk, which every chain
    ``np_solve`` builds does: a node off the open disk, or a value or tail
    off the closed one, can give h a pole inside the disk that the residuals
    and both circles miss.  Always returns a report: ``Interpolant`` refuses
    an h that is not a ``SchurFunction``.
    """
    tol = Tolerances()
    E = f.m * f.d
    circles = (_circle(SUP_NORM_RADIUS, SUP_NORM_SAMPLES), _circle(TAYLOR_RADIUS, TAYLOR_SAMPLES))
    points = np.concatenate((*circles, np.array(problem.nodes)))
    w = _power(points, f.d)
    hw = f.h._eval(w)  # every point is inside the disk: no check
    fw = f._outer(w, hw)
    taylor = slice(SUP_NORM_SAMPLES, SUP_NORM_SAMPLES + TAYLOR_SAMPLES)  # the Taylor circle's slice of the points
    sup_vals, taylor_vals, node_vals = fw[: taylor.start], fw[taylor], fw[taylor.stop :]

    residuals = tuple(np.abs(node_vals - np.array(problem.targets)).tolist())
    sup = sup_norm_estimate(sup_vals)
    coeffs = taylor_coeffs(taylor_vals, TAYLOR_ORDER, TAYLOR_RADIUS)
    violations = tuple(
        (j, abs(coeffs[j]))
        for j in _constrained(k, TAYLOR_ORDER)
        if not abs(coeffs[j]) <= tol.taylor  # a NaN coefficient violates too
    )
    h_coeffs = ()
    if E <= CROSSCHECK_ORDER:
        h_coeffs = taylor_coeffs(hw[taylor], CROSSCHECK_ORDER - E, TAYLOR_RADIUS)[:: f.d]
    cross = _crosscheck_derivatives(f, coeffs, h_coeffs)
    # a chain off the disk can match its nodes and read a sup norm under 1 with a singularity inside
    edge = 1.0 + BOUNDARY_TOL
    in_disk = abs(f.h.tail) <= edge and all(abs(a) < 1.0 and abs(v) <= edge for a, v in f.h.steps)
    passed = (
        all(r <= tol.interp for r in residuals)
        and sup <= 1.0 + tol.norm
        and not violations
        and in_disk
    )
    return VerificationReport(
        residuals=residuals,
        sup_norm=sup,
        taylor_violations=violations,
        passed=passed,
        tolerances=tol,
        derivative_crosscheck=cross,
    )


def roundtrip_generate(k: KSpec, n: int, seed: int) -> tuple[Problem, Interpolant]:
    """Deterministically sample a problem together with a solving interpolant.

    Draws lam, a Schur function (product of up to three Blaschke factors
    scaled by 0.9), and well-separated nodes with distinct d-th powers, then
    reads the targets off the interpolant so the instance is feasible by
    construction, or raises ``InvalidProblem`` if ``NODE_DRAWS`` draws do not
    give n such nodes.  The returned h is refit through the classical solver
    so the interpolant carries the standard chain representation.
    """
    _require_algebra(k)
    if not 1 <= n <= 8:
        raise InvalidProblem(f"round-trip size must lie in [1, 8], got {n}")
    m, d = exponent_plan(k, "sufficient")
    E = m * d
    rng = np.random.default_rng(seed)

    def disk_sample(radius: float) -> complex:
        r = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        return complex(r * np.exp(1j * theta))

    lam = disk_sample(0.7)
    factors = [disk_sample(0.8) for _ in range(int(rng.integers(1, 4)))]

    def h_true(v: complex) -> complex:
        out = 0.9
        for a in factors:
            out *= _mobius(a, v)
        return complex(out)

    nodes: list[complex] = []
    for _ in range(NODE_DRAWS):
        if len(nodes) == n:
            break
        z = disk_sample(0.9)
        powers = [w**d for w in nodes]
        if all(abs(z - w) >= 0.05 for w in nodes) and all(abs(z**d - p) >= 0.05 for p in powers):
            nodes.append(z)
    if len(nodes) < n:
        raise InvalidProblem(f"no {n} nodes with d-th powers 0.05 apart in {NODE_DRAWS} draws (d={d}, n={n})")

    h_at_nodes = [h_true(z**d) for z in nodes]
    targets = [complex(_mobius(-lam, z**E * hv)) for z, hv in zip(nodes, h_at_nodes)]
    problem = Problem(nodes=tuple(nodes), targets=tuple(targets))
    h = np_solve([z**d for z in nodes], h_at_nodes)
    return problem, Interpolant(lambda_=lam, m=m, d=d, h=h)
