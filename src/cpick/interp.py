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

from .errors import InvalidProblem, NotFound, NotPrefixK, Unsupported
from .kset import KSpec, contains, is_algebra, smallest_missing, _conductor, _integer
from .analytic import SchurFunction, np_solve, sup_norm_estimate, taylor_coeffs
from .bruno import compose_derivative
from .feasibility import DEFAULT_CONFIG, FeasibilityResult, SearchConfig, find_lambda
from .pickmat import CLASSICAL_PSD_TOL, Problem, _mobius

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

# Targets pushed marginally outside the closed disk by a near-singular
# feasibility certificate are projected back; anything worse is an error.
TARGET_CLAMP_SLACK = 1e-6

# The derivative cross-check compares orders 1 .. 6, sampling h at N points on
# the radius-1/2 circle for h's coefficients up to index (6 - m*d) // d <= 5,
# so taylor_coeffs needs N >= 4 * 5.  For |h| <= 1 the aliasing error in each
# coefficient is at most 2^-N / (1 - 2^-N), below 2^-52 at N = 64 (Bornemann,
# Found. Comput. Math. 2011); more samples only cost evaluations.
CROSSCHECK_ORDER = 6
CROSSCHECK_SAMPLES = 64

# Node draws before roundtrip_generate gives up: for large d, z^d lies within 0.9^d of 0.
NODE_DRAWS = 10_000


@dataclass(frozen=True)
class Interpolant:
    """Composite representation f(z) = phi_inverse(lam, (z^d)^m * h(z^d)).

    f(0) = lam, the sup norm never exceeds 1, and every Taylor coefficient
    of f at an index constrained by the K the interpolant was built for
    vanishes (the inner support starts at m*d and advances in steps of d).
    """

    lambda_: complex
    m: int
    d: int
    h: SchurFunction

    def __post_init__(self):
        for field in ("m", "d"):
            value = getattr(self, field)
            try:
                object.__setattr__(self, field, _integer(value))
            except (TypeError, ValueError) as exc:
                raise InvalidProblem(f"exponent {field!r} must be an integer, got {value!r}") from exc
        if self.m < 1 or self.d < 1:
            raise InvalidProblem(f"exponents must be positive, got m={self.m}, d={self.d}")
        if not abs(self.lambda_) < 1.0:  # NaN fails too
            raise InvalidProblem("the base value lambda must lie strictly inside the disk")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = np.atleast_1d(z) ** self.d  # as in ``SchurFunction``, a scalar runs the array arithmetic
        out = _mobius(-complex(self.lambda_), w**self.m * self.h(w))
        return complex(out[0]) if z.ndim == 0 else out


@dataclass(frozen=True)
class Tolerances:
    """Acceptance thresholds for verification."""

    interp: float = 1e-7
    norm: float = 1e-6
    taylor: float = 1e-7

    def widened(self, factor: float) -> "Tolerances":
        return Tolerances(self.interp * factor, self.norm * factor, self.taylor * factor)

    def to_json(self) -> dict:
        return {"interp": self.interp, "norm": self.norm, "taylor": self.taylor}


@dataclass(frozen=True)
class VerificationReport:
    """Independent re-check of interpolation, norm and membership.

    ``taylor_violations`` lists (index, |coefficient|) for constrained
    indices whose coefficient exceeds the tolerance; ``passed`` requires all
    residuals within tolerance, sup norm at most 1 + tol, and no violations.
    ``derivative_crosscheck`` is the largest disagreement, over orders up to
    6, between f's Taylor coefficients from circle sampling and those from
    the composition-derivative expansion; it is diagnostic and does not gate
    ``passed``.  The expansion takes h's coefficients from circle sampling
    too (64 points at radius 0.5); what it checks independently of the
    sampling is the composition: the automorphism's derivatives, read off
    lam exactly, and their Faà di Bruno sum with the inner factor's.
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
    raise ValueError(f"unknown mode {mode!r}")


def construct(
    problem: Problem,
    k: KSpec,
    mode: Literal["iff", "sufficient"],
    cfg: SearchConfig | None = None,
) -> Interpolant:
    """Build an interpolant in the constrained class, or raise ``NotFound``.

    Runs the feasibility search at the mode's exponents; on success the
    targets transform to h-data v_i = phi(lam, w_i) / z_i^(m*d) on the d-th
    powers of the nodes (a node at the origin is absorbed by the pinned lam
    and dropped), and the classical solver produces h.  A ``NotFound`` from
    iff mode with a pinned parameter is a certified nonexistence result;
    from sufficient mode it is inconclusive.
    """
    if mode not in ("iff", "sufficient"):
        raise ValueError(f"construction mode must be 'iff' or 'sufficient', got {mode!r}")
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
    lam = result.lambda_
    h_nodes = []
    h_values = []
    for z, w in zip(problem.nodes, problem.targets):
        if z == 0:
            continue  # its condition is exactly lam = w, consumed by the pinning
        if z**E == 0:  # underflow; the h-target below would divide by zero
            raise NotFound(f"node {z!r} to the power {E} underflows to zero", result=result)
        v = complex(_mobius(lam, w)) / z**E
        mag = abs(v)
        if 1.0 < mag <= 1.0 + TARGET_CLAMP_SLACK:
            v /= mag
        h_nodes.append(z**d)
        h_values.append(v)
    h = np_solve(h_nodes, h_values, tol=max(cfg.tol, CLASSICAL_PSD_TOL))
    return Interpolant(lambda_=lam, m=m, d=d, h=h)


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


def _taylor_bound(k: KSpec) -> int:
    return min(64, max(12, 4 * smallest_missing(k)))


def _crosscheck_derivatives(f: Interpolant, coeffs) -> float:
    """Compare sampled Taylor coefficients against the composition expansion.

    The inner factor u(z) = z^(m d) h(z^d) has derivative j! * c_t(h) at
    order j = m*d + t*d and zero elsewhere; composing with the automorphism
    phi_inverse(lam, .) whose derivatives at 0 are i! (-conj lam)^(i-1)
    (1 - |lam|^2) gives a second, independent route to f^(k)(0).
    """
    E = f.m * f.d
    u_derivs = [0j] * (CROSSCHECK_ORDER + 1)
    if E <= CROSSCHECK_ORDER:
        h_count = (CROSSCHECK_ORDER - E) // f.d
        h_coeffs = taylor_coeffs(f.h, h_count, 0.5, CROSSCHECK_SAMPLES)
        for t, c in enumerate(h_coeffs):
            j = E + t * f.d
            if j <= CROSSCHECK_ORDER:
                u_derivs[j] = math.factorial(j) * c
    lam = complex(f.lambda_)
    g_derivs = [lam] + [
        math.factorial(i) * (-np.conj(lam)) ** (i - 1) * (1.0 - abs(lam) ** 2)
        for i in range(1, CROSSCHECK_ORDER + 1)
    ]
    worst = 0.0
    for order in range(1, CROSSCHECK_ORDER + 1):
        via_bruno = compose_derivative(g_derivs, u_derivs, order) / math.factorial(order)
        worst = max(worst, abs(via_bruno - coeffs[order]))
    return worst


def verify_interpolant(f: Interpolant, problem: Problem, k: KSpec) -> VerificationReport:
    """Re-check interpolation residuals, sup norm and membership.

    Residuals come from one evaluation of f at all nodes, the norm from 4096
    circle samples at radius 0.999, and membership from Taylor coefficients
    at radius 0.5 with 1024 samples, checked at every constrained index up
    to min(64, max(12, 4 * smallest_missing)).  The derivative cross-check
    samples h at ``CROSSCHECK_SAMPLES`` = 64 points at radius 0.5, where the
    aliasing error r^N / (1 - r^N) = 2^-64 / (1 - 2^-64) is below machine
    epsilon.  So f is evaluated three times, at arrays, whatever the number
    of nodes.  The default ``Tolerances`` widen a hundredfold when the
    solution is flagged low confidence.  Always returns a report.
    """
    tol = Tolerances().widened(100.0) if f.h.low_confidence else Tolerances()
    residuals = tuple(np.abs(f(np.array(problem.nodes)) - np.array(problem.targets)).tolist())
    sup = sup_norm_estimate(f, 0.999, 4096)
    bound = _taylor_bound(k)
    coeffs = taylor_coeffs(f, bound, 0.5, 1024)
    violations = tuple(
        (j, abs(coeffs[j]))
        for j in range(1, bound + 1)
        if contains(k, j) and not abs(coeffs[j]) <= tol.taylor  # a NaN coefficient violates too
    )
    cross = _crosscheck_derivatives(f, coeffs)
    passed = (
        all(r <= tol.interp for r in residuals)
        and sup <= 1.0 + tol.norm
        and not violations
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
