"""Evaluable analytic machinery on the unit disk.

Provides a Schur-Nevanlinna recursion solving the classical Nevanlinna-Pick
problem, Taylor coefficient extraction by sampling the Cauchy integral on a
circle, and sup-norm estimation on circles; both call f once on the array
of circle points, and f must return an array of that shape.  The Möbius
disk automorphisms, the classical Pick matrix and the PSD verdict the
solver starts from live in ``pickmat``.

The solver returns a ``SchurFunction``: a chain of fractional-linear
reduction records plus a terminal constant.  Each reduction step divides
out one interpolation condition; unwinding the chain maps the closed disk
into itself at every stage, so the represented function is Schur class by
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidConfig, InvalidProblem
from .pickmat import (
    BOUNDARY_TOL,
    CLASSICAL_PSD_TOL,
    _check_closed_disk,
    _mobius,
    classical_pick,
    psd_check,
)

__all__ = [
    "SchurFunction",
    "TaylorReport",
    "np_solve",
    "evaluate",
    "taylor_coeffs",
    "sup_norm_estimate",
]

# Reduced targets drifting this far past the circle mean genuinely bad data.
OVERSHOOT_TOL = 1e-9
# When a reduced target lands on the circle the remaining data must agree
# with the forced constant to this accuracy.
CONSTANT_MATCH_TOL = 1e-8
# Below this Pick-matrix eigenvalue floor results are flagged low confidence.
LOW_CONFIDENCE_EIG = 1e-6


@dataclass(frozen=True)
class SchurFunction:
    """Chain representation of a disk-to-closed-disk analytic function.

    ``steps`` holds (node, value) reduction records in the order they were
    consumed; ``tail`` is the terminal constant (closed disk).  Instances are
    immutable and safe to evaluate concurrently.  ``low_confidence`` marks
    solutions extracted from a nearly singular Pick matrix; verification
    tolerances should be widened for those.

    A NaN or infinite node, value or tail raises ``InvalidProblem``.  Finite
    values outside the disk are accepted, so that ``verify_interpolant`` can
    reject a tampered chain rather than have it refused as input.
    """

    steps: tuple[tuple[complex, complex], ...]
    tail: complex
    low_confidence: bool = False

    def __post_init__(self):
        named = [("tail", self.tail)]
        for i, (node, value) in enumerate(self.steps):
            named += [(f"steps[{i}] node", node), (f"steps[{i}] value", value)]
        for field, v in named:
            z = complex(v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidProblem(f"Schur function {field} must be finite, got {v!r}")

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(f: SchurFunction, z):
    """Evaluate by unwinding the reduction chain (scalar or ndarray input).

    Innermost value is the tail constant; each step wraps it as
    phi_inverse(value_j, blaschke(node_j, z) * inner).  All intermediate
    moduli stay at most 1 for |z| <= 1.
    """
    z = _check_closed_disk(z, "evaluation point")
    w = np.atleast_1d(z)  # a scalar runs the array arithmetic, so it gets the bits an array element gets
    g = np.full_like(w, complex(f.tail))
    for node, val in reversed(f.steps):
        g = _mobius(-val, _mobius(node, w) * g)
    return complex(g[0]) if z.ndim == 0 else g


def np_solve(nodes, values, tol: float = CLASSICAL_PSD_TOL) -> SchurFunction:
    """Solve the classical Nevanlinna-Pick problem by Schur reduction.

    Finds F with |F| <= 1 on the disk and F(nodes[i]) = values[i].  The
    classical Pick matrix must pass ``psd_check`` at ``tol`` before any
    reduction; failure raises ``Infeasible``.

    Each step consumes one node: with current target u_j strictly inside the
    disk, remaining targets become mobius(u_j, u_i) / blaschke_{z_j}(z_i).
    A target on the circle forces the constant solution, which is accepted
    only when all remaining targets agree with it.  The free parameter of
    the final step is fixed to 0, which makes the solver deterministic.
    """
    nodes = [complex(z) for z in nodes]
    values = [complex(v) for v in values]
    if len(nodes) != len(values):
        raise InvalidProblem(f"{len(nodes)} nodes vs {len(values)} values")
    _check_closed_disk(values, "targets")
    n = len(nodes)
    if n == 0:
        return SchurFunction(steps=(), tail=0j)

    # classical_pick also rejects repeated nodes and nodes off the open disk
    verdict = psd_check(classical_pick(nodes, values), tol)
    if not verdict.is_psd:
        raise Infeasible(
            f"Pick matrix is not positive semidefinite (min eigenvalue {verdict.min_eigenvalue:.3e})"
        )
    low_confidence = verdict.min_eigenvalue < LOW_CONFIDENCE_EIG

    steps: list[tuple[complex, complex]] = []
    targets = list(values)
    tail = 0j
    for j in range(n):
        u = targets[j]
        mag = abs(u)
        if mag > 1.0 + OVERSHOOT_TOL:
            raise Infeasible(
                f"reduced target left the closed disk (|u| = {mag:.6g}); data is numerically singular"
            )
        if mag >= 1.0 - BOUNDARY_TOL:
            u = u / mag  # project onto the circle; solution is the constant u
            for i in range(j + 1, n):
                if abs(targets[i] - u) > CONSTANT_MATCH_TOL:
                    raise Infeasible(
                        "a boundary target forces a constant solution but other targets disagree"
                    )
            tail = u
            break
        steps.append((nodes[j], complex(u)))
        for i in range(j + 1, n):
            targets[i] = complex(_mobius(u, targets[i]) / _mobius(nodes[j], nodes[i]))
    return SchurFunction(steps=tuple(steps), tail=tail, low_confidence=low_confidence)


@dataclass(frozen=True)
class TaylorReport:
    """Taylor coefficients c_0 ... c_B recovered from circle samples."""

    radius: float
    samples: int
    coeffs: tuple[complex, ...]


def taylor_coeffs(f, count: int, radius: float = 0.5, samples: int = 1024) -> TaylorReport:
    """Coefficients of f at 0 via the discretized Cauchy formula.

    c_j = (1/N) sum_t f(r e^{2 pi i t / N}) r^{-j} e^{-2 pi i j t / N}.

    Requires 0 < radius < 1 and ``samples`` a power of two with
    samples >= 4 * count.  For f bounded by 1 the aliasing error in c_j is
    at most r^N / (1 - r^N), negligible at the defaults; the practical
    accuracy limit is roundoff amplified by the r^(-j) factor, so very high
    indices need a radius closer to 1.  f is called once, on the array of
    circle points, and must return an array of that shape.
    """
    if count < 0:
        raise InvalidConfig(f"coefficient count must be nonnegative, got {count}")
    if not 0.0 < radius < 1.0:
        raise InvalidConfig(f"sampling radius must lie in (0, 1), got {radius}")
    if samples < max(1, 4 * count) or samples & (samples - 1):
        raise InvalidConfig(
            f"samples must be a power of two with samples >= 4 * count, got {samples}"
        )
    vals = _sample(f, _circle(radius, samples))
    spectrum = np.fft.fft(vals)[: count + 1]
    coeffs = spectrum / (samples * radius ** np.arange(count + 1))
    return TaylorReport(radius=radius, samples=samples, coeffs=tuple(complex(c) for c in coeffs))


def sup_norm_estimate(f, radius: float = 0.999, samples: int = 4096) -> float:
    """Max |f| over ``samples`` equispaced points on the circle |z| = radius.

    By the maximum principle this grows with the radius for analytic f, so
    radius 0.999 with 4096 samples is the standard norm check.  f is called
    once, on the array of circle points, and must return an array of that shape.
    """
    if not 0.0 < radius < 1.0:
        raise InvalidConfig(f"sampling radius must lie in (0, 1), got {radius}")
    if samples < 1:
        raise InvalidConfig(f"need at least one sample, got {samples}")
    return float(np.max(np.abs(_sample(f, _circle(radius, samples)))))


@functools.lru_cache(maxsize=8)
def _circle(radius: float, samples: int) -> np.ndarray:
    """The points radius * exp(2 pi i t / samples), t = 0 .. samples - 1, as a read-only array.

    Cached: equal arguments return the same array, which is why it cannot
    be written to.  Callers validate the arguments first.
    """
    t = np.arange(samples)
    ring = radius * np.exp(2j * np.pi * t / samples)
    ring.flags.writeable = False
    return ring


def _sample(f, points: np.ndarray) -> np.ndarray:
    """f called once on the whole array of points; a result of another shape raises ``ValueError``."""
    vals = np.asarray(f(points), dtype=complex)
    if vals.shape != points.shape:
        raise ValueError(f"f must map an array of shape {points.shape} to one of that shape, got {vals.shape}")
    return vals
