"""Evaluable analytic machinery on the unit disk.

Provides a Schur-Nevanlinna recursion solving the classical Nevanlinna-Pick
problem, Taylor coefficient extraction from samples on a circle by the
discretized Cauchy integral (a plain tuple of coefficients), and sup-norm
estimation from samples.  The samplers read samples only; the caller
decides where they are taken.  The Möbius disk automorphisms, the
classical Pick matrix and the PSD verdict the solver starts from live in
``pickmat``.

The solver returns a ``SchurFunction``: a chain of fractional-linear
reduction records plus a terminal constant, evaluated by calling it.  Each
reduction step divides out one interpolation condition; unwinding the chain
composes linear-fractional maps of the closed disk into itself, so the
represented function is Schur class by construction.  Each map acts on a
numerator-denominator pair as a 2x2 matrix (the transfer-function view of
Agler and McCarthy, *Pick Interpolation and Hilbert Function Spaces*, 2002),
so evaluation carries the pair through the chain and divides once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidConfig, InvalidProblem
from .kset import _integer, _read, _real
from .pickmat import (
    BOUNDARY_TOL, CLASSICAL_PSD_TOL, CONSTANT_MATCH_TOL, LOW_CONFIDENCE_EIG, OVERSHOOT_TOL,
    _check_closed_disk, _complex_array, _mobius, _tolerance, classical_pick, psd_check,
)

__all__ = [
    "SchurFunction",
    "np_solve",
    "taylor_coeffs",
    "sup_norm_estimate",
]

# glibc hands the top of its heap back to the system whenever more than
# 128 KiB lie free there, until the process first frees a block of more than
# that which it had mapped on its own; from then on it keeps up to twice that
# block's size.  Evaluation allocates and frees arrays of about 80 KB, so a
# process that never freed such a block faulted them in afresh on every
# call.  One 2 MiB block mapped and freed here, never written and so never
# resident, makes glibc keep up to 4 MiB.  Other allocators ignore it.
np.empty(1 << 18)


@dataclass(frozen=True)
class SchurFunction:
    """Chain representation of a disk-to-closed-disk analytic function.

    ``steps`` holds (node, value) reduction records in the order they were
    consumed; ``tail`` is the terminal constant (closed disk).  Instances are
    immutable and safe to evaluate concurrently.  ``low_confidence`` marks
    solutions extracted from a nearly singular Pick matrix; it is reported,
    and ``verify_interpolant`` checks such a solution at the same tolerances.

    A NaN or infinite node, value or tail raises ``InvalidProblem``.  Finite
    ones outside the disk are accepted, so that ``verify_interpolant`` can
    reject a tampered chain rather than have it refused as input: its
    ``passed`` requires every node in the open disk and every value and the
    tail in the closed one.
    """

    steps: tuple[tuple[complex, complex], ...]
    tail: complex
    low_confidence: bool = False

    def __post_init__(self):
        def checked(v, field):
            # a Python complex, as ``np_solve`` gives, is kept as it is; anything else is parsed
            z = v if type(v) is complex else complex(_complex_array(v, f"Schur function {field}", 0))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidProblem(f"Schur function {field} must be finite, got {v!r}")
            return z

        # stored as the Python complex numbers they parse to, so a numeric string evaluates
        tail = checked(self.tail, "tail")
        steps = tuple(
            (checked(node, f"steps[{i}] node"), checked(value, f"steps[{i}] value"))
            for i, (node, value) in enumerate(self.steps)
        )
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "steps", steps)

    def __call__(self, z):
        """Evaluate by unwinding the reduction chain (scalar or ndarray input).

        Innermost value is the tail constant; each step (a, v) wraps the
        inner value g = p / q as phi_inverse(v, phi(a, z) g), which is
        (s + v t) / (t + conj(v) s) with s = (z - a) p, t = (1 - conj(a) z) q.
        So the pair starts at (tail, 1) and is divided once.  That is the
        step-by-step composition with its divisions deferred: after each
        step p / q is that composition's value there, so |p / q| <= 1 at
        every stage for |z| <= 1, nodes in the open disk, and values and
        tail in the closed disk.  Against an exact reference its error is
        within 16 n eps on seeded chains of n steps, as is the composition's
        (``tests/test_accuracy.py``).

        Each step is the same 9 ufuncs, in the same order, as the
        out-of-place expressions above, written with ``out=`` into five work
        arrays allocated by this call (none is shared between calls, so
        concurrent evaluation stays safe).  No multiplication writes into one
        of its own operands: numpy's complex multiply in place can round the
        last bit differently on short arrays, and a scalar must get the bits
        an array element gets.  A subtraction or addition in place is exact
        componentwise, so it may.

        A tail of 0, which ``np_solve`` leaves whenever no target reaches the
        circle, makes the innermost step multiply by the constants 0 and 1:
        s = 0, so it starts from t = 1 - conj(a) w, p = v t and q = t, in 3
        ufuncs.  The products dropped are by exact 0 and 1, so every value
        is the full step's; only the sign of an exact zero can differ.

        The points are checked here; the chain itself is ``_eval``.
        """
        z = _check_closed_disk(z, "evaluation point")
        g = self._eval(np.atleast_1d(z))  # a scalar runs the array arithmetic, so it gets the bits an array element gets
        return complex(g[0]) if z.ndim == 0 else g

    def _eval(self, w: np.ndarray) -> np.ndarray:
        """The chain at each point of a 1-d complex array, unchecked: the caller has put w in the closed disk."""
        p, q, s, t, u = (np.empty_like(w) for _ in range(5))
        steps = self.steps[::-1]
        if steps and self.tail == 0:
            # the innermost step on (0, 1), folded: t = 1 - conj(a) w into q, then p = v t
            (node, val), steps = steps[0], steps[1:]
            np.multiply(node.conjugate(), w, out=u)
            np.subtract(1.0, u, out=q)
            np.multiply(val, q, out=p)
        else:
            p.fill(self.tail)
            q.fill(1.0)
        for node, val in steps:
            np.subtract(w, node, out=u)
            np.multiply(u, p, out=s)  # s = (w - a) p
            np.multiply(node.conjugate(), w, out=u)
            np.subtract(1.0, u, out=u)
            np.multiply(u, q, out=t)  # t = (1 - conj(a) w) q
            np.multiply(val, t, out=u)
            np.add(s, u, out=p)  # p = s + v t
            np.multiply(val.conjugate(), s, out=u)
            np.add(t, u, out=q)  # q = t + conj(v) s
        return np.divide(p, q, out=u)


def np_solve(nodes, values, tol: float = CLASSICAL_PSD_TOL) -> SchurFunction:
    """Solve the classical Nevanlinna-Pick problem by Schur reduction.

    Finds F with |F| <= 1 on the disk and F(nodes[i]) = values[i].  The
    classical Pick matrix must pass ``psd_check`` at ``tol`` before any
    reduction; failure raises ``Infeasible``.  A smallest eigenvalue below
    ``LOW_CONFIDENCE_EIG`` flags the solution ``low_confidence``.

    Each step consumes one node: with current target u_j strictly inside the
    disk, remaining targets become phi_{u_j}(u_i) / phi_{z_j}(z_i).  A target
    more than ``OVERSHOOT_TOL`` past the circle raises ``Infeasible``; one
    within ``BOUNDARY_TOL`` of it forces the constant solution, which is
    accepted only when all remaining targets lie within
    ``CONSTANT_MATCH_TOL`` of it.  The free parameter of the final step is
    fixed to 0, which makes the solver deterministic.  A tolerance that
    ``psd_check`` refuses raises ``InvalidConfig``, for empty data too.
    """
    tol = _tolerance(tol)
    nodes = _complex_array(nodes, "nodes", 1).tolist()
    values = _complex_array(values, "values", 1).tolist()
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


def taylor_coeffs(values, count: int, radius: float) -> tuple[complex, ...]:
    """Taylor coefficients (c_0, ..., c_count) at 0 of the f sampled as ``values``.

    ``values`` holds f at the N equispaced points ``_circle(radius, N)``,
    r e^{2 pi i t / N} for t = 0 .. N - 1, and the discretized Cauchy formula
    gives c_j = (1/N) sum_t values[t] r^{-j} e^{-2 pi i j t / N}.

    Requires 0 < radius < 1 and a 1-d ``values`` whose length N is a power
    of two with N >= 4 * count.  For f bounded by 1 the aliasing error in
    c_j is at most r^N / (1 - r^N); the practical accuracy limit is roundoff
    amplified by the r^(-j) factor, so very high indices need a radius
    closer to 1 (Bornemann, Found. Comput. Math. 2011).  Values of another
    shape, a count that ``kset._integer`` does not read as an integer, a
    radius that ``kset._real`` does not read as a number (a string or a
    boolean), or one so small that radius ** count underflows or its
    reciprocal overflows, raise ``InvalidConfig``; non-numeric values raise
    ``InvalidProblem``.
    """
    vals = _complex_array(values, "samples")
    samples = len(vals) if vals.ndim == 1 else 0
    count = _read(count, _integer, InvalidConfig, "coefficient count", "an integer >= 0", lambda n: n >= 0)
    # c_count is divided by radius ** count: a radius where that underflows, or
    # its reciprocal overflows, would return inf
    radius = _read(
        radius, _real, InvalidConfig, "sampling radius", "a number in (0, 1) with 1 / radius ** count finite",
        lambda r: 0.0 < r < 1.0 and r**count > 1.0 / sys.float_info.max,
    )
    if samples < max(1, 4 * count) or samples & (samples - 1):
        raise InvalidConfig(
            f"samples must be a 1-d array whose length is a power of two at least 4 * count, got shape {vals.shape}"
        )
    spectrum = np.fft.fft(vals)[: count + 1]
    coeffs = spectrum / (samples * radius ** np.arange(count + 1))
    return tuple(coeffs.tolist())


def sup_norm_estimate(values) -> float:
    """Max |values| over a nonempty 1-d array of samples of f.

    On ``_circle(radius, N)`` this grows with the radius for analytic f, by
    the maximum principle; ``verify_interpolant`` reads it on
    ``pickmat.SUP_NORM_RADIUS``'s circle.  Samples of another shape raise
    ``InvalidConfig``, non-numeric ones ``InvalidProblem``.
    """
    vals = _complex_array(values, "samples")
    if vals.ndim != 1 or not len(vals):
        raise InvalidConfig(f"need a nonempty 1-d array of samples, got shape {vals.shape}")
    return float(np.max(np.abs(vals)))


@functools.lru_cache(maxsize=8)
def _circle(radius: float, samples: int) -> np.ndarray:
    """The points radius * exp(2 pi i t / samples), t = 0 .. samples - 1, as a read-only array.

    The points the samplers' values are taken on.  Cached: equal arguments
    return the same array, which is why it cannot be written to.
    """
    t = np.arange(samples)
    ring = radius * np.exp(2j * np.pi * t / samples)
    ring.flags.writeable = False
    return ring

