"""The numerical policy, interpolation data, their Pick matrices, the Möbius map and the PSD verdict.

The module opens with the table of every verdict threshold, which the other
modules import.  It is then the one home of four objects.  The data are a
``Problem``, the one check of nodes and targets.  The disk automorphism
phi_lam(z) = (z - lam) / (1 - conj(lam) z) is the unchecked kernel
``_mobius``; every module calls it, and its callers check their arguments.
Every Pick matrix is a plain complex ndarray.  The constrained one is
``PickBuilder.entries``, at one lam or a 1-d array of them, which both
``constrained_pick`` and the parameter search call.  The PSD verdict is
``psd_check``, the one place that checks a matrix.  One path leads from a
matrix to its smallest eigenvalue, ``_hermitian_part`` then
``_min_eigenvalues``, with the same bits at a lam in any stack, so a verdict
judges the value a search reports.  The latter calls LAPACK's stacked
Hermitian eigensolver directly, through numpy's gufunc
``_umath_linalg.eigvalsh_lo``, without the per-call argument handling of
``np.linalg.eigvalsh``; a stack that comes back with a NaN minimum, which is
how the gufunc reports a failure to converge, is redone through
``np.linalg.eigvalsh``, so such a failure still raises ``LinAlgError``.
Before its eigensolve ``psd_check`` takes the Gershgorin scale of the
Hermitian part in one pass, which also refuses the matrix when it is not
finite: a non-finite entry, or row sums that overflow.  Outer products are
``np.multiply(a[:, None], b[None, :])``, the call ``np.outer`` makes,
without its wrapper; a shorter broadcast can change last bits by shape.

The classical matrix [(1 - w_i conj(w_j)) / (1 - z_i conj(z_j))] decides
plain Nevanlinna-Pick solvability.  The constrained variant replaces the
numerator with z_i^E conj(z_j)^E - phi_lam(w_i) conj(phi_lam(w_j)) and the
denominator with 1 - (z_i conj(z_j))^d; its positive semidefiniteness for
some disk parameter lam is the feasibility criterion in the constrained
classes.  The module also checks the congruence

    M = D P D*,    D = diag(z_i^E),

relating the constrained matrix to a classical one, which underpins both
directions of the criterion.  ``h_data`` gives P's data at lam, the data
``np_solve`` reduces, so the parameter search can judge the same P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DomainError,
    InvalidConfig,
    InvalidExponent,
    InvalidProblem,
    NumericalError,
)
from .kset import _integers, _read, _real

__all__ = [
    "Problem",
    "PsdVerdict",
    "classical_pick",
    "h_data",
    "constrained_pick",
    "psd_check",
    "factorization_residual",
]

# The numerical policy: each threshold that decides a verdict, a flag, a refusal or a
# verification outcome, with what sets its value.  Other modules bind no float of their
# own but the search heuristic's ``feasibility.LAMBDA_CLAMP`` (``tests/test_policy.py``).
#
# Slack of disk and circle membership: far above the 1e-15 rounding that a Möbius map or
# a Schur step leaves on a point of modulus 1.
BOUNDARY_TOL = 1e-12
# Relative slack of ``np_solve``'s PSD verdict: its data carry rounding (targets / z^E), so
# the singular P of a witness on the edge of feasibility computes slightly negative;
# ``construct`` never solves at less, even after a search at tolerance 0.
CLASSICAL_PSD_TOL = 1e-9
# Default of ``SearchConfig.tol``: ten times ``CLASSICAL_PSD_TOL``, the floor ``construct``
# puts under it, so by default the solver grants the search's slack.
SEARCH_PSD_TOL = 1e-8
# Where ``np_solve`` flags low confidence and the search stops, once M or the P of ``h_data``
# clears it: M = D P D* with D = diag(z_i^E), |z_i^E| < 1, so M >= delta I gives P >= delta I
# while D can shrink M far below a P that clears it, and three orders above
# ``CLASSICAL_PSD_TOL`` a parameter is neither refused nor flagged.
LOW_CONFIDENCE_EIG = 1e-6
# How far past the circle ``h_data`` projects an h-target back: the overshoot of a
# certificate at the ``LOW_CONFIDENCE_EIG`` scale; ``np_solve`` refuses worse.
TARGET_CLAMP_SLACK = 1e-6
# How far past the circle a target reduced by ``np_solve`` may land: the order of the
# ``CLASSICAL_PSD_TOL`` its verdict granted the same data.
OVERSHOOT_TOL = 1e-9
# How closely the targets left must match the constant that one on the circle forces:
# ten times ``OVERSHOOT_TOL``, as each Schur step they pass amplifies their rounding.
CONSTANT_MATCH_TOL = 1e-8
# The ``Tolerances`` of ``verify_interpolant``.  Residuals: above the 16 n eps of an exact
# chain (``tests/test_accuracy.py``) and the 4e-8 a ``TARGET_CLAMP_SLACK`` projection leaves.
INTERP_TOL = 1e-7
# Sup norm at most 1 + NORM_TOL: nine orders above the rounding of a chain in the disk.
NORM_TOL = 1e-6
# Constrained coefficients: three orders above the 1e-10 the Taylor circle's roundoff reaches.
TAYLOR_TOL = 1e-7
# The sup-norm circle: the sampled maximum of an analytic f grows with the radius, and
# samples 1.5e-3 apart lie about as near each other as to the unit circle.
SUP_NORM_RADIUS = 0.999
SUP_NORM_SAMPLES = 4096
# The Taylor circle: for |f| <= 1 aliasing errs by r^N / (1 - r^N), about 1e-47, and roundoff
# grows by r^-j <= 0.9^-128, about 7e5, to 1e-10; at radius 0.5 it would grow by 2^128 and
# reject true interpolants (Bornemann, Found. Comput. Math. 2011).
TAYLOR_RADIUS = 0.9
TAYLOR_SAMPLES = 1024
# The highest constrained index checked, so a support {d t : t >= m} that meets K below 129
# fails; ``taylor_coeffs`` needs 4 * TAYLOR_ORDER samples.
TAYLOR_ORDER = 128

MAX_POINTS = 16
# The LAPACK gufunc (zheevd on the lower triangle) that ``np.linalg.eigvalsh``
# calls for complex input with UPLO='L', bound once so that each eigensolve
# skips the wrapper's argument handling.  It is private to numpy: if a numpy
# release moves it, importing cpick fails here.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _check_closed_disk(z, label: str):
    z = _complex_array(z, label)
    if not np.all(np.abs(z) <= 1.0 + BOUNDARY_TOL):  # written so that NaN fails
        worst = np.max(np.abs(z))
        raise DomainError(f"{label} must lie in the closed unit disk, got modulus {worst:.6g}")
    return z


def _complex_array(x, label: str, ndim: int | None = None) -> np.ndarray:
    """x as a complex ndarray; a ragged or non-numeric x, or one of another ``ndim``, raises ``InvalidProblem``.

    A numeric string such as "0.5" parses as ``complex`` parses it.
    """
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:  # numpy's words for a ragged or non-numeric input
        raise InvalidProblem(f"{label} must be a rectangular array of numbers: {exc}") from exc
    if ndim is not None and a.ndim != ndim:
        raise InvalidProblem(f"{label} must be a rectangular array of numbers of dimension {ndim}, got shape {a.shape}")
    return a


def _check_open_disk(z, label: str, ndim: int | None = None) -> np.ndarray:
    """z as a complex array inside the open disk, of dimension ``ndim`` if given (0 for a lam)."""
    a = _complex_array(z, label, ndim)
    if not np.all(np.abs(a) < 1.0):  # written so that NaN fails
        worst = np.max(np.abs(a))
        raise DomainError(f"{label} must lie strictly inside the unit disk, got modulus {worst:.6g}")
    return a


@dataclass(frozen=True)
class Problem:
    """Distinct interpolation nodes and targets strictly inside the disk; the one check of the data."""

    nodes: tuple[complex, ...]
    targets: tuple[complex, ...]

    def __post_init__(self):
        nodes = _complex_array(self.nodes, "nodes", 1)
        targets = _complex_array(self.targets, "targets", 1)
        object.__setattr__(self, "nodes", tuple(nodes.tolist()))
        object.__setattr__(self, "targets", tuple(targets.tolist()))
        if len(nodes) != len(targets):
            raise InvalidProblem(f"{len(nodes)} nodes vs {len(targets)} targets")
        if not 1 <= len(nodes) <= MAX_POINTS:
            raise InvalidProblem(f"problem size must lie in [1, {MAX_POINTS}], got {len(nodes)}")
        if len(set(self.nodes)) != len(nodes):
            raise InvalidProblem("nodes must be distinct")
        _check_open_disk(nodes, "nodes")
        _check_open_disk(targets, "targets")

    @property
    def n(self) -> int:
        return len(self.nodes)


def _mobius(lam, z):
    """phi_lam(z), unchecked: zero at lam, maps disk and circle onto themselves; ``_mobius(-lam, .)`` inverts it."""
    return (z - lam) / (1.0 - lam.conjugate() * z)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def classical_pick(nodes, values) -> np.ndarray:
    """Classical Pick matrix [(1 - v_i conj(v_j)) / (1 - z_i conj(z_j))] of two sequences of numbers."""
    z = _complex_array(nodes, "nodes", 1)
    v = _complex_array(values, "values", 1)
    _check_open_disk(z, "nodes")
    if len(z) != len(v):
        raise InvalidProblem(f"{len(z)} nodes vs {len(v)} values")
    if len(set(z.tolist())) != len(z):
        raise InvalidProblem("nodes must be distinct")
    num = 1.0 - np.multiply(v[:, None], v.conj()[None, :])
    den = 1.0 - np.multiply(z[:, None], z.conj()[None, :])
    return num / den


def _exponents(E, d) -> tuple[int, int]:
    """E and d as plain ints, read by ``kset._integer``, with d >= 1 dividing E >= 1; else ``InvalidExponent``."""
    return _read(
        (E, d), _integers, InvalidExponent, "exponents (E, d)", "integers >= 1 with d dividing E",
        lambda ed: min(ed) >= 1 and ed[0] % ed[1] == 0,
    )


def h_data(problem: Problem, lam: complex, E: int, d: int) -> tuple[list[complex], list[complex]]:
    """The classical data that the constrained problem at lam reduces to.

    Nodes z_i^d carry the values v_i = phi_lam(w_i) / z_i^E, whose classical
    Pick matrix P satisfies M = D P D* with M the constrained matrix at lam
    and D = diag(z_i^E).  A node at the origin is dropped: its condition is
    exactly lam = w_i.  A value of modulus in (1, 1 + ``TARGET_CLAMP_SLACK``]
    is projected onto the circle.  The exponents are read by ``_exponents``.
    A node whose E-th power underflows to zero, leaving no value, raises
    ``NumericalError`` naming it.  ``construct`` hands these data to
    ``np_solve``, and the parameter search judges their P, so both see the
    same matrix bit for bit.
    """
    E, d = _exponents(E, d)
    h_nodes, h_values = [], []
    for z, w in zip(problem.nodes, problem.targets):
        if z == 0:
            continue
        ze = z**E
        if ze == 0:
            raise NumericalError(f"node {z!r} to the power {E} underflows to zero")
        v = complex(_mobius(lam, w)) / ze
        mag = abs(v)
        if 1.0 < mag <= 1.0 + TARGET_CLAMP_SLACK:
            v /= mag
        h_nodes.append(z**d)
        h_values.append(v)
    return h_nodes, h_values


class PickBuilder:
    """Constrained Pick matrix of one problem at exponents (E, d), as a function of lam.

    Entry (i, j) is

        (z_i^E conj(z_j)^E - phi_lam(w_i) conj(phi_lam(w_j)))
        / (1 - (z_i conj(z_j))^d),

    defined when d divides E and the nodes' d-th powers are distinct.  The
    data are checked by ``Problem``; this reads the exponents through
    ``_exponents``, checks the distinct d-th powers, and caches the
    lam-independent blocks.  No method checks lam.
    """

    def __init__(self, problem: Problem, E: int, d: int):
        E, d = _exponents(E, d)
        z = np.array(problem.nodes)
        if len(set((z**d).tolist())) != len(z):
            raise InvalidProblem(f"the nodes' d-th powers must be distinct, d={d}")
        ze = z**E
        self._targets = np.array([problem.targets])
        self._powers = np.multiply(ze[:, None], ze.conj()[None, :])
        self._den = 1.0 - np.multiply(z[:, None], z.conj()[None, :]) ** d

    def entries(self, lams) -> np.ndarray:
        """The matrix at lam, entry by entry: (n, n) for a scalar, (k, n, n) for a 1-d array of k.

        Hermitian up to roundoff.  A scalar is a stack of one, and the
        targets are a (1, n) row: against an (n,) vector numpy multiplies a
        stack of one lam at n = 1 in another kernel, with other last bits.
        So a lam gets the same bits alone, in any stack and through
        ``constrained_pick``.
        """
        lams = np.asarray(lams)
        phi = _mobius(lams.reshape(-1, 1), self._targets)
        m = (self._powers - phi[:, :, None] * phi[:, None, :].conj()) / self._den
        return m if lams.ndim else m[0]

    def min_eigenvalues(self, lams) -> np.ndarray:
        """Smallest eigenvalue of the matrix at each lam: the objective of the parameter search.

        It is ``_min_eigenvalues`` of the Hermitian part of ``entries``, in one
        stacked eigensolve, so each value equals ``psd_check``'s eigenvalue of
        ``constrained_pick`` at that lam bit for bit.
        """
        return _min_eigenvalues(_hermitian_part(self.entries(lams)))

    def min_eigenvalue_bounds(self, lams: np.ndarray) -> np.ndarray:
        """An upper bound on ``min_eigenvalues(lams)`` at each point, in O(n) per point.

        The smallest eigenvalue of a Hermitian matrix is at most its smallest
        diagonal entry (Cauchy interlacing for 1x1 principal submatrices), here

            (|z_i|^(2E) - |phi_lam(w_i)|^2) / (1 - |z_i|^(2d)).

        The computed eigenvalue can exceed the exact one: LAPACK's Hermitian
        eigensolvers are backward stable, so the computed minimum is at most
        lambda_min + p(n) eps ||H||_2.  Every entry has modulus at most
        2 / min_ij |1 - (z_i conj(z_j))^d|, because |z|, |phi| < 1, so
        ||H||_2 <= n max_ij |H_ij| <= 2n / min|den|, independent of lam.  The
        margin added to the diagonal is 1e-12 * 2n^2 / min|den|, about
        4500 n eps times that norm bound, so it allows p(n) up to 4500 n; it
        also covers the few ulps by which this diagonal, computed in real
        arithmetic, and the complex entries the eigensolver sees can differ.
        So the computed ``min_eigenvalues`` value at a point does not exceed
        its bound.  The margin depends on the data only, not on lam; it and
        the diagonals are computed on each call, which the search makes once.
        """
        n = len(self._den)
        margin = 1e-12 * 2.0 * n * n / float(np.min(np.abs(self._den)))
        # (n, k), with the points as the long axis of each ufunc's inner loop
        phi = _mobius(lams, self._targets.T)
        powers = self._powers.diagonal().real[:, None]
        diagonal = (powers - (phi.real**2 + phi.imag**2)) / self._den.diagonal().real[:, None]
        return diagonal.min(axis=0) + margin


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """0.5 (m + m*) of each matrix in m: exactly Hermitian, and equal to m when m already is."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _min_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in h (of its lower triangle).

    Calls LAPACK through ``_eigvalsh_lo``, with the bits ``np.linalg.eigvalsh``
    would return.  The gufunc reports a failure to converge as NaN (numpy
    may also warn of an invalid value) where the wrapper raises, so a stack
    with a NaN minimum is redone by ``np.linalg.eigvalsh``, which raises
    ``LinAlgError``, or returns the same NaN for NaN input.
    """
    lo = _eigvalsh_lo(h, signature="D->d")[..., 0]
    # one cheap NaN test: a Python sum of the minima, with no ufunc reduction
    s = sum(lo.tolist()) if lo.ndim else float(lo)
    if s != s:
        lo = np.linalg.eigvalsh(h)[..., 0]
    return lo


def constrained_pick(nodes, targets, lam: complex, E: int, d: int) -> np.ndarray:
    """Constrained Pick matrix with numerator exponent E and scale d at lam.

    The data are checked as a ``Problem`` (1 to ``MAX_POINTS`` nodes), the rest
    as in ``PickBuilder``; lam must be a number in the open disk.
    """
    pick = PickBuilder(Problem(nodes, targets), E, d)
    return pick.entries(_check_open_disk(lam, "Möbius parameter", 0))


def _tolerance(tol, label: str = "tolerance") -> float:
    """``tol`` as a finite nonnegative float, read by ``kset._real``; anything else raises ``InvalidConfig``.

    A NaN tolerance would fail every matrix and an infinite one pass every matrix.
    A -0.0 tolerance is read as 0.0, so that tolerances comparing equal echo alike.
    """
    return _read(
        tol, _real, InvalidConfig, label, "a finite and nonnegative number", lambda t: math.isfinite(t) and t >= 0
    ) + 0.0


def psd_check(m, tol: float = CLASSICAL_PSD_TOL) -> PsdVerdict:
    """Smallest eigenvalue with a relative positive-semidefiniteness verdict.

    m must be a nonempty square matrix of numbers, else ``InvalidProblem``
    is raised.  Its Hermitian part h = 0.5 (m + m*), taken once, gives both
    numbers: the eigenvalue is ``_min_eigenvalues(h)``, and the verdict is
    min_eigenvalue >= -tol * max(1, s) with s the Gershgorin bound
    max_i sum_j |h_ij|, a cheap spectral-norm overestimate, and ``tol``
    ``CLASSICAL_PSD_TOL`` unless given.  s is taken first, and a non-finite
    s raises ``NumericalError``: h has a non-finite entry, or finite entries
    whose row sums overflow, where the tolerance would be inf or NaN.  A
    tolerance that ``_tolerance`` refuses raises ``InvalidConfig``.
    """
    tol = _tolerance(tol)
    a = _complex_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidProblem(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InvalidProblem("matrix order must be at least 1")
    h = _hermitian_part(a)
    scale = float(np.abs(h).sum(axis=1).max())
    if not math.isfinite(scale):  # a non-finite entry makes it so
        raise NumericalError(f"matrix has a non-finite entry, or its row sums overflow: scale {scale}")
    min_eig = float(_min_eigenvalues(h))
    tol_used = tol * max(1.0, scale)
    return PsdVerdict(is_psd=min_eig >= -tol_used, min_eigenvalue=min_eig, tolerance_used=tol_used)


def factorization_residual(nodes, h_values, lam: complex, E: int, d: int) -> float:
    """Max elementwise gap between the constrained matrix and D P D*.

    Targets are induced by the boundary data: phi_lam(w_i) = z_i^E h_i.  The
    constrained matrix built from them should equal
    diag(z_i^E) P diag(z_i^E)* with P the classical Pick matrix of the
    h-values on the d-th powers of the nodes; the identity is exact, so the
    residual measures floating-point noise only.
    """
    z = _check_open_disk(nodes, "nodes", 1)
    if np.any(z == 0):
        raise InvalidProblem("factorization requires nonzero nodes (D must be invertible)")
    h = _complex_array(h_values, "h-values", 1)
    if len(h) != len(z):
        raise InvalidProblem(f"{len(z)} nodes vs {len(h)} h-values")
    _check_closed_disk(h, "h-values")
    lam = complex(_check_open_disk(lam, "Möbius parameter", 0))
    E, d = _exponents(E, d)
    ze = z**E
    targets = _mobius(-lam, ze * h)
    m1 = constrained_pick(z, targets, lam, E, d)
    p = classical_pick(z**d, h)
    dd = np.diag(ze)
    m2 = dd @ p @ dd.conj().T
    return float(np.max(np.abs(m1 - m2)))
