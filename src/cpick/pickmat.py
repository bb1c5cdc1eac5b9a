"""Interpolation data, their Pick matrices, the Möbius map and the PSD verdict.

This module is the one home of four objects.  The data are a ``Problem``,
the one check of nodes and targets.  The disk automorphism
phi_lam(z) = (z - lam) / (1 - conj(lam) z) is the unchecked kernel
``_mobius`` that every module calls; ``mobius`` checks its arguments first.
The constrained Pick matrix is ``PickBuilder``, built from a ``Problem``
and used by ``constrained_pick`` and the parameter search, which evaluates
it over arrays of lam.  The PSD verdict is ``psd_check``.  Every smallest
eigenvalue, the search's and the verdict's, is taken of the Hermitian part
``_hermitian_part`` in one place, ``_min_eigenvalues``, so a verdict judges
the value a search reports.  It calls LAPACK's stacked Hermitian eigensolver
directly, through numpy's gufunc ``_umath_linalg.eigvalsh_lo``, without the
per-call argument handling of ``np.linalg.eigvalsh``; a stack that comes
back with a NaN minimum, which is how the gufunc reports a failure to
converge, is redone through ``np.linalg.eigvalsh``, so such a failure still
raises ``LinAlgError``.

The classical matrix [(1 - w_i conj(w_j)) / (1 - z_i conj(z_j))] decides
plain Nevanlinna-Pick solvability.  The constrained variant replaces the
numerator with z_i^E conj(z_j)^E - phi_lam(w_i) conj(phi_lam(w_j)) and the
denominator with 1 - (z_i conj(z_j))^d; its positive semidefiniteness for
some disk parameter lam is the feasibility criterion in the constrained
classes.  The module also checks the congruence

    M = D P D*,    D = diag(z_i^E),

relating the constrained matrix to a classical one, which underpins both
directions of the criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DomainError,
    InvalidExponent,
    InvalidProblem,
    NumericalError,
)

__all__ = [
    "Problem",
    "HermitianMatrix",
    "PsdVerdict",
    "mobius",
    "classical_pick",
    "constrained_pick",
    "psd_check",
    "factorization_residual",
]

MAX_POINTS = 16
# Absolute slack when testing membership of the closed disk / circle.
BOUNDARY_TOL = 1e-12
# Relative slack of the PSD verdict on the classical Pick matrix that
# ``analytic.np_solve`` reduces.  Its data carry rounding error (``construct``
# divides the transformed targets by z^E), so the singular matrix of a witness
# on the edge of feasibility computes to a slightly negative eigenvalue.
# ``construct`` takes it as a floor under the search tolerance, so a search
# run at a smaller one, even 0, leaves the solver this much slack.
CLASSICAL_PSD_TOL = 1e-9
# The LAPACK gufunc (zheevd on the lower triangle) that ``np.linalg.eigvalsh``
# calls for complex input with UPLO='L', bound once so that each eigensolve
# skips the wrapper's argument handling.  It is private to numpy: if a numpy
# release moves it, importing cpick fails here.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _check_closed_disk(z, label: str):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) <= 1.0 + BOUNDARY_TOL):  # written so that NaN fails
        worst = np.max(np.abs(z))
        raise DomainError(f"{label} must lie in the closed unit disk, got modulus {worst:.6g}")
    return z


def _check_open_disk(z, label: str):
    """A scalar as a Python complex, a sequence as a complex array."""
    a = np.asarray(z, dtype=complex)
    if not np.all(np.abs(a) < 1.0):  # written so that NaN fails
        worst = np.max(np.abs(a))
        raise DomainError(f"{label} must lie strictly inside the unit disk, got modulus {worst:.6g}")
    return complex(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class Problem:
    """Distinct interpolation nodes and targets strictly inside the disk; the one check of the data."""

    nodes: tuple[complex, ...]
    targets: tuple[complex, ...]

    def __post_init__(self):
        nodes = tuple(complex(z) for z in self.nodes)
        targets = tuple(complex(w) for w in self.targets)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)
        if len(nodes) != len(targets):
            raise InvalidProblem(f"{len(nodes)} nodes vs {len(targets)} targets")
        if not 1 <= len(nodes) <= MAX_POINTS:
            raise InvalidProblem(f"problem size must lie in [1, {MAX_POINTS}], got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise InvalidProblem("nodes must be distinct")
        _check_open_disk(nodes, "nodes")
        _check_open_disk(targets, "targets")

    @property
    def n(self) -> int:
        return len(self.nodes)


def _mobius(lam, z):
    """phi_lam(z) without argument checks; ``_mobius(-lam, .)`` is its inverse."""
    return (z - lam) / (1.0 - lam.conjugate() * z)


def mobius(lam: complex, z):
    """Elementary disk automorphism (z - lam) / (1 - conj(lam) z).

    Vanishes at lam, maps the open disk onto itself and the circle onto the
    circle; ``mobius(-lam, .)`` is its inverse.  Accepts a scalar or an
    ndarray for z (closed disk).
    """
    lam = _check_open_disk(lam, "Möbius parameter")
    out = _mobius(lam, _check_closed_disk(z, "Möbius argument"))
    return complex(out) if out.ndim == 0 else out


class HermitianMatrix:
    """The Hermitian part 0.5 (m + m*) of a square complex matrix m.

    It is exactly Hermitian, ``entries[i, j] == conj(entries[j, i])``
    with a real diagonal, and is the matrix whose smallest eigenvalue the
    parameter search computes.  The backing array is frozen after
    construction.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidProblem(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise InvalidProblem("matrix order must be at least 1")
        m = _hermitian_part(a)
        m.flags.writeable = False
        self._m = m

    @property
    def entries(self) -> np.ndarray:
        return self._m


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def classical_pick(nodes, values) -> HermitianMatrix:
    """Classical Pick matrix [(1 - v_i conj(v_j)) / (1 - z_i conj(z_j))]."""
    z = _check_open_disk(nodes, "nodes")
    v = np.asarray([complex(x) for x in values], dtype=complex)
    if len(z) != len(v):
        raise InvalidProblem(f"{len(z)} nodes vs {len(v)} values")
    if len(set(z.tolist())) != len(z):
        raise InvalidProblem("nodes must be distinct")
    num = 1.0 - np.outer(v, v.conj())
    den = 1.0 - np.outer(z, z.conj())
    return HermitianMatrix(num / den)


class PickBuilder:
    """Constrained Pick matrix of one problem at exponents (E, d), as a function of lam.

    Entry (i, j) is

        (z_i^E conj(z_j)^E - phi_lam(w_i) conj(phi_lam(w_j)))
        / (1 - (z_i conj(z_j))^d),

    defined when d divides E and the nodes' d-th powers are distinct.  The
    data are checked by ``Problem``; this checks the exponents and distinct
    d-th powers, and caches the lam-independent blocks.  No method checks lam.
    """

    def __init__(self, problem: Problem, E: int, d: int):
        if d < 1 or E < 1:
            raise InvalidExponent(f"exponents must be positive, got E={E}, d={d}")
        if E % d != 0:
            raise InvalidExponent(f"scale d={d} must divide the numerator exponent E={E}")
        z = np.array(problem.nodes)
        if len(set((z**d).tolist())) != len(z):
            raise InvalidProblem(f"the nodes' d-th powers must be distinct, d={d}")
        ze = z**E
        self._targets = np.array(problem.targets)
        self._powers = np.outer(ze, ze.conj())
        self._den = 1.0 - np.outer(z, z.conj()) ** d

    def _entries(self, phi: np.ndarray) -> np.ndarray:
        """Entries at phi = phi_lam(targets): (n, n) for phi of shape (n,), (k, n, n) for (k, n)."""
        return (self._powers - phi[..., :, None] * phi[..., None, :].conj()) / self._den

    def entries(self, lam: complex) -> np.ndarray:
        """The matrix at lam, entry by entry (Hermitian up to roundoff)."""
        return self._entries(_mobius(lam, self._targets))

    def min_eigenvalue(self, lam: complex) -> float:
        """Smallest eigenvalue at lam: the objective of the parameter search."""
        return float(_min_eigenvalues(self.entries(lam)))

    def min_eigenvalues(self, lams: np.ndarray) -> np.ndarray:
        """``min_eigenvalue`` at each point of a 1-d array, in one stacked eigensolve.

        For 2 or more points the arithmetic is the scalar path's element for
        element, so each value equals ``min_eigenvalue`` exactly; one point at
        n = 1 can differ in the last bits.
        """
        return _min_eigenvalues(self._entries(_mobius(lams[:, None], self._targets)))

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
        n = len(self._targets)
        margin = 1e-12 * 2.0 * n * n / float(np.min(np.abs(self._den)))
        phi = _mobius(lams[:, None], self._targets)
        diagonal = (self._powers.diagonal().real - (phi.real**2 + phi.imag**2)) / self._den.diagonal().real
        return diagonal.min(axis=1) + margin


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """0.5 (m + m*) of each matrix in m: exactly Hermitian, and equal to m when m already is."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _min_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix in m.

    Calls LAPACK through ``_eigvalsh_lo``, with the bits ``np.linalg.eigvalsh``
    would return.  The gufunc reports a failure to converge as NaN (numpy
    may also warn of an invalid value) where the wrapper raises, so a stack
    with a NaN minimum is redone by ``np.linalg.eigvalsh``, which raises
    ``LinAlgError``, or returns the same NaN for NaN input.
    """
    h = _hermitian_part(m)
    lo = _eigvalsh_lo(h, signature="D->d")[..., 0]
    # one cheap NaN test: a Python sum of the minima, with no ufunc reduction
    s = sum(lo.tolist()) if lo.ndim else float(lo)
    if s != s:
        lo = np.linalg.eigvalsh(h)[..., 0]
    return lo


def constrained_pick(nodes, targets, lam: complex, E: int, d: int) -> HermitianMatrix:
    """Constrained Pick matrix with numerator exponent E and scale d at lam.

    The data are checked as a ``Problem`` (1 to ``MAX_POINTS`` nodes), the rest
    as in ``PickBuilder``; lam must lie in the open disk.
    """
    pick = PickBuilder(Problem(nodes, targets), E, d)
    return HermitianMatrix(pick.entries(_check_open_disk(lam, "Möbius parameter")))


def psd_check(m, tol: float = CLASSICAL_PSD_TOL) -> PsdVerdict:
    """Smallest eigenvalue with a relative positive-semidefiniteness verdict.

    The eigenvalue is ``_min_eigenvalues`` of the Hermitian part; the verdict is
    min_eigenvalue >= -tol * max(1, s) with s the Gershgorin bound
    max_i sum_j |m_ij|, a cheap spectral-norm overestimate.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    a = m.entries if isinstance(m, HermitianMatrix) else HermitianMatrix(m).entries
    if not np.all(np.isfinite(a.view(float))):
        raise NumericalError("matrix contains non-finite entries")
    min_eig = float(_min_eigenvalues(a))
    scale = float(np.max(np.sum(np.abs(a), axis=1)))
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
    z = _check_open_disk(nodes, "nodes")
    if np.any(z == 0):
        raise InvalidProblem("factorization requires nonzero nodes (D must be invertible)")
    h = np.asarray([complex(v) for v in h_values], dtype=complex)
    if len(h) != len(z):
        raise InvalidProblem(f"{len(z)} nodes vs {len(h)} h-values")
    _check_closed_disk(h, "h-values")
    ze = z**E
    targets = np.asarray(mobius(-complex(lam), ze * h), dtype=complex).reshape(len(z))
    m1 = constrained_pick(z, targets, lam, E, d).entries
    p = classical_pick(z**d, h).entries
    dd = np.diag(ze)
    m2 = dd @ p @ dd.conj().T
    return float(np.max(np.abs(m1 - m2)))
