"""Pick matrix construction, PSD verdicts, and the diagonal factorization."""

import numpy as np
import pytest

from cpick import (
    DomainError,
    HermitianMatrix,
    InvalidExponent,
    InvalidProblem,
    NumericalError,
    Problem,
    classical_pick,
    constrained_pick,
    factorization_residual,
    psd_check,
)
from cpick import pickmat
from cpick.pickmat import PickBuilder
from conftest import disk_point


def random_nodes(rng, n, d=1, radius=0.85, gap=0.05):
    nodes = []
    while len(nodes) < n:
        z = disk_point(rng, radius)
        if abs(z) < gap:
            continue
        if all(abs(z - w) >= gap for w in nodes) and all(
            abs(z**d - w**d) >= gap / 2 for w in nodes
        ):
            nodes.append(z)
    return nodes


def test_hermitian_mirroring_is_exact():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = HermitianMatrix(a).entries
    assert np.array_equal(m, m.conj().T)
    assert np.all(m.diagonal().imag == 0)
    with pytest.raises(InvalidProblem):
        HermitianMatrix(np.zeros((2, 3)))


def test_classical_pick_examples():
    assert classical_pick([0.5], [0.5]).entries[0, 0] == pytest.approx(1.0)
    assert classical_pick([0.5], [0.0]).entries[0, 0] == pytest.approx(4.0 / 3.0)
    m = classical_pick([0, 0.5], [0, 0.5]).entries
    assert np.allclose(m, np.ones((2, 2)))
    assert psd_check(m).min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidProblem):
        classical_pick([0.5, 0.5], [0.1, 0.2])


def test_constrained_pick_single_entry():
    m = constrained_pick([0.5], [0.0], 0, 2, 1).entries
    assert m[0, 0] == pytest.approx(1.0 / 12.0)


def test_constrained_pick_zero_node_pinned_row_vanishes():
    lam = 0.4 - 0.1j
    m = constrained_pick([0, 0.5, -0.3j], [lam, 0.2, 0.1], lam, 2, 1).entries
    assert np.all(m[0, :] == 0)
    assert np.all(m[:, 0] == 0)


def test_constrained_pick_rank_pattern_when_targets_are_powers():
    """With lam = 0 and w_i = z_i^2 the matrix is the h = 1 factorization."""
    rng = np.random.default_rng(17)
    nodes = random_nodes(rng, 4)
    targets = [z**2 for z in nodes]
    m1 = constrained_pick(nodes, targets, 0, 2, 1).entries
    d = np.diag(np.array(nodes) ** 2)
    p = classical_pick(nodes, np.ones(4)).entries
    m2 = d @ p @ d.conj().T
    assert np.max(np.abs(m1 - m2)) <= 1e-14
    assert abs(psd_check(m1).min_eigenvalue) <= 1e-12


def test_constrained_pick_validation():
    with pytest.raises(InvalidExponent):
        constrained_pick([0.5], [0.1], 0, 3, 2)
    with pytest.raises(InvalidExponent):
        constrained_pick([0.5], [0.1], 0, 0, 1)
    with pytest.raises(InvalidProblem):
        constrained_pick([0.5, -0.5], [0.1, 0.2], 0, 2, 2)  # squares collide
    with pytest.raises(DomainError):
        constrained_pick([0.5], [1.1], 0, 2, 1)
    with pytest.raises(DomainError):
        constrained_pick([0.5], [0.1], 1.0, 2, 1)
    with pytest.raises(DomainError):
        constrained_pick([0.5], [float("nan")], 0, 2, 1)
    with pytest.raises(DomainError):
        constrained_pick([0.5], [0.1], float("nan"), 2, 1)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("E,d", [(1, 1), (4, 2), (9, 3)])
def test_stacked_min_eigenvalues_equal_scalar_path_exactly(n, E, d):
    # the grid is scored in stacked eigensolves; the arithmetic is the scalar
    # objective's, so the values must agree bit for bit, not within a tolerance
    rng = np.random.default_rng(1000 * n + 10 * E + d)
    pick = PickBuilder(Problem(random_nodes(rng, n, d=d), [disk_point(rng, 0.9) for _ in range(n)]), E, d)
    lams = np.array([0j, 0.99 * np.exp(0.7j)] + [disk_point(rng, 0.99) for _ in range(30)])
    stacked = pick.min_eigenvalues(lams)
    assert stacked.shape == lams.shape
    assert np.array_equal(stacked, [pick.min_eigenvalue(complex(lam)) for lam in lams])
    # the simplex scores its reflection and contraction points in stacks of 2 and 3
    for size in (2, 3):
        for start in range(0, len(lams) - size + 1, size):
            part = lams[start : start + size]
            assert np.array_equal(pick.min_eigenvalues(part), stacked[start : start + size])


def _public_min_eigenvalues(m):
    return np.linalg.eigvalsh(pickmat._hermitian_part(m))[..., 0]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 64])
def test_min_eigenvalues_equal_public_eigvalsh_exactly(k, n):
    # the direct LAPACK call must return the bits np.linalg.eigvalsh returns
    rng = np.random.default_rng(100 * k + n)
    m = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    assert np.array_equal(pickmat._min_eigenvalues(m), _public_min_eigenvalues(m))
    assert np.array_equal(pickmat._min_eigenvalues(m[0]), _public_min_eigenvalues(m[0]))


def test_min_eigenvalues_redo_a_nan_stack_through_numpy(monkeypatch):
    # the gufunc reports a failure to converge as NaN where np.linalg.eigvalsh raises
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    expected = _public_min_eigenvalues(m)
    calls = []

    def failed(a, signature):
        calls.append(signature)
        return np.full(a.shape[:-1], np.nan)

    monkeypatch.setattr(pickmat, "_eigvalsh_lo", failed)
    assert np.array_equal(pickmat._min_eigenvalues(m), expected)
    assert pickmat._min_eigenvalues(m[1]) == expected[1]
    assert calls == ["D->d", "D->d"]

    def not_converged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", not_converged)
    with pytest.raises(np.linalg.LinAlgError):
        pickmat._min_eigenvalues(m)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("E,d", [(1, 1), (4, 2), (9, 3)])
def test_min_eigenvalue_bounds_hold(n, E, d):
    # the grid skips a point whose bound is below a computed value, so the
    # bound must hold for the computed eigenvalue, not only the exact one
    rng = np.random.default_rng(2000 * n + 10 * E + d)
    pick = PickBuilder(Problem(random_nodes(rng, n, d=d), [disk_point(rng, 0.9) for _ in range(n)]), E, d)
    lams = np.array([0j, 0.999, 0.999 * np.exp(2.1j)] + [disk_point(rng, 0.999) for _ in range(200)])
    assert np.all(pick.min_eigenvalues(lams) <= pick.min_eigenvalue_bounds(lams))


def _tiny_nodes():
    # |z| = 0.05 with distinct 12th powers: |z|^(2E) is about 2e-94
    return [0.05 * np.exp(2j * np.pi * k / (12 * 16)) for k in range(16)], 36, 12


def _near_duplicate_nodes():
    base = [0.9, 0.3 + 0.5j, -0.7j, 0.998 * np.exp(0.4j)]
    return base + [z + 1e-7 for z in base], 2, 1


def _boundary_nodes():
    return [0.999 * np.exp(2j * np.pi * k / 18) for k in range(6)], 6, 3


@pytest.mark.parametrize("make", [_tiny_nodes, _near_duplicate_nodes, _boundary_nodes])
def test_min_eigenvalue_bounds_hold_in_extreme_regimes(make):
    rng = np.random.default_rng(53)
    nodes, E, d = make()
    circle = [0.999 * np.exp(2j * np.pi * k / 64) for k in range(64)]
    lams = np.array(circle + [disk_point(rng, 0.999) for _ in range(64)])
    for radius in (0.05, 0.9, 0.999):
        targets = [radius * np.exp(2j * np.pi * rng.uniform()) for _ in nodes]
        pick = PickBuilder(Problem(nodes, targets), E, d)
        assert np.all(pick.min_eigenvalues(lams) <= pick.min_eigenvalue_bounds(lams))


def test_psd_check_examples():
    v = psd_check(HermitianMatrix(np.eye(3)))
    assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)
    v = psd_check(HermitianMatrix([[1, 2], [2, 1]]))
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(-1.0)
    v = psd_check(HermitianMatrix(np.zeros((2, 2))))
    assert v.is_psd and v.min_eigenvalue == 0.0
    with pytest.raises(NumericalError):
        psd_check(HermitianMatrix([[np.nan]]))
    # a NaN tolerance would fail every matrix, an infinite one pass every matrix
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            psd_check(HermitianMatrix(np.eye(2)), tol)


def test_psd_check_permutation_invariance():
    rng = np.random.default_rng(23)
    nodes = random_nodes(rng, 5)
    targets = [disk_point(rng, 0.8) for _ in range(5)]
    base = psd_check(constrained_pick(nodes, targets, 0.1j, 2, 1))
    for _ in range(5):
        perm = rng.permutation(5)
        v = psd_check(
            constrained_pick([nodes[i] for i in perm], [targets[i] for i in perm], 0.1j, 2, 1)
        )
        assert v.is_psd == base.is_psd
        assert v.min_eigenvalue == pytest.approx(base.min_eigenvalue, abs=1e-12)


def test_factorization_residual_fixtures():
    assert factorization_residual([0.4], [0.5], 0.2, 2, 1) <= 1e-14
    assert factorization_residual([0.4, 0.2 - 0.3j], [0, 0], 0.2, 2, 1) <= 1e-14
    rng = np.random.default_rng(29)
    nodes = random_nodes(rng, 4)
    h = [disk_point(rng, 1.0) for _ in range(4)]
    assert factorization_residual(nodes, h, disk_point(rng, 0.8), 3, 1) <= 1e-13


def test_factorization_residual_random_sweep():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        e = d * int(rng.integers(1, 4))
        nodes = random_nodes(rng, n, d=d)
        h = [disk_point(rng, 1.0) for _ in range(n)]
        lam = disk_point(rng, 0.9)
        worst = max(worst, factorization_residual(nodes, h, lam, e, d))
    assert worst <= 1e-12


def test_factorization_rejects_zero_nodes():
    with pytest.raises(InvalidProblem):
        factorization_residual([0.0, 0.5], [0.1, 0.2], 0.1, 2, 1)


def test_substitution_coherence():
    """The scaled matrix equals the unscaled matrix on powered nodes."""
    rng = np.random.default_rng(43)
    for d in (2, 3):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            nodes = random_nodes(rng, n, d=d)
            targets = [disk_point(rng, 0.8) for _ in range(n)]
            lam = disk_point(rng, 0.8)
            m = int(rng.integers(1, 4))
            direct = constrained_pick(nodes, targets, lam, m * d, d).entries
            powered = constrained_pick([z**d for z in nodes], targets, lam, m, 1).entries
            assert np.max(np.abs(direct - powered)) <= 1e-14
