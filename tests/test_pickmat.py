"""Pick matrix construction, PSD verdicts, and the diagonal factorization."""

import numpy as np
import pytest

from cpick import (
    DomainError,
    InvalidConfig,
    InvalidExponent,
    InvalidProblem,
    NumericalError,
    Problem,
    SchurFunction,
    classical_pick,
    constrained_pick,
    factorization_residual,
    find_lambda,
    np_solve,
    psd_check,
    taylor_coeffs,
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
    # psd_check judges the Hermitian part 0.5 (a + a*), which is exactly
    # Hermitian: a, a* and that part give one verdict bit for bit
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + a.conj().T)
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0)
    v = psd_check(a)
    assert v == psd_check(a.conj().T) == psd_check(h)
    assert v.min_eigenvalue == np.linalg.eigvalsh(h)[0]
    assert v.tolerance_used == pickmat.CLASSICAL_PSD_TOL * np.max(np.sum(np.abs(h), axis=1))
    for shape in [(2, 3), (0, 0), (3,), (1, 2, 2)]:
        with pytest.raises(InvalidProblem):
            psd_check(np.zeros(shape))


def test_classical_pick_examples():
    assert classical_pick([0.5], [0.5])[0, 0] == pytest.approx(1.0)
    assert classical_pick([0.5], [0.0])[0, 0] == pytest.approx(4.0 / 3.0)
    m = classical_pick([0, 0.5], [0, 0.5])
    assert np.allclose(m, np.ones((2, 2)))
    assert psd_check(m).min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidProblem):
        classical_pick([0.5, 0.5], [0.1, 0.2])
    with pytest.raises(InvalidProblem, match="2 nodes vs 1 values"):
        classical_pick([0.1, 0.5], [0.2])


def test_constrained_pick_single_entry():
    m = constrained_pick([0.5], [0.0], 0, 2, 1)
    assert m[0, 0] == pytest.approx(1.0 / 12.0)


def test_constrained_pick_zero_node_pinned_row_vanishes():
    lam = 0.4 - 0.1j
    m = constrained_pick([0, 0.5, -0.3j], [lam, 0.2, 0.1], lam, 2, 1)
    assert np.all(m[0, :] == 0)
    assert np.all(m[:, 0] == 0)


def test_constrained_pick_rank_pattern_when_targets_are_powers():
    """With lam = 0 and w_i = z_i^2 the matrix is the h = 1 factorization."""
    rng = np.random.default_rng(17)
    nodes = random_nodes(rng, 4)
    targets = [z**2 for z in nodes]
    m1 = constrained_pick(nodes, targets, 0, 2, 1)
    d = np.diag(np.array(nodes) ** 2)
    p = classical_pick(nodes, np.ones(4))
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
    # exponents are read as integers: True is not E = 1, and "2" is not 2
    for E in (True, "2", 1.5):
        with pytest.raises(InvalidExponent, match="must be integers"):
            find_lambda(Problem((0.5,), (0.2,)), E, 1)
    with pytest.raises(InvalidExponent, match="must be integers"):
        constrained_pick([0.5], [0.1], 0, 2, "1")
    # ... before they reach a power, so no numpy TypeError leaks
    with pytest.raises(InvalidExponent, match="must be integers"):
        factorization_residual([0.4], [0.5], 0.2, "2", 1)
    for E, d in (("2", 1), (2, 1.5), (3, 2)):
        with pytest.raises(InvalidExponent):
            pickmat.h_data(Problem((0.5,), (0.2,)), 0.1, E, d)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("E,d", [(1, 1), (4, 2), (9, 3)])
def test_stacked_min_eigenvalues_equal_scalar_path_exactly(n, E, d):
    # The search scores points in stacks of every size: the grid all at once,
    # the simplex in 1, 2 or 3.  Each value must be the verdict's eigenvalue
    # of constrained_pick at that single lam bit for bit, not within a
    # tolerance, so that the verdict judges the value the search reports.
    # At n = 1 numpy multiplies a stack of one lam against an (n,) vector of
    # targets in another kernel than a larger stack, with other last bits;
    # the n = 1 cases fail if the builder keeps its targets in that shape.
    rng = np.random.default_rng(1000 * n + 10 * E + d)
    nodes, targets = random_nodes(rng, n, d=d), [disk_point(rng, 0.9) for _ in range(n)]
    pick = PickBuilder(Problem(nodes, targets), E, d)
    lams = np.array([0j, 0.99 * np.exp(0.7j)] + [disk_point(rng, 0.99) for _ in range(30)])
    verdicts = [psd_check(constrained_pick(nodes, targets, lam, E, d), 0.0).min_eigenvalue for lam in lams]
    stacked = pick.min_eigenvalues(lams)
    assert stacked.shape == lams.shape
    assert np.array_equal(stacked, verdicts)
    for size in (1, 2, 3):
        for start in range(0, len(lams) - size + 1, size):
            part = pick.min_eigenvalues(lams[start : start + size])
            assert np.array_equal(part, verdicts[start : start + size])
    assert all(pick.min_eigenvalues(complex(lam)) == verdicts[i] for i, lam in enumerate(lams))


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("E,d", [(1, 1), (4, 2), (9, 3)])
def test_outer_products_equal_np_outer_exactly(n, E, d):
    # The builder's lam-independent blocks and classical_pick make the call
    # np.outer makes; a shorter broadcast such as a[:, None] * b.conj() can
    # change last bits by shape, which would move every verdict.
    rng = np.random.default_rng(1000 * n + 10 * E + d)
    nodes, targets = random_nodes(rng, n, d=d), [disk_point(rng, 0.9) for _ in range(n)]
    pick = PickBuilder(Problem(nodes, targets), E, d)
    z, w = np.array(nodes), np.array(targets)
    assert np.array_equal(pick._powers, np.outer(z**E, (z**E).conj()))
    assert np.array_equal(pick._den, 1.0 - np.outer(z, z.conj()) ** d)
    classical = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z**d, (z**d).conj()))
    assert np.array_equal(classical_pick(z**d, w), classical)


def _public_min_eigenvalues(h):
    return np.linalg.eigvalsh(h)[..., 0]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 64])
def test_min_eigenvalues_equal_public_eigvalsh_exactly(k, n):
    # the direct LAPACK call must return the bits np.linalg.eigvalsh returns
    rng = np.random.default_rng(100 * k + n)
    m = pickmat._hermitian_part(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
    assert np.array_equal(pickmat._min_eigenvalues(m), _public_min_eigenvalues(m))
    assert np.array_equal(pickmat._min_eigenvalues(m[0]), _public_min_eigenvalues(m[0]))


def test_min_eigenvalues_redo_a_nan_stack_through_numpy(monkeypatch):
    # the gufunc reports a failure to converge as NaN where np.linalg.eigvalsh raises
    rng = np.random.default_rng(5)
    m = pickmat._hermitian_part(rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))
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
    v = psd_check(np.eye(3))
    assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)
    v = psd_check([[1, 2], [2, 1]])
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(-1.0)
    v = psd_check(np.zeros((2, 2)))
    assert v.is_psd and v.min_eigenvalue == 0.0
    with pytest.raises(NumericalError):
        psd_check([[np.nan]])
    # a NaN tolerance would fail every matrix, an infinite one pass every matrix
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InvalidConfig, match="finite and nonnegative"):
            psd_check(np.eye(2), tol)
    # a -0.0 tolerance is read as 0.0, so that tolerances comparing equal echo alike
    assert str(psd_check([[1.0]], -0.0).tolerance_used) == "0.0"


@pytest.mark.parametrize("tol", [1e-8, 0.0])
def test_psd_check_refuses_row_sums_that_overflow(tol):
    # Every entry is finite, but the Gershgorin scale, each row's sum of
    # moduli, overflows; the verdict would use an inf tolerance (NaN at tol 0)
    # and call this matrix, of smallest eigenvalue -1.6e308, PSD.
    m = np.full((3, 3), 8e307) - 1.6e308 * np.eye(3)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="row sums overflow"):
        psd_check(m, tol)


@pytest.mark.parametrize(
    "call",
    [
        lambda: psd_check([[1, 2], [3]]),
        lambda: psd_check([["a"]]),
        lambda: classical_pick([0.1, 0.2], ["a", 0]),
        lambda: Problem(nodes=("a",), targets=(0,)),
        lambda: np_solve([0.1], ["a"]),
        lambda: Problem(nodes=([0.1],), targets=(0,)),
        lambda: SchurFunction(steps=((0.1, "x"),), tail=0),
        lambda: factorization_residual([0.4], [0.5], "x", 2, 1),
        lambda: constrained_pick([0.1, 0.5j], [0, 0.2], [0.2], 2, 1),
        lambda: factorization_residual([0.4], [0.5], [0.2], 2, 1),
    ],
    ids=[
        "ragged matrix",
        "non-numeric matrix",
        "non-numeric values",
        "non-numeric nodes",
        "non-numeric np_solve values",
        "nested nodes",
        "non-numeric Schur value",
        "non-numeric factorization lambda",
        "array constrained-Pick lambda",
        "array factorization lambda",
    ],
)
def test_malformed_input_raises_invalid_problem(call):
    # numpy's own ValueError would not name the input in the package's error types
    with pytest.raises(InvalidProblem, match="must be a rectangular array of numbers"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: taylor_coeffs(np.ones(8), 1, "0.5"),
        lambda: taylor_coeffs(np.ones(8), 1, True),
        lambda: psd_check([[1.0]], "0.1"),
        lambda: psd_check([[1.0]], True),
        lambda: np_solve([0.1], [0.2], tol="x"),
        lambda: np_solve([0.1], [0.2], tol=float("-inf")),
        lambda: np_solve([], [], tol="x"),
    ],
    ids=[
        "string radius",
        "boolean radius",
        "string tolerance",
        "boolean tolerance",
        "string np_solve tolerance",
        "infinite np_solve tolerance",
        "np_solve tolerance on empty data",
    ],
)
def test_malformed_tolerance_or_radius_raises_invalid_config(call):
    # Python's TypeError, or a boolean read as 1.0, would not name the argument;
    # np_solve reads its tolerance before the data, so empty data refuse it too
    with pytest.raises(InvalidConfig, match="tolerance|radius"):
        call()


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


def test_factorization_rejects_mismatched_lengths():
    with pytest.raises(InvalidProblem, match="2 nodes vs 1 h-values"):
        factorization_residual([0.4, 0.5], [0.1], 0.1, 2, 1)


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
            direct = constrained_pick(nodes, targets, lam, m * d, d)
            powered = constrained_pick([z**d for z in nodes], targets, lam, m, 1)
            assert np.max(np.abs(direct - powered)) <= 1e-14


def test_h_data_is_the_classical_side_of_the_congruence():
    # M = D P D* with D = diag(z_i^E) and P the classical Pick matrix of h_data
    rng = np.random.default_rng(29)
    for n, E, d in [(1, 1, 1), (3, 2, 1), (4, 4, 2), (5, 6, 3)]:
        nodes = random_nodes(rng, n, d)
        problem = Problem(tuple(nodes), tuple(disk_point(rng, 0.8) for _ in range(n)))
        lam = disk_point(rng, 0.8)
        h_nodes, h_values = pickmat.h_data(problem, lam, E, d)
        assert h_nodes == [z**d for z in nodes]
        ze = np.array(nodes) ** E
        p = np.diag(ze) @ classical_pick(h_nodes, h_values) @ np.diag(ze).conj()
        m = constrained_pick(problem.nodes, problem.targets, lam, E, d)
        assert np.max(np.abs(m - p)) <= 1e-12


def test_h_data_drops_the_origin_projects_and_refuses_underflow():
    lam = 0.2 + 0.1j
    # the node at 0 is consumed by lam; the other value lands 5e-7 past the circle
    problem = Problem((0, 0.3), (lam, pickmat._mobius(-lam, 0.09 * (1 + 5e-7))))
    h_nodes, h_values = pickmat.h_data(problem, lam, 2, 1)
    assert h_nodes == [0.3] and abs(h_values[0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NumericalError, match=r"node \(0.3\+0j\) to the power 701 underflows to zero"):
        pickmat.h_data(Problem((0.3, 0.5), (0.1, 0.1)), 0j, 701, 1)
