"""Parameter search: closed-form pinned cases, grids, determinism."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpick import (
    DomainError,
    InvalidConfig,
    InvalidProblem,
    Problem,
    SearchConfig,
    constrained_pick,
    find_lambda,
    mobius,
    psd_check,
)
from cpick.feasibility import LAMBDA_CLAMP, _clamp, _grid_points
from cpick.pickmat import PickBuilder
from conftest import disk_point


def test_problem_validation():
    with pytest.raises(InvalidProblem):
        Problem(nodes=(), targets=())
    with pytest.raises(InvalidProblem):
        Problem(nodes=(0.1, 0.1), targets=(0.2, 0.3))
    with pytest.raises(InvalidProblem):
        Problem(nodes=(0.1,), targets=(0.2, 0.3))
    with pytest.raises(DomainError):
        Problem(nodes=(1.0,), targets=(0.2,))
    with pytest.raises(DomainError):
        Problem(nodes=(0.5,), targets=(1.0,))
    # NaN is in no disk: abs(nan) >= 1 is false, so the checks are written as not abs(z) < 1
    with pytest.raises(DomainError):
        Problem(nodes=(float("nan"), 0.5), targets=(0.1, 0.2))
    with pytest.raises(DomainError):
        Problem(nodes=(0.1, 0.5), targets=(complex(0.1, float("nan")), 0.2))


def test_objective_closed_forms():
    pick = PickBuilder(Problem((0.5,), (0.7,)), 2, 1)
    # at lam = w the numerator loses its subtrahend entirely
    assert pick.min_eigenvalue(0.7) == pytest.approx(0.0625 / 0.75, abs=1e-12)
    assert pick.min_eigenvalue(0.0) == pytest.approx((0.0625 - 0.49) / 0.75, abs=1e-12)


def test_objective_drops_pinned_zero_row():
    p = Problem(nodes=(0, 0.5), targets=(0.3, 0.2))
    # the pinned value is the 1x1 block of the remaining node, bit for bit
    r = find_lambda(p, 2, 1)
    assert r.pinned and r.best_min_eigenvalue == PickBuilder(Problem((0.5,), (0.2,)), 2, 1).min_eigenvalue(0.3)
    # at any other parameter the full matrix has the zero node's row and cannot be PSD
    assert PickBuilder(p, 2, 1).min_eigenvalue(0.1) < 0


def test_find_lambda_single_node_lands_near_target():
    p = Problem(nodes=(0.5,), targets=(0.7,))
    r = find_lambda(p, 2, 1)
    assert r.feasible and not r.pinned
    assert abs(r.lambda_ - 0.7) <= 0.1
    assert r.best_min_eigenvalue >= 0
    assert r.evaluations > 700


def test_find_lambda_pinned_threshold_family():
    feasible = find_lambda(Problem(nodes=(0, 0.5), targets=(0, 0.2)), 2, 1)
    assert feasible.feasible and feasible.pinned and feasible.lambda_ == 0
    assert feasible.evaluations == 1
    assert feasible.best_min_eigenvalue == pytest.approx((0.5**4 - 0.04) / 0.75, abs=1e-12)

    infeasible = find_lambda(Problem(nodes=(0, 0.5), targets=(0, 0.3)), 2, 1)
    assert not infeasible.feasible and infeasible.pinned
    assert infeasible.lambda_ is None
    assert infeasible.best_min_eigenvalue == pytest.approx((0.5**4 - 0.09) / 0.75, abs=1e-12)

    boundary = find_lambda(Problem(nodes=(0, 0.5), targets=(0, 0.25)), 2, 1)
    assert boundary.feasible
    assert abs(boundary.best_min_eigenvalue) <= 1e-12


def test_pinned_never_searches():
    p = Problem(nodes=(0, 0.4j), targets=(0.2 + 0.1j, 0.05))
    r = find_lambda(p, 2, 1)
    assert r.pinned and r.evaluations == 1
    if r.feasible:
        assert r.lambda_ == 0.2 + 0.1j


def test_monotone_in_pinned_target():
    values = []
    for t in np.linspace(0.0, 0.5, 11):
        r = find_lambda(Problem(nodes=(0, 0.5), targets=(0, t)), 2, 1)
        values.append(r.best_min_eigenvalue)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_witness_reverifies():
    rng = np.random.default_rng(53)
    cfg = SearchConfig()
    found = 0
    while found < 5:
        nodes = []
        while len(nodes) < 2:
            z = disk_point(rng, 0.7)
            if abs(z) > 0.1 and all(abs(z - w) > 0.2 for w in nodes):
                nodes.append(z)
        targets = [0.5 * z**2 for z in nodes]  # feasible by construction
        p = Problem(nodes=tuple(nodes), targets=tuple(targets))
        r = find_lambda(p, 2, 1, cfg)
        assert r.feasible
        verdict = psd_check(constrained_pick(p.nodes, p.targets, r.lambda_, 2, 1), cfg.tol)
        assert verdict.is_psd
        found += 1


def test_determinism():
    p = Problem(nodes=(0.3, -0.2 + 0.4j), targets=(0.1, 0.2j))
    r1 = find_lambda(p, 2, 1)
    r2 = find_lambda(p, 2, 1)
    assert r1 == r2


def test_search_fast_path_matches_public_objective():
    # the search evaluates one cached builder per problem; it must agree
    # with a fresh constrained Pick matrix at every parameter
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.85)
            if (
                abs(z) > 0.05
                and all(abs(z - w) > 0.05 for w in nodes)
                and all(abs(z**2 - w**2) > 0.02 for w in nodes)
            ):
                nodes.append(z)
        p = Problem(tuple(nodes), tuple(disk_point(rng, 0.8) for _ in range(n)))
        pick = PickBuilder(p, 4, 2)
        for _ in range(5):
            lam = disk_point(rng, 0.9)
            expected = np.linalg.eigvalsh(constrained_pick(p.nodes, p.targets, lam, 4, 2).entries)[0]
            assert abs(pick.min_eigenvalue(lam) - expected) <= 1e-12


def test_search_config_json_and_validation():
    cfg = SearchConfig.from_json({"radii": [0.0, 0.5], "angles": 8, "refine_iters": 10, "tol": 1e-6})
    assert cfg.radii == (0.0, 0.5) and cfg.angles == 8
    assert SearchConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(InvalidConfig):
        SearchConfig.from_json({"angle": 8})
    with pytest.raises(InvalidConfig):
        SearchConfig(radii=(1.0,))
    with pytest.raises(InvalidConfig):
        SearchConfig(angles=0)
    with pytest.raises(InvalidConfig, match="'tol'"):
        SearchConfig(tol="1e-8")


@pytest.mark.parametrize("field", ["angles", "refine_iters"])
@pytest.mark.parametrize(
    "value", [8.7, 2.5, float("nan"), float("inf"), None, "eight", np.float32(8.7), "8", True]
)
def test_search_config_rejects_non_integers(field, value):
    with pytest.raises(InvalidConfig, match=field):
        SearchConfig(**{field: value})


def test_search_config_stores_plain_ints():
    cfg = SearchConfig(angles=np.int64(8), refine_iters=10.0)
    assert type(cfg.angles) is int and type(cfg.refine_iters) is int
    assert cfg.to_json()["angles"] == 8 and type(cfg.to_json()["angles"]) is int
    assert cfg == SearchConfig(angles=8, refine_iters=10)
    # a -0.0 radius compares equal to 0.0, so it must also search the same grid
    assert np.copysign(1.0, SearchConfig(radii=(-0.0, 0.5)).radii[0]) == 1.0


def test_grid_is_cached_and_read_only():
    points = _grid_points((0.0, 0.5), 8)
    # the radius-0 ring collapses to one point, listed first
    assert points.shape == (9,) and points[0] == 0 and np.allclose(np.abs(points[1:]), 0.5)
    with pytest.raises(ValueError):
        points[0] = 0.25
    assert _grid_points((0.0, 0.5), 8) is points
    cfg = SearchConfig(radii=[0.0, 0.5], angles=np.int64(8))
    assert _grid_points(cfg.radii, cfg.angles) is points
    assert len(_grid_points((0.0, 0.5), 9)) == 10
    assert np.array_equal(_grid_points((0.5, 0.5, 0.0), 8), np.append(points[1:], 0))
    assert not np.array_equal(_grid_points((0.0, 0.6), 8), points)


def test_cold_and_warm_grid_give_the_same_search():
    cfg = SearchConfig(radii=(0.0, 0.35, 0.7), angles=24)
    p = Problem(nodes=(0.3, -0.2 + 0.4j), targets=(0.1, 0.2j))
    _grid_points.cache_clear()
    cold = find_lambda(p, 2, 1, cfg)
    assert _grid_points.cache_info().currsize == 1
    warm = find_lambda(p, 2, 1, cfg)
    assert _grid_points.cache_info().hits >= 1
    assert cold == warm


def test_small_grid_still_refines():
    cfg = SearchConfig(radii=(0.0, 0.5), angles=4, refine_iters=60, tol=1e-8)
    p = Problem(nodes=(0.5,), targets=(0.61,))
    r = find_lambda(p, 2, 1, cfg)
    # the coarse grid misses, the simplex walk recovers the feasible spot
    assert r.feasible
    assert abs(r.lambda_ - 0.61) <= 0.2


def _looped_find_lambda(problem, E, d, cfg):
    """Reference search with the grid scored one parameter at a time.

    The grid points, their exact-value dedup and the order by (-value,
    radius index, angle index) are rebuilt here, followed by a copy of the
    search's simplex, one scalar evaluation per trial point; returns
    (lambda, best value, evaluations, Counter of simplex moves).
    """
    pick = PickBuilder(problem, E, d)
    scored, seen = [], set()
    for ri, r in enumerate(cfg.radii):
        for ai in range(cfg.angles):
            lam = complex(r * np.exp(2j * np.pi * ai / cfg.angles))
            if lam not in seen:
                seen.add(lam)
                scored.append((pick.min_eigenvalue(lam), ri, ai, lam))
    scored.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
    best_obj, best_lam, evaluations = scored[0][0], scored[0][3], len(scored)
    moves = Counter()

    def score(x):
        nonlocal best_obj, best_lam, evaluations
        lam = complex(x[0], x[1])
        evaluations += 1
        val = pick.min_eigenvalue(lam)
        if val > best_obj:
            best_obj, best_lam = val, lam
        return val

    def clamp(x):
        r = float(np.hypot(x[0], x[1]))
        if r > 0.999:
            moves["clamp"] += 1
            return x * (0.999 / r)
        return x

    simplex = [np.array([rec[3].real, rec[3].imag]) for rec in scored[:3]]
    while len(simplex) < 3:
        simplex.append(simplex[0] + 0.01 * np.eye(2)[len(simplex) - 1])
    simplex = [clamp(x) for x in simplex]
    vals = [score(x) for x in simplex]
    for _ in range(cfg.refine_iters):
        order = sorted(range(3), key=lambda i: -vals[i])
        simplex, vals = [simplex[i] for i in order], [vals[i] for i in order]
        if max(np.max(np.abs(simplex[0] - simplex[i])) for i in (1, 2)) < 1e-12:
            break
        centroid = 0.5 * (simplex[0] + simplex[1])
        reflected = clamp(centroid + (centroid - simplex[2]))
        f_r = score(reflected)
        if f_r > vals[0]:
            expanded = clamp(centroid + 2.0 * (centroid - simplex[2]))
            f_e = score(expanded)
            moves["expand" if f_e > f_r else "reflect"] += 1
            simplex[2], vals[2] = (expanded, f_e) if f_e > f_r else (reflected, f_r)
        elif f_r > vals[1]:
            moves["reflect"] += 1
            simplex[2], vals[2] = reflected, f_r
        else:
            contracted = clamp(centroid + 0.5 * (simplex[2] - centroid))
            f_c = score(contracted)
            if f_c > vals[2]:
                moves["contract"] += 1
                simplex[2], vals[2] = contracted, f_c
            else:
                moves["shrink"] += 1
                for i in (1, 2):
                    simplex[i] = clamp(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                    vals[i] = score(simplex[i])
    return best_lam, best_obj, evaluations, moves


def _grid_problems():
    rng = np.random.default_rng(97)
    problems = [
        # |phi_lam(0)| = |lam|: every point of a ring ties up to roundoff
        (Problem(nodes=(0.5,), targets=(0.0,)), 2, 1),
        (Problem(nodes=(0.3j, -0.6), targets=(0.0, 0.0)), 1, 1),
        # the optimum lies past the clamp radius, so the simplex presses against it
        (Problem(nodes=(0.5,), targets=(0.9995,)), 2, 1),
        # real data make the objective symmetric under conjugation; with one grid
        # point two shrink points tie exactly, and the first one scored must win
        (Problem(nodes=(-0.8, 0.1), targets=(0.0, 0.2)), 2, 1),
    ]
    for n, (E, d) in zip([1, 2, 3, 4, 6, 8], [(1, 1), (2, 1), (4, 2), (2, 1), (3, 3), (1, 1)]):
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.9)
            if abs(z) > 0.1 and all(abs(z - w) > 0.1 and abs(z**d - w**d) > 0.05 for w in nodes):
                nodes.append(z)
        problems.append((Problem(tuple(nodes), tuple(disk_point(rng, 0.8) for _ in range(n))), E, d))
    return problems


GRID_CONFIGS = [
    SearchConfig(),
    SearchConfig(radii=(0.0,), angles=1),  # one point: the simplex is padded
    SearchConfig(radii=(0.5, 0.5)),  # the second ring is all duplicates
    SearchConfig(radii=(0.0, 0.3), angles=1),
]


@pytest.mark.parametrize("cfg", GRID_CONFIGS)
def test_stacked_grid_matches_looped_grid(cfg):
    moves = Counter()
    for p, E, d in _grid_problems():
        r = find_lambda(p, E, d, cfg)
        lam, best, evaluations, problem_moves = _looped_find_lambda(p, E, d, cfg)
        moves += problem_moves
        assert not r.pinned
        assert r.evaluations == evaluations
        assert r.best_min_eigenvalue == best
        assert r.lambda_ == (lam if r.feasible else None)
        verdict = psd_check(constrained_pick(p.nodes, p.targets, lam, E, d), cfg.tol)
        assert r.feasible == verdict.is_psd
        assert verdict.min_eigenvalue == r.best_min_eigenvalue
    # every simplex move is exercised, so the match above guards each of them
    assert all(moves[m] > 0 for m in ("expand", "reflect", "contract", "shrink", "clamp")), moves


def test_pruning_keeps_a_top_three_point_whose_bound_is_below_the_best():
    # Feasible data, targets phi_{-lam}(z^3 h(z)) with h = 0.77 phi_a.  One of
    # the three best grid points lies outside the three with the largest
    # bounds, and its bound is below the best of their values: a pruning
    # threshold at that best value, not the third-best, would drop it.
    nodes, lam0, a = (-0.08 + 0.68j, 0.32 + 0.03j), 0.56 - 0.34j, -0.06 - 0.48j
    p = Problem(nodes, tuple(mobius(-lam0, z**3 * 0.77 * mobius(a, z)) for z in nodes))
    cfg = SearchConfig()
    pick = PickBuilder(p, 3, 1)
    points = _grid_points(cfg.radii, cfg.angles)
    values, bounds = pick.min_eigenvalues(points), pick.min_eigenvalue_bounds(points)
    first = np.argsort(-bounds, kind="stable")[:3]
    top = np.lexsort((np.arange(len(points)), -values))[:3]
    assert any(i not in first and bounds[i] < values[first].max() for i in top)
    r = find_lambda(p, 3, 1, cfg)
    lam, best, evaluations, _ = _looped_find_lambda(p, 3, 1, cfg)
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam if r.feasible else None, best, evaluations)


_disk_points = st.builds(
    lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
    st.floats(0.01, 0.97),
    st.floats(0.0, 2 * np.pi),
)


@settings(max_examples=100)
@given(
    data=st.lists(st.tuples(_disk_points, _disk_points), min_size=1, max_size=8),
    exponents=st.sampled_from([(1, 1), (2, 1), (3, 1), (5, 1), (4, 2), (3, 3)]),
    cfg=st.sampled_from(GRID_CONFIGS),
    induced=st.none() | st.tuples(_disk_points, _disk_points, st.floats(0.01, 1.0)),
)
def test_pruned_grid_matches_looped_search(data, exponents, cfg, induced):
    # The grid eigensolves only the points whose diagonal bound can reach the
    # top three; the search must still equal the one scoring every point.
    # Induced targets phi_{-lam0}(z^E h(z^d)), h a scaled disk automorphism,
    # are feasible, so the grid's best values crowd a peak as on solve data.
    E, d = exponents
    nodes = [z for z, _ in data]
    assume(all(abs(z**d - w**d) > 1e-3 for i, z in enumerate(nodes) for w in nodes[:i]))
    targets = [w for _, w in data]
    if induced is not None:
        lam0, a, scale = induced
        targets = [mobius(-lam0, z**E * scale * mobius(a, z**d)) for z in nodes]
    p = Problem(tuple(nodes), tuple(targets))
    r = find_lambda(p, E, d, cfg)
    lam, best, evaluations, _ = _looped_find_lambda(p, E, d, cfg)
    assert not r.pinned
    assert (r.evaluations, r.best_min_eigenvalue) == (evaluations, best)
    assert r.lambda_ == (lam if r.feasible else None)
    verdict = psd_check(constrained_pick(p.nodes, p.targets, lam, E, d), cfg.tol)
    assert r.feasible == verdict.is_psd
    assert verdict.min_eigenvalue == r.best_min_eigenvalue


def _two_builder_pinned_search(problem, E, d, tol):
    """The pinned search with one builder per number: (lambda, objective, verdict).

    Both come from the nodes other than the one at 0: the objective from a
    fresh builder, the verdict from ``psd_check`` of a fresh
    ``constrained_pick``, whose eigenvalue must be the objective.  With no
    node left the search is feasible at 0.0.
    """
    i = problem.nodes.index(0)
    lam = problem.targets[i]
    kept = [k for k in range(problem.n) if k != i]
    if not kept:
        return lam, 0.0, True
    kept_nodes, kept_targets = [problem.nodes[k] for k in kept], [problem.targets[k] for k in kept]
    best = PickBuilder(Problem(kept_nodes, kept_targets), E, d).min_eigenvalue(lam)
    verdict = psd_check(constrained_pick(kept_nodes, kept_targets, lam, E, d), tol)
    assert verdict.min_eigenvalue == best
    return lam, best, verdict.is_psd


@settings(max_examples=150)
@given(
    data=st.lists(st.tuples(_disk_points, _disk_points), min_size=0, max_size=15),
    position=st.integers(0, 15),
    lam=_disk_points,
    exponents=st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (6, 3)]),
    tol=st.sampled_from([0.0, 1e-8]),
    induced=st.none() | st.tuples(_disk_points, st.floats(0.01, 1.0)),
)
@example(data=[], position=0, lam=0.3 + 0.4j, exponents=(2, 1), tol=1e-8, induced=None)
# feasible, but the full matrix's zero eigenvalue computes slightly negative,
# so a verdict on the full matrix refuses it at tol 0
@example(data=[(0.5, 0.5), (0.71875, 0.5)], position=1, lam=0.5, exponents=(1, 1), tol=0.0, induced=None)
# the same on nodes (0.5, 0, -0.5): the block's eigenvalue is 0.028 where the
# full matrix's computes to -1.7e-32
@example(data=[(0.5, 0.1), (-0.5, 0.1)], position=1, lam=0j, exponents=(2, 1), tol=0.0, induced=None)
def test_pinned_search_matches_two_builders(data, position, lam, exponents, tol, induced):
    # The pinned search takes its objective and its verdict from the block
    # without the pinned node's row and column; both must equal what a
    # builder per number gives on the other nodes.  Induced targets
    # phi_{-lam}(z^E h(z^d)), h a scaled disk automorphism, are feasible with
    # f(0) = lam, so the verdict sits near the boundary of the PSD cone.
    E, d = exponents
    nodes = [z for z, _ in data]
    assume(all(abs(z**d - w**d) > 1e-3 for i, z in enumerate(nodes) for w in nodes[:i]))
    targets = [w for _, w in data]
    if induced is not None:
        a, scale = induced
        targets = [mobius(-lam, z**E * scale * mobius(a, z**d)) for z in nodes]
    position %= len(nodes) + 1
    nodes.insert(position, 0j)
    targets.insert(position, lam)
    p = Problem(tuple(nodes), tuple(targets))
    r = find_lambda(p, E, d, SearchConfig(tol=tol))
    lam_ref, best, feasible = _two_builder_pinned_search(p, E, d, tol)
    assert r.pinned and r.evaluations == 1
    assert r.best_min_eigenvalue == best
    assert r.feasible == feasible
    assert r.feasible or r.best_min_eigenvalue < 0  # a nonnegative eigenvalue passes at any tol
    assert r.lambda_ == (lam_ref if feasible else None)


def _hypot_clamp(x, y):
    """The simplex clamp with ``np.hypot`` as the modulus."""
    r = float(np.hypot(x, y))
    return (x * (LAMBDA_CLAMP / r), y * (LAMBDA_CLAMP / r)) if r > LAMBDA_CLAMP else (x, y)


_near_clamp = st.floats(LAMBDA_CLAMP * (1 - 1e-9), LAMBDA_CLAMP * (1 + 1e-9)) | st.integers(-64, 64).map(
    lambda k: LAMBDA_CLAMP + k * 2.0**-53
)


@settings(max_examples=300)
@given(modulus=_near_clamp, angle=st.floats(0.0, 2 * np.pi))
def test_clamp_matches_hypot(modulus, angle):
    x, y = modulus * math.cos(angle), modulus * math.sin(angle)
    assert _clamp(x, y) == _hypot_clamp(x, y)


@pytest.mark.parametrize(
    "x,y", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.0), (-math.inf, 0.5), (0.0, -math.inf)]
)
def test_clamp_matches_hypot_on_nan_and_inf(x, y):
    """NaN passes through unclamped and an infinite part becomes NaN, as with ``np.hypot``.

    NaN != NaN, so the points are compared by ``repr``.
    """
    assert repr(_clamp(x, y)) == repr(_hypot_clamp(x, y))
