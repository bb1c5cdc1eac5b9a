"""Parameter search: closed-form pinned cases, grids, determinism."""

import dataclasses
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
    KSpec,
    NumericalError,
    Problem,
    SearchConfig,
    classical_pick,
    constrained_pick,
    construct,
    exponent_plan,
    find_lambda,
    from_finite_set,
    psd_check,
    roundtrip_generate,
    verify_interpolant,
)
from cpick import feasibility
from cpick.feasibility import LAMBDA_CLAMP, _clamp, _grid_points, _maximize
from cpick.pickmat import CLASSICAL_PSD_TOL, LOW_CONFIDENCE_EIG, PickBuilder, _mobius, h_data
from conftest import disk_point, fixture_kspecs, nearest_target


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
    assert pick.min_eigenvalues(0.7) == pytest.approx(0.0625 / 0.75, abs=1e-12)
    assert pick.min_eigenvalues(0.0) == pytest.approx((0.0625 - 0.49) / 0.75, abs=1e-12)


def test_objective_drops_pinned_zero_row():
    p = Problem(nodes=(0, 0.5), targets=(0.3, 0.2))
    # the pinned value is the 1x1 block of the remaining node, bit for bit
    r = find_lambda(p, 2, 1)
    assert r.pinned and r.best_min_eigenvalue == PickBuilder(Problem((0.5,), (0.2,)), 2, 1).min_eigenvalues(0.3)
    # at any other parameter the full matrix has the zero node's row and cannot be PSD
    assert PickBuilder(p, 2, 1).min_eigenvalues(0.1) < 0


def test_find_lambda_single_node_lands_near_target():
    # at lam = w the single entry is |z|^(2E) / (1 - |z|^2) > 0, so the search
    # stops at the target, the first point it scores
    p = Problem(nodes=(0.5,), targets=(0.7,))
    r = find_lambda(p, 2, 1)
    assert r.feasible and not r.pinned
    assert r.lambda_ == 0.7 and r.evaluations == 1
    assert r.best_min_eigenvalue == PickBuilder(p, 2, 1).min_eigenvalues(0.7)
    assert r.best_min_eigenvalue == pytest.approx(0.0625 / 0.75, abs=1e-12)


def test_of_two_nearest_nodes_the_first_gives_the_first_point():
    # nodes +-0.5 tie in modulus, and at E = 1 either target is good enough:
    # the search stops at the target of the node listed first
    for nodes, targets in [((0.5, -0.5), (0.1, -0.1)), ((-0.5, 0.5), (-0.1, 0.1))]:
        r = find_lambda(Problem(nodes, targets), 1, 1)
        assert (r.lambda_, r.evaluations) == (targets[0], 1)


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
    # with the public verdict on a fresh constrained Pick matrix at every
    # parameter, bit for bit
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
            expected = psd_check(constrained_pick(p.nodes, p.targets, lam, 4, 2)).min_eigenvalue
            assert pick.min_eigenvalues(np.array([lam, 0j]))[0] == pick.min_eigenvalues(lam) == expected


def test_search_config_validation():
    cfg = SearchConfig(tol=1e-6)
    assert cfg.tol == 1e-6
    with pytest.raises(InvalidConfig, match="'tol'"):
        SearchConfig(tol="1e-8")
    # the grid is the class's, not a setting
    for field, value in [("radii", (0.0, 0.5)), ("angles", 8), ("refine_iters", 10)]:
        with pytest.raises(TypeError, match=field):
            SearchConfig(**{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.radii = (0.0, 0.5)


def test_search_config_keeps_only_tol_and_the_grid_the_bench_enumerates():
    # the bench's tracing.grid_size reads radii and angles off SearchConfig()
    # and enumerates them as below; it must count the grid the search scores
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["tol"]
    cfg = SearchConfig()
    listed = [complex(r * np.exp(2j * np.pi * ai / cfg.angles)) for r in cfg.radii for ai in range(cfg.angles)]
    points = _grid_points()
    assert len(set(listed)) == len(points) == 705
    assert list(dict.fromkeys(listed)) == points.tolist()


def test_grid_is_cached_and_read_only():
    points = _grid_points()
    # the radius-0 ring collapses to one point, listed first; each other ring follows in angle order
    assert points.shape == (705,) and points[0] == 0
    rings = np.array(SearchConfig.radii[1:])[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.allclose(points[1:], rings.ravel())
    with pytest.raises(ValueError):
        points[0] = 0.25
    assert _grid_points() is points


def test_cold_and_warm_grid_give_the_same_search():
    p = Problem(nodes=(0.3, -0.2 + 0.4j), targets=(0.1, 0.2j))
    _grid_points.cache_clear()
    cold = find_lambda(p, 2, 1)
    assert _grid_points.cache_info().currsize == 1
    warm = find_lambda(p, 2, 1)
    assert _grid_points.cache_info().hits >= 1
    assert cold == warm


def _looped_find_lambda(problem, E, d, margin=LOW_CONFIDENCE_EIG, judged=None, seeded=True):
    """Reference search with the grid scored one parameter at a time.

    It first scores the target of the node nearest the origin (the first
    on ties) and stops there if the margin rule below accepts it.
    Otherwise the grid points, their exact-value dedup and the order by
    (-value, radius index, angle index) are rebuilt here, and the rule is
    asked about the best of them.  Then come copies of the search's
    simplex, each trial point scored alone by the public verdict,
    ``psd_check`` of ``constrained_pick``; each climb starts with its
    vertices' known values.  Where the nearest target's value is above the
    whole grid's (and ``seeded``), a first climb starts from it and the
    grid's two best points and returns at the rule's first yes; otherwise,
    or where it ends without one, the climb from the grid's top three
    decides.  ``seeded=False`` is the search without the first climb.  The
    rule: a point is accepted once its value reaches ``margin``, or, where
    that value is in [0, margin), once the classical Pick matrix of
    ``h_data`` there does.  Each climb asks it at the top of each
    iteration, whenever the climb's best point has changed.
    ``margin=math.inf`` runs the full maximisation.  Returns (lambda, best
    value, evaluations, Counter of simplex moves), with the nearest target
    counted among the evaluations; ``moves["p_test"]`` counts the classical
    matrices judged, and ``moves["first climb"]`` and ``moves["settled
    first"]`` whether the first climb ran and whether it returned.  A list
    given as ``judged`` receives the parameter of each classical matrix, in
    order.
    """

    def value(lam):
        return psd_check(constrained_pick(problem.nodes, problem.targets, lam, E, d), 0.0).min_eigenvalue

    moves = Counter()
    tested = [] if judged is None else judged

    def accepts(lam, val):
        if val >= margin:
            return True
        if not 0.0 <= val:
            return False
        tested.append(lam)
        moves["p_test"] += 1
        try:
            nodes, values = h_data(problem, lam, E, d)
        except NumericalError:
            return False
        return psd_check(classical_pick(nodes, values)).min_eigenvalue >= margin

    nearest = nearest_target(problem)
    nearest_value = value(nearest)
    if accepts(nearest, nearest_value):
        return nearest, nearest_value, 1, moves

    scored, seen = [], set()
    for ri, r in enumerate((0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)):
        for ai in range(64):
            lam = complex(r * np.exp(2j * np.pi * ai / 64))
            if lam not in seen:
                seen.add(lam)
                scored.append((value(lam), ri, ai, lam))
    scored.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
    evaluations = 1 + len(scored)
    if accepts(scored[0][3], scored[0][0]):
        return scored[0][3], scored[0][0], evaluations, moves

    def climb(vertices):
        """The simplex from (value, lambda) vertices, the first the best and already asked: (lambda, value, accepted)."""
        nonlocal evaluations
        best_obj, best_lam = vertices[0]
        asked = best_lam  # the best point the rule last saw

        def score(x):
            nonlocal best_obj, best_lam, evaluations
            lam = complex(x[0], x[1])
            evaluations += 1
            val = value(lam)
            if val > best_obj:
                best_obj, best_lam = val, lam
            return val

        def clamp(x):
            r = float(np.hypot(x[0], x[1]))
            if r > 0.999:
                moves["clamp"] += 1
                return x * (0.999 / r)
            return x

        simplex = [np.array([lam.real, lam.imag]) for _, lam in vertices]
        vals = [val for val, _ in vertices]
        for _ in range(200):
            if best_lam != asked:
                asked = best_lam
                if accepts(best_lam, best_obj):
                    return best_lam, best_obj, True
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
        return best_lam, best_obj, False

    grid = [(rec[0], rec[3]) for rec in scored[:3]]
    if seeded and nearest_value > grid[0][0]:
        moves["first climb"] += 1
        lam, best, accepted = climb([(nearest_value, nearest), *grid[:2]])
        if accepted:
            moves["settled first"] += 1
            return lam, best, evaluations, moves
    lam, best, _ = climb(grid)
    return lam, best, evaluations, moves


def _grid_problems():
    rng = np.random.default_rng(97)
    # none of the four below stops at the nearest node's target
    problems = [
        # nodes and targets turned together by -1, or by i, leave the value
        # unchanged at -lam, or i lam: grid points tie up to roundoff in pairs,
        # and in fours on the second, which stops at the best grid point
        (Problem(nodes=(0.5, -0.5), targets=(0.3, -0.3)), 2, 1),
        (Problem(nodes=(0.4, 0.4j, -0.4, -0.4j), targets=(0.3, 0.3j, -0.3, -0.3j)), 1, 1),
        # the optimum lies past the clamp radius, so the simplex presses against it
        (Problem(nodes=(0.5, 0.3), targets=(0.9995, 0.999)), 2, 1),
        # real data make the objective symmetric under conjugation, so
        # simplex points can tie exactly, and the first one scored must win
        (Problem(nodes=(-0.8, 0.1), targets=(0.0, 0.7)), 2, 1),
    ]
    for n, (E, d) in zip([1, 2, 3, 4, 6, 8], [(1, 1), (2, 1), (4, 2), (2, 1), (3, 3), (1, 1)]):
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.9)
            if abs(z) > 0.1 and all(abs(z - w) > 0.1 and abs(z**d - w**d) > 0.05 for w in nodes):
                nodes.append(z)
        problems.append((Problem(tuple(nodes), tuple(disk_point(rng, 0.8) for _ in range(n))), E, d))
    return problems


def test_stacked_grid_matches_looped_grid():
    cfg = SearchConfig()
    moves = Counter()
    for p, E, d in _grid_problems():
        r = find_lambda(p, E, d, cfg)
        lam, best, evaluations, problem_moves = _looped_find_lambda(p, E, d)
        moves += problem_moves
        assert not r.pinned
        assert r.evaluations == evaluations
        assert r.best_min_eigenvalue == best
        assert r.lambda_ == (lam if r.feasible else None)
        verdict = psd_check(constrained_pick(p.nodes, p.targets, lam, E, d), cfg.tol)
        assert r.feasible == verdict.is_psd
        assert verdict.min_eigenvalue == r.best_min_eigenvalue
    # every simplex move, and a first climb, is exercised, so the match above guards each of them
    assert all(moves[m] > 0 for m in ("expand", "reflect", "contract", "shrink", "clamp", "first climb")), moves


def test_best_value_is_the_final_verdicts_eigenvalue(monkeypatch):
    # Whatever stack scored the best point (the first point alone, the grid,
    # a simplex pair, or an expansion alone), a non-pinned search reports
    # the eigenvalue that its final psd_check of M judged, bit for bit.
    # A lone point's bits depend on the shape the builder keeps its targets
    # in at n = 1, and every single-node search stops at its target.  With
    # two nodes inside radius 0.5 and E up to 4 the value's peak is narrow
    # enough for the grid to miss it, so those searches walk the simplex.
    # The first point's matrix comes from one constrained_pick call and is
    # judged once: that verdict scores the point and, where the search
    # settles there, is the result.  A refused point builds a second
    # PickBuilder, and M is judged once more, on its entries,
    # constrained_pick's bits at the lambda searched.  The psd_check calls
    # that judge the classical P of good_enough are told apart by identity.
    verdicts, judged, searched, picks, builders, classical = [], [], [], [], [], []

    def recorded(m, tol=CLASSICAL_PSD_TOL):
        judged.append(m)
        verdicts.append(psd_check(m, tol))
        return verdicts[-1]

    def picked(*args):
        picks.append(args)
        return constrained_pick(*args)

    def classical_picked(*args):
        classical.append(classical_pick(*args))
        return classical[-1]

    def maximized(*args):
        searched.append(_maximize(*args))
        return searched[-1]

    build = PickBuilder.__init__

    def built(self, *args):
        builders.append(args)
        build(self, *args)

    monkeypatch.setattr(feasibility, "psd_check", recorded)
    monkeypatch.setattr(feasibility, "constrained_pick", picked)
    monkeypatch.setattr(feasibility, "classical_pick", classical_picked)
    monkeypatch.setattr(feasibility, "_maximize", maximized)
    monkeypatch.setattr(PickBuilder, "__init__", built)
    cases = [(Problem(nodes=(0.5,), targets=(0.61,)), 2, 1)]
    rng = np.random.default_rng(67)
    for n in (1, 2):
        for _ in range(50):
            p = Problem(tuple(disk_point(rng, 0.5) for _ in range(n)), tuple(disk_point(rng, 0.95) for _ in range(n)))
            cases += [(p, E, 1) for E in (1, 2, 3, 4)]
    cases += _grid_problems()
    stopped = refined = 0
    for p, E, d in cases:
        del verdicts[:], judged[:], searched[:], picks[:], builders[:], classical[:]
        r = find_lambda(p, E, d)
        assert not r.pinned
        of_m = [(m, v) for m, v in zip(judged, verdicts) if not any(m is q for q in classical)]
        assert len(picks) == 1 and len(builders) == 1 + len(searched)
        assert len(of_m) == 1 + len(searched)
        assert np.array_equal(of_m[0][0], constrained_pick(p.nodes, p.targets, nearest_target(p), E, d))
        assert (r.feasible, r.best_min_eigenvalue) == (of_m[-1][1].is_psd, of_m[-1][1].min_eigenvalue)
        assert (r.evaluations == 1) == (not searched)
        if searched:
            lam = searched[0][0]
            assert r.lambda_ in (lam, None)
            assert np.array_equal(of_m[-1][0], constrained_pick(p.nodes, p.targets, lam, E, d))
        stopped += r.evaluations == 1
        refined += r.evaluations > 1 + len(_grid_points())
    assert stopped >= 201 and refined >= 90


def test_pruning_keeps_a_top_three_point_whose_bound_is_below_the_best():
    # Feasible data, targets phi_{-lam}(z^3 h(z)) with h = 0.77 phi_a.  One of
    # the three best grid points lies outside the three with the largest
    # bounds, and its bound is below the best of their values: a pruning
    # threshold at that best value, not the third-best, would drop it.
    nodes, lam0, a = (-0.08 + 0.68j, 0.32 + 0.03j), 0.56 - 0.34j, -0.06 - 0.48j
    p = Problem(nodes, tuple(_mobius(-lam0, z**3 * 0.77 * _mobius(a, z)) for z in nodes))
    cfg = SearchConfig()
    pick = PickBuilder(p, 3, 1)
    points = _grid_points()
    values, bounds = pick.min_eigenvalues(points), pick.min_eigenvalue_bounds(points)
    first = np.argsort(-bounds, kind="stable")[:3]
    top = np.lexsort((np.arange(len(points)), -values))[:3]
    assert any(i not in first and bounds[i] < values[first].max() for i in top)
    r = find_lambda(p, 3, 1, cfg)
    lam, best, evaluations, _ = _looped_find_lambda(p, 3, 1)
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam if r.feasible else None, best, evaluations)


def _first_climbs_never_accepted():
    """Searches whose margin rule accepts no point past the grid: (problem, E, d)."""
    # classically infeasible data; two of the 48 searches run the first climb
    yield from ((p, E, d) for p in _classically_infeasible(12, 0) for E, d in [(1, 1), (2, 1), (4, 2), (3, 3)])
    # the deep-prefix round trips that tests/test_interp.py marks strict xfail; both run it
    k = from_finite_set(range(1, 17))
    m, d = exponent_plan(k, "iff")
    for seed in (22, 35):
        yield roundtrip_generate(k, seed % 4 + 1, seed)[0], m * d, d


def test_a_first_climb_never_accepted_leaves_the_unseeded_result():
    # Where the first climb ends without a yes, the climb from the grid's top
    # three decides as if there had been no first climb: only the evaluation
    # count grows.
    tol = SearchConfig().tol
    climbed = 0
    for p, E, d in _first_climbs_never_accepted():
        r = find_lambda(p, E, d)
        lam, best, evaluations, _ = _looped_find_lambda(p, E, d, seeded=False)
        feasible = psd_check(constrained_pick(p.nodes, p.targets, lam, E, d), tol).is_psd
        assert (r.feasible, r.lambda_, r.best_min_eigenvalue, r.pinned) == (feasible, lam if feasible else None, best, False)
        assert r.evaluations >= evaluations
        climbed += r.evaluations > evaluations
    assert climbed == 4


def test_a_nearest_target_above_the_grid_settles_the_first_climb_sooner():
    # Feasible data phi_{-lam0}(z^2 0.88 phi_a(z)).  Its node 0.06 + 0.15j puts
    # every feasible lam within pseudo-hyperbolic distance |z|^2 = 0.026 of
    # that node's target, which scores -2.7e-4, above the grid's best, -7.2e-3.
    # Climbing from it clears the margin after 16 trials; from the grid's top
    # three it takes 258.
    nodes, lam0, a = (0.06 + 0.15j, -0.23 - 0.28j), -0.36 - 0.82j, 0.69 + 0.42j
    p = Problem(nodes, tuple(_mobius(-lam0, z**2 * 0.88 * _mobius(a, z)) for z in nodes))
    r = find_lambda(p, 2, 1)
    lam, best, evaluations, moves = _looped_find_lambda(p, 2, 1)
    assert moves["settled first"] == 1
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam, best, evaluations)
    assert r.feasible and r.best_min_eigenvalue >= LOW_CONFIDENCE_EIG
    assert r.evaluations < _looped_find_lambda(p, 2, 1, seeded=False)[2]
    k = from_finite_set([1])
    f = construct(p, k, "iff")
    assert f.lambda_ == r.lambda_ and verify_interpolant(f, p, k).passed


_disk_points = st.builds(
    lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
    st.floats(0.01, 0.97),
    st.floats(0.0, 2 * np.pi),
)


@settings(max_examples=100)
@given(
    data=st.lists(st.tuples(_disk_points, _disk_points), min_size=1, max_size=8),
    exponents=st.sampled_from([(1, 1), (2, 1), (3, 1), (5, 1), (4, 2), (3, 3)]),
    induced=st.none() | st.tuples(_disk_points, _disk_points, st.floats(0.01, 1.0)),
)
def test_pruned_grid_matches_looped_search(data, exponents, induced):
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
        targets = [_mobius(-lam0, z**E * scale * _mobius(a, z**d)) for z in nodes]
    p = Problem(tuple(nodes), tuple(targets))
    cfg = SearchConfig()
    r = find_lambda(p, E, d, cfg)
    lam, best, evaluations, _ = _looped_find_lambda(p, E, d)
    assert not r.pinned
    assert (r.evaluations, r.best_min_eigenvalue) == (evaluations, best)
    assert r.lambda_ == (lam if r.feasible else None)
    verdict = psd_check(constrained_pick(p.nodes, p.targets, lam, E, d), cfg.tol)
    assert r.feasible == verdict.is_psd
    assert verdict.min_eigenvalue == r.best_min_eigenvalue


_induced_search = dict(
    data=st.lists(_disk_points, min_size=1, max_size=8),
    plan=st.sampled_from(
        [
            (from_finite_set([1]), "iff"),
            (from_finite_set([1, 2]), "iff"),
            (from_finite_set([1, 2, 3, 4]), "iff"),
            (from_finite_set([1, 3]), "sufficient"),
            (KSpec(d=2, gaps=(1,)), "sufficient"),
        ]
    ),
    induced=st.tuples(_disk_points, _disk_points, st.floats(0.01, 1.0)),
)


def _induced_problem(data, plan, induced):
    """(problem, E, d) with the induced targets of test_pruned_grid_matches_looped_search, at the plan's exponents."""
    k, mode = plan
    m, d = exponent_plan(k, mode)
    E = m * d
    assume(all(abs(z**d - w**d) > 1e-3 for i, z in enumerate(data) for w in data[:i]))
    lam0, a, scale = induced
    return Problem(tuple(data), tuple(_mobius(-lam0, z**E * scale * _mobius(a, z**d)) for z in data)), E, d


@settings(max_examples=150)
@given(**_induced_search)
def test_a_search_stopped_at_the_margin_constructs_and_verifies(data, plan, induced):
    # A parameter whose constrained matrix clears LOW_CONFIDENCE_EIG leaves
    # the classical matrix np_solve judges at least that margin too, so the
    # interpolant built at the early exit is neither refused nor flagged.
    k, mode = plan
    p, E, d = _induced_problem(data, plan, induced)
    r = find_lambda(p, E, d)
    if r.best_min_eigenvalue < LOW_CONFIDENCE_EIG:
        return
    assert r.feasible
    f = construct(p, k, mode)
    assert f.lambda_ == r.lambda_ and not f.h.low_confidence
    assert verify_interpolant(f, p, k).passed


@settings(max_examples=150)
@given(**_induced_search)
def test_a_search_stopped_at_the_classical_margin_constructs_and_verifies(data, plan, induced):
    # Where M stays inside the margin but the classical P of h_data at the
    # returned parameter clears it, construct solves at that parameter, with
    # the same P, so np_solve neither refuses nor flags it.
    k, mode = plan
    p, E, d = _induced_problem(data, plan, induced)
    r = find_lambda(p, E, d)
    if not 0.0 <= r.best_min_eigenvalue < LOW_CONFIDENCE_EIG:
        return
    try:
        classical = psd_check(classical_pick(*h_data(p, r.lambda_, E, d)))
    except NumericalError:
        return
    if classical.min_eigenvalue < LOW_CONFIDENCE_EIG:
        return
    assert r.feasible
    f = construct(p, k, mode)
    assert f.lambda_ == r.lambda_ and not f.h.low_confidence
    assert verify_interpolant(f, p, k).passed


_seeds = st.integers(0, 2**32 - 1)


def _roundtrip_search(k, n, seed):
    """(problem, mode, E, d): ``roundtrip_generate(k, n, seed)``'s problem, searched in the mode that matches K."""
    problem, _ = roundtrip_generate(k, n, seed)
    mode = "iff" if k.d == 1 and k.gaps == tuple(range(1, len(k.gaps) + 1)) else "sufficient"
    m, d = exponent_plan(k, mode)
    return problem, mode, m * d, d


@settings(max_examples=150)
@given(
    data=st.tuples(st.just("roundtrip"), st.sampled_from(fixture_kspecs()), st.integers(1, 8), _seeds)
    | st.tuples(st.just("infeasible"), st.sampled_from([(1, 1), (2, 1), (4, 2), (3, 3)]), _seeds)
)
def test_a_search_stopped_at_the_nearest_target_is_judged_there_and_verifies(data):
    # Round trips from the acceptance fixture set, searched in the mode that
    # matches K, and classically infeasible data.  A non-pinned search that
    # takes one evaluation has stopped at the nearest node's target, judged
    # by one psd_check of constrained_pick there, and the interpolant built
    # at it verifies.  A lone node's target is always enough (its entry is
    # |z|^(2E) / (1 - |z|^(2d)) there), and infeasible data never are.
    kind, *rest = data
    if kind == "infeasible":
        (E, d), seed = rest
        (problem,) = _classically_infeasible(1, seed)
        r = find_lambda(problem, E, d)
        assert not r.feasible and r.evaluations > 1
        return
    k, n, seed = rest
    problem, mode, E, d = _roundtrip_search(k, n, seed)
    r = find_lambda(problem, E, d)
    assert not r.pinned
    assert r.evaluations == 1 or problem.n > 1
    if r.evaluations != 1:
        return
    assert r.lambda_ == nearest_target(problem)
    verdict = psd_check(constrained_pick(problem.nodes, problem.targets, r.lambda_, E, d), SearchConfig().tol)
    assert (r.feasible, r.best_min_eigenvalue) == (verdict.is_psd, verdict.min_eigenvalue)
    f = construct(problem, k, mode)
    assert f.lambda_ == r.lambda_
    assert verify_interpolant(f, problem, k).passed


@settings(max_examples=60)
@given(k=st.sampled_from(fixture_kspecs()), n=st.integers(2, 8), seed=_seeds)
@example(k=from_finite_set([1, 2]), n=7, seed=11)
@example(k=KSpec(d=2, gaps=(1,)), n=7, seed=17)
def test_a_search_settled_by_the_first_climb_is_feasible_and_verifies(k, n, seed):
    # Round trips from the acceptance fixture set.  Only a nearest target above
    # every grid value starts a first climb; where that climb's point is
    # accepted, the search is feasible there and the interpolant built at it
    # verifies.
    problem, mode, E, d = _roundtrip_search(k, n, seed)
    pick = PickBuilder(problem, E, d)
    if not pick.min_eigenvalues(nearest_target(problem)) > pick.min_eigenvalues(_grid_points()).max():
        return
    r = find_lambda(problem, E, d)
    lam, best, evaluations, moves = _looped_find_lambda(problem, E, d)
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam if r.feasible else None, best, evaluations)
    if not moves["settled first"]:
        return
    assert r.feasible
    f = construct(problem, k, mode)
    assert f.lambda_ == r.lambda_
    assert verify_interpolant(f, problem, k).passed


def test_a_grid_point_past_the_margin_skips_the_simplex():
    # nodes +-0.5, targets +-0.3, E = 1: at the nearest target 0.3 the
    # second diagonal entry is (0.25 - (0.6 / 1.09)^2) / 0.75 < 0; at the
    # grid's first point, lam = 0, the matrix has diagonal 0.16 / 0.75 and
    # off-diagonal -0.16 / 1.25, and its smallest eigenvalue clears the margin
    p = Problem((0.5, -0.5), (0.3, -0.3))
    assert PickBuilder(p, 1, 1).min_eigenvalues(0.3) < 0
    r = find_lambda(p, 1, 1, SearchConfig())
    assert r.feasible and r.lambda_ == 0
    assert r.best_min_eigenvalue == pytest.approx(0.16 / 0.75 - 0.16 / 1.25, abs=1e-15)
    assert r.evaluations == 1 + len(_grid_points())


def _searches_below_the_margin():
    # feasible data on which neither M nor the classical P clears the margin
    # at any point the search tests: 24 classical matrices judged, none enough
    k = KSpec(d=2, gaps=(1,))
    m, d = exponent_plan(k, "sufficient")
    yield roundtrip_generate(k, 6, 8)[0], m * d, d, True
    # classically infeasible data, infeasible at every exponent
    yield Problem((0.3, -0.3), (0.9, -0.9)), 2, 1, False
    yield Problem((0.5, 0.5j, -0.5), (0.0, 0.8, 0.0)), 2, 1, False
    # the random data of _grid_problems with two or more nodes, all infeasible
    yield from ((p, E, d, False) for p, E, d in _grid_problems()[5:])


@pytest.mark.parametrize("p,E,d,feasible", list(_searches_below_the_margin()))
def test_a_search_below_the_margin_maximises_in_full(p, E, d, feasible):
    cfg = SearchConfig()
    r = find_lambda(p, E, d, cfg)
    lam, best, evaluations, _ = _looped_find_lambda(p, E, d, margin=math.inf)
    assert best < LOW_CONFIDENCE_EIG
    assert r.feasible == feasible
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam if feasible else None, best, evaluations)


def _classically_infeasible(count, seed):
    """Random data whose classical Pick matrix has a negative eigenvalue: infeasible in every class."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 7))
        nodes = [disk_point(rng, 0.9) for _ in range(n)]
        targets = [disk_point(rng, 0.9) for _ in range(n)]
        if min(abs(z**d - w**d) for d in (1, 2, 3) for i, z in enumerate(nodes) for w in nodes[:i]) < 0.05:
            continue
        if psd_check(classical_pick(nodes, targets)).min_eigenvalue < 0:
            out.append(Problem(tuple(nodes), tuple(targets)))
    return out


def test_negatives_never_judge_the_classical_matrix(monkeypatch):
    # A negative never has a best value >= 0, so it pays nothing for the
    # classical test: refute's searches run as they did before it.
    calls = []

    def counted(problem, lam, E, d):
        calls.append(lam)
        return h_data(problem, lam, E, d)

    monkeypatch.setattr(feasibility, "h_data", counted)
    negatives = [(p, E, d) for p, E, d, feasible in _searches_below_the_margin() if not feasible]
    negatives += [(p, E, d) for p in _classically_infeasible(12, 5) for E, d in [(1, 1), (2, 1), (4, 2), (3, 3)]]
    for p, E, d in negatives:
        assert not find_lambda(p, E, d).feasible
    assert calls == []
    # the counter does count: criterion 5's boundary instance below judges P
    find_lambda(*_criterion_5_boundary_instance()[:3])
    assert len(calls) >= 1


def _criterion_5_boundary_instance():
    """Acceptance criterion 5's feasible instance whose M never reaches the margin: (problem, E, d, k)."""
    k = KSpec(d=2, gaps=(1,))
    m, d = exponent_plan(k, "sufficient")
    return roundtrip_generate(k, 4, 43)[0], m * d, d, k


def test_criterion_5_boundary_instance_stops_at_the_classical_margin():
    # On this instance a simplex stop at 1e-9, not 1e-12, halts at a lam that
    # np_solve refuses.  M stays below the margin, but the P that np_solve
    # judges clears it, so the search stops there, and the lam it takes is
    # the one construct solves at, neither refused nor flagged.
    p, E, d, k = _criterion_5_boundary_instance()
    cfg = SearchConfig()
    r = find_lambda(p, E, d, cfg)
    lam, best, evaluations, moves = _looped_find_lambda(p, E, d)
    assert (r.lambda_, r.best_min_eigenvalue, r.evaluations) == (lam, best, evaluations)
    assert r.feasible and 0.0 <= r.best_min_eigenvalue < LOW_CONFIDENCE_EIG and moves["p_test"] >= 1
    assert psd_check(classical_pick(*h_data(p, r.lambda_, E, d))).min_eigenvalue >= LOW_CONFIDENCE_EIG
    assert r.evaluations < _looped_find_lambda(p, E, d, margin=math.inf)[2]
    f = construct(p, k, "sufficient", cfg)
    assert f.lambda_ == r.lambda_ and not f.h.low_confidence
    assert verify_interpolant(f, p, k).passed


def test_the_classical_matrix_is_judged_at_the_references_parameters(monkeypatch):
    # find_lambda judges P at exactly the parameters the reference judges, in
    # the same order: each best point in [0, margin), once
    calls = []

    def counted(problem, lam, E, d):
        calls.append(lam)
        return h_data(problem, lam, E, d)

    monkeypatch.setattr(feasibility, "h_data", counted)
    searches = _grid_problems()
    searches += [(p, E, d) for p, E, d, _ in _searches_below_the_margin()]
    searches.append(_criterion_5_boundary_instance()[:3])
    most = 0
    for p, E, d in searches:
        calls.clear()
        judged = []
        find_lambda(p, E, d)
        _looped_find_lambda(p, E, d, judged=judged)
        assert calls == judged
        most = max(most, len(judged))
    assert most >= 2


class _Paraboloid:
    """A scorer for ``_maximize`` with no Pick matrix: 0.5 - |lam - c|^2, its own bound."""

    def __init__(self, c):
        self.c = c

    def min_eigenvalues(self, lams):
        return 0.5 - np.abs(np.asarray(lams) - self.c) ** 2

    min_eigenvalue_bounds = min_eigenvalues

    def at(self, lam):
        """``(lam, value)``, a start as ``_maximize`` takes it."""
        return lam, float(self.min_eigenvalues(lam))


@pytest.mark.parametrize(
    "c,peak",
    [
        (0.3 + 0.2j, 0.3 + 0.2j),
        # past the clamp the best point is the clamp circle's point nearest c
        (1.2, LAMBDA_CLAMP),
        (0.9995j, LAMBDA_CLAMP * 1j),
        (0.8 - 0.8j, LAMBDA_CLAMP * (0.8 - 0.8j) / abs(0.8 - 0.8j)),
    ],
)
def test_maximize_climbs_a_scorer_it_is_given(c, peak):
    asked = []

    def never(lam, value):
        asked.append((lam, value))
        return False

    # the start 0 is the grid's first point, so it ties the grid and no first climb runs
    scorer = _Paraboloid(c)
    lam, evaluations = _maximize(scorer, never, scorer.at(0j))
    assert abs(lam - peak) <= 1e-6
    assert evaluations > len(_grid_points())
    # asked only when the best point has changed: strictly larger values, new points
    values = [value for _, value in asked]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert len({point for point, _ in asked}) == len(asked) >= 2


def test_maximize_returns_the_best_grid_point_when_it_is_good_enough():
    # the start is the peak itself, but it was refused: the grid's best is asked and taken
    points = _grid_points()
    scorer = _Paraboloid(0.31 + 0.2j)
    asked = []
    lam, evaluations = _maximize(scorer, lambda lam, value: asked.append((lam, value)) or True, scorer.at(scorer.c))
    assert evaluations == len(points)
    assert lam == points[np.argmax(scorer.min_eigenvalues(points))]
    assert [point for point, _ in asked] == [lam]
    assert asked[0][1] == pytest.approx(0.5 - abs(lam - scorer.c) ** 2, abs=1e-15)


def test_maximize_climbs_first_from_a_start_above_the_grid():
    # A start 1e-3 from the peak is above every grid point, the nearest of
    # which is about 0.01 away: the first climb reaches the accepted band,
    # within 1e-4 of the peak, in fewer trials than a climb from the grid.
    scorer = _Paraboloid(0.31 + 0.2j)
    start = scorer.at(scorer.c + 1e-3)
    assert start[1] > scorer.min_eigenvalues(_grid_points()).max()

    def near_peak(lam, value):
        return value >= 0.5 - 1e-8

    seeded, seeded_evaluations = _maximize(scorer, near_peak, start)
    unseeded, unseeded_evaluations = _maximize(scorer, near_peak, scorer.at(0j))
    assert abs(seeded - scorer.c) <= 1e-4 and abs(unseeded - scorer.c) <= 1e-4
    assert len(_grid_points()) < seeded_evaluations < unseeded_evaluations


# a start near the peak, and one between the grid's outer ring and the clamp circle
@pytest.mark.parametrize("c,lam", [(0.3 + 0.2j, 0.305 + 0.2j), (1.2, 0.9985)])
def test_maximize_ends_where_it_would_unseeded_when_the_first_climb_is_refused(c, lam):
    # good_enough asks the grid's best, then each climb's new best points;
    # the first climb's are inserted, the rest and the result are unchanged
    scorer = _Paraboloid(c)
    start = scorer.at(lam)
    assert start[1] > scorer.min_eigenvalues(_grid_points()).max()
    runs = []
    for begin in (start, scorer.at(0j)):
        asked = []
        lam, evaluations = _maximize(scorer, lambda lam, value: asked.append(lam) and False, begin)
        runs.append((lam, evaluations, asked))
    (seeded, seeded_evaluations, seeded_asked), (unseeded, unseeded_evaluations, unseeded_asked) = runs
    assert seeded == unseeded and seeded_evaluations > unseeded_evaluations
    first = len(seeded_asked) - len(unseeded_asked)
    assert first >= 1 and seeded_asked[:1] + seeded_asked[1 + first :] == unseeded_asked


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
    best = float(PickBuilder(Problem(kept_nodes, kept_targets), E, d).min_eigenvalues(lam))
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
        targets = [_mobius(-lam, z**E * scale * _mobius(a, z**d)) for z in nodes]
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
