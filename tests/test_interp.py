"""Exponent plans, construction, verification, and round trips."""

import re

import numpy as np
import pytest

from cpick import (
    DomainError,
    Interpolant,
    InvalidProblem,
    KSpec,
    NotFound,
    NotPrefixK,
    Problem,
    SchurFunction,
    Unsupported,
    construct,
    constrained_pick,
    exponent_plan,
    from_finite_set,
    is_algebra,
    mobius,
    necessary_check,
    psd_check,
    roundtrip_generate,
    smallest_missing,
    taylor_coeffs,
    verify_interpolant,
)
from cpick import interp
from cpick.kset import _conductor, complement_structure
from conftest import disk_point, fixture_kspecs

K1 = from_finite_set([1])
K13 = from_finite_set([1, 3])
KD2 = KSpec(d=2, gaps=(1,))
ALGEBRA_FIXTURES = fixture_kspecs()  # every fixture passes the semigroup criterion


def test_exponent_plan_iff():
    assert exponent_plan(K1, "iff") == (2, 1)
    assert exponent_plan(from_finite_set([1, 2, 3]), "iff") == (4, 1)
    with pytest.raises(NotPrefixK):
        exponent_plan(K13, "iff")
    with pytest.raises(NotPrefixK):
        exponent_plan(KD2, "iff")


def test_exponent_plan_sufficient_and_necessary():
    assert exponent_plan(K13, "sufficient") == (4, 1)
    assert exponent_plan(K13, "necessary") == (2, 1)
    assert exponent_plan(KD2, "sufficient") == (3, 2)
    assert exponent_plan(KD2, "necessary") == (2, 2)
    # necessary exponent always recombines to the smallest missing integer
    for k in ALGEBRA_FIXTURES:
        m, d = exponent_plan(k, "necessary")
        assert m * d == smallest_missing(k)


def test_exponent_plan_rejects_non_algebra():
    with pytest.raises(Unsupported):
        exponent_plan(from_finite_set([2]), "sufficient")


def test_sufficient_plan_matches_the_complement_structure_formula():
    # reference: m = max(heads[0] + 1, conductor), heads[0] being the smallest positive non-gap
    checked = 0
    for d in range(2, 6):
        for mask in range(1 << 10):
            k = KSpec(d=d, gaps=tuple(g for g in range(1, 11) if mask >> (g - 1) & 1))
            if not is_algebra(k):
                continue
            expected = (max(complement_structure(k).heads[0] + 1, _conductor(k)), k.d)
            assert exponent_plan(k, "sufficient") == expected, k
            checked += 1
    assert checked == 320


def test_exponent_plan_respects_membership_for_gappy_semigroups():
    """The inner support must avoid every constrained index, so the plan
    must clear the semigroup conductor, not just the first complement
    element plus one."""
    k = KSpec(d=2, gaps=(1, 3))  # complement elements 2,4,5,6,... scaled by 2
    m, d = exponent_plan(k, "sufficient")
    assert d == 2
    assert m == 4  # heads start at 2 but the semigroup only fills in at 4
    from cpick import contains

    assert all(not contains(k, (m + j) * d) for j in range(20))


def test_construct_closed_form_fixture():
    p = Problem(nodes=(0, 0.5), targets=(0, 0.2))
    f = construct(p, K1, "iff")
    assert f.lambda_ == 0 and (f.m, f.d) == (2, 1)
    zs = np.array([0.3, -0.5j, 0.2 + 0.4j, 0.9])
    assert np.max(np.abs(f(zs) - 0.8 * zs**2)) <= 1e-9
    report = verify_interpolant(f, p, K1)
    assert report.passed
    assert max(report.residuals) <= 1e-9
    assert abs(taylor_coeffs(f, 4)[1]) <= 1e-10


def test_construct_single_node_constant():
    p = Problem(nodes=(0.5,), targets=(0.7,))
    for k in (K1, from_finite_set([1, 2, 3])):
        f = construct(p, k, "iff")
        assert f(0.2) == pytest.approx(0.7, abs=1e-12)
        report = verify_interpolant(f, p, k)
        assert report.passed
        coeffs = taylor_coeffs(f, 12)
        assert max(abs(c) for c in coeffs[1:]) <= 1e-12


def test_construct_zero_node_alone_gives_constant():
    p = Problem(nodes=(0,), targets=(0.3 - 0.2j,))
    f = construct(p, K1, "iff")
    assert f.h.steps == () and f.h.tail == 0
    assert f(0.5) == pytest.approx(0.3 - 0.2j, abs=1e-14)


def test_construct_at_threshold_flags_low_confidence():
    """At the exact feasibility boundary the inner solve is singular."""
    p = Problem(nodes=(0, 0.5), targets=(0, 0.25))
    f = construct(p, K1, "iff")
    assert f.h.low_confidence
    zs = np.array([0.2, -0.4j, 0.7])
    assert np.max(np.abs(f(zs) - zs**2)) <= 1e-12  # forced solution z^2
    report = verify_interpolant(f, p, K1)
    assert report.passed
    assert report.tolerances.interp == pytest.approx(1e-5)  # widened x100


def test_construct_projects_a_target_just_outside_the_disk(monkeypatch):
    # The pinned search accepts this within its tolerance, and the h-target
    # at 0.3 is v = 1 + 5e-7: construct projects it onto the circle, so h is
    # the constant it forces.
    lam = 0.2 + 0.1j
    p = Problem((0, 0.3), (lam, mobius(-lam, 0.09 * (1 + 5e-7))))
    f = construct(p, K1, "iff")
    assert f.h.steps == () and abs(f.h.tail) == pytest.approx(1.0, abs=1e-15)
    report = verify_interpolant(f, p, K1)
    assert report.passed and max(report.residuals) <= 1e-7
    # without the projection the solver refuses the target
    monkeypatch.setattr(interp, "TARGET_CLAMP_SLACK", 0.0)
    with pytest.raises(DomainError):
        construct(p, K1, "iff")


def test_construct_certified_notfound():
    p = Problem(nodes=(0, 0.5), targets=(0, 0.3))
    with pytest.raises(NotFound) as exc_info:
        construct(p, K1, "iff")
    err = exc_info.value
    assert err.certified and err.result.pinned
    assert err.result.best_min_eigenvalue < 0
    # the same failure in sufficient mode is inconclusive
    with pytest.raises(NotFound) as exc_info:
        construct(p, K13, "sufficient")
    assert not exc_info.value.certified


def test_construct_raises_notfound_when_a_node_power_underflows():
    # iff mode on K = {1, ..., 700} has E = 701, and 0.3**701 is 0.0 in
    # doubles: the search rightly finds lam = 0.1 (f = 0.1 interpolates),
    # but that node's h-target would divide by zero
    p = Problem(nodes=(0.3, 0.5 + 0.1j), targets=(0.1, 0.1))
    with pytest.raises(NotFound, match=re.escape("(0.3+0j)")) as exc_info:
        construct(p, from_finite_set(range(1, 701)), "iff")
    err = exc_info.value
    assert not err.certified
    assert err.result.feasible and not err.result.pinned


def test_verify_flags_wrong_class():
    # f(z) = z as a composite: lam 0, inner z^1 * 1
    f = Interpolant(lambda_=0, m=1, d=1, h=SchurFunction(steps=(), tail=1.0))
    p = Problem(nodes=(0.5,), targets=(0.5,))
    report = verify_interpolant(f, p, K1)
    assert not report.passed
    indices = {j for j, _ in report.taylor_violations}
    assert 1 in indices
    mag = dict(report.taylor_violations)[1]
    assert mag == pytest.approx(1.0, abs=1e-9)


def test_verify_detects_extra_constraints():
    # the closed-form fixture lives in the {1} class but not in {1,2}
    p = Problem(nodes=(0, 0.5), targets=(0, 0.2))
    f = construct(p, K1, "iff")
    report = verify_interpolant(f, p, from_finite_set([1, 2]))
    assert not report.passed
    assert dict(report.taylor_violations)[2] == pytest.approx(0.8, abs=1e-9)


def test_necessary_check_pinned_fixtures():
    r = necessary_check(Problem(nodes=(0, 0.6), targets=(0, 0.5)), K13)
    assert not r.passes and r.certified_negative
    assert r.best_min_eigenvalue == pytest.approx((0.6**4 - 0.25) / (1 - 0.36), abs=1e-12)
    r = necessary_check(Problem(nodes=(0, 0.6), targets=(0, 0.3)), K13)
    assert r.passes and not r.certified_negative
    assert r.witness == 0


@pytest.mark.parametrize("k", ALGEBRA_FIXTURES, ids=str)
def test_roundtrip_soundness_and_theorem_consistency(k):
    for seed in range(5):
        problem, generated = roundtrip_generate(k, 3, seed)
        assert verify_interpolant(generated, problem, k).passed
        f = construct(problem, k, "sufficient")
        report = verify_interpolant(f, problem, k)
        assert report.passed, (k, seed, report)
        assert report.derivative_crosscheck <= 1e-8
        # the necessary criterion holds, and the construction's own base
        # value is itself a witness
        nec = necessary_check(problem, k)
        assert nec.passes
        m, d = exponent_plan(k, "necessary")
        assert psd_check(constrained_pick(problem.nodes, problem.targets, f.lambda_, m * d, d), 1e-8).is_psd


@pytest.mark.parametrize("n", [1, 4, 8])
def test_verify_evaluates_the_interpolant_three_times(monkeypatch, n):
    problem, f = roundtrip_generate(K13, n, n)
    shapes = []
    call = Interpolant.__call__

    def counted(self, z):
        shapes.append(np.shape(z))
        return call(self, z)

    monkeypatch.setattr(Interpolant, "__call__", counted)
    assert verify_interpolant(f, problem, K13).passed
    # all nodes at once, the sup-norm circle, the Taylor circle
    assert shapes == [(n,), (4096,), (1024,)]


@pytest.mark.parametrize("k", ALGEBRA_FIXTURES, ids=str)
def test_residuals_match_scalar_evaluation(k):
    for seed in range(3):
        problem, f = roundtrip_generate(k, 8, seed)
        residuals = verify_interpolant(f, problem, k).residuals
        scalar = [abs(f(z) - w) for z, w in zip(problem.nodes, problem.targets)]
        assert len(residuals) == 8
        assert max(abs(a - b) for a, b in zip(residuals, scalar)) <= 1e-14


@pytest.mark.parametrize("k", ALGEBRA_FIXTURES, ids=str)
def test_scalar_evaluation_is_element_0_of_array_evaluation(k):
    rng = np.random.default_rng(17)
    for seed in range(4):
        problem, f = roundtrip_generate(k, 4, seed)
        points = np.array([0j, 1.0, -1j, *problem.nodes, *(disk_point(rng, 1.0) for _ in range(16))])
        for g in (f, f.h):  # the interpolant and its Schur chain
            together = g(points)
            for z, value in zip(points.tolist(), together):
                scalar = g(z)
                assert type(scalar) is complex
                assert repr(scalar) == repr(complex(g(np.array([z]))[0])) == repr(complex(value)), (k, seed, z)


def test_roundtrip_generator_is_deterministic():
    a = roundtrip_generate(K13, 4, 123)
    b = roundtrip_generate(K13, 4, 123)
    assert a[0] == b[0]
    assert a[1].lambda_ == b[1].lambda_ and a[1].h == b[1].h
    c = roundtrip_generate(K13, 4, 124)
    assert c[0] != a[0]


def test_roundtrip_generator_refuses_nodes_it_cannot_separate():
    # |z| <= 0.9 puts every 60th power within 0.9**60 < 0.002 of 0, so no two
    # nodes have 60th powers 0.05 apart
    with pytest.raises(InvalidProblem, match=re.escape("(d=60, n=2)")):
        roundtrip_generate(KSpec(d=60, gaps=(1,)), 2, 0)


def test_roundtrip_membership_by_taylor():
    problem, f = roundtrip_generate(KD2, 2, 7)
    coeffs = taylor_coeffs(f, 12)
    from cpick import contains

    for j in range(1, 13):
        if contains(KD2, j):
            assert abs(coeffs[j]) <= 1e-9, j
    assert all(abs(w) < 1 for w in problem.targets)


def test_interior_values_stay_interior():
    """Nonconstant members with an interior value keep the whole image interior."""
    rng = np.random.default_rng(61)
    problem, f = roundtrip_generate(K1, 3, 99)
    samples = np.array([disk_point(rng, 0.97) for _ in range(1000)])
    assert np.max(np.abs(f(samples))) < 1.0


def test_verify_counts_a_nan_coefficient_as_a_violation(monkeypatch):
    import cpick.interp
    problem = Problem(nodes=(0, 0.5), targets=(0, 0.2))
    f = construct(problem, K1, "iff")
    sampled = taylor_coeffs(f, 12, 0.5, 1024)
    nan_at_1 = (sampled[0], complex("nan")) + sampled[2:]
    monkeypatch.setattr(cpick.interp, "taylor_coeffs", lambda *args: nan_at_1)
    report = verify_interpolant(f, problem, K1)
    assert [j for j, _ in report.taylor_violations] == [1]
    assert not report.passed


def test_interpolant_validation():
    from cpick import InvalidProblem

    with pytest.raises(InvalidProblem):
        Interpolant(lambda_=1.0, m=2, d=1, h=SchurFunction(steps=(), tail=0))
    with pytest.raises(InvalidProblem):
        Interpolant(lambda_=float("nan"), m=2, d=1, h=SchurFunction(steps=(), tail=0))
    with pytest.raises(InvalidProblem):
        Interpolant(lambda_=0.0, m=0, d=1, h=SchurFunction(steps=(), tail=0))
