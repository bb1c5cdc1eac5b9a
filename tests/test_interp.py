"""Exponent plans, construction, verification, and round trips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpick import (
    DomainError,
    Infeasible,
    Interpolant,
    InvalidConfig,
    InvalidProblem,
    KSpec,
    NotFound,
    NotPrefixK,
    Problem,
    SchurFunction,
    Tolerances,
    Unsupported,
    construct,
    compose_derivative,
    constrained_pick,
    contains,
    exponent_plan,
    from_finite_set,
    is_algebra,
    necessary_check,
    psd_check,
    roundtrip_generate,
    smallest_missing,
    sup_norm_estimate,
    taylor_coeffs,
    verify_interpolant,
)
from cpick import interp, pickmat
from cpick.analytic import _circle
from cpick.kset import _conductor, complement_structure
from conftest import REFUSED_ROUNDTRIPS, disk_point, fixture_kspecs, nearest_target

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


def test_unknown_modes_raise_invalid_config():
    with pytest.raises(InvalidConfig, match="'bogus'"):
        exponent_plan(K13, "bogus")
    for mode in ("necessary", "bogus"):  # construction has no necessary mode
        with pytest.raises(InvalidConfig, match=f"'{mode}'"):
            construct(Problem(nodes=(0.5,), targets=(0.2,)), K13, mode)


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
    assert abs(taylor_coeffs(f(_circle(0.5, 1024)), 4, 0.5)[1]) <= 1e-10


def test_construct_single_node_constant():
    p = Problem(nodes=(0.5,), targets=(0.7,))
    for k in (K1, from_finite_set([1, 2, 3])):
        f = construct(p, k, "iff")
        assert f(0.2) == pytest.approx(0.7, abs=1e-12)
        report = verify_interpolant(f, p, k)
        assert report.passed
        coeffs = taylor_coeffs(f(_circle(0.5, 1024)), 12, 0.5)
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
    # the flag is reported, not a licence: the check runs at the default tolerances
    report = verify_interpolant(f, p, K1)
    assert report.passed
    assert report.tolerances == Tolerances()
    assert max(report.residuals) <= Tolerances().interp


def test_construct_projects_a_target_just_outside_the_disk(monkeypatch):
    # The pinned search accepts this within its tolerance, and the h-target
    # at 0.3 is v = 1 + 5e-7: construct projects it onto the circle, so h is
    # the constant it forces.
    lam = 0.2 + 0.1j
    p = Problem((0, 0.3), (lam, pickmat._mobius(-lam, 0.09 * (1 + 5e-7))))
    f = construct(p, K1, "iff")
    assert f.h.steps == () and abs(f.h.tail) == pytest.approx(1.0, abs=1e-15)
    report = verify_interpolant(f, p, K1)
    assert report.passed and max(report.residuals) <= 1e-7
    # without the projection the solver refuses the target, and construct
    # says so with an uncertified NotFound
    monkeypatch.setattr(pickmat, "TARGET_CLAMP_SLACK", 0.0)
    with pytest.raises(NotFound, match="closed unit disk") as exc_info:
        construct(p, K1, "iff")
    assert isinstance(exc_info.value.__cause__, DomainError) and not exc_info.value.certified


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


@pytest.mark.parametrize("top,refusal", [(8, Infeasible), (16, DomainError)])
def test_construct_raises_notfound_when_the_solver_refuses_the_searched_lambda(top, refusal):
    # the search refuses the nearest node's target and finds a lam where M is
    # PSD within its tolerance, but np_solve refuses the h-data there: on
    # K = {1..8} P is not PSD, on K = {1..16} an h-target has modulus 9.9e9
    k = from_finite_set(range(1, top + 1))
    problem, _ = roundtrip_generate(k, *REFUSED_ROUNDTRIPS[top])
    with pytest.raises(NotFound) as exc_info:
        construct(problem, k, "iff")
    err = exc_info.value
    assert isinstance(err.__cause__, refusal)
    assert not err.certified and err.result.feasible and err.result.evaluations > 1


@pytest.mark.parametrize("d,n,seed", [(8, 1, 2), (8, 2, 6), (12, 1, 2), (12, 2, 56)])
def test_a_scaled_round_trip_solved_at_the_nearest_target_verifies(d, n, seed):
    # On these round trips the grid and simplex alone stop at lams whose
    # h-data np_solve refuses: an h-target outside the closed disk, or, for
    # (8, 2, 6) and (12, 2, 56), a classical matrix that is not PSD.  The
    # nearest node's target is good enough for the search and for np_solve.
    k = KSpec(d=d, gaps=(1,))
    problem, _ = roundtrip_generate(k, n, seed)
    f = construct(problem, k, "sufficient")
    assert f.lambda_ == nearest_target(problem) and not f.h.low_confidence
    assert verify_interpolant(f, problem, k).passed


@pytest.mark.xfail(
    raises=NotFound, strict=True,
    reason="the grid and simplex stop at a lam where M is PSD but np_solve finds P not PSD",
)
@pytest.mark.parametrize("seed", [22, 35])
def test_a_deep_prefix_round_trip_the_search_misses_constructs_and_verifies(seed):
    # Feasible by construction on K = {1..16}, yet construct raises NotFound
    # from np_solve's Infeasible.  Strict: a search that mends this must drop the mark.
    k = from_finite_set(range(1, 17))
    problem, _ = roundtrip_generate(k, seed % 4 + 1, seed)
    assert verify_interpolant(construct(problem, k, "iff"), problem, k).passed


# deep prefix K and large d, where np_solve can refuse the search's lam
_CONTRACT_K = [from_finite_set(range(1, 9)), from_finite_set(range(1, 17)), KSpec(d=5, gaps=(1,)), KSpec(d=8, gaps=(1,))]


@given(k=st.sampled_from(_CONTRACT_K), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_construct_returns_a_verified_interpolant_or_raises_notfound(k, n, seed):
    problem, _ = roundtrip_generate(k, n, seed)
    try:
        f = construct(problem, k, "sufficient")
    except NotFound:
        return
    assert verify_interpolant(f, problem, k).passed


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


@pytest.mark.parametrize(
    "members,m,d,h,nodes,flagged",
    [
        # K = {1..70}: the support starts at 66
        (range(1, 71), 66, 1, SchurFunction(steps=((0.5, 0.4),), tail=0.3), (0.99, 0.98j), [66, 67, 68, 69, 70]),
        # K = {j < 24 : 4 does not divide j}: the support 18, 20, 22, ... meets K at 18 and 22
        (
            [j for j in range(1, 24) if j % 4],
            9,
            2,
            SchurFunction(steps=((0.3, 0.2), (-0.4j, 0.5)), tail=0.6),
            (0.9, 0.8j, -0.85),
            [18, 22],
        ),
        # K = the odd numbers and 2, infinite: the support 66, 69, 72, ...
        # meets K at its odd indices, sampled up to 128
        (
            KSpec(d=2, gaps=(1,)),
            22,
            3,
            SchurFunction(steps=((0.3, 0.2), (-0.4j, 0.5)), tail=0.6),
            (0.9, 0.8j, -0.85),
            list(range(69, 129, 6)),
        ),
    ],
    ids=["K1-70", "K-not-4-below-24", "KD2-d3"],
)
def test_verify_samples_every_constrained_index_up_to_128(members, m, d, h, nodes, flagged):
    # A function outside the class whose support meets K only at high
    # indices interpolates and is bounded by 1; only its coefficients at
    # those constrained indices show that it is not in the class.
    k = members if isinstance(members, KSpec) else from_finite_set(members)
    assert is_algebra(k)
    f = Interpolant(lambda_=0.1, m=m, d=d, h=h)
    p = Problem(nodes=nodes, targets=tuple(f(np.array(nodes)).tolist()))
    report = verify_interpolant(f, p, k)
    assert max(report.residuals) <= 1e-15 and report.sup_norm <= 1.0
    assert not report.passed
    assert [j for j, _ in report.taylor_violations] == flagged
    assert report == _reference_report(f, p, k)


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


K1_6 = from_finite_set(range(1, 7))  # E = 7, past the cross-check's orders


@pytest.mark.parametrize("k", [K13, K1_6], ids=str)
@pytest.mark.parametrize("n", [1, 4, 8])
def test_verify_evaluates_the_chain_once(monkeypatch, n, k):
    problem, f = roundtrip_generate(k, n, n)
    shapes = []
    chain = SchurFunction._eval  # the kernel a call runs too, after its disk check

    def counted(self, w):
        shapes.append(np.shape(w))
        return chain(self, w)

    monkeypatch.setattr(SchurFunction, "_eval", counted)
    assert verify_interpolant(f, problem, k).passed
    # the sup-norm circle, the Taylor circle and the nodes, whatever m*d is
    assert shapes == [(4096 + 1024 + n,)]


def _h_coeffs(f):
    """h's sampled coefficients up to order 6 of u: h(z^d) on the Taylor circle carries h's t-th at index t*d."""
    E = f.m * f.d
    h_ring = f.h(interp._power(_circle(0.9, 1024), f.d))
    return taylor_coeffs(h_ring, 6 - E, 0.9)[:: f.d] if E <= 6 else ()


def _reference_crosscheck(f, coeffs, h_coeffs):
    """The Faà di Bruno cross-check over orders 1 .. 6, with a ``compose_derivative`` sum at every order."""
    E = f.m * f.d
    u_derivs = [0j] * 7
    for t, c in enumerate(h_coeffs):
        u_derivs[E + t * f.d] = math.factorial(E + t * f.d) * c
    lam = f.lambda_
    g_derivs = [lam] + [math.factorial(i) * (-lam.conjugate()) ** (i - 1) * (1.0 - abs(lam) ** 2) for i in range(1, 7)]
    cross = 0.0
    for order in range(1, 7):
        cross = max(cross, abs(compose_derivative(g_derivs, u_derivs, order) / math.factorial(order) - coeffs[order]))
    return cross


@pytest.mark.parametrize(
    "k", [from_finite_set(range(1, E)) for E in range(2, 8)] + [KSpec(d=2, gaps=()), KD2], ids=str
)
def test_crosscheck_forms_no_sum_below_order_md_and_keeps_the_bits(k):
    # Below order E = m*d every Faà di Bruno sum is exactly 0, so the gap there
    # is |c_k|; from order E on the sums are formed.  E runs over 2 .. 7 at
    # d = 1 and is 4 and 6 at d = 2; a NaN coefficient counts at no order.
    _, f = roundtrip_generate(k, 3, 5)
    E = f.m * f.d
    coeffs = taylor_coeffs(f(_circle(0.9, 1024)), 128, 0.9)
    h_coeffs = _h_coeffs(f)
    nan = complex("nan")
    for at in (None, 1, min(E, 6)):
        c = coeffs if at is None else coeffs[:at] + (nan,) + coeffs[at + 1 :]
        assert interp._crosscheck_derivatives(f, c, h_coeffs) == _reference_crosscheck(f, c, h_coeffs)
    # the sum at order E is not 0, so a skip reaching it would change the result
    if E <= 6:
        assert _reference_crosscheck(f, coeffs, h_coeffs) < abs(coeffs[E])


def _reference_report(f, problem, k):
    """verify_interpolant's report, from separate evaluations through the public samplers."""
    tol = Tolerances()
    residuals = tuple(np.abs(f(np.array(problem.nodes)) - np.array(problem.targets)).tolist())
    sup = sup_norm_estimate(f(_circle(0.999, 4096)))
    coeffs = taylor_coeffs(f(_circle(0.9, 1024)), 128, 0.9)
    violations = tuple(
        (j, abs(coeffs[j])) for j in range(1, 129) if contains(k, j) and not abs(coeffs[j]) <= tol.taylor
    )
    cross = _reference_crosscheck(f, coeffs, _h_coeffs(f))
    values = [v for _, v in f.h.steps] + [f.h.tail]
    in_disk = [abs(a) < 1.0 for a, _ in f.h.steps] + [abs(v) <= 1.0 + pickmat.BOUNDARY_TOL for v in values]
    passed = all(r <= tol.interp for r in residuals) and sup <= 1.0 + tol.norm and not violations and all(in_disk)
    return interp.VerificationReport(
        residuals=residuals,
        sup_norm=sup,
        taylor_violations=violations,
        passed=passed,
        tolerances=tol,
        derivative_crosscheck=cross,
    )


@pytest.mark.parametrize(
    "k,m,d",
    [
        (K1, 2, 1),
        (K13, 4, 1),
        (K1_6, 7, 1),
        (KD2, 3, 2),
        (KSpec(d=2, gaps=(1, 2)), 4, 2),
        (from_finite_set([1, 2]), 1, 3),
        (KSpec(d=3, gaps=(1,)), 3, 3),
    ],
    ids=lambda x: str(x) if isinstance(x, KSpec) else None,
)
def test_verify_report_equals_the_public_samplers_report(k, m, d):
    # one chain pass serves every check with the bits of separate evaluations
    rng = np.random.default_rng(100 * m + d)
    lam = disk_point(rng, 0.7)

    def chain(n):
        return tuple((disk_point(rng, 0.9), disk_point(rng, 0.9)) for _ in range(n))

    chains = [SchurFunction(steps=chain(n), tail=disk_point(rng, 0.9)) for n in (0, 1, 2, 4, 8, 16)]
    chains.append(SchurFunction(steps=chain(3), tail=np.exp(0.7j)))  # a tail on the circle
    chains += [SchurFunction(steps=chain(n), tail=0j) for n in (1, 2, 8, 16)]  # np_solve's tail
    for h in chains:
        f = Interpolant(lambda_=lam, m=m, d=d, h=h)
        nodes = tuple(disk_point(rng, 0.9) for _ in range(len(h.steps) or 1))
        problem = Problem(nodes=nodes, targets=tuple(f(np.array(nodes)).tolist()))
        report = verify_interpolant(f, problem, k)
        assert report.passed, (len(h.steps), report)
        assert report == _reference_report(f, problem, k), len(h.steps)
        if len(h.steps) == 4:
            steps = list(h.steps)
            steps[1] = (steps[1][0], 1.5)  # a tampered chain value
            tampered = Interpolant(lambda_=lam, m=m, d=d, h=SchurFunction(steps=tuple(steps), tail=h.tail))
            report = verify_interpolant(tampered, problem, k)
            assert not report.passed
            assert report == _reference_report(tampered, problem, k)


def _chain_case(seed, tail, reflected=None):
    """A seeded 16-step chain with lam, as (m, d) = (3, 3), and data at the cube roots of its first 8 nodes.

    h takes the value of the step at that step's node whatever the steps inside
    it, so f matches the targets, read off the chain with tail 0, whatever
    ``tail`` is and whichever later step's node is reflected out of the disk.
    """
    rng = np.random.default_rng(seed)
    steps = [(disk_point(rng, 0.9), disk_point(rng, 0.9)) for _ in range(16)]
    lam = disk_point(rng, 0.5)
    nodes = np.array([a ** (1 / 3) for a, _ in steps[:8]])
    targets = Interpolant(lambda_=lam, m=3, d=3, h=SchurFunction(steps=tuple(steps), tail=0j))(nodes)
    if reflected is not None:
        a, v = steps[reflected]
        steps[reflected] = (1 / a.conjugate(), v)
    f = Interpolant(lambda_=lam, m=3, d=3, h=SchurFunction(steps=tuple(steps), tail=tail))
    return f, Problem(nodes=tuple(nodes.tolist()), targets=tuple(targets.tolist()))


def test_verify_rejects_a_chain_off_the_disk():
    # A tail of 3.0 gives h a pole inside the disk, yet at seed 2 f matches its
    # nodes to 1e-16, reads sup norm 0.9918 and has no constrained coefficient
    # over 1e-7: only the chain's own values show that f is not a Schur function.
    k = from_finite_set([1, 2])
    f, problem = _chain_case(2, 3.0)
    report = verify_interpolant(f, problem, k)
    assert max(report.residuals) < 1e-15 and report.sup_norm < 1.0 and not report.taylor_violations
    assert not report.passed
    assert report == _reference_report(f, problem, k)
    for seed in range(300):
        assert not verify_interpolant(*_chain_case(seed, 3.0), k).passed, seed
        assert verify_interpolant(*_chain_case(seed, 0j), k).passed, seed
    # a node reflected out of the disk puts a pole of h inside it just as well
    f, problem = _chain_case(2, 0j, reflected=14)
    report = verify_interpolant(f, problem, k)
    assert max(report.residuals) < 1e-15 and report.sup_norm < 1.0 and not report.taylor_violations
    assert not report.passed
    assert report == _reference_report(f, problem, k)


def test_numeric_strings_evaluate_as_the_numbers_they_parse_to():
    h = SchurFunction(steps=(("0.1", "0.2"),), tail="0")
    assert h(0.5) == SchurFunction(steps=((0.1, 0.2),), tail=0)(0.5)
    f = Interpolant(lambda_="0.1", m=1, d=1, h=h)
    assert f(0.5) == Interpolant(lambda_=0.1, m=1, d=1, h=h)(0.5)


@pytest.mark.parametrize("k", ALGEBRA_FIXTURES, ids=str)
def test_residuals_match_scalar_evaluation(k):
    for seed in range(3):
        problem, f = roundtrip_generate(k, 8, seed)
        residuals = verify_interpolant(f, problem, k).residuals
        scalar = [abs(f(z) - w) for z, w in zip(problem.nodes, problem.targets)]
        assert len(residuals) == 8
        assert max(abs(a - b) for a, b in zip(residuals, scalar)) <= 1e-14


def test_power_by_squaring_is_numpys_power_up_to_rounding():
    # Interpolant takes z^d and w^m by repeated squaring; numpy's complex ``**``
    # is the reference, to 2 k eps |z|^k (0.69 k eps |z|^k is the largest gap seen)
    rng = np.random.default_rng(3)
    z = np.array([disk_point(rng, 1.0) for _ in range(256)])
    assert interp._power(z, 1) is z
    eps = np.finfo(float).eps
    for k in range(1, 65):
        assert np.all(np.abs(interp._power(z, k) - z**k) <= 2 * k * eps * np.abs(z) ** k), k


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
    coeffs = taylor_coeffs(f(_circle(0.5, 1024)), 12, 0.5)
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
    sampled = taylor_coeffs(f(_circle(0.5, 1024)), 12, 0.5)
    nan_at_1 = (sampled[0], complex("nan")) + sampled[2:]
    monkeypatch.setattr(cpick.interp, "taylor_coeffs", lambda values, count, radius: nan_at_1[: count + 1])
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
    # verification evaluates h's chain directly, so h must be one
    for h in (None, "x", lambda w: w):
        with pytest.raises(InvalidProblem, match="h must be a SchurFunction"):
            Interpolant(lambda_=0.0, m=2, d=1, h=h)
    # a call still checks its points: 1.2 ** d is off the disk
    with pytest.raises(DomainError):
        Interpolant(lambda_=0.0, m=2, d=2, h=SchurFunction(steps=(), tail=0.5))(1.2)
