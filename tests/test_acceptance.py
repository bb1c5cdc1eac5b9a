"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import json

import numpy as np
import pytest

from cpick import (
    KSpec,
    NotFound,
    Problem,
    composition_tuples,
    compose_derivative,
    constrained_pick,
    construct,
    contains,
    exponent_plan,
    factorization_residual,
    find_lambda,
    from_finite_set,
    is_algebra,
    necessary_check,
    psd_check,
    roundtrip_generate,
    verify_interpolant,
)
from conftest import disk_point
from test_bruno import partition_count
from test_kset import closure_oracle

FIXTURE_SET = [
    from_finite_set([1]),
    from_finite_set([1, 2]),
    from_finite_set([1, 2, 3]),
    from_finite_set([1, 3]),
    from_finite_set([1, 2, 4]),
    KSpec(d=2, gaps=(1,)),
]


def _verdict(n, text):
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def constructed_pipeline():
    """50 seeded instances per fixture K, constructed in the matching mode."""
    results = []
    for k in FIXTURE_SET:
        prefix = k.d == 1 and k.gaps == tuple(range(1, len(k.gaps) + 1))
        mode = "iff" if prefix else "sufficient"
        for seed in range(50):
            n = seed % 4 + 1
            problem, _ = roundtrip_generate(k, n, seed)
            f = construct(problem, k, mode)
            results.append((k, problem, f))
    return results


def test_criterion_1_algebra_regression():
    assert is_algebra(from_finite_set([2])) is False
    assert is_algebra(from_finite_set([1, 3])) is True
    for k in FIXTURE_SET:
        assert is_algebra(k), k
        assert is_algebra(k) == closure_oracle(k, 2 * max(k.gaps) * k.d + 2)
        window = 2 * max(k.gaps) * k.d
        outside = [n for n in range(1, window + 1) if not contains(k, n)]
        inside = [n for n in range(1, window + 1) if contains(k, n)]
        for j in outside:  # monomial membership: z^j admitted iff j outside K
            for kk in outside:
                if j + kk <= window:
                    assert not contains(k, j + kk)
            for mult in range(2, window // j + 1):
                assert not contains(k, mult * j)
        for k0 in inside:
            for j in outside:
                if 1 < j < k0:
                    assert contains(k, k0 - j)
        assert contains(k, 1)
    _verdict(1, "algebra regression and closure properties on all fixture sets")


def test_criterion_2_composition_derivatives():
    tuples3 = composition_tuples(3)
    assert [t.b for t in tuples3] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    from cpick import bruno_coefficient

    assert sorted(bruno_coefficient(t) for t in tuples3) == [1, 1, 3]
    for k in range(1, 13):
        assert len(composition_tuples(k)) == partition_count(k)
    rng = np.random.default_rng(202)
    algebra_fixtures = FIXTURE_SET
    vectors = 0
    while vectors < 100:
        k = algebra_fixtures[vectors % len(algebra_fixtures)]
        g = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
        f = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
        for l in range(1, 13):
            if contains(k, l):
                f[l] = 0.0
        for order in range(1, 13):
            if contains(k, order):
                assert compose_derivative(g, f, order) == 0j
        vectors += 1
    _verdict(2, "Faa di Bruno expansion, p(k) counts, exact composition closure")


def test_criterion_3_factorization_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        e = d * int(rng.integers(1, 4))
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.85)
            if abs(z) < 0.05:
                continue
            if all(abs(z - w) >= 0.05 for w in nodes) and all(
                abs(z**d - w**d) >= 0.02 for w in nodes
            ):
                nodes.append(z)
        h = [disk_point(rng, 1.0) for _ in range(n)]
        lam = disk_point(rng, 0.9)
        worst = max(worst, factorization_residual(nodes, h, lam, e, d))
    assert worst <= 1e-12
    _verdict(3, f"diagonal factorization residual {worst:.2e} over 100 instances")


def test_criterion_4_two_point_threshold():
    feasible = find_lambda(Problem((0, 0.5), (0, 0.2)), 2, 1)
    assert feasible.feasible and feasible.pinned
    infeasible = find_lambda(Problem((0, 0.5), (0, 0.3)), 2, 1)
    assert not infeasible.feasible and infeasible.pinned
    boundary = find_lambda(Problem((0, 0.5), (0, 0.25)), 2, 1)
    assert abs(boundary.best_min_eigenvalue) <= 1e-12
    assert boundary.feasible
    # verdicts are stable at the stated tolerance
    assert feasible.best_min_eigenvalue > 1e-8
    assert infeasible.best_min_eigenvalue < -1e-8
    _verdict(4, "pinned two-point threshold at t = 0.2 / 0.25 / 0.3")


def test_criterion_5_roundtrip_completeness_and_soundness(constructed_pipeline):
    assert len(constructed_pipeline) == 50 * len(FIXTURE_SET)  # no NotFound escapes
    for k, problem, f in constructed_pipeline:
        report = verify_interpolant(f, problem, k)
        assert report.passed, (k, problem)
        assert max(report.residuals) <= 1e-7
        assert report.sup_norm <= 1 + 1e-6
        assert not report.taylor_violations
        assert report.derivative_crosscheck <= 1e-13
    _verdict(5, f"construct + verify on {len(constructed_pipeline)} seeded instances")


def test_criterion_6_theorem_consistency(constructed_pipeline):
    # the necessary matrix at the construction's own base value is PSD
    for k, problem, f in constructed_pipeline:
        m, d = exponent_plan(k, "necessary")
        verdict = psd_check(
            constrained_pick(problem.nodes, problem.targets, f.lambda_, m * d, d), 1e-8
        )
        assert verdict.is_psd, (k, problem)
    # the full search also passes on a spread of instances
    for idx in range(0, len(constructed_pipeline), 37):
        k, problem, _ = constructed_pipeline[idx]
        assert necessary_check(problem, k).passes
    # substitution coherence for the scaled fixture
    rng = np.random.default_rng(606)
    k = KSpec(d=2, gaps=(1,))
    m, d = exponent_plan(k, "sufficient")
    for _ in range(10):
        nodes = []
        while len(nodes) < 3:
            z = disk_point(rng, 0.85)
            if all(abs(z - w) >= 0.05 for w in nodes) and all(
                abs(z**2 - w**2) >= 0.02 for w in nodes
            ):
                nodes.append(z)
        targets = [disk_point(rng, 0.8) for _ in range(3)]
        lam = disk_point(rng, 0.8)
        direct = constrained_pick(nodes, targets, lam, m * d, d)
        powered = constrained_pick([z**d for z in nodes], targets, lam, m, 1)
        assert np.max(np.abs(direct - powered)) <= 1e-14
    _verdict(6, "necessary criterion holds at every constructed witness; substitution coheres")


def test_criterion_7_negative_soundness_brute_force():
    """Certified pinned negatives admit no candidate in a 10^4-function sweep."""
    k1 = from_finite_set([1])
    # candidate grid: f = z^2 h with h constant or degree-1, all Schur class
    const_r = np.linspace(0.0, 1.0, 40)
    const_t = np.linspace(0.0, 2 * np.pi, 35, endpoint=False)
    constants = (const_r[:, None] * np.exp(1j * const_t)[None, :]).ravel()
    ra = np.linspace(0.0, 1.0, 12)
    ta = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    rb = np.linspace(0.0, 1.0, 6)
    tb = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    a = (ra[:, None] * np.exp(1j * ta)[None, :]).ravel()
    frac = (rb[:, None] * np.exp(1j * tb)[None, :]).ravel()
    pairs_a = np.repeat(a, len(frac))
    pairs_b = (1.0 - np.abs(pairs_a)) * np.tile(frac, len(a))  # |a| + |b| <= 1
    total = len(constants) + len(pairs_a)
    assert total >= 10_000

    rng = np.random.default_rng(707)
    for i in range(10):
        z2 = 0.3 + 0.055 * i
        t = z2**2 + 0.05 + 0.02 * i
        problem = Problem((0, z2), (0, t))
        with pytest.raises(NotFound) as exc_info:
            construct(problem, k1, "iff")
        assert exc_info.value.certified
        # sweep: residual at the nonzero node for every candidate
        h_const = constants
        h_lin = pairs_a + pairs_b * z2
        h_all = np.concatenate([h_const, h_lin])
        residuals = np.abs(z2**2 * h_all - t)
        assert float(residuals.min()) >= 1e-3, (z2, t)
    _verdict(7, f"no interpolant among {total} brute-force candidates for 10 certified negatives")


def test_criterion_8_cli_contract(run_cli, write_json, tmp_path):
    problem = {
        "nodes": [[0, 0], [0.5, 0]],
        "targets": [[0, 0], [0.2, 0]],
        "K": {"K": [1]},
    }
    prob = write_json("p.json", problem)

    # interpolate -> verify round trip exits 0
    out_path = tmp_path / "f.json"
    code, _, _ = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path), "--seed", "1")
    assert code == 0
    assert run_cli("verify", "--function", str(out_path), "--problem", prob)[0] == 0

    # tampered artifact exits 1
    artifact = json.loads(out_path.read_text())
    artifact["lambda"] = [0.05, 0.0]
    tampered = tmp_path / "t.json"
    tampered.write_text(json.dumps(artifact))
    assert run_cli("verify", "--function", str(tampered), "--problem", prob)[0] == 1

    # malformed file exits 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run_cli("check-algebra", str(bad))[0] == 2

    # mode / K mismatch exits 3
    mismatch = write_json("p13.json", {**problem, "K": {"K": [1, 3]}})
    assert run_cli("feasible", mismatch, "--mode", "iff")[0] == 3

    # byte determinism across two runs with the same seed
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, out, _ = run_cli("interpolate", prob, "--mode", "iff", "--out", str(path), "--seed", "9")
        assert code == 0
        outs.append((out.replace(name, "X"), path.read_bytes()))
    assert outs[0] == outs[1]
    _verdict(8, "CLI exit codes 0/1/2/3 and byte-deterministic reports")
