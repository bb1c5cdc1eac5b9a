"""Möbius maps, the Schur-Nevanlinna solver, Taylor extraction, sup norms."""

import re

import numpy as np
import pytest

from cpick import (
    DomainError,
    Infeasible,
    InvalidConfig,
    InvalidProblem,
    SchurFunction,
    classical_pick,
    mobius,
    np_solve,
    psd_check,
    sup_norm_estimate,
    taylor_coeffs,
)
from cpick.analytic import _circle
from conftest import blaschke_product, disk_point


def test_mobius_fixed_points():
    lam = 0.4 - 0.25j
    assert mobius(lam, lam) == 0
    z = 0.5 + 0.1j
    assert mobius(0, z) == z


def test_mobius_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = disk_point(rng, 0.95)
        z = disk_point(rng, 0.999)
        assert abs(mobius(-lam, mobius(lam, z)) - z) <= 1e-12


def test_mobius_preserves_circle():
    rng = np.random.default_rng(12)
    theta = 2 * np.pi * np.arange(64) / 64
    boundary = np.exp(1j * theta)
    for _ in range(20):
        lam = disk_point(rng, 0.95)
        assert np.max(np.abs(np.abs(mobius(lam, boundary)) - 1.0)) <= 1e-12


def test_mobius_domain_errors():
    with pytest.raises(DomainError):
        mobius(0.2, 1.5)
    with pytest.raises(DomainError):
        mobius(1.0, 0.2)
    with pytest.raises(DomainError):
        mobius(0.1, float("nan"))
    with pytest.raises(DomainError):
        mobius(complex(float("nan"), 0.0), 0.2)


def test_np_solve_single_point_is_constant():
    f = np_solve([0.3 + 0.2j], [0.5 - 0.1j])
    for z in (0.0, 0.5, -0.4j, 0.3 + 0.2j):
        assert f(z) == pytest.approx(0.5 - 0.1j, abs=1e-14)


def test_np_solve_two_point_linear():
    # hand recursion: divide out the node at 0, the rest is the constant 0.5
    f = np_solve([0, 0.5], [0, 0.25])
    assert f(0.8) == pytest.approx(0.4, abs=1e-14)
    assert f(0.5) == pytest.approx(0.25, abs=1e-14)
    assert f(0) == 0
    coeffs = taylor_coeffs(f, 4)
    assert coeffs[1] == pytest.approx(0.5, abs=1e-12)
    assert max(abs(coeffs[j]) for j in (0, 2, 3, 4)) <= 1e-12


def test_np_solve_rejects_bad_input():
    with pytest.raises(DomainError):
        np_solve([0.3], [1.2])
    with pytest.raises(InvalidProblem):
        np_solve([0.3, 0.3], [0.1, 0.2])
    with pytest.raises(InvalidProblem):
        np_solve([0.3], [0.1, 0.2])
    with pytest.raises(DomainError):
        np_solve([1.0], [0.5])
    with pytest.raises(DomainError):
        np_solve([0.3], [float("nan")])
    # a PD Pick matrix (min eigenvalue 2.7e-2): a NaN tolerance must not turn it into Infeasible
    for tol in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError):
            np_solve([0.3, 0.5], [0.1, 0.2], tol=tol)


def test_np_solve_infeasible_data():
    # |w| > |z| at a single nonzero node with value 0 elsewhere breaks Schwarz
    with pytest.raises(Infeasible):
        np_solve([0.0, 0.5], [0.0, 0.9])
    # the Pick check passes, and the first Schur step pushes the second target
    # just past the circle: the data are numerically singular
    with pytest.raises(Infeasible, match="reduced target left the closed disk"):
        np_solve([0, 0.5], [0.999, 0.999333423818965 + 0.0008811011606457766j])


def test_np_solve_boundary_target_forces_constant():
    f = np_solve([0.2, 0.5], [1.0, 1.0])
    assert f.steps == ()
    assert f(0.1) == 1.0
    with pytest.raises(Infeasible):
        np_solve([0.2, 0.5], [1.0, 0.3])
    # here the Pick check passes (the data are nearly the constant 1), and the
    # constant the boundary target forces misses the other target by 5e-8
    with pytest.raises(Infeasible, match="boundary target forces a constant solution"):
        np_solve([0.0, 0.99], [1.0, 1.0 - 5e-8])


def test_np_solve_nodes_reproduce_and_schur_bound():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.85)
            if all(abs(z - w) > 0.1 for w in nodes):
                nodes.append(z)
        values = [disk_point(rng, 0.9) for _ in range(n)]
        if psd_check(classical_pick(nodes, values)).min_eigenvalue < 1e-6:
            continue
        f = np_solve(nodes, values)
        for z, v in zip(nodes, values):
            assert abs(f(z) - v) <= 1e-8
        assert sup_norm_estimate(f, 0.999, 4096) <= 1 + 1e-9


def test_np_solve_on_blaschke_samples():
    """Samples of a known Schur function give a feasible, well-behaved solve.

    The solution is not unique (any two interpolants differ by a multiple of
    the full node Blaschke product), so only the sampled values and the
    Schur bound are checkable against the source function.
    """
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 10:
        factors = [disk_point(rng, 0.7) for _ in range(int(rng.integers(1, 4)))]
        target = blaschke_product(factors)
        nodes = []
        while len(nodes) < 5:
            z = disk_point(rng, 0.8)
            if all(abs(z - w) > 0.15 for w in nodes):
                nodes.append(z)
        values = [complex(target(z)) for z in nodes]
        if psd_check(classical_pick(nodes, values)).min_eigenvalue < 1e-6:
            continue
        f = np_solve(nodes, values)
        for z, v in zip(nodes, values):
            assert abs(f(z) - v) <= 1e-8
        assert sup_norm_estimate(f, 0.999, 4096) <= 1 + 1e-9
        checked += 1


def test_np_solve_roundtrip_on_canonical_family():
    """Exact recovery for functions already in the solver's representation.

    A chain with free tail 0 is the unique output the solver can produce for
    its own node values, so re-solving must reproduce it identically, here
    checked at 10 held-out points.
    """
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        nodes = []
        while len(nodes) < n:
            z = disk_point(rng, 0.8)
            if all(abs(z - w) > 0.15 for w in nodes):
                nodes.append(z)
        steps = tuple((z, disk_point(rng, 0.8)) for z in nodes)
        from cpick import SchurFunction

        source = SchurFunction(steps=steps, tail=0j)
        values = [source(z) for z in nodes]
        solved = np_solve(nodes, values)
        holdout = [disk_point(rng, 0.9) for _ in range(10)]
        for z in holdout:
            assert abs(solved(z) - source(z)) <= 1e-6


def test_evaluate_contract():
    nodes = (0.1, -0.4, 0.3j)
    values = tuple(0.5 * z for z in nodes)  # sampled from the Schur map z/2
    f = np_solve(nodes, values)
    for z, v in zip(nodes, values):
        assert abs(f(z) - v) <= 1e-8
    with pytest.raises(DomainError):
        f(1.2)
    arr = np.array([0.1, 0.2 + 0.1j])
    out = f(arr)
    assert out.shape == arr.shape


def test_schur_function_refuses_non_finite_fields():
    nan, inf = float("nan"), float("inf")
    for kwargs, field in [
        ({"steps": (), "tail": nan}, "tail"),
        ({"steps": ((0.5, complex(0.2, nan)),), "tail": 0j}, "steps[0] value"),
        ({"steps": ((0.1, 0.2), (inf, 0.2)), "tail": 0j}, "steps[1] node"),
    ]:
        with pytest.raises(InvalidProblem, match=re.escape(field)):
            SchurFunction(**kwargs)
    # finite values off the disk stay constructible: verification rejects them
    f = SchurFunction(steps=((0.5, 1.5),), tail=2.0)
    assert f.steps == ((0.5, 1.5),) and f.tail == 2.0


def test_taylor_monomial():
    coeffs = taylor_coeffs(lambda z: z**2, 4, 0.5, 256)
    expected = [0, 0, 1, 0, 0]
    for c, e in zip(coeffs, expected):
        assert abs(c - e) <= 1e-10


def test_taylor_constant():
    lam = 0.3 - 0.6j
    coeffs = taylor_coeffs(lambda z: np.full_like(np.asarray(z, complex), lam), 6)
    assert abs(coeffs[0] - lam) <= 1e-14
    assert max(abs(c) for c in coeffs[1:]) <= 1e-12


def test_taylor_mobius_of_squared():
    # series of (u + 0.3)/(1 + 0.3 u) at u = 0.5 z^2, truncated by hand:
    # c0 = 0.3, c2 = 0.5 * (1 - 0.09) = 0.455
    f = lambda z: mobius(-0.3, 0.5 * np.asarray(z, complex) ** 2)
    coeffs = taylor_coeffs(f, 4)
    assert abs(coeffs[0] - 0.3) <= 1e-9
    assert abs(coeffs[1]) <= 1e-9
    assert abs(coeffs[2] - 0.455) <= 1e-9


def test_taylor_shift_consistency():
    rng = np.random.default_rng(41)
    factors = [disk_point(rng, 0.6) for _ in range(2)]
    f = blaschke_product(factors)
    g = lambda z: np.asarray(z, complex) * f(z)
    cf = taylor_coeffs(f, 8)
    cg = taylor_coeffs(g, 8)
    for j in range(1, 9):
        assert abs(cg[j] - cf[j - 1]) <= 1e-10


def test_taylor_config_validation():
    with pytest.raises(InvalidConfig):
        taylor_coeffs(lambda z: z, 4, radius=1.0)
    with pytest.raises(InvalidConfig):
        taylor_coeffs(lambda z: z, 4, samples=100)  # not a power of two
    with pytest.raises(InvalidConfig):
        taylor_coeffs(lambda z: z, 64, samples=128)  # fewer than 4*count


def test_sup_norm_examples():
    assert sup_norm_estimate(lambda z: z, 0.999, 4096) == pytest.approx(0.999, abs=1e-12)
    assert sup_norm_estimate(lambda z: np.full_like(np.asarray(z, complex), 0.7)) == pytest.approx(0.7)
    with pytest.raises(InvalidConfig):
        sup_norm_estimate(lambda z: z, radius=1.2)


def test_samplers_call_f_once_on_the_whole_circle():
    shapes = []

    def cube(z):
        shapes.append(np.shape(z))
        return z**3

    assert abs(taylor_coeffs(cube, 4, 0.5, 64)[3] - 1) <= 1e-10
    assert sup_norm_estimate(cube, 0.9, 256) == pytest.approx(0.729)
    assert shapes == [(64,), (256,)]


def test_samplers_refuse_callables_that_do_not_map_arrays():
    shapes = []

    def scalar_only(z):
        shapes.append(np.shape(z))
        return complex(z) ** 3

    with pytest.raises(TypeError):
        taylor_coeffs(scalar_only, 4, 0.5, 64)
    with pytest.raises(TypeError):
        sup_norm_estimate(scalar_only, 0.9, 256)
    assert shapes == [(64,), (256,)]  # raised at once, never looped over the points
    with pytest.raises(ValueError, match="shape"):
        taylor_coeffs(lambda z: 0.5, 4)
    with pytest.raises(ValueError, match="shape"):
        sup_norm_estimate(lambda z: z[:-1])


@pytest.mark.parametrize("radius,samples", [(0.999, 4096), (0.5, 1024), (0.9, 8)])
def test_sampling_circle_is_built_once(radius, samples):
    ring = _circle(radius, samples)
    assert _circle(radius, samples) is ring
    assert not ring.flags.writeable
    t = np.arange(samples)
    assert np.array_equal(ring, radius * np.exp(2j * np.pi * t / samples))
