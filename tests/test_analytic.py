"""Möbius maps, the Schur-Nevanlinna solver, Taylor extraction, sup norms."""

import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from cpick import (
    DomainError,
    Infeasible,
    InvalidConfig,
    InvalidProblem,
    SchurFunction,
    classical_pick,
    np_solve,
    psd_check,
    sup_norm_estimate,
    taylor_coeffs,
)
from cpick.analytic import _circle
from cpick.pickmat import _mobius
from conftest import blaschke_product, cpick_env, disk_point


def test_mobius_fixed_points():
    lam = 0.4 - 0.25j
    assert _mobius(lam, lam) == 0
    z = 0.5 + 0.1j
    assert _mobius(0, z) == z


def test_mobius_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = disk_point(rng, 0.95)
        z = disk_point(rng, 0.999)
        assert abs(_mobius(-lam, _mobius(lam, z)) - z) <= 1e-12


def test_mobius_preserves_circle():
    rng = np.random.default_rng(12)
    theta = 2 * np.pi * np.arange(64) / 64
    boundary = np.exp(1j * theta)
    for _ in range(20):
        lam = disk_point(rng, 0.95)
        assert np.max(np.abs(np.abs(_mobius(lam, boundary)) - 1.0)) <= 1e-12


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
    coeffs = taylor_coeffs(f(_circle(0.5, 1024)), 4, 0.5)
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
        with pytest.raises(InvalidConfig, match="tolerance"):
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
        assert sup_norm_estimate(f(_circle(0.999, 4096))) <= 1 + 1e-9


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
        assert sup_norm_estimate(f(_circle(0.999, 4096))) <= 1 + 1e-9
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
        # a Python complex is kept without parsing, and still checked
        ({"steps": (), "tail": complex("nan")}, "tail"),
        ({"steps": ((0.5, complex(0.2, inf)),), "tail": 0j}, "steps[0] value"),
    ]:
        with pytest.raises(InvalidProblem, match=re.escape(field)):
            SchurFunction(**kwargs)
    # finite values off the disk stay constructible: verification rejects them
    f = SchurFunction(steps=((0.5, 1.5),), tail=2.0)
    assert f.steps == ((0.5, 1.5),) and f.tail == 2.0
    # other numbers are stored as the Python complex they equal, signed zeros kept
    steps = ((np.complex128(complex(-0.0, 0.5)), 1), ("0.5", np.complex128(complex(0.25, -0.0))))
    f = SchurFunction(steps=steps, tail=-0.0)
    fields = [*(v for step in f.steps for v in step), f.tail]
    assert all(type(v) is complex for v in fields)
    assert [repr(v) for v in fields] == ["(-0+0.5j)", "(1+0j)", "(0.5+0j)", "(0.25-0j)", "(-0+0j)"]


def _out_of_place_chain(h, z):
    """The chain loop written with out-of-place expressions, as a bit-for-bit reference."""
    w = np.atleast_1d(np.asarray(z, dtype=complex))
    p = np.full_like(w, h.tail)
    q = np.ones_like(w)
    for node, val in reversed(h.steps):
        s = (w - node) * p
        t = (1.0 - node.conjugate() * w) * q
        p = s + val * t
        q = t + val.conjugate() * s
    return p / q


@pytest.mark.parametrize("n", [0, 1, 3, 16])
def test_buffered_chain_has_the_bits_of_the_out_of_place_loop(n):
    rng = np.random.default_rng(41 + n)
    h = SchurFunction(
        steps=tuple((disk_point(rng, 0.95), disk_point(rng, 1.0)) for _ in range(n)), tail=disk_point(rng, 1.0)
    )
    for length in (1, 2, 7, 8, 9, 64, 1024, 4096, 5184):
        z = np.array([disk_point(rng, 1.0) for _ in range(length)])
        assert h(z).tobytes() == _out_of_place_chain(h, z).tobytes(), length
    for z in (0.3 - 0.2j, 1.0, -1j, disk_point(rng, 1.0)):
        assert repr(h(z)) == repr(complex(_out_of_place_chain(h, z)[0])), z


@pytest.mark.parametrize(
    "n,tail",
    [(1, 0j), (2, 0j), (8, 0j), (16, 0j), (5, np.exp(0.3j)), (0, 0j)],
    ids=["tail 0, n=1", "tail 0, n=2", "tail 0, n=8", "tail 0, n=16", "tail on the circle", "empty chain"],
)
def test_chain_equals_the_unfolded_pair_recurrence(n, tail):
    # A tail of 0 skips the products by 0 and 1 of the innermost step; the
    # values must be those of the full recurrence from (tail, 1), on the
    # points verification evaluates h at, as one array and point by point.
    # == and not the bytes: only the sign of an exact zero may differ.
    rng = np.random.default_rng(70 + n)
    h = SchurFunction(steps=tuple((disk_point(rng, 0.9), disk_point(rng, 0.9)) for _ in range(n)), tail=tail)
    nodes = np.array([a for a, _ in h.steps] + [disk_point(rng, 0.9) for _ in range(8)])
    points = np.concatenate((_circle(0.999, 4096), _circle(0.9, 1024), nodes))
    values = h(points)
    assert np.array_equal(values, _out_of_place_chain(h, points))
    for i in range(0, len(points), 61):
        z = complex(points[i])
        assert h(z) == complex(_out_of_place_chain(h, z)[0]) == values[i], i
    for i, z in enumerate(nodes.tolist(), start=4096 + 1024):
        assert h(z) == complex(_out_of_place_chain(h, z)[0]) == values[i], z


def test_taylor_monomial():
    coeffs = taylor_coeffs(_circle(0.5, 256) ** 2, 4, 0.5)
    expected = [0, 0, 1, 0, 0]
    for c, e in zip(coeffs, expected):
        assert abs(c - e) <= 1e-10


def test_taylor_constant():
    lam = 0.3 - 0.6j
    coeffs = taylor_coeffs(np.full(1024, lam), 6, 0.5)
    assert abs(coeffs[0] - lam) <= 1e-14
    assert max(abs(c) for c in coeffs[1:]) <= 1e-12


def test_taylor_mobius_of_squared():
    # series of (u + 0.3)/(1 + 0.3 u) at u = 0.5 z^2, truncated by hand:
    # c0 = 0.3, c2 = 0.5 * (1 - 0.09) = 0.455
    coeffs = taylor_coeffs(_mobius(-0.3, 0.5 * _circle(0.5, 1024) ** 2), 4, 0.5)
    assert abs(coeffs[0] - 0.3) <= 1e-9
    assert abs(coeffs[1]) <= 1e-9
    assert abs(coeffs[2] - 0.455) <= 1e-9


def test_taylor_shift_consistency():
    rng = np.random.default_rng(41)
    factors = [disk_point(rng, 0.6) for _ in range(2)]
    f = blaschke_product(factors)
    ring = _circle(0.5, 1024)
    cf = taylor_coeffs(f(ring), 8, 0.5)
    cg = taylor_coeffs(ring * f(ring), 8, 0.5)
    for j in range(1, 9):
        assert abs(cg[j] - cf[j - 1]) <= 1e-10


def test_taylor_config_validation():
    ring = _circle(0.5, 128)
    with pytest.raises(InvalidConfig):
        taylor_coeffs(ring, 4, 1.0)
    with pytest.raises(InvalidConfig):
        taylor_coeffs(ring, -1, 0.5)
    with pytest.raises(InvalidConfig):
        taylor_coeffs(ring, 64, 0.5)  # fewer than 4 * count samples
    for count in (1.5, "2", True):  # a count must be an integer
        with pytest.raises(InvalidConfig, match="must be an integer"):
            taylor_coeffs(ring, count, 0.5)
    # c_4 is divided by radius ** 4, which underflows to 0 at 1e-300 and is
    # subnormal, of reciprocal inf, at 1e-78; either would return inf
    for radius in (1e-300, 1e-78):
        with pytest.raises(InvalidConfig, match=f"radius .*got {radius}"):
            taylor_coeffs(ring, 4, radius)
    assert np.all(np.isfinite(taylor_coeffs(ring, 4, 1e-77)))


def test_sup_norm_examples():
    assert sup_norm_estimate(_circle(0.999, 4096)) == pytest.approx(0.999, abs=1e-12)
    assert sup_norm_estimate(np.full(8, 0.7)) == pytest.approx(0.7)
    assert sup_norm_estimate([0.1, -0.5j, 0.3]) == 0.5


@pytest.mark.parametrize(
    "samples",
    [np.zeros(100), np.zeros(0), np.zeros((8, 8)), 0.5],
    ids=["not a power of two", "empty", "2-d", "scalar"],
)
def test_taylor_coeffs_refuses_samples_of_another_shape(samples):
    with pytest.raises(InvalidConfig, match="power of two"):
        taylor_coeffs(samples, 1, 0.5)


@pytest.mark.parametrize("samples", [np.zeros(0), np.zeros((8, 8)), 0.5], ids=["empty", "2-d", "scalar"])
def test_sup_norm_refuses_samples_of_another_shape(samples):
    with pytest.raises(InvalidConfig, match="1-d"):
        sup_norm_estimate(samples)


def test_samplers_refuse_what_is_not_an_array_of_numbers():
    # a callable is not an array of samples
    for samples in (lambda z: z, ["a"] * 8):
        with pytest.raises(InvalidProblem, match="must be a rectangular array of numbers"):
            taylor_coeffs(samples, 1, 0.5)
        with pytest.raises(InvalidProblem, match="must be a rectangular array of numbers"):
            sup_norm_estimate(samples)


@pytest.mark.parametrize("radius,samples", [(0.999, 4096), (0.5, 1024), (0.9, 8)])
def test_sampling_circle_is_built_once(radius, samples):
    ring = _circle(radius, samples)
    assert _circle(radius, samples) is ring
    assert not ring.flags.writeable
    t = np.arange(samples)
    assert np.array_equal(ring, radius * np.exp(2j * np.pi * t / samples))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap trim threshold is glibc's")
def test_arrays_freed_after_evaluation_are_not_faulted_in_again():
    # A fresh process that imports cpick, then allocates and frees eight
    # arrays of 82 KB per round, as an evaluation on the verification
    # circles does, must not fault their pages in again each round: glibc
    # keeps the freed top of its heap instead of handing it back.
    code = (
        "import resource, numpy as np, cpick\n"
        "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "[np.ones(5128, complex) for _ in range(8)]\n"
        "before = faults()\n"
        "for _ in range(50):\n"
        "    [np.ones(5128, complex) for _ in range(8)]\n"
        "print((faults() - before) / 50)\n"
    )
    # settings that fix glibc's thresholds would decide the answer themselves
    env = {k: v for k, v in cpick_env().items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert float(out) < 8, out
