"""Composition-derivative enumeration, weights, and closure behavior."""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from cpick import (
    CompositionTuple,
    OrderTooLarge,
    bruno_coefficient,
    compose_derivative,
    composition_tuples,
    contains,
    from_finite_set,
    is_algebra,
)
from cpick.bruno import MAX_ORDER
from conftest import fixture_kspecs


def partition_count(n):
    """Independent oracle: number of integer partitions via the coin DP."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def bell_number(n):
    """Independent oracle: Bell numbers via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_tuples_k3_worked_example():
    assert [t.b for t in composition_tuples(3)] == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


def test_tuples_small_orders():
    assert [t.b for t in composition_tuples(1)] == [(1,)]
    assert len(composition_tuples(4)) == 5


@pytest.mark.parametrize("k", range(1, 13))
def test_tuple_count_is_partition_count(k):
    tuples = composition_tuples(k)
    assert len(tuples) == partition_count(k)
    assert len(set(tuples)) == len(tuples)
    for t in tuples:
        assert sum(l * b for l, b in enumerate(t.b, start=1)) == k
        assert 1 <= t.total <= k


def test_order_guard():
    with pytest.raises(OrderTooLarge):
        composition_tuples(0)
    with pytest.raises(OrderTooLarge):
        composition_tuples(21)
    with pytest.raises(OrderTooLarge):
        compose_derivative([0] * 25, [0] * 25, 24)


def test_tuple_validation():
    with pytest.raises(ValueError):
        CompositionTuple((1, 1))  # weight 3 != order 2
    with pytest.raises(ValueError):
        CompositionTuple((-1, 1, 0))


def test_tuple_reads_its_multiplicities():
    # a multiplicity is an integer: a fraction, a string or a boolean is refused, not truncated or cast
    for b in [(1.7,), ("1",), (True,), (0, 1.5), 1]:
        with pytest.raises(ValueError, match="multiplicities"):
            CompositionTuple(b)
    t = CompositionTuple((np.int64(1), 1.0, 0))
    assert t == CompositionTuple((1, 1, 0)) and all(type(x) is int for x in t.b)


def test_coefficients_worked_example():
    assert bruno_coefficient(CompositionTuple((1, 1, 0))) == 3
    assert bruno_coefficient(CompositionTuple((3, 0, 0))) == 1
    assert bruno_coefficient(CompositionTuple((0, 0, 1))) == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_coefficient_sum_is_bell_number(k):
    # with every derivative equal to 1 the expansion sums its weights
    g = [1.0] * (k + 1)
    f = [0.0] + [1.0] * k
    assert compose_derivative(g, f, k) == pytest.approx(bell_number(k))


@pytest.mark.parametrize("k", [k for k in fixture_kspecs() if is_algebra(k)], ids=str)
def test_K_factor_lemma(k):
    for order in range(1, 13):
        if not contains(k, order):
            continue
        for t in composition_tuples(order):
            # some factor f^(l)(0)^b_l with l in K vanishes and kills the term
            assert any(mult > 0 and contains(k, l) for l, mult in enumerate(t.b, start=1)), (order, t.b)


def test_identity_composition():
    g = [0.3 - 0.1j, 0.7, -0.2 + 0.4j, 1.5j]
    f = [0.0, 1.0, 0.0, 0.0]
    assert compose_derivative(g, f, 3) == g[3]


def test_k3_expansion_matches_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        f = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        expected = g[3] * f[1] ** 3 + 3 * g[2] * f[1] * f[2] + g[1] * f[3]
        assert compose_derivative(g, f, 3) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", range(1, 7))
def test_against_polynomial_composition(k):
    """Oracle: compose degree-6 polynomials exactly and read off coefficients."""
    rng = np.random.default_rng(100 + k)
    for _ in range(20):
        fc = rng.uniform(-1, 1, 7)
        gc = rng.uniform(-1, 1, 7)
        comp = np.array([gc[-1]])
        for c in gc[-2::-1]:  # Horner in the outer variable
            comp = npoly.polyadd(npoly.polymul(comp, fc), [c])
        f_derivs = [math.factorial(l) * fc[l] for l in range(7)]
        g_at_f0 = [npoly.polyval(fc[0], npoly.polyder(gc, i)) for i in range(7)]
        expected = comp[k]
        got = compose_derivative(g_at_f0, f_derivs, k) / math.factorial(k)
        assert got == pytest.approx(expected, abs=1e-9)


def _reference_compose(g_derivs, f_derivs, k):
    """The expansion rebuilt from the public tuples and weights on every call."""
    total = complex(0)
    for t in composition_tuples(k):
        term = complex(bruno_coefficient(t)) * complex(g_derivs[t.total])
        for l, mult in enumerate(t.b, start=1):
            if mult:
                term *= complex(f_derivs[l]) ** mult
        total += term
    return total


def test_cached_expansion_equals_reference_exactly():
    # the expansion is cached per order; the arithmetic must not change at all
    rng = np.random.default_rng(11)
    for k in range(1, MAX_ORDER + 1):
        for _ in range(3):
            g = list(rng.uniform(-1, 1, k + 1) + 1j * rng.uniform(-1, 1, k + 1))
            f = list(rng.uniform(-1, 1, k + 1) + 1j * rng.uniform(-1, 1, k + 1))
            assert compose_derivative(g, f, k) == _reference_compose(g, f, k)
    g, f = [0.5, 1.0, -0.25, 2.0], [0.0, 0.3j, 1.5, -0.7]
    before = compose_derivative(g, f, 3)
    tuples = composition_tuples(3)
    tuples.clear()
    assert len(composition_tuples(3)) == 3
    assert compose_derivative(g, f, 3) == before


def test_composition_closure_exact_zero():
    """Vanishing inner derivatives at constrained orders kill the whole sum."""
    rng = np.random.default_rng(9)
    for k in [kk for kk in fixture_kspecs() if is_algebra(kk)]:
        for _ in range(20):
            g = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
            f = rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13)
            for l in range(1, 13):
                if contains(k, l):
                    f[l] = 0.0
            for order in range(1, 13):
                if contains(k, order):
                    assert compose_derivative(g, f, order) == 0j
