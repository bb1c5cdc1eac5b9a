"""Constraint-set membership, the semigroup criterion, and complement structure."""

import math
import tracemalloc

import numpy as np
import pytest

from cpick import (
    InvalidK,
    KSpec,
    OrderTooLarge,
    Unsupported,
    complement_structure,
    contains,
    from_finite_set,
    is_algebra,
    smallest_missing,
)
from cpick import kset
from conftest import fixture_kspecs


def complement_upto(k, upto):
    """Complement of K on [1, upto] straight from the membership rule."""
    return {n for n in range(1, upto + 1) if not contains(k, n)}


def closure_oracle(k, window):
    """Independent algebra check: exhaustive additive-closure scan.

    Verifies that no two elements of (Z+ \\ K) union {0} sum to an element
    of K, scanning every pair with sum at most ``window``.
    """
    allowed = {0} | complement_upto(k, window)
    for a in allowed:
        for b in allowed:
            s = a + b
            if 1 <= s <= window and s not in allowed:
                return False
    return True


def test_contains_examples():
    assert contains(KSpec(d=1, gaps=(1,)), 1) is True
    # the power series of a {1}-constrained function keeps its z^2 term
    assert contains(KSpec(d=1, gaps=(1,)), 2) is False
    assert contains(KSpec(d=2, gaps=(1,)), 4) is False


def test_contains_rejects_nonpositive():
    with pytest.raises(OrderTooLarge, match="order n"):
        contains(from_finite_set([1]), 0)
    # the in operator reads the order the same way
    with pytest.raises(OrderTooLarge, match="order n"):
        2.5 in from_finite_set([1, 2])


def test_constrained_is_contains_in_ascending_order():
    for k in [*fixture_kspecs(), KSpec(d=2, gaps=(1,)), KSpec(d=3, gaps=(1, 2)), from_finite_set(range(1, 71))]:
        for n in (1, 10, 128):
            assert kset._constrained(k, n) == tuple(j for j in range(1, n + 1) if contains(k, j)), (k, n)
            assert set(kset._constrained(k, n)).isdisjoint(complement_upto(k, n)), (k, n)


def test_from_finite_set_examples():
    assert from_finite_set([1]) == KSpec(d=1, gaps=(1,))
    assert from_finite_set([3, 1]) == KSpec(d=1, gaps=(1, 3))
    for k in range(1, 7):
        spec = from_finite_set(range(1, k + 1))
        assert spec == KSpec(d=1, gaps=tuple(range(1, k + 1)))
        for n in range(1, 3 * k):
            assert contains(spec, n) == (n <= k)


def test_from_finite_set_rejects_bad_input():
    with pytest.raises(InvalidK):
        from_finite_set([])
    with pytest.raises(InvalidK):
        from_finite_set([0, 2])


def test_kspec_validation():
    with pytest.raises(InvalidK):
        KSpec(d=0, gaps=(1,))
    with pytest.raises(InvalidK):
        KSpec(d=1, gaps=(3, 1))
    with pytest.raises(InvalidK):
        KSpec(d=1, gaps=(-1,))


def test_kspec_stores_plain_ints_and_refuses_booleans():
    k = KSpec(d=np.int64(2), gaps=(1,))
    assert k == KSpec(d=2, gaps=(1,)) and type(k.d) is int
    assert type(KSpec(d=1, gaps=(np.int64(1),)).gaps[0]) is int
    for d, gaps in [(True, (1,)), (1, (True,)), (2.5, (1,)), ("2", (1,))]:
        with pytest.raises(InvalidK):
            KSpec(d=d, gaps=gaps)
    with pytest.raises(InvalidK):
        KSpec.from_json({"d": True, "gaps": [1]})


def test_is_algebra_worked_examples():
    # z * z = z^2 escapes the {2}-constrained class
    assert is_algebra(from_finite_set([2])) is False
    # the {1,3}-constrained class is closed under products
    assert is_algebra(from_finite_set([1, 3])) is True


def test_is_algebra_124_fixture_matches_oracle():
    k = from_finite_set([1, 2, 4])
    verdict = closure_oracle(k, 2 * 4 + 2)
    assert verdict is True  # {3,5,6,7,...} + {3,5,6,7,...} avoids {1,2,4}
    assert is_algebra(k) is verdict


@pytest.mark.parametrize("k", fixture_kspecs(), ids=str)
def test_is_algebra_agrees_with_closure_oracle(k):
    window = 2 * max(k.gaps) * k.d + 2
    assert is_algebra(k) == closure_oracle(k, window)


def test_is_algebra_more_cases_against_oracle():
    cases = [[2], [3], [1, 4], [2, 3], [1, 2, 5], [1, 3, 5], [1, 2, 3, 4, 6]]
    for members in cases:
        k = from_finite_set(members)
        assert is_algebra(k) == closure_oracle(k, 2 * max(members) + 2), members


def test_is_algebra_agrees_with_oracle_on_every_small_gap_set():
    # every gap set whose largest gap is at most 10, so both the count of
    # gaps that decides early and the scan behind it are checked
    for top in range(1, 11):
        for mask in range(2 ** (top - 1)):
            members = [t for t in range(1, top) if mask >> (t - 1) & 1] + [top]
            k = from_finite_set(members)
            assert is_algebra(k) == closure_oracle(k, 2 * top + 2), members


def test_is_algebra_does_not_allocate_up_to_the_largest_gap():
    # too few gaps for a semigroup whose largest gap is 10**6: decided before
    # any list of the non-gaps below it is built
    k = from_finite_set([1, 10**6])
    tracemalloc.start()
    try:
        assert is_algebra(k) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert is_algebra(from_finite_set([1, 10**12])) is False


def test_smallest_missing_examples():
    assert smallest_missing(from_finite_set([1])) == 2
    for k in range(1, 8):
        assert smallest_missing(from_finite_set(range(1, k + 1))) == k + 1
    assert smallest_missing(from_finite_set([1, 3])) == 2
    assert smallest_missing(KSpec(d=2, gaps=(1,))) == 4


def reconstruct_complement(structure, upto):
    vals = {h * structure.d for h in structure.heads}
    j = 0
    while (structure.n0 + j) * structure.d <= upto:
        vals.add((structure.n0 + j) * structure.d)
        j += 1
    return {v for v in vals if v <= upto}


def test_complement_structure_examples():
    s = complement_structure(from_finite_set([1]))
    assert (s.d, s.heads, s.n0) == (1, (2, 3), 4)
    for k in range(1, 6):
        s = complement_structure(from_finite_set(range(1, k + 1)))
        assert (s.d, s.heads, s.n0) == (1, (k + 1, k + 2), k + 3)
    s = complement_structure(KSpec(d=2, gaps=(1,)))
    assert (s.d, s.heads, s.n0) == (2, (2, 3), 4)
    s = complement_structure(from_finite_set([1, 3]))
    assert (s.d, s.heads, s.n0) == (1, (2, 4, 5), 6)


@pytest.mark.parametrize("k", [k for k in fixture_kspecs() if is_algebra(k)], ids=str)
def test_complement_structure_roundtrip(k):
    s = complement_structure(k)
    assert s.heads and math.gcd(*s.heads) == 1
    assert s.n0 > s.heads[-1]
    upto = (s.n0 + 16) * s.d
    assert reconstruct_complement(s, upto) == complement_upto(k, upto)


def test_complement_structure_rejects_non_algebra():
    with pytest.raises(Unsupported):
        complement_structure(from_finite_set([2]))
    with pytest.raises(Unsupported):
        complement_structure(KSpec(d=1, gaps=()))  # empty K


@pytest.mark.parametrize("k", [k for k in fixture_kspecs() if is_algebra(k)], ids=str)
def test_closure_properties_on_window(k):
    """Products, powers and differences behave as the algebra demands."""
    window = 2 * max(k.gaps) * k.d
    outside = [n for n in range(1, window + 1) if not contains(k, n)]
    inside = [n for n in range(1, window + 1) if contains(k, n)]
    # sums of complement elements stay in the complement
    for j in outside:
        for kk in outside:
            if j + kk <= window:
                assert not contains(k, j + kk), (j, kk)
    # multiples of complement elements stay in the complement
    for j in outside:
        for mult in range(2, window // j + 1):
            assert not contains(k, mult * j), (j, mult)
    # k0 in K minus an intermediate complement element lands back in K
    for k0 in inside:
        for j in outside:
            if 1 < j < k0:
                assert contains(k, k0 - j), (k0, j)
    # every algebra constrains the first derivative
    assert contains(k, 1)


def test_consecutive_algebras_are_prefixes():
    """Enumerate all finite K inside [1, 12]: consecutive algebras start at 1."""
    found = 0
    for mask in range(1, 1 << 12):
        members = [i + 1 for i in range(12) if mask >> i & 1]
        k = from_finite_set(members)
        consecutive = members[-1] - members[0] + 1 == len(members)
        if consecutive and is_algebra(k):
            assert members[0] == 1
            found += 1
    assert found == 12  # exactly the prefixes {1}, {1,2}, ..., {1,...,12}


def test_json_roundtrip():
    for obj in ({"d": 2, "gaps": [1]}, {"K": [1, 3]}):
        k = KSpec.from_json(obj)
        assert KSpec.from_json(k.to_json()) == k
    with pytest.raises(InvalidK):
        KSpec.from_json({"gaps": [1]})
    # both forms at once: neither may silently win
    for obj in ({"K": [1, 3], "d": 2, "gaps": [1]}, {"K": [1], "d": 3}):
        with pytest.raises(InvalidK, match="not both"):
            KSpec.from_json(obj)
    with pytest.raises(InvalidK):
        KSpec.from_json([1, 2])
    # a string is not a list of members, even one that reads as a number
    with pytest.raises(InvalidK, match='"K" must be a list'):
        KSpec.from_json({"K": "1"})
    with pytest.raises(InvalidK, match='"gaps" must be a list'):
        KSpec.from_json({"d": 2, "gaps": "1"})
