"""Constraint sets K and the semigroup criterion for the algebra property.

A constraint set K collects the derivative orders that functions in the
class must lose at the origin: f is admitted when f^(k)(0) = 0 for every
k in K.  Such a class is closed under sums automatically; closure under
products is governed by the *complement* of K, because the power series of
an admitted function is supported on {0} union (Z+ \\ K), and supports
multiply by adding exponents.

K is therefore stored through its complement.  A ``KSpec`` holds a scale
``d >= 1`` and the finite gap set of a numerical semigroup
T = Z>=0 \\ gaps, and represents

    Z+ \\ K = d * (T \\ {0}),

i.e. n is outside K exactly when n = d*t for some positive non-gap t.
With d = 1 this reduces to K = gaps, so any finite K is representable;
d >= 2 yields the infinite constraint sets whose complement is a scaled
semigroup.

The algebra test implemented here is the *semigroup criterion*: the class
is accepted when T is closed under addition.  Closure of the complement is
necessary for the algebra property (two admitted monomials multiply into an
admitted monomial), and the criterion is also sufficient for product
closure of the power-series supports.  No claim is made beyond the
criterion; a complete characterization of the admissible K remains open.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidK, OrderTooLarge, Unsupported

__all__ = [
    "KSpec",
    "ComplementStructure",
    "from_finite_set",
    "contains",
    "is_algebra",
    "smallest_missing",
    "complement_structure",
]


@dataclass(frozen=True)
class KSpec:
    """Finite description of a constraint set K via its scaled complement.

    ``d``     positive scale of the complement.
    ``gaps``  strictly increasing tuple of positive integers, the gap set of
              the underlying numerical semigroup T = Z>=0 \\ gaps.

    Membership rule: n in K  iff  NOT (d | n and n/d >= 1 and n/d not in gaps).

    >>> k = from_finite_set([1, 3])
    >>> 1 in k, 2 in k, 3 in k, 4 in k
    (True, False, True, False)
    """

    d: int
    gaps: tuple[int, ...]

    def __post_init__(self):
        d = _read(self.d, _integer, InvalidK, 'scale "d"', "a positive integer", lambda n: n >= 1)
        gaps = _read(
            self.gaps, _integers, InvalidK, '"gaps"', "strictly increasing positive integers",
            lambda gaps: all(a < b for a, b in zip((0,) + gaps, gaps)),
        )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gaps", gaps)

    @functools.cached_property
    def _gapset(self) -> frozenset[int]:
        return frozenset(self.gaps)

    def __contains__(self, n: int) -> bool:
        return contains(self, n)

    def to_json(self) -> dict:
        """JSON form ``{"d": int, "gaps": [int, ...]}``."""
        return {"d": self.d, "gaps": list(self.gaps)}

    @staticmethod
    def from_json(obj: dict) -> "KSpec":
        """Accept ``{"d":..., "gaps":[...]}`` or the shorthand ``{"K":[...]}``, not both."""
        if not isinstance(obj, dict):
            raise InvalidK(f"constraint set must be a JSON object, got {type(obj).__name__}")
        if "K" in obj and ("d" in obj or "gaps" in obj):
            raise InvalidK('give either {"K": [...]} or {"d":..., "gaps": [...]}, not both')
        if "K" in obj:
            members = obj["K"]
            if not isinstance(members, list):
                raise InvalidK('"K" must be a list of positive integers')
            return from_finite_set(members)
        if "d" in obj and "gaps" in obj:
            gaps = obj["gaps"]
            if not isinstance(gaps, list):
                raise InvalidK('"gaps" must be a list of positive integers')
            return KSpec(d=obj["d"], gaps=_read(gaps, _members, InvalidK, '"gaps"', "integers"))
        raise InvalidK('constraint set needs either {"K": [...]} or {"d":..., "gaps": [...]}')


@dataclass(frozen=True)
class ComplementStructure:
    """Canonical decomposition of Z+ \\ K as {n1*d, ..., np*d, N0*d, (N0+j)*d}.

    ``heads`` lists the sporadic complement elements n1 < ... < np (already
    divided by d) and ``n0`` is the start of the full tail, with
    gcd(heads) = 1 and n0 > heads[-1].
    """

    d: int
    heads: tuple[int, ...]
    n0: int


def _integer(value) -> int:
    """``value`` as a plain int: an integer type, or a real float with no fractional part.

    Anything ``operator.index`` accepts (``int``, ``np.int64``, ...) passes, as
    does a float or ``np.floating`` for which ``is_integer()`` holds.  Booleans,
    strings and every other float raise ``TypeError`` or ``ValueError``.
    """
    if isinstance(value, bool):  # operator.index accepts it, numpy's bool it refuses
        raise TypeError(f"{value!r} is a boolean, not an integer")
    if isinstance(value, (float, np.floating)):
        if not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
        return int(value)
    return operator.index(value)


def _real(value) -> float:
    """``value`` as a float; a boolean or a string raises ``TypeError`` where ``float`` would cast or parse it."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integers(values) -> tuple[int, ...]:
    """Each of ``values`` read by ``_integer``; a non-iterable raises ``TypeError``."""
    return tuple(map(_integer, values))


def _read(value, read, error, what: str, rule: str, valid=None):
    """``read(value)``, the one reader of a number, or a sequence of them, that a caller passes in.

    Where ``read`` raises ``TypeError`` or ``ValueError``, or ``valid`` refuses
    its result, the package's ``error`` says that ``what`` must be ``rule``
    and repeats the value given, chained from the cause.  ``_integer`` and
    ``_real`` are the rules for what counts as an integer or a real number.
    """
    try:
        result = read(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be {rule}, got {value!r}") from exc
    if valid is not None and not valid(result):
        raise error(f"{what} must be {rule}, got {value!r}")
    return result


def _members(values) -> tuple[int, ...]:
    """The distinct ``_integers`` of ``values``, ascending."""
    return tuple(sorted(set(_integers(values))))


def from_finite_set(k_list) -> KSpec:
    """Build the KSpec of a finite constraint set (scale 1, gaps = the set)."""
    members = _read(k_list, _members, InvalidK, '"K"', "a nonempty set of positive integers", lambda k: k and k[0] >= 1)
    return KSpec(d=1, gaps=members)


def contains(k: KSpec, n: int) -> bool:
    """Membership test: is derivative order ``n`` constrained by K?

    n is *outside* K exactly when n = d*t with t a positive non-gap of the
    underlying semigroup.  Pure and total for n >= 1; ``n`` is read by
    ``_integer``, and any other value raises ``OrderTooLarge``.
    """
    n = _read(n, _integer, OrderTooLarge, "order n", "a positive integer", lambda n: n >= 1)
    if n % k.d != 0:
        return True
    t = n // k.d
    return t in k._gapset


@functools.lru_cache(maxsize=64)
def _constrained(k: KSpec, n: int) -> tuple[int, ...]:
    """The orders 1 .. n in K, ascending: ``contains`` for a loop, as one tuple.

    Cached: a verification reads it once per call, for a handful of K.
    """
    return tuple(j for j in range(1, n + 1) if contains(k, j))


def is_algebra(k: KSpec) -> bool:
    """Semigroup criterion: no two positive non-gaps of T may sum to a gap.

    Any closure violation a + b in gaps has a + b <= max(gaps), so scanning
    pairs below the largest gap is exhaustive.  A semigroup whose largest
    gap is F has at least (F + 1) / 2 gaps, since of t and F - t at least
    one is a gap; fewer gaps decide False before the scan, which therefore
    never allocates more than twice the number of gaps.  The scale d is
    irrelevant here, additive closure is preserved by scaling.

    >>> is_algebra(from_finite_set([2]))
    False
    >>> is_algebra(from_finite_set([1, 3]))
    True
    """
    if not k.gaps:
        return True
    g_max = k.gaps[-1]
    if 2 * len(k.gaps) < g_max + 1:
        return False
    gapset = k._gapset
    nongaps = [t for t in range(1, g_max) if t not in gapset]
    for i, a in enumerate(nongaps):
        for b in nongaps[i:]:
            s = a + b
            if s > g_max:
                break
            if s in gapset:
                return False
    return True


def smallest_missing(k: KSpec) -> int:
    """Smallest positive integer outside K, i.e. d * min(T \\ {0}).

    Always defined: a finite gap set leaves the complement infinite.
    """
    t = 1
    while t in k._gapset:
        t += 1
    return k.d * t


def _conductor(k: KSpec) -> int:
    """Least c >= 1 with [c, infinity) inside the semigroup T."""
    return k.gaps[-1] + 1 if k.gaps else 1


def complement_structure(k: KSpec) -> ComplementStructure:
    """Extract the canonical (d, heads, N0) decomposition of Z+ \\ K.

    Starts from N0 = conductor of T and heads = positive non-gaps below it,
    then absorbs N0, N0+1, ... into heads until the heads are nonempty with
    gcd 1.  The decomposition is not unique; this fixes the variant with the
    smallest N0 satisfying the gcd normalization.
    """
    if not is_algebra(k):
        raise Unsupported("complement structure requires the algebra property")
    if k.d == 1 and not k.gaps:
        raise Unsupported("K is empty; no complement structure is defined")
    n0 = _conductor(k)
    heads = [t for t in range(1, n0) if t not in k._gapset]
    while not heads or math.gcd(*heads) != 1:
        heads.append(n0)
        n0 += 1
    return ComplementStructure(d=k.d, heads=tuple(heads), n0=n0)
