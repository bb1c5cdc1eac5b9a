"""Composition derivatives via the Faa di Bruno expansion.

The k-th derivative of g(f(z)) expands over all tuples (b_1, ..., b_k) of
nonnegative integers with sum(l * b_l) = k; the term for a tuple is

    k! / (prod b_l! * prod (l!)^b_l) * g^(b)(f(z)) * prod f^(l)(z)^b_l,

with b = sum(b_l).  The factorial denominators are folded into one exact
integer weight per tuple so the evaluation is a plain weighted sum of
derivative products.  These tuples are in bijection with the integer
partitions of k (b_l counts the parts equal to l).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import OrderTooLarge
from .kset import _integer, _integers, _read

__all__ = [
    "MAX_ORDER",
    "CompositionTuple",
    "composition_tuples",
    "bruno_coefficient",
    "compose_derivative",
]

# p(20) = 627 tuples; higher orders are outside desk-scale verification.
MAX_ORDER = 20


def _order(k) -> int:
    """``k`` read by ``_integer``; a value outside [1, ``MAX_ORDER``] raises ``OrderTooLarge``."""
    return _read(k, _integer, OrderTooLarge, "order", f"an integer in [1, {MAX_ORDER}]", lambda k: 1 <= k <= MAX_ORDER)


@dataclass(frozen=True)
class CompositionTuple:
    """Multiplicity vector (b_1, ..., b_k) with sum(l * b_l) = k = len(b).

    Each b_l is read by ``_integer``; any other value raises ``ValueError``.
    """

    b: tuple[int, ...]

    def __post_init__(self):
        b = _read(self.b, _integers, ValueError, "multiplicities", "integers")
        object.__setattr__(self, "b", b)
        if not b:
            raise ValueError("composition tuple must have positive order")
        if any(x < 0 for x in b):
            raise ValueError(f"multiplicities must be nonnegative, got {b}")
        k = len(b)
        if sum(l * x for l, x in enumerate(b, start=1)) != k:
            raise ValueError(f"tuple {b} does not satisfy sum(l * b_l) = {k}")

    @property
    def order(self) -> int:
        return len(self.b)

    @property
    def total(self) -> int:
        """b = b_1 + ... + b_k, the derivative order taken on the outer function."""
        return sum(self.b)


def composition_tuples(k: int) -> list[CompositionTuple]:
    """All composition tuples of order k, lexicographically ascending.

    >>> [t.b for t in composition_tuples(3)]
    [(0, 0, 1), (1, 1, 0), (3, 0, 0)]
    """
    k = _order(k)
    out: list[CompositionTuple] = []
    buf = [0] * k

    def rec(pos: int, remaining: int) -> None:
        if pos == k:
            if remaining % k == 0:
                buf[k - 1] = remaining // k
                out.append(CompositionTuple(tuple(buf)))
                buf[k - 1] = 0
            return
        for mult in range(remaining // pos + 1):
            buf[pos - 1] = mult
            rec(pos + 1, remaining - pos * mult)
        buf[pos - 1] = 0

    rec(1, k)
    return out


def bruno_coefficient(t: CompositionTuple) -> int:
    """Exact integer weight k! / (prod b_l! * prod (l!)^b_l) of a tuple.

    >>> bruno_coefficient(CompositionTuple((1, 1, 0)))
    3
    """
    k = t.order
    denom = 1
    for l, mult in enumerate(t.b, start=1):
        denom *= math.factorial(mult) * math.factorial(l) ** mult
    return math.factorial(k) // denom


@functools.lru_cache(maxsize=MAX_ORDER)
def _expansion(k: int) -> tuple[tuple[complex, int, tuple[tuple[int, int], ...]], ...]:
    """The order-k expansion as (weight, outer order, ((l, b_l), ...)) per tuple.

    Tuples come in ``composition_tuples`` order and zero multiplicities are
    dropped.  Cached and immutable, so every call shares one copy.
    """
    return tuple(
        (
            complex(bruno_coefficient(t)),
            t.total,
            tuple((l, mult) for l, mult in enumerate(t.b, start=1) if mult),
        )
        for t in composition_tuples(k)
    )


def compose_derivative(g_derivs, f_derivs, k: int) -> complex:
    """k-th derivative of g(f(.)) at the base point from raw derivative lists.

    ``g_derivs[i]`` must be g^(i) evaluated at f(z0) and ``f_derivs[l]`` must
    be f^(l) at z0, both as plain derivatives (no factorial scaling); lists
    need length at least k+1.  A zero f-derivative annihilates every term it
    multiplies, so the result is exactly 0.0 whenever each tuple contains a
    vanishing factor.  ``k`` is read as ``composition_tuples`` reads it.
    """
    if type(k) is not int or not 1 <= k <= MAX_ORDER:  # a plain int in range needs no reader
        k = _order(k)
    if len(g_derivs) < k + 1 or len(f_derivs) < k + 1:
        raise ValueError(f"need derivatives up to order {k} for both functions")
    total = complex(0)
    for weight, outer, factors in _expansion(k):
        term = weight * complex(g_derivs[outer])
        for l, mult in factors:
            term *= complex(f_derivs[l]) ** mult
        total += term
    return total
