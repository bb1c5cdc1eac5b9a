"""Accuracy of chain and interpolant evaluation against an exact reference.

Every float is a dyadic rational, and a Schur chain evaluated as a
numerator-denominator pair needs only products and sums until its one
division.  So the reference carries the pair exactly, as Gaussian dyadic
rationals (a + b i) 2^e with integer a, b, e, and takes the quotient and the
error in ``fractions.Fraction``.  The evaluation point and the chain's data
are the floats as given; only the arithmetic is exact.

The bound is C * N * eps with C = 16, N the number of steps of a chain and
n + m d for an interpolant (its power z^(m d) takes about m d roundings).
The same bound is asserted of the step-by-step composition, which divides
at every step, so deferring the division costs no accuracy.  Seeded draws
put nodes and values up to 1 - 1e-8 in modulus, one pair of each chain at
exactly that modulus, and points on the rings of radius 0.999 and 0.9 that
``verify_interpolant`` samples.  On these draws the largest error is
5.9 N eps for the pair and 6.2 N eps for the composition.
"""

from fractions import Fraction

import numpy as np
import pytest

from cpick import Interpolant, SchurFunction
from cpick.pickmat import _mobius
from conftest import disk_point

C = 16
EPS = np.finfo(float).eps
EDGE = 1.0 - 1e-8
RINGS = (0.999, 0.9)
RING_POINTS = 16


class Dyadic:
    """The Gaussian dyadic rational (re + im i) * 2**e, exactly."""

    __slots__ = ("re", "im", "e")

    def __init__(self, re: int, im: int, e: int):
        self.re, self.im, self.e = re, im, e

    @classmethod
    def of(cls, c) -> "Dyadic":
        c = complex(c)
        (a, da), (b, db) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
        ea, eb = da.bit_length() - 1, db.bit_length() - 1  # the denominators are powers of two
        k = max(ea, eb)
        return cls(a << (k - ea), b << (k - eb), -k)

    def __add__(self, other):
        lo, hi = (self, other) if self.e <= other.e else (other, self)
        k = hi.e - lo.e
        return Dyadic(lo.re + (hi.re << k), lo.im + (hi.im << k), lo.e)

    def __sub__(self, other):
        return self + Dyadic(-other.re, -other.im, other.e)

    def __mul__(self, other):
        return Dyadic(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.e + other.e,
        )

    def conj(self):
        return Dyadic(self.re, -self.im, self.e)

    def fractions(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(2) ** self.e
        return self.re * scale, self.im * scale


ONE = Dyadic(1, 0, 0)


def exact_chain(steps, tail, w: Dyadic) -> tuple[Dyadic, Dyadic]:
    """The chain's value at w as an exact pair (p, q), value p / q."""
    p, q = Dyadic.of(tail), ONE
    for node, val in reversed(steps):
        a, v = Dyadic.of(node), Dyadic.of(val)
        s, t = (w - a) * p, (ONE - a.conj() * w) * q
        p, q = s + v * t, t + v.conj() * s
    return p, q


def exact_interpolant(f: Interpolant, z) -> tuple[Dyadic, Dyadic]:
    """phi_inverse(lam, w^m h(w)) at w = z^d as an exact pair."""
    zz, w = Dyadic.of(z), ONE
    for _ in range(f.d):
        w = w * zz
    wm = ONE
    for _ in range(f.m):
        wm = wm * w
    p, q = exact_chain(f.h.steps, f.h.tail, w)
    lam = Dyadic.of(f.lambda_)
    return wm * p + lam * q, q + lam.conj() * wm * p


def error(x, pair) -> float:
    """|x - p / q| = |x q - p| / |q|, exactly until the final rounding."""
    p, q = pair
    rr, ri = (Dyadic.of(x) * q - p).fractions()
    qr, qi = q.fractions()
    return float((rr * rr + ri * ri) / (qr * qr + qi * qi)) ** 0.5


def stepwise_chain(h: SchurFunction, w):
    """The chain divided at every step: phi_inverse(v, phi(a, w) g) from g = tail."""
    g = np.full_like(w, complex(h.tail))
    for node, val in reversed(h.steps):
        g = _mobius(-val, _mobius(node, w) * g)
    return g


def random_chain(rng, n) -> SchurFunction:
    """n steps with nodes and values in the disk of radius 1 - 1e-8, one pair at that modulus."""
    steps = [(disk_point(rng, EDGE), disk_point(rng, EDGE)) for _ in range(n)]
    steps[int(rng.integers(n))] = tuple(
        complex(EDGE * np.exp(2j * np.pi * rng.uniform())) for _ in range(2)
    )
    return SchurFunction(steps=tuple(steps), tail=disk_point(rng, EDGE))


def ring_points(rng) -> np.ndarray:
    t = np.arange(RING_POINTS) + rng.uniform()
    return np.concatenate([r * np.exp(2j * np.pi * t / RING_POINTS) for r in RINGS])


class Gauss:
    """A Gaussian rational re + im i in ``Fraction``s, with division: slow, so used sparingly."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Gauss(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        num = self * Gauss(other.re, -other.im)
        return Gauss(num.re / norm, num.im / norm)

    def conj(self):
        return Gauss(self.re, -self.im)

    def __eq__(self, other):
        return (self.re, self.im) == (other.re, other.im)


def test_exact_pair_is_the_stepwise_composition():
    # the reference's pair recurrence and dividing at every step are the
    # same map: checked here in exact Gaussian rationals
    rng = np.random.default_rng(5)
    h = random_chain(rng, 4)
    one = Gauss(1)
    for z in ring_points(rng)[::8]:
        w = Gauss(*Dyadic.of(z).fractions())
        g = Gauss(*Dyadic.of(h.tail).fractions())
        for node, val in reversed(h.steps):
            a, v = Gauss(*Dyadic.of(node).fractions()), Gauss(*Dyadic.of(val).fractions())
            bg = (w - a) / (one - a.conj() * w) * g
            g = (bg + v) / (one + v.conj() * bg)
        p, q = exact_chain(h.steps, h.tail, Dyadic.of(z))
        assert g == Gauss(*p.fractions()) / Gauss(*q.fractions())


@pytest.mark.parametrize("n", [1, 4, 16])
def test_chain_evaluation_is_within_c_n_eps_of_exact(n):
    rng = np.random.default_rng(100 + n)
    bound = C * n * EPS
    for _ in range(12):
        h = random_chain(rng, n)
        z = ring_points(rng)
        for point, new, old in zip(z, h(z), stepwise_chain(h, z)):
            pair = exact_chain(h.steps, h.tail, Dyadic.of(point))
            assert error(new, pair) <= bound, (n, point)
            assert error(old, pair) <= bound, (n, point)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 5, 17])
def test_interpolant_evaluation_is_within_c_n_plus_md_eps_of_exact(m, d):
    rng = np.random.default_rng(10 * m + d)
    n = 4
    bound = C * (n + m * d) * EPS
    for _ in range(4):
        f = Interpolant(lambda_=disk_point(rng, 0.9), m=m, d=d, h=random_chain(rng, n))
        z = ring_points(rng)
        w = z**d
        stepwise = _mobius(-complex(f.lambda_), w**m * stepwise_chain(f.h, w))
        for point, new, old in zip(z, f(z), stepwise):
            pair = exact_interpolant(f, point)
            assert error(new, pair) <= bound, (m, d, point)
            assert error(old, pair) <= bound, (m, d, point)
