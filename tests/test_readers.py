"""Every number a caller passes in is read by ``kset._read``: one table of call sites against bad and good values.

Each site names the error type it raises and the words its message uses for
the argument.  A bad value must raise that type, never Python's own
``TypeError`` or ``ValueError``, and the message must name the argument.  The
numeric forms the readers accept (an integral float, numpy scalars, a
fraction) must give what the plain ``int`` or ``float`` gives, so a numpy
scalar is never stored.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from cpick import (
    Interpolant,
    InvalidConfig,
    InvalidExponent,
    InvalidK,
    InvalidProblem,
    KSpec,
    OrderTooLarge,
    Problem,
    SchurFunction,
    SearchConfig,
    compose_derivative,
    composition_tuples,
    constrained_pick,
    contains,
    find_lambda,
    from_finite_set,
    psd_check,
)
from cpick.analytic import _circle, np_solve, taylor_coeffs
from cpick.pickmat import h_data

PROBLEM = Problem((0.5,), (0.2,))
RING = _circle(0.5, 128)
H = SchurFunction(steps=(), tail=0.5)
K12 = from_finite_set([1, 2])
DERIVS = [0.1, 0.2, 0.3]

INTEGRAL = (2.0, np.int64(2), np.float64(2.0), np.uint8(2), np.float32(2.0))
REAL = (np.float32(0.5), np.float64(0.5), Fraction(1, 2))

# site -> (call, error, the words naming the argument, the plain value, the forms that must read as it)
SITES = {
    "KSpec d": (lambda v: KSpec(d=v, gaps=()), InvalidK, '"d"', 2, INTEGRAL),
    "KSpec gaps": (lambda v: KSpec(d=1, gaps=v), InvalidK, '"gaps"', (1, 2), ([1, 2], np.array([1, 2]), range(1, 3))),
    "KSpec gap": (lambda v: KSpec(d=1, gaps=(v,)), InvalidK, '"gaps"', 2, INTEGRAL),
    "contains n": (lambda v: contains(K12, v), OrderTooLarge, "order n", 2, INTEGRAL),
    "composition_tuples k": (composition_tuples, OrderTooLarge, "order", 2, INTEGRAL),
    "compose_derivative k": (lambda v: compose_derivative(DERIVS, DERIVS, v), OrderTooLarge, "order", 2, INTEGRAL),
    "from_finite_set": (from_finite_set, InvalidK, '"K"', (1, 2), ([2, 1, 2], np.array([1, 2]), {1.0, 2})),
    "from_finite_set member": (lambda v: from_finite_set([v]), InvalidK, '"K"', 2, INTEGRAL),
    "constrained_pick E": (lambda v: constrained_pick([0.5], [0.1], 0, v, 1), InvalidExponent, "(E, d)", 2, INTEGRAL),
    "constrained_pick d": (lambda v: constrained_pick([0.5], [0.1], 0, 2, v), InvalidExponent, "(E, d)", 2, INTEGRAL),
    "h_data E": (lambda v: h_data(PROBLEM, 0.1, v, 1), InvalidExponent, "(E, d)", 2, INTEGRAL),
    "h_data d": (lambda v: h_data(PROBLEM, 0.1, 2, v), InvalidExponent, "(E, d)", 2, INTEGRAL),
    "find_lambda E": (lambda v: find_lambda(PROBLEM, v, 1), InvalidExponent, "(E, d)", 2, INTEGRAL),
    "psd_check tol": (lambda v: psd_check(np.eye(2), v), InvalidConfig, "tolerance", 0.5, REAL),
    "np_solve tol": (lambda v: np_solve([0.1], [0.2], tol=v), InvalidConfig, "tolerance", 0.5, REAL),
    "SearchConfig tol": (lambda v: SearchConfig(tol=v), InvalidConfig, "'tol'", 0.5, REAL),
    "taylor_coeffs count": (lambda v: taylor_coeffs(RING, v, 0.5), InvalidConfig, "count", 2, INTEGRAL),
    "taylor_coeffs radius": (lambda v: taylor_coeffs(RING, 4, v), InvalidConfig, "radius", 0.5, REAL),
    "Interpolant m": (lambda v: Interpolant(0.1, v, 1, H), InvalidProblem, "'m'", 2, INTEGRAL),
    "Interpolant d": (lambda v: Interpolant(0.1, 1, v, H), InvalidProblem, "'d'", 2, INTEGRAL),
}

BAD = {
    "True": True,
    "'2'": "2",
    "2.5": 2.5,
    "nan": float("nan"),
    "None": None,
    "-1": -1,
    "[1]": [1],
    "1j": 1j,
    "object": object(),
}
# the few bad values that are good at a site: a one-member K or gap list, a tolerance of 2.5
GOOD_AT = {("KSpec gaps", "[1]"), ("from_finite_set", "[1]")} | {
    (site, "2.5") for site in ("psd_check tol", "np_solve tol", "SearchConfig tol")
}


@pytest.mark.parametrize(
    "site, value", [(site, value) for site in SITES for value in BAD if (site, value) not in GOOD_AT]
)
def test_reader_refuses_a_bad_value_with_the_sites_error(site, value):
    call, error, name = SITES[site][:3]
    with pytest.raises(error, match=re.escape(name)):
        call(BAD[value])


@pytest.mark.parametrize("site, value", sorted(GOOD_AT))
def test_reader_accepts_the_bad_values_that_are_good_at_a_site(site, value):
    SITES[site][0](BAD[value])


@pytest.mark.parametrize("site", SITES)
def test_reader_reads_every_accepted_form_as_the_plain_value(site):
    # numpy 2 writes a numpy scalar as np.float64(0.5), so a stored one would show in the repr
    call, _, _, plain, forms = SITES[site]
    expected = repr(call(plain))
    for form in forms:
        assert repr(call(form)) == expected, form
