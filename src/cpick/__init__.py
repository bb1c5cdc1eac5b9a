"""Nevanlinna-Pick interpolation in derivative-constrained subalgebras.

Given a set K of derivative orders forced to vanish at the origin, this
package decides feasibility of, constructs, and verifies interpolants f
with f(z_i) = w_i and sup norm at most 1 inside the constrained class:
the criterion is positive semidefiniteness of a constrained Pick matrix
for some Möbius parameter in the disk, and the constructed interpolant has
the composite form f(z) = phi_inverse(lam, (z^d)^m h(z^d)) with h a Schur
function.
"""

from .errors import (
    CPickError,
    DomainError,
    Infeasible,
    InvalidConfig,
    InvalidExponent,
    InvalidK,
    InvalidProblem,
    NotFound,
    NotPrefixK,
    NumericalError,
    OrderTooLarge,
    Unsupported,
)
from .kset import (
    ComplementStructure,
    KSpec,
    complement_structure,
    contains,
    from_finite_set,
    is_algebra,
    smallest_missing,
)
from .bruno import (
    CompositionTuple,
    bruno_coefficient,
    compose_derivative,
    composition_tuples,
)
from .analytic import (
    SchurFunction,
    np_solve,
    sup_norm_estimate,
    taylor_coeffs,
)
from .pickmat import (
    HermitianMatrix,
    Problem,
    PsdVerdict,
    classical_pick,
    constrained_pick,
    factorization_residual,
    mobius,
    psd_check,
)
from .feasibility import (
    FeasibilityResult,
    SearchConfig,
    find_lambda,
)
from .interp import (
    Interpolant,
    NecessaryReport,
    Tolerances,
    VerificationReport,
    construct,
    exponent_plan,
    necessary_check,
    roundtrip_generate,
    verify_interpolant,
)

__version__ = "0.1.0"
