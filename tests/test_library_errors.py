"""The type and message of library input errors that no CLI path raises in the
other tests, pinned as TestInputErrors in tests/test_cli.py pins the parser's."""

from fractions import Fraction

import pytest

from conify.degeneration import build_test_configuration, hilbert_function
from conify.diophantine import ConeDescription, ReebVector, dirichlet_approximant, nice_approximant
from conify.errors import ArityError, InhomogeneousError
from conify.exactnum import ExactScalar, parse_scalars
from conify.groebner import (
    IdealPresentation,
    ideal_quotient,
    ideals_equal,
    intersect,
    normal_form,
    reduced_basis,
)
from conify.poisson import FormTable, PoissonTable, decompose_semiinvariant, invariant_generators
from conify.polyring import Polynomial, TermOrder, WeightData, parse_polynomial

XY, XYZ = ("x", "y"), ("x", "y", "z")
F = parse_polynomial("x^2 - y", XY)
G = parse_polynomial("x*y - z^2", XYZ)
I_XY, I_XYZ = IdealPresentation(XY, (F,)), IdealPresentation(XYZ, (G,))
ROOT2 = ReebVector((ExactScalar.root(2), ExactScalar.of(1)), n=2)   # default N is 8


def weights(*ws, t=None):
    return WeightData(tuple(map(ExactScalar.of, ws)), t_weight=t)


LIBRARY_ERRORS = [
    ("reeb-empty", lambda: ReebVector(()), ValueError, "weight vector must be nonempty"),
    ("reeb-zero-entry", lambda: ReebVector((ExactScalar.of(1), ExactScalar.of(0))), ValueError,
     "all weights must be positive"),
    ("reeb-negative-entry", lambda: ReebVector((ExactScalar.root(2) - 2,)), ValueError,
     "all weights must be positive"),
    ("dirichlet-N", lambda: dirichlet_approximant(ROOT2, 1, 10), ValueError, "N must be at least 2"),
    ("dirichlet-cap", lambda: dirichlet_approximant(ROOT2, 8, 7), ValueError, "cap must be at least N"),
    ("nice-N", lambda: nice_approximant(ReebVector(ROOT2.entries), N=1), ValueError,
     "N must be at least 2"),
    ("nice-N-below-default", lambda: nice_approximant(ROOT2, N=3), ValueError,
     "N=3 is below the default threshold 8"),
    ("cone-dimension", lambda: ConeDescription(((Fraction(1), Fraction(2)),), True).contains([1]),
     ArityError, "dimension mismatch in cone membership"),
    ("testconfig-arity", lambda: build_test_configuration(I_XY, (1, 2, 3)), ArityError,
     "weight vector arity does not match ring"),
    ("testconfig-zero-weight", lambda: build_test_configuration(I_XY, (1, 0)), ValueError,
     "weights must be positive integers"),
    ("testconfig-fractional-weight", lambda: build_test_configuration(I_XY, (1, Fraction(1, 2))),
     ValueError, "weights must be positive integers"),
    ("hilbert-arity", lambda: hilbert_function(I_XY, weights(1, 1, 1), 4), ArityError,
     "weights do not match ring"),
    ("hilbert-inhomogeneous", lambda: hilbert_function(I_XY, weights(1, 1), 4), InhomogeneousError,
     "generator x^2 - y is not homogeneous"),
    ("basis-order-arity", lambda: reduced_basis(I_XY, TermOrder(3)), ArityError,
     "order arity does not match ring"),
    ("normal-form-ring", lambda: normal_form(G, reduced_basis(I_XY)), ArityError,
     "ring mismatch: ('x', 'y', 'z') vs ('x', 'y')"),
    ("ideals-equal-ring", lambda: ideals_equal(I_XY, I_XYZ), ArityError,
     "cannot compare ideals in different rings"),
    ("intersect-ring", lambda: intersect(I_XY, I_XYZ), ArityError,
     "cannot intersect ideals in different rings"),
    ("quotient-zero", lambda: ideal_quotient(I_XY, Polynomial.zero(XY)), ValueError,
     "cannot quotient by the zero polynomial"),
    ("quotient-ring", lambda: ideal_quotient(I_XY, G), ArityError,
     "polynomial ring differs from ideal ring"),
    ("poisson-ideal-ring", lambda: PoissonTable(XY, {}, I_XYZ), ArityError,
     "quotient ideal lives in the wrong ring"),
    ("poisson-index-order", lambda: PoissonTable(XY, {(1, 0): F}), ArityError,
     "bad bracket index pair (1, 0)"),
    ("poisson-index-range", lambda: PoissonTable(XY, {(0, 2): F}), ArityError,
     "bad bracket index pair (0, 2)"),
    ("poisson-entry-ring", lambda: PoissonTable(XY, {(0, 1): G}), ArityError,
     "bracket polynomial lives in the wrong ring"),
    ("poisson-argument-ring", lambda: PoissonTable(XY, {(0, 1): F}).bracket(F, G), ArityError,
     "bracket argument lives in the wrong ring"),
    ("form-index-pair", lambda: FormTable(XY, {(1, 1): F}), ArityError, "bad form index pair (1, 1)"),
    ("form-entry-ring", lambda: FormTable(XY, {(0, 1): G}), ArityError,
     "form coefficient lives in the wrong ring"),
    ("invariants-no-t-weight", lambda: invariant_generators(weights(1, 2), 3), ValueError,
     "a t-weight is required"),
    ("invariants-fractional-t-weight", lambda: invariant_generators(weights(1, 2, t=Fraction(3, 2)), 3),
     ValueError, "integer t-weight required"),
    ("decompose-no-t-weight", lambda: decompose_semiinvariant((1, 1, 1), weights(1, 2)), ValueError,
     "integer t-weight required"),
    ("decompose-fractional-t-weight",
     lambda: decompose_semiinvariant((1, 1, 1), weights(1, 2, t=Fraction(1, 3))), ValueError,
     "integer t-weight required"),
    ("scalars-square-field", lambda: parse_scalars(["1", "1+s"], 4), ValueError,
     "radicand must be squarefree and >= 2, got 4"),
]


@pytest.mark.parametrize("call, kind, message", [case[1:] for case in LIBRARY_ERRORS],
                         ids=[case[0] for case in LIBRARY_ERRORS])
def test_library_input_error(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)
