"""The type and message of library input errors that no CLI path raises in the
other tests, pinned as TestInputErrors in tests/test_cli.py pins the parser's."""

import argparse
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from conify import cli
from conify.degeneration import build_test_configuration, hilbert_function
from conify.diophantine import (
    ConeDescription,
    ReebVector,
    _verify_hull,
    affine_hull,
    approximant_cone,
    dirichlet_approximant,
    nice_approximant,
    verify_perturbation_bound,
)
from conify.errors import ArityError, CertificateError, ConifyError, ContainmentError, InhomogeneousError
from conify.exactnum import ExactScalar, parse_scalars
from conify.groebner import (
    IdealPresentation,
    exact_divide,
    ideal_quotient,
    ideals_equal,
    interreduced,
    intersect,
    normal_form,
    reduced_basis,
    saturate_by_variable,
)
from conify.numerics import metric_tensor, scaling_pullback_check
from conify.poisson import FormTable, PoissonTable, decompose_semiinvariant, invariant_generators, preserves_ideal
from conify.polyring import Polynomial, TermOrder, WeightData, parse_polynomial

XY, XYZ = ("x", "y"), ("x", "y", "z")
F = parse_polynomial("x^2 - y", XY)
G = parse_polynomial("x*y - z^2", XYZ)
I_XY, I_XYZ = IdealPresentation(XY, (F,)), IdealPresentation(XYZ, (G,))
ROOT2 = ReebVector((ExactScalar.root(2), ExactScalar.of(1)), n=2)   # default N is 8
# the nice approximant at n = 2 (D = 7, N = 4): at eps' = 1e-9 p = 1 fails its bound,
# while a negative p would meet both bounds for free, so only the refusal stops p = -5
NICE = nice_approximant(ReebVector((1 + ExactScalar.root(2), 2 + ExactScalar.root(3) / 2), n=2))
HULL_VECTOR = ReebVector((ExactScalar.root(2), 2 - ExactScalar.root(2)))


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
    ("order-weight-arity", lambda: TermOrder(3, weights=(1, 2)), ArityError,
     "weight vector length does not match ring arity"),
    ("order-zero-weight", lambda: TermOrder(2, weights=(1, 0)), ValueError,
     "order weights must be strictly positive"),
    ("monomial-arity", lambda: Polynomial(XY, {(1,): 1}), ArityError,
     "monomial (1,) has wrong arity for ring ('x', 'y')"),
    ("sum-ring", lambda: parse_polynomial("x*y", XY) + parse_polynomial("x*z", XYZ), ArityError,
     "ring mismatch: ('x', 'y') vs ('x', 'y', 'z')"),
    ("form-weight-zero", lambda: WeightData((1,), form_weight=0), ValueError,
     "form weight must be positive"),
    ("ideal-generator-ring", lambda: IdealPresentation(XY, (G,)), ArityError,
     "generator ring ('x', 'y', 'z') differs from ideal ring ('x', 'y')"),
    ("exact-divide-remainder",
     lambda: exact_divide(parse_polynomial("x", XY), parse_polynomial("y", XY)), ValueError,
     "y does not divide x"),
    ("saturate-unknown-variable", lambda: saturate_by_variable(I_XY, "w"), ArityError,
     "'w' is not a ring variable"),
    ("scalar-irrational-fraction", lambda: ExactScalar(0, 1, 2).as_fraction(), ValueError,
     "sqrt(2) is irrational"),
    ("preserves-ideal-ring", lambda: preserves_ideal(PoissonTable(XY, {(0, 1): F}), I_XYZ), ArityError,
     "ideal ring differs from bracket ring"),
    ("decompose-arity", lambda: decompose_semiinvariant((1, 1), WeightData((1, 2), t_weight=1)),
     ArityError, "monomial arity must be weights plus one t-slot"),
    ("perturbation-no-vector", lambda: verify_perturbation_bound(replace(NICE, xi=None), 1, Fraction(1, 10)),
     ValueError, "report does not retain its weight vector"),
    ("perturbation-negative-slack", lambda: verify_perturbation_bound(NICE, -5, Fraction(1, 10**9)),
     ValueError, "tau slack p must be nonnegative, not -5"),
    ("metric-arity", lambda: metric_tensor((1,), (1.0, 2.0)), ValueError, "point and weight arities differ"),
    ("pullback-tau", lambda: scaling_pullback_check((1,), (1.0,), 0.0), ValueError, "tau must be positive"),
    ("hull-shifted-constant",
     lambda: _verify_hull(HULL_VECTOR, replace(h := affine_hull(HULL_VECTOR), a0=tuple(c + 1 for c in h.a0))),
     CertificateError, "affine hull relation failed verification"),
    ("cli-unknown-subcommand", lambda: cli.run(argparse.Namespace(command="nosuch")), ConifyError,
     "unknown subcommand 'nosuch'"),
    ("cone-no-containing-subset",
     mock.patch.object(ConeDescription, "contains", lambda self, v: (False, None))(lambda: approximant_cone(ROOT2)),
     ContainmentError, "no subset of corner approximants contains the vector; raise the resolution or the cap"),
    ("zero-leading-monomial", lambda: Polynomial.zero(XY).leading_monomial(TermOrder(2)), ValueError,
     "zero polynomial has no leading term"),
    ("scalar-immutable", lambda: setattr(ExactScalar.of(1), "num", 2), AttributeError, "ExactScalar is immutable"),
]


@pytest.mark.parametrize("call, kind, message", [case[1:] for case in LIBRARY_ERRORS],
                         ids=[case[0] for case in LIBRARY_ERRORS])
def test_library_input_error(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


EMPTY_XY = IdealPresentation(XY, ())
# edge inputs that return instead of refusing: (call, expected result)
LIBRARY_EDGE_VALUES = [
    ("zero-polynomial-str", lambda: str(Polynomial.zero(XY)), "0"),
    ("quotient-of-zero-ideal", lambda: ideal_quotient(EMPTY_XY, F) is EMPTY_XY, True),
    ("invariants-no-weights", lambda: invariant_generators(WeightData((), t_weight=1), 3), []),
    ("basis-str", lambda: str(reduced_basis(I_XY)), "{x^2 - y}"),
    # the row's largest monomial has coefficient 0: dropped, as `reduced_rows` drops it, not taken as the lead
    ("interreduced-zero-lead", lambda: str(interreduced(XY, [{(1, 0): 0, (0, 1): 1}, {(0, 2): 1, (1, 1): 2}])),
     "<y>"),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in LIBRARY_EDGE_VALUES],
                         ids=[case[0] for case in LIBRARY_EDGE_VALUES])
def test_library_edge_value(call, expected):
    assert call() == expected
