"""Polynomials, weighted gradings, initial forms, and the text syntax."""

import random
from fractions import Fraction

import pytest

from conify.errors import ArityError, ParseError
from conify.exactnum import ExactScalar
from conify.polyring import (
    Polynomial,
    TermOrder,
    WeightData,
    homogeneous_weight,
    initial_form,
    is_homogeneous,
    parse_polynomial,
    term_weight,
)

R2 = ExactScalar.root(2)
XYZ = ("x", "y", "z")


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def rand_poly(rng, ring, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        terms[mono] = Fraction(rng.randint(-5, 5))
    return Polynomial(ring, terms)


class TestTermWeight:
    def test_plain_sum(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert term_weight((1, 1, 0), wd) == ExactScalar.of(4)

    def test_trailing_t_counts_negative(self):
        wd = WeightData((ExactScalar.of(1), ExactScalar.of(1)), t_weight=Fraction(1))
        assert term_weight((2, 0, 1), wd) == ExactScalar.of(1)

    def test_irrational_weights_cancel(self):
        wd = WeightData((R2, 2 - R2))
        assert term_weight((1, 1), wd) == ExactScalar.of(2)

    def test_additive(self):
        rng = random.Random(3)
        wd = WeightData((ExactScalar.of(3), R2, 1 + R2))
        for _ in range(50):
            m1 = tuple(rng.randint(0, 4) for _ in range(3))
            m2 = tuple(rng.randint(0, 4) for _ in range(3))
            prod = tuple(a + b for a, b in zip(m1, m2))
            assert term_weight(prod, wd) == term_weight(m1, wd) + term_weight(m2, wd)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            term_weight((1, 1), WeightData((ExactScalar.of(1),)))


class TestInitialForm:
    def test_min_weight_part_selected(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert initial_form(P("x*y - z^2 - x^3"), wd) == P("x*y - z^2")

    def test_homogeneous_is_fixed(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert initial_form(P("x*y - z^2"), wd) == P("x*y - z^2")

    def test_tie_across_distinct_weights(self):
        wd = WeightData((ExactScalar.of(3), ExactScalar.of(2)))
        f = parse_polynomial("x^2 + y^3", ("x", "y"))
        assert initial_form(f, wd) == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            initial_form(Polynomial.zero(XYZ), WeightData((ExactScalar.of(1),) * 3))

    def test_idempotent_and_multiplicative(self):
        rng = random.Random(5)
        wd = WeightData((ExactScalar.of(1), ExactScalar.of(3), R2))
        for _ in range(60):
            f = rand_poly(rng, XYZ)
            g = rand_poly(rng, XYZ)
            if f.is_zero() or g.is_zero():
                continue
            inf = initial_form(f, wd)
            assert initial_form(inf, wd) == inf
            assert initial_form(f * g, wd) == initial_form(f, wd) * initial_form(g, wd)


class TestHomogeneity:
    def test_common_weight(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert homogeneous_weight(P("x*y - z^2"), wd) == ExactScalar.of(4)

    def test_mixed_weights(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert homogeneous_weight(P("x*y - z^2 - x^3"), wd) is None
        assert not is_homogeneous(P("x*y - z^2 - x^3"), wd)

    def test_zero_is_vacuously_homogeneous(self):
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert is_homogeneous(Polynomial.zero(XYZ), wd)
        assert homogeneous_weight(Polynomial.zero(XYZ), wd) is None


class TestWeightData:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightData((ExactScalar.of(0),))
        with pytest.raises(ValueError):
            WeightData((ExactScalar.of(1),), t_weight=Fraction(-1))

    def test_integer_weights(self):
        assert WeightData((ExactScalar.of(2), ExactScalar.of(3))).integer_weights() == (2, 3)
        with pytest.raises(ValueError):
            WeightData((R2,)).integer_weights()


class TestOrder:
    def test_grevlex_classics(self):
        order = TermOrder(3)
        # y^2 > x*z in grevlex with x > y > z
        assert order.key((0, 2, 0)) > order.key((1, 0, 1))
        # degree dominates
        assert order.key((3, 0, 0)) > order.key((0, 2, 0))
        # constant monomial is minimal
        assert order.key((0, 0, 0)) < order.key((0, 0, 1))

    def test_weighted_refinement(self):
        weighted = TermOrder(2, weights=(ExactScalar.of(1), ExactScalar.of(3)))
        # y (weight 3) beats x^2 (weight 2) under the refinement
        assert weighted.key((0, 1)) > weighted.key((2, 0))
        # plain grevlex would say the opposite
        assert TermOrder(2).key((0, 1)) < TermOrder(2).key((2, 0))


class TestParsePrint:
    def test_examples(self):
        assert str(P("x*y - z^2")) == "x*y - z^2"
        assert P("3/2*x + y^2") == Polynomial(XYZ, {(1, 0, 0): Fraction(3, 2), (0, 2, 0): 1})
        assert P("-x") == -Polynomial.variable(XYZ, "x")
        assert P("2 - 1") == Polynomial.constant(XYZ, 1)
        assert P("x - x + y + 2*x*z - x*z") == P("y + x*z")
        assert P("x - x").is_zero()

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            f = rand_poly(rng, XYZ)
            if f.is_zero():
                continue
            assert parse_polynomial(str(f), XYZ) == f

    @pytest.mark.parametrize("text, column", [("3/0*x + y", 1), ("x - 7*y + 2/00*z", 11)])
    def test_zero_denominator_is_positioned(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, XYZ, line=5)
        assert str(info.value) == f"zero denominator (line 5, column {column})"

    def test_rejects_juxtaposition(self):
        with pytest.raises(ParseError):
            P("2x")

    def test_rejects_unknown_variable(self):
        with pytest.raises(ParseError):
            P("x*w")

    def test_rejects_dangling_operator(self):
        with pytest.raises(ParseError):
            P("x +")
        with pytest.raises(ParseError):
            P("x * ")
