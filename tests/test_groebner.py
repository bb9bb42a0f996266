"""Buchberger engine: normal forms, reduced bases, saturation, quotients.

The correctness oracles re-verify every basis post hoc: all S-polynomial
normal forms vanish, every input generator reduces to zero, and random
multiples of generators stay in the ideal.
"""

import gc
import random
import time
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from conify.errors import BudgetExceededError
from conify.groebner import (
    GroebnerBasis,
    IdealPresentation,
    ideal_quotient,
    ideals_equal,
    intersect,
    normal_form,
    reduced_basis,
    saturate_by_variable,
    spoly,
)
from conify.polyring import Polynomial, mono_divides, parse_polynomial
from test_acceptance import _degeneration_cases

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in texts))


def rand_poly(rng, ring, max_deg=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        while sum(mono) > max_deg:
            mono = tuple(rng.randint(0, max_deg) for _ in ring)
        terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


def assert_groebner(basis: GroebnerBasis, source: IdealPresentation):
    # Buchberger criterion, re-verified post hoc
    for f, g in combinations(basis.elements, 2):
        assert normal_form(spoly(f, g, basis.order), basis).is_zero()
    # the input generators are members
    for g in source.generators:
        assert normal_form(g, basis).is_zero()
    # reducedness: monic, and no term divisible by another leading term
    for i, f in enumerate(basis.elements):
        assert f.terms[f.leading_monomial(basis.order)] == 1
        others = [g.leading_monomial(basis.order)
                  for j, g in enumerate(basis.elements) if j != i]
        for mono in f.terms:
            assert not any(mono_divides(lead, mono) for lead in others)


class TestNormalForm:
    def test_membership(self):
        basis = reduced_basis(ideal(XYZ, "x"))
        assert normal_form(P("x^2"), basis).is_zero()

    def test_single_division_step(self):
        basis = reduced_basis(ideal(XYZ, "x*y - z"))
        assert normal_form(P("x^2*y"), basis) == P("x*z")

    def test_empty_basis(self):
        f = P("x + y^2")
        assert normal_form(f, reduced_basis(ideal(XYZ))) == f


class TestReducedBasis:
    def test_coordinate_ideal(self):
        basis = reduced_basis(ideal(XY, "x", "y"))
        assert [str(g) for g in basis] == ["y", "x"]

    def test_unit_ideal(self):
        basis = reduced_basis(ideal(XY, "x*y - 1", "x^2"))
        assert [str(g) for g in basis] == ["1"]

    def test_substitution(self):
        basis = reduced_basis(ideal(XYZ, "x*y - z^2", "x - y"))
        assert {str(g) for g in basis} == {"x - y", "y^2 - z^2"}

    def test_permutation_invariance(self):
        rng = random.Random(31)
        for _ in range(15):
            gens = [rand_poly(rng, XYZ) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            reference = reduced_basis(IdealPresentation(XYZ, tuple(gens)))
            shuffled = gens[:]
            rng.shuffle(shuffled)
            again = reduced_basis(IdealPresentation(XYZ, tuple(shuffled)))
            assert reference.elements == again.elements

    def test_oracle_random(self):
        rng = random.Random(37)
        for _ in range(10):
            source = IdealPresentation(
                XY, tuple(rand_poly(rng, XY) for _ in range(2)))
            if not source.generators:
                continue
            basis = reduced_basis(source)
            assert_groebner(basis, source)
            # random multiples of generators reduce to zero
            for g in source.generators:
                h = rand_poly(rng, XY)
                assert normal_form(h * g, basis).is_zero()

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            reduced_basis(ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z"),
                          max_steps=1)

    def test_budget_message_carries_counters(self):
        with pytest.raises(BudgetExceededError) as info:
            reduced_basis(ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z"),
                          max_steps=2)
        assert str(info.value) == ("S-pair budget of 2 exceeded: 2 pairs reduced, "
                                   "4 dropped by the criteria, active basis of 5")

    @pytest.mark.parametrize("steps", [-1, -5])
    def test_negative_budget_is_rejected(self, steps):
        # a negative budget is no budget at all unless refused
        source = ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z")
        with pytest.raises(ValueError, match="max_steps must be at least 0"):
            reduced_basis(source, max_steps=steps)
        with pytest.raises(ValueError, match="max_steps must be at least 0"):
            reduced_basis(ideal(XYZ), max_steps=steps)
        with pytest.raises(ValueError, match="max_steps must be at least 0"):
            saturate_by_variable(source, "z", max_steps=steps)
        with pytest.raises(ValueError, match="max_steps must be at least 0"):
            intersect(source, ideal(XYZ, "x - z"), max_steps=steps)

    def test_default_order_dies_with_its_basis(self):
        # the default order and its key memo are freed with the basis
        basis = reduced_basis(ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3"))
        order = weakref.ref(basis.order)
        del basis
        gc.collect()
        assert order() is None


class TestSaturation:
    def test_strips_variable_factor(self):
        sat = saturate_by_variable(ideal(("x", "t"), "t*x"), "t")
        assert [str(g) for g in sat.generators] == ["x"]

    def test_t_free_ideal_unchanged(self):
        sat = saturate_by_variable(ideal(("x", "t"), "x"), "t")
        assert [str(g) for g in sat.generators] == ["x"]

    def test_power_becomes_unit(self):
        sat = saturate_by_variable(ideal(("x", "t"), "t^2"), "t")
        assert [str(g) for g in sat.generators] == ["1"]

    def test_fixpoint(self):
        rng = random.Random(41)
        for _ in range(8):
            source = IdealPresentation(
                ("x", "t"), tuple(rand_poly(rng, ("x", "t")) for _ in range(2)))
            if not source.generators:
                continue
            once = saturate_by_variable(source, "t")
            twice = saturate_by_variable(once, "t")
            assert ideals_equal(once, twice)


class TestQuotient:
    def test_monomial(self):
        q = ideal_quotient(ideal(XY, "x*y"), P("x", XY))
        assert [str(g) for g in q.generators] == ["y"]

    def test_discovers_square_root_of_membership(self):
        q = ideal_quotient(ideal(XYZ, "x*y - z^2", "x"), P("z"))
        assert {str(g) for g in reduced_basis(q).elements} == {"z", "x"}

    def test_coprime(self):
        q = ideal_quotient(ideal(XY, "x"), P("y", XY))
        assert [str(g) for g in q.generators] == ["x"]

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            ideal_quotient(ideal(XY, "x"), Polynomial.zero(XY))

    def test_intersection(self):
        meet = intersect(ideal(XY, "x"), ideal(XY, "y"))
        assert [str(g) for g in meet.generators] == ["x*y"]


CASE_5_MEET = [
    "x^2*y^3 - 2/3*x^2*z^3 - y^3*z + 2/3*z^4 + y^3 - 2/3*z^3",
    "x^4*y + x^2*y^2*z - x^2*y*z - y^2*z^2 + x^2*y + y^2*z",
    "x^6 - x^3*y*z^2 - x^4*z + x*y*z^3 + x^4 - x*y*z^2 - 2/3*x^2 + 2/3*z - 2/3",
    "x^4*z^3 + x^2*y*z^4 - x^2*z^4 - y*z^5 + x^2*z^3 + y*z^4",
    "x^3*y^2*z^2 - 2/3*x^2*z^5 - x*y^2*z^3 + 2/3*z^6 + x*y^2*z^2 - 2/3*z^5 + 2/3*x^2*y"
    " - 2/3*y*z + 2/3*y",
    "x^2*y*z^5 + x^2*z^6 - y*z^6 - z^7 + y*z^5 + z^6 - x^3*y - x^2*y^2 + x*y*z + y^2*z"
    " - x*y - y^2",
    "x^3*z^5 + x^2*z^6 - x*z^6 - z^7 + x*z^5 + z^6 - x^3*y + x*y*z - x*y",
    "x^2*z^8 - z^9 + z^8 + 3/5*x^3*y^2*z - 3/5*x^3*y*z^2 - 3/5*x^2*y^2*z^2 - 2/5*x^3*z^3"
    " - 2/5*x^2*y*z^3 + 2/5*x^2*z^4 - 3/5*x*y^2*z^2 + 3/5*x*y*z^3 + 3/5*y^2*z^3 + 2/5*x*z^4"
    " + 2/5*y*z^4 - 2/5*z^5 + 3/5*x*y^2*z - 3/5*x*y*z^2 - 3/5*y^2*z^2 - 2/5*x*z^3"
    " - 2/5*y*z^3 + 2/5*z^4",
]


def test_criterion_1_case_5_intersection():
    # rational coefficient growth made this take 16 s with Fraction reducers
    source, _ = _degeneration_cases()[5]
    assert str(source) == "<3*x*y^3 - 2*x*z^3, -3*x^4 + 3*x*y*z^2 + 2, 2*x^3*y + 2*x*y^2*z>"
    start = time.monotonic()
    meet = intersect(source, ideal(XYZ, "x^2 - z + 1"))
    elapsed = time.monotonic() - start
    assert [str(g) for g in meet.generators] == CASE_5_MEET
    assert elapsed < 8.0
