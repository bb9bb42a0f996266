"""Test configurations, fibers, flatness, graded dimensions, stability."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conify.degeneration import (
    build_test_configuration,
    central_fiber,
    flatness_witness,
    general_fiber,
    hilbert_function,
    stable_initial_ideal,
    weighted_initial_ideal,
)
from conify.errors import InhomogeneousError, SearchExhaustedError
from conify.exactnum import ExactScalar
from conify.groebner import IdealPresentation, ideals_equal, reduced_basis
from conify.polyring import Polynomial, TermOrder, WeightData, parse_polynomial
from test_acceptance import _degeneration_cases

R2 = ExactScalar.root(2)
XYZ = ("x", "y", "z")


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in texts))


def wdata(*ints):
    return WeightData(tuple(ExactScalar.of(w) for w in ints))


class TestBuild:
    def test_deformed_quadric(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        assert [str(g) for g in tc.family] == ["x^3*t^2 - x*y + z^2"]

    def test_homogeneous_input_gives_t_free_family(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2"), (2, 2, 2))
        t_index = len(tc.ring) - 1
        assert all(all(m[t_index] == 0 for m in g.terms)
                   for g in tc.family)

    def test_unit_weights(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (1, 1, 1))
        assert [str(g) for g in tc.family] == ["x^3*t - x*y + z^2"]

    def test_family_is_graded(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        wd = tc.weights
        for g in tc.family:
            weights = {sum(int(w.as_fraction()) * e for w, e in
                           zip(wd.full_vector(len(m)), m)) for m in g.terms}
            assert len(weights) == 1

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            build_test_configuration(ideal(XYZ, "x"), (0, 1, 1))

    def test_step_budget_is_plumbed_through(self):
        from conify.errors import BudgetExceededError
        hard = ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z")
        with pytest.raises(BudgetExceededError):
            build_test_configuration(hard, (1, 2, 3), max_steps=1)


class TestFibers:
    def test_central_fiber_drops_deformation(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        assert [str(g) for g in central_fiber(tc).generators] == ["x*y - z^2"]

    def test_t_free_family_fixed(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2"), (2, 2, 2))
        assert [str(g) for g in central_fiber(tc).generators] == ["x*y - z^2"]

    def test_unequal_weights_keep_light_term(self):
        # x - y with weights (2, 1): substitution gives t(t*x - y), fiber <y>
        tc = build_test_configuration(ideal(("x", "y"), "x - y"), (2, 1))
        assert [str(g) for g in tc.family] == ["x*t - y"]
        assert [str(g) for g in central_fiber(tc).generators] == ["y"]

    def test_general_fiber_is_input(self):
        source = ideal(XYZ, "x*y - z^2 - x^3")
        tc = build_test_configuration(source, (2, 2, 2))
        assert ideals_equal(general_fiber(tc), source)


class TestFlatness:
    def test_saturated_families_are_flat(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        assert flatness_witness(tc)

    def test_unsaturated_family_fails(self):
        from conify.degeneration import TestConfiguration
        raw = IdealPresentation(("x", "t"), (parse_polynomial("t*x", ("x", "t")),))
        fake = TestConfiguration(reduced_basis(raw, TermOrder(2)),
                                 WeightData((ExactScalar.of(1),), t_weight=Fraction(1)))
        assert not flatness_witness(fake)

    def test_t_free_family_flat(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2"), (2, 2, 2))
        assert flatness_witness(tc)


class TestOracleAgreement:
    def test_saturation_discovers_hidden_initial_element(self):
        # <y - x^2, y^2> at weights (1, 1): the initial ideal needs x^4
        source = ideal(("x", "y"), "y - x^2", "y^2")
        wd = wdata(1, 1)
        fiber = central_fiber(build_test_configuration(source, (1, 1)))
        oracle = weighted_initial_ideal(source, wd)
        assert {str(g) for g in fiber.generators} == {"y", "x^4"}
        assert fiber.generators == oracle.generators

    def test_randomized_agreement(self):
        rng = random.Random(43)
        for _ in range(10):
            nv = rng.randint(1, 3)
            ring = XYZ[:nv]
            gens = []
            for _ in range(rng.randint(1, 2)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    mono = tuple(rng.randint(0, 3) for _ in range(nv))
                    terms[mono] = Fraction(rng.choice([-2, -1, 1, 2]))
                gens.append(Polynomial(ring, terms))
            source = IdealPresentation(ring, tuple(gens))
            if not source.generators:
                continue
            wvec = tuple(rng.randint(1, 4) for _ in range(nv))
            fiber = central_fiber(build_test_configuration(source, wvec))
            for scale in (1, 2):
                oracle = weighted_initial_ideal(
                    source, WeightData(tuple(ExactScalar.of(Fraction(w, scale)) for w in wvec)))
                assert fiber.generators == oracle.generators

    def test_degeneration_idempotent(self):
        source = ideal(XYZ, "x*y - z^2 - x^3")
        fiber = central_fiber(build_test_configuration(source, (2, 2, 2)))
        again = central_fiber(build_test_configuration(fiber, (2, 2, 2)))
        assert fiber.generators == again.generators


def box_hilbert_function(ideal, wd, cap):
    """Reference: count the standard monomials of the reduced basis one by one
    over the box prod range(cap // w_i + 1)."""
    wvec = wd.integer_weights()
    leads = reduced_basis(ideal).leading_monomials()
    counts = {}
    for mono in product(*(range(cap // w + 1) for w in wvec)):
        weight = sum(w * e for w, e in zip(wvec, mono))
        if weight > cap:
            continue
        if any(all(le <= me for le, me in zip(lead, mono)) for lead in leads):
            continue
        counts[weight] = counts.get(weight, 0) + 1
    return dict(sorted(counts.items()))


def _random_monomial_ideal(rng):
    """1-4 variables, weights 1-4, 0-5 monomial generators; two or more
    generators always include a pair sharing a variable."""
    nvars = rng.randint(1, 4)
    ring = ("w", "x", "y", "z")[:nvars]
    while True:
        monos = [tuple(rng.randint(0, 3) for _ in range(nvars))
                 for _ in range(rng.randint(0, 5))]
        if len(monos) < 2 or any(any(a and b for a, b in zip(m1, m2))
                                 for m1, m2 in combinations(monos, 2)):
            break
    gens = tuple(Polynomial(ring, {m: Fraction(1)}) for m in monos)
    return IdealPresentation(ring, gens), wdata(*(rng.randint(1, 4) for _ in range(nvars)))


class TestHilbert:
    def test_agrees_with_box_enumeration(self):
        rng = random.Random(5)
        for _ in range(300):
            source, wd = _random_monomial_ideal(rng)
            cap = rng.randint(0, 14)
            assert hilbert_function(source, wd, cap) == box_hilbert_function(source, wd, cap)
        for source, weights in _degeneration_cases():
            fiber = central_fiber(build_test_configuration(source, weights))
            wd = wdata(*weights)
            assert hilbert_function(fiber, wd, 12) == box_hilbert_function(fiber, wd, 12)

    def test_unit_ideal(self):
        assert hilbert_function(ideal(XYZ, "1"), wdata(1, 2, 3), 6) == {}
        assert hilbert_function(ideal(XYZ, "1"), wdata(1, 2, 3), 0) == {}

    def test_zero_ideal(self):
        values = hilbert_function(IdealPresentation(XYZ, ()), wdata(1, 2, 3), 6)
        assert values == {0: 1, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 7}

    def test_cap_zero(self):
        assert hilbert_function(ideal(XYZ, "x*y - z^2"), wdata(2, 2, 2), 0) == {0: 1}

    def test_negative_cap(self):
        assert hilbert_function(ideal(XYZ, "x*y - z^2"), wdata(2, 2, 2), -1) == {}
        assert hilbert_function(IdealPresentation(XYZ, ()), wdata(1, 1, 1), -3) == {}

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            hilbert_function(IdealPresentation(XYZ, ()), wdata(1, 0, 1), 4)

    def test_quadric_dimensions(self):
        values = hilbert_function(ideal(XYZ, "x*y - z^2"), wdata(2, 2, 2), 8)
        assert values == {0: 1, 2: 3, 4: 5, 6: 7, 8: 9}

    def test_free_ring(self):
        values = hilbert_function(IdealPresentation(("x",), ()), wdata(1), 5)
        assert values == {k: 1 for k in range(6)}

    def test_principal_variable(self):
        values = hilbert_function(ideal(("x", "y"), "x"), wdata(1, 1), 5)
        assert values == {k: 1 for k in range(6)}

    def test_rejects_inhomogeneous(self):
        with pytest.raises(InhomogeneousError):
            hilbert_function(ideal(XYZ, "x*y - z^2 - x^3"), wdata(2, 2, 2), 4)

    def test_flat_families_preserve_graded_dimensions(self):
        # degree-homogeneous ideal degenerated along a different weight:
        # standard-degree dimensions of both fibers agree (flatness)
        source = ideal(XYZ, "x^2 - y*z", "x*y^2")
        fiber = central_fiber(build_test_configuration(source, (1, 2, 1)))
        degree = wdata(1, 1, 1)
        assert hilbert_function(source, degree, 6) == hilbert_function(fiber, degree, 6)


class TestStableInitialIdeal:
    def test_homogeneous_input_is_stable_for_any_scaling(self):
        source = ideal(XYZ, "x*y - z^2")
        tc = stable_initial_ideal(source, (R2, R2, R2), 16, 10**6)
        assert [str(g) for g in central_fiber(tc).generators] == ["x*y - z^2"]

    def test_proportional_approximants(self):
        # weights proportional to (3, 2) scaled by an irrational unit
        xi = (ExactScalar.root(2, 3), ExactScalar.root(2, 2))
        source = ideal(("x", "y"), "x^2 - y^3 - y^4")
        tc = stable_initial_ideal(source, xi, 16, 10**6)
        assert [str(g) for g in central_fiber(tc).generators] == ["y^3 - x^2"]
        assert flatness_witness(tc)

    def test_exhausted_cap_raises(self):
        # x^3 and y^4 nearly tie: the approximant at N = 16, (4, 3) / 1, ties
        # them; the certified one, at N = 32, has denominator 306
        xi = (ExactScalar(Fraction(1, 2), 2, 3), ExactScalar(2, Fraction(3, 5), 3))
        source = ideal(("x", "y"), "y^4 - x^3 - x*y^5")
        with pytest.raises(SearchExhaustedError, match=r"<= 100 .*\(last threshold tried 1/32\)"):
            stable_initial_ideal(source, xi, 16, 100)
        with pytest.raises(SearchExhaustedError, match="N = 16 exceeds the cap"):
            stable_initial_ideal(source, xi, 16, 10)
        tc = stable_initial_ideal(source, xi, 16, 306)
        assert tc.weights.integer_weights() == (1213, 930)
