"""Test configurations, fibers, flatness, graded dimensions, stability."""

import math
import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product

import pytest

from conify import degeneration, groebner
from conify.degeneration import (
    build_test_configuration,
    central_fiber,
    flatness_witness,
    general_fiber,
    hilbert_function,
    stable_initial_ideal,
    weighted_initial_ideal,
)
from conify.diophantine import ReebVector, rational_matrix_rank
from conify.errors import ArityError, CertificateError, InhomogeneousError
from conify.exactnum import ExactScalar
from conify.groebner import IdealPresentation, ideals_equal, reduced_basis
from conify.polyring import Polynomial, WeightData, parse_polynomial
from test_acceptance import _degeneration_cases

R2 = ExactScalar.root(2)
R3 = ExactScalar.root(3)
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

    def test_ring_with_the_family_variable_is_refused(self):
        source = ideal(("x", "t"), "x^2 - t")
        with pytest.raises(ArityError, match="family variable 't'"):
            build_test_configuration(source, (1, 2))
        with pytest.raises(ArityError, match="family variable 't'"):
            stable_initial_ideal(source, (R2, ExactScalar.of(1)))

    def test_family_variable_is_refused_before_any_basis(self):
        # with no S-pair allowed, any basis of <x^2 - t, x*t - 1> would exceed the budget
        source = ideal(("x", "t"), "x^2 - t", "x*t - 1")
        with pytest.raises(ArityError, match="family variable 't'"):
            build_test_configuration(source, (1, 2), max_steps=0)
        with pytest.raises(ArityError, match="family variable 't'"):
            stable_initial_ideal(source, (R2, ExactScalar.of(1)), max_steps=0)

    def test_weight_arity_is_refused_before_any_basis(self, monkeypatch):
        built = []
        real = groebner._minimal_basis
        monkeypatch.setattr(groebner, "_minimal_basis", lambda *a: built.append(a) or real(*a))
        source = ideal(XYZ, "x*y - z^2 - x^3")
        with pytest.raises(ArityError, match="^weights do not match ring$"):
            stable_initial_ideal(source, (R2, ExactScalar.of(1)))
        with pytest.raises(ArityError, match="^weights do not match ring$"):
            weighted_initial_ideal(source, WeightData((1, 2)))
        assert built == []

    def test_unit_weights(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (1, 1, 1))
        assert [str(g) for g in tc.family] == ["x^3*t - x*y + z^2"]

    def test_family_is_graded(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        wd = WeightData(tc.w, t_weight=Fraction(1))
        for g in tc.family:
            weights = {sum(int(w.as_fraction()) * e for w, e in
                           zip(wd.full_vector(len(m)), m)) for m in g.terms}
            assert len(weights) == 1

    def test_configuration_is_flats_weights_and_budget(self):
        # no stored family and no second weight representation: the fibers and
        # the certificate read the flats, and the integers w are the only weights
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 1, 3))
        assert [f.name for f in fields(degeneration.TestConfiguration)] == ["ring", "flats", "w", "max_steps"]
        assert tc.w == (2, 1, 3) and not hasattr(tc, "weights")
        central_fiber(tc)
        general_fiber(tc)
        assert flatness_witness(tc)
        assert "family" not in tc.__dict__

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            build_test_configuration(ideal(XYZ, "x"), (0, 1, 1))

    def test_step_budget_is_plumbed_through(self):
        from conify.errors import BudgetExceededError
        hard = ideal(XYZ, "x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z")
        with pytest.raises(BudgetExceededError):
            build_test_configuration(hard, (1, 2, 3), max_steps=1)

    def test_stress_budget_message(self):
        # the N = 16 approximant family of the three-radicand document; the
        # counters pin the pair trajectory of the family basis, built on first
        # read after the base and refined bases, and the one the budget stops
        from conify.errors import BudgetExceededError
        source = ideal(XYZ, "x*y - z^2 + x^3", "y^2 - x*z")
        tc = build_test_configuration(source, (174, 336, 275), max_steps=200)
        with pytest.raises(BudgetExceededError) as info:
            tc.family
        assert str(info.value) == ("S-pair budget of 200 exceeded: 200 pairs reduced, "
                                   "5176 dropped by the criteria, active basis of 96")


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

    def test_setting_t_sums_the_terms_it_merges(self):
        # the family route of the oracle `family_fiber` on a hand-built family
        # {y*t - y, x*t^2 + y^2 - x, y^3}: at t = 1 the first element cancels to
        # zero and the x-terms of the second cancel; at t = 0 only the t-free
        # terms are left
        from test_saturation import family_config, family_fiber
        tc = family_config(ideal(("x", "y", "t"), "x*t^2 - x + y^2", "y*t - y"))
        assert [str(g) for g in family_fiber(tc, 1).generators] == ["y^2"]
        assert [str(g) for g in family_fiber(tc, 0).generators] == ["y", "x"]


class TestFlatness:
    def test_saturated_families_are_flat(self):
        tc = build_test_configuration(ideal(XYZ, "x*y - z^2 - x^3"), (2, 2, 2))
        assert flatness_witness(tc)

    def test_unsaturated_family_fails(self):
        # a hand-built family has no flats to certify: the revlex oracle judges it
        from test_saturation import family_config, revlex_flatness
        raw = IdealPresentation(("x", "t"), (parse_polynomial("t*x", ("x", "t")),))
        assert not revlex_flatness(family_config(raw))

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
    basis = reduced_basis(ideal)
    leads = [g.leading_monomial(basis.order) for g in basis]
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


def in_span_homogeneous(fiber, xi):
    """Whether every generator of fiber is homogeneous for each integer vector
    of a basis of the rational span of xi (the columns of its coordinates):
    the rank-r torus action on the central fiber."""
    rows = ReebVector(tuple(xi)).coordinate_rows()
    for column in zip(*rows):
        scale = math.lcm(*(c.denominator for c in column))
        u = [int(c * scale) for c in column]
        for g in fiber.generators:
            if len({sum(a * e for a, e in zip(u, m)) for m in g.terms}) > 1:
                return False
    return True


def in_rational_span(w, xi):
    columns = [list(c) for c in zip(*ReebVector(tuple(xi)).coordinate_rows())]
    return rational_matrix_rank(columns + [list(w)]) == rational_matrix_rank(columns)


# (sqrt2, 1 + sqrt3, sqrt5): the Groebner cone of xi has five strict rows.
THREE_RADICANDS = (ExactScalar.root(2), ExactScalar(1, 1, 3), ExactScalar.root(5))


class TestStableInitialIdeal:
    def test_homogeneous_input_is_stable_for_any_scaling(self):
        source = ideal(XYZ, "x*y - z^2")
        tc = stable_initial_ideal(source, (R2, R2, R2))
        assert [str(g) for g in central_fiber(tc).generators] == ["x*y - z^2"]
        assert tc.w == (1, 1, 1)

    def test_proportional_approximants(self):
        # weights proportional to (3, 2) scaled by an irrational unit
        xi = (ExactScalar.root(2, 3), ExactScalar.root(2, 2))
        source = ideal(("x", "y"), "x^2 - y^3 - y^4")
        tc = stable_initial_ideal(source, xi)
        assert [str(g) for g in central_fiber(tc).generators] == ["y^3 - x^2"]
        assert tc.w == (3, 2)
        assert flatness_witness(tc)

    def test_exhausted_candidates_round_xi(self, monkeypatch):
        # (1, 3) is the fourth candidate: (1, 1), (1, 2), (2, 1), (1, 3).  With
        # three, lam = round(2^k xi / 3) over B = 3I ties y with x^2 at (1, 2),
        # (2, 4), (4, 8) and (8, 16), and first leaves the tie at (15, 32)
        source = ideal(("x", "y"), "y - x^2 + y^2")
        xi = (R2, ExactScalar.of(3))
        monkeypatch.setattr(degeneration, "CONE_CANDIDATES", 3)
        tc = stable_initial_ideal(source, xi)
        assert tc.w == (15, 32)
        assert [str(g) for g in central_fiber(tc).generators] == ["x^2"]
        monkeypatch.setattr(degeneration, "CONE_CANDIDATES", 4)
        assert stable_initial_ideal(source, xi).w == (1, 3)

    @pytest.mark.parametrize("gens, xi, weights", [
        (("x*y - z^2 + x^3", "y^2 - x*z"), THREE_RADICANDS, (6, 11, 9)),
        (("y^4 - x^3 - x*y^5",), (ExactScalar(Fraction(1, 2), 2, 3), ExactScalar(2, Fraction(3, 5), 3)), (1, 1)),
    ])
    def test_rounding_alone_is_certified(self, monkeypatch, gens, xi, weights):
        # with no small span point tried, the rounded lam_xi still ends the search
        monkeypatch.setattr(degeneration, "CONE_CANDIDATES", 0)
        source = ideal(XYZ[:len(xi)], *gens)
        tc = stable_initial_ideal(source, xi)
        assert tc.w == weights
        assert central_fiber(tc) == weighted_initial_ideal(source, WeightData(xi))
        assert flatness_witness(tc)

    def test_strict_rows_skip_the_tie(self):
        # in_xi = x^2; the rows are y > x^2 and y^2 > x^2, i.e. w_y > 2 w_x.
        # (1, 2) ties y with x^2, so a non-strict row would take it.
        source = ideal(("x", "y"), "y - x^2 + y^2")
        xi = (R2, ExactScalar.of(3))
        tc = stable_initial_ideal(source, xi)
        assert tc.w == (1, 3)
        assert [str(g) for g in central_fiber(tc).generators] == ["x^2"]
        tie = weighted_initial_ideal(source, wdata(1, 2))
        assert [str(g) for g in tie.generators] == ["x^2 - y"]

    def test_certificate_rejects_a_wrong_family(self, monkeypatch):
        # a family along the tie (1, 2) has central fiber <x^2 - y>, not <x^2>
        family = degeneration._family
        monkeypatch.setattr(degeneration, "_family",
                            lambda ring, flats, w, max_steps: family(ring, flats, (1, 2), max_steps))
        with pytest.raises(CertificateError, match=r"along \(1, 3\) does not degenerate"):
            stable_initial_ideal(ideal(("x", "y"), "y - x^2 + y^2"), (R2, ExactScalar.of(3)))

    def test_three_radicands_take_one_small_family(self):
        source = ideal(XYZ, "x*y - z^2 + x^3", "y^2 - x*z")
        tc = stable_initial_ideal(source, THREE_RADICANDS)
        assert tc.w == (4, 7, 6)
        fiber = central_fiber(tc)
        assert [str(g) for g in fiber.generators] == ["x*z", "x*y", "z^3"]
        assert fiber == weighted_initial_ideal(source, WeightData(THREE_RADICANDS))
        assert flatness_witness(tc)
        # every smaller weight of the same span gives another initial ideal
        for total in range(3, 17):
            for w in product(range(1, total), repeat=3):
                if sum(w) == total:
                    assert weighted_initial_ideal(source, wdata(*w)) != fiber, w

    @pytest.mark.parametrize("text, expected", [
        ("y - x^2 + y^2", (1, 2)),   # x^2 and y tie under xi and stay tied
        ("y - x^3", (1, 2)),         # (1, 1) is in the cone but not in the span
    ])
    def test_tie_keeps_the_rational_relation(self, text, expected):
        xi = (R2, ExactScalar.root(2, 2))
        source = ideal(("x", "y"), text)
        tc = stable_initial_ideal(source, xi)
        assert tc.w == expected
        assert central_fiber(tc) == weighted_initial_ideal(source, WeightData(xi))
        assert in_rational_span(expected, xi)

    @pytest.mark.parametrize("xi, texts, expected", [
        # rank 1 in three variables: the one ray of the span, at entry sum 87
        (tuple(ExactScalar.root(2, c) for c in (50, 30, 7)), ("x - y*z^3 + y^2",), (50, 30, 7)),
        # rank 2 in three variables: y^4, x^5 and z^6, y^11 nearly tie, and
        # no vector of the span with entry sum below 98 is in the cone
        ((R2, R3, R2 + R3), ("y^4 - x^5 + z^3", "z^6 - y^11 + x^14"), (22, 27, 49)),
        # the fraction-free echelon basis of this span ends with a negative pivot
        ((R2 + 1, R2 + 2, R3), ("y - x^2 + y^2", "z^2 - x*y"), (2, 1, 1)),
        # (1, 1, 0) meets every row, but the span also holds nonpositive vectors
        ((R2, R3, R3 - R2), ("y - x^2 + y^2",), (2, 3, 1)),
    ])
    def test_search_runs_over_the_span(self, xi, texts, expected):
        source = ideal(XYZ, *texts)
        tc = stable_initial_ideal(source, xi)
        assert tc.w == expected
        assert central_fiber(tc) == weighted_initial_ideal(source, WeightData(xi))
        assert flatness_witness(tc)

    @pytest.mark.parametrize("xi, texts", [
        (THREE_RADICANDS, ("x*y - z^2 + x^3", "y^2 - x*z")),
        ((R2, ExactScalar.root(2, 2), ExactScalar.root(3)), ("x^2 - y + z^2", "x*z - y*z + z^3")),
        ((R2, R2 + 1, R2 + 2), ("x*y - z^2", "x^3 - y*z + x*y*z")),
    ])
    def test_central_fiber_carries_the_torus_of_xi(self, xi, texts):
        source = ideal(XYZ, *texts)
        tc = stable_initial_ideal(source, xi)
        assert in_rational_span(tc.w, xi)
        assert in_span_homogeneous(central_fiber(tc), xi)
