"""The central fiber by interreduction against a Buchberger run on the same forms.

central_fiber and weighted_initial_ideal take the flats' initial forms, which
are already a grevlex Groebner basis of in_w(I) (Sturmfels, Groebner Bases and
Convex Polytopes, Prop. 1.8, at h = 1), drop those whose lead another's
divides and interreduce the rest (`groebner.interreduced`), with no S-pair.
The oracle `spair_fiber` computes the reduced basis of the same forms by a
full Buchberger run.
"""

import random

import pytest

from conify import degeneration, groebner
from conify.degeneration import build_test_configuration, central_fiber, stable_initial_ideal, weighted_initial_ideal
from conify.groebner import IdealPresentation, _integral, basis_of_rows
from conify.polyring import TermOrder, WeightData, _grades, least_weight, parse_polynomial
from test_saturation import CASES, HARD, irrational_cases, template_draws, with_coefficients


def spair_fiber(ring, flats, grades) -> IdealPresentation:
    """in_w(I) by a full Buchberger run on the flats' least-weight forms."""
    forms = [least_weight(f, grades) for f in flats]
    return IdealPresentation(ring, basis_of_rows(ring, forms, TermOrder(len(ring))).elements)


def assert_same_fiber(fiber: IdealPresentation, oracle: IdealPresentation, label):
    assert fiber.ring == oracle.ring, label
    assert fiber.generators == oracle.generators, label
    assert [str(g) for g in fiber.generators] == [str(g) for g in oracle.generators], label


def check_rational(ideal, weights, label):
    tc = build_test_configuration(ideal, weights)
    oracle = spair_fiber(ideal.ring, tc.flats, tc.w)
    assert_same_fiber(central_fiber(tc), oracle, label)
    assert_same_fiber(weighted_initial_ideal(ideal, WeightData(weights)), oracle, label)


class TestInterreductionAgainstSPairs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_template_draw(self, seed):
        # all 120 draws, the four the benchmark skips included
        for index, (ideal, weights) in enumerate(with_coefficients(template_draws(), random.Random(seed))):
            check_rational(ideal, weights, (seed, index))

    def test_criterion_1_ideals(self):
        for index, (ideal, weights) in enumerate(CASES):
            check_rational(ideal, weights, index)

    @pytest.mark.parametrize("weights", [(1, 2, 3), (3, 2, 1), (1, 1, 1), (5, 1, 2)])
    def test_hard(self, weights):
        check_rational(HARD, weights, weights)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_irrational_cases(self, seed):
        for index, (ideal, xi) in enumerate(irrational_cases(24, seed)):
            g, _ = _grades(WeightData(xi).weights)
            oracle = spair_fiber(ideal.ring, degeneration._flats(ideal, g, None), g)
            assert_same_fiber(weighted_initial_ideal(ideal, WeightData(xi)), oracle, (seed, index))
            tc = stable_initial_ideal(ideal, xi)
            assert_same_fiber(central_fiber(tc), spair_fiber(ideal.ring, tc.flats, tc.w), (seed, index))

    def test_initial_forms_that_are_no_minimal_basis(self):
        # <y - x^2, y^2> at (1, 1): the forms y, x^2*y, y^2 and x^4, of which
        # y's lead divides two, so the fiber needs the minimalization
        ring = ("x", "y")
        ideal = IdealPresentation(ring, tuple(parse_polynomial(s, ring) for s in ("y - x^2", "y^2")))
        tc = build_test_configuration(ideal, (1, 1))
        assert len(tc.flats) == 4
        assert [str(g) for g in central_fiber(tc).generators] == ["y", "x^4"]
        assert_same_fiber(central_fiber(tc), spair_fiber(ring, tc.flats, tc.w), ideal)

    def test_tails_need_the_interreduction(self):
        # a grevlex Groebner basis, minimal, whose first tail y*z the second lead divides
        ring = ("x", "y", "z")
        rows = [_integral(parse_polynomial(s, ring).terms)[0] for s in ("x^2 + y*z", "y*z - z^2", "z^3")]
        fiber = groebner.interreduced(ring, rows)
        assert [str(g) for g in fiber.generators] == ["y*z - z^2", "x^2 + z^2", "z^3"]
        assert fiber.generators == basis_of_rows(ring, rows, TermOrder(3)).elements


def test_central_fiber_runs_no_buchberger(monkeypatch):
    tc = build_test_configuration(HARD, (1, 2, 3))
    expected = central_fiber(tc)

    def refuse(rows, packing, max_steps):
        raise AssertionError("central_fiber ran a Buchberger pass")

    monkeypatch.setattr(groebner, "_minimal_basis", refuse)
    assert central_fiber(tc) == expected
