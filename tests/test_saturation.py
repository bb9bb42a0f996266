"""The family route and Bayer's revlex route against the elimination route.

build_test_configuration reads the t-saturated family off the flats (the
refined basis of I^h at h = 1), with no saturation.  saturate_by_variable, the
route it replaced, reads (I : t^infinity) off one grevlex basis of the
h-homogenized ideal with t last.  The families are checked against
saturate_by_variable, and that in turn against the route it replaced: a tag
variable u with u*t - 1, eliminated, kept here as `elimination_saturation`.

flatness_witness certifies a family by Buchberger's criterion on its flats.
The route it replaced reads t-torsion off the leads of one minimal revlex basis
of the family, independently of the flats; it is kept here as the oracle
`revlex_flatness`, which also judges hand-built families, and is compared with
(J : t) = J computed by `ideal_quotient`, itself a tag-variable elimination.
"""

import random
from fractions import Fraction

import pytest

from conify import degeneration, groebner
from conify.degeneration import (
    _family,
    T_NAME,
    _homogenize_by_t,
    build_test_configuration,
    flatness_witness,
    stable_initial_ideal,
    weighted_initial_ideal,
)
from conify.errors import BudgetExceededError, CertificateError
from conify.exactnum import ExactScalar
from conify.groebner import (
    IdealPresentation,
    ideal_quotient,
    ideals_equal,
    _integral,
    reduced_basis,
    saturate_by_variable,
)
from conify.polyring import Polynomial, TermOrder, WeightData, parse_polynomial
from test_acceptance import _degeneration_cases

CASES = _degeneration_cases()
HARD = IdealPresentation(("x", "y", "z"), tuple(parse_polynomial(s, ("x", "y", "z")) for s in
                                              ("x^4*y - z^2", "x*z^3 - y^3", "y^4 - x^2*z")))
UNIT = IdealPresentation(("x",), (parse_polynomial("x", ("x",)), parse_polynomial("x - 1", ("x",))))


def elimination_saturation(ideal: IdealPresentation, var: str,
                           max_steps: int | None = None) -> IdealPresentation:
    """(I : var^infinity) via a Rees-style inverse variable and elimination."""
    u = "_u"
    while u in ideal.ring:
        u += "_"
    big_ring = (u,) + ideal.ring
    order = TermOrder(len(big_ring), elim=1)
    gens = [Polynomial(big_ring, {(0,) + m: c for m, c in g.terms.items()}) for g in ideal.generators]
    inverse = (Polynomial.variable(big_ring, u) * Polynomial.variable(big_ring, var)
               - Polynomial.constant(big_ring, 1))
    basis = reduced_basis(IdealPresentation(big_ring, tuple(gens) + (inverse,)), order, max_steps)
    kept = [Polynomial(ideal.ring, {m[1:]: c for m, c in g.terms.items()})
            for g in basis if g.leading_monomial(order)[0] == 0]
    return IdealPresentation(ideal.ring, tuple(kept))


def quotient_is_flat(family: IdealPresentation) -> bool:
    """(J : t) = J through an intersection with <t>."""
    if not family.generators:
        return True
    t = Polynomial.variable(family.ring, T_NAME)
    return ideals_equal(ideal_quotient(family, t), family)


def raw_family(ideal: IdealPresentation, wvec) -> IdealPresentation:
    """The t-homogenized generators, before saturation."""
    ring = ideal.ring + (T_NAME,)
    return IdealPresentation(ring, tuple(Polynomial(ring, _homogenize_by_t(g.terms, wvec))
                                         for g in ideal.generators))


def family_config(family: IdealPresentation, wvec):
    """A hand-built configuration: the reduced grevlex basis of any family."""
    wd = WeightData(tuple(ExactScalar.of(w) for w in wvec), t_weight=Fraction(1))
    return degeneration.TestConfiguration.of_family(reduced_basis(family, TermOrder(len(family.ring))), wd)


def revlex_flatness(tc, max_steps=None) -> bool:
    """True iff t is a nonzerodivisor on the family ring: (J : t) = J.

    The family is J's reduced grevlex basis, which is degree-compatible, so its
    h-homogenization generates J^h, and (J : t) = J iff (J^h : t) = J^h.  With
    t last in revlex, in(J^h : t) = in(J^h) : t (`groebner._revlex_rows`), so J
    is flat iff no leading monomial of the revlex basis of J^h is divisible by
    t; a minimal basis has those leads (`groebner.minimal_leads`).  A family
    basis for any other order raises ValueError."""
    family = tc.family
    if family.order != TermOrder(len(family.ring)):
        raise ValueError("revlex_flatness needs the family's reduced grevlex basis")
    ring, rows = groebner._revlex_rows(family.ring, family.rows(), T_NAME)
    return not any(m[-1] for m in groebner.minimal_leads(rows, TermOrder(len(ring)), max_steps))


def revlex_basis(family) -> groebner.GroebnerBasis:
    """The reduced grevlex basis, interreduced in full, of the family's
    elements homogenized by h in the ring (z..., h, t), t last."""
    ring = family.ring[:-1] + ("_h", T_NAME)
    gens = []
    for g in family.elements:
        deg = max(map(sum, g.terms))
        gens.append(Polynomial(ring, {m[:-1] + (deg - sum(m), m[-1]): c for m, c in g.terms.items()}))
    return reduced_basis(IdealPresentation(ring, tuple(gens)))


SKIPPED_DRAWS = (8, 29, 78, 87)   # the draws that take seconds each, skipped by the benchmark


def template_draws():
    """All 120 draws of the degen-families benchmark recipe, as (ring, supports, weights).

    The criterion-1 generator widened to 2-4 variables, 1-3 generators of 1-3
    terms, total degree <= 4 (<= 3 in four variables), weights 1-5, from the
    criterion-1 seed; the benchmark skips SKIPPED_DRAWS.
    """
    names = ("x", "y", "z", "w")
    rng = random.Random(20260808)
    draws = []
    for _ in range(120):
        nvars = rng.randint(2, 4)
        deg = 4 if nvars < 4 else 3
        supports = []
        for _ in range(rng.randint(1, 3)):
            support = set()
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, deg) for _ in range(nvars))
                while sum(mono) > deg:
                    mono = tuple(rng.randint(0, deg) for _ in range(nvars))
                support.add(mono)
            supports.append(sorted(support))
        draws.append((names[:nvars], supports, tuple(rng.randint(1, 5) for _ in range(nvars))))
    return draws


def with_coefficients(draws, rng):
    """(ideal, weights) per draw, each coefficient drawn in +-1, +-2, +-3."""
    return [(IdealPresentation(ring, tuple(Polynomial(ring, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                                                             for m in s}) for s in supports)), weights)
            for ring, supports, weights in draws]


def template_cases(count: int, seed: int):
    """A seeded subset of the degen-families benchmark ideals: `seed` picks
    `count` of the draws the benchmark keeps and draws their coefficients."""
    kept = [draw for index, draw in enumerate(template_draws()) if index not in SKIPPED_DRAWS]
    pick = random.Random(seed)
    return with_coefficients(pick.sample(kept, count), pick)


TEMPLATES = template_cases(40, seed=6)


class TestSaturationAgainstElimination:
    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_criterion_1_ideals_by_last_variable(self, index):
        ideal, _ = CASES[index]
        var = ideal.ring[-1]
        assert saturate_by_variable(ideal, var).generators == elimination_saturation(ideal, var).generators

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_criterion_1_t_families(self, index):
        raw = raw_family(*CASES[index])
        assert saturate_by_variable(raw, T_NAME).generators == elimination_saturation(raw, T_NAME).generators

    def test_benchmark_template_t_families(self):
        for ideal, weights in TEMPLATES:
            raw = raw_family(ideal, weights)
            expected = elimination_saturation(raw, T_NAME)
            assert saturate_by_variable(raw, T_NAME).generators == expected.generators, str(ideal)

    def test_variable_in_the_middle(self):
        ring = ("x", "t", "y")
        ideal = IdealPresentation(ring, tuple(parse_polynomial(s, ring) for s in
                                              ("t*x^2 - y", "t^2*y^2 - x*t", "x*y*t + 1")))
        assert saturate_by_variable(ideal, "t").generators == elimination_saturation(ideal, "t").generators

    def test_empty_ideal(self):
        empty = IdealPresentation(("x", "t"), ())
        assert saturate_by_variable(empty, "t").generators == ()


class TestFamilyAgainstSaturation:
    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_criterion_1_families(self, index):
        ideal, weights = CASES[index]
        family = build_test_configuration(ideal, weights).family
        assert family.elements == saturate_by_variable(raw_family(ideal, weights), T_NAME).generators

    def test_benchmark_template_families(self):
        for ideal, weights in TEMPLATES:
            family = build_test_configuration(ideal, weights).family
            expected = saturate_by_variable(raw_family(ideal, weights), T_NAME)
            assert family.elements == expected.generators, str(ideal)

    def test_unit_ideal(self):
        tc = build_test_configuration(UNIT, (1,))
        assert [str(g) for g in tc.family] == ["1"]
        assert tc.family.elements == saturate_by_variable(raw_family(UNIT, (1,)), T_NAME).generators

    def test_zero_ideal(self):
        tc = build_test_configuration(IdealPresentation(("x", "y"), ()), (1, 2))
        assert tc.ring == ("x", "y", T_NAME)
        assert tc.family.elements == ()


class TestFlatnessAgainstQuotient:
    def test_criterion_1_families(self):
        for ideal, weights in CASES:
            tc = build_test_configuration(ideal, weights)
            assert flatness_witness(tc) is True
            assert quotient_is_flat(IdealPresentation(tc.ring, tc.family.elements))
            raw = raw_family(ideal, weights)
            assert revlex_flatness(family_config(raw, weights)) == quotient_is_flat(raw), str(ideal)

    def test_benchmark_template_families(self):
        rejected = 0
        for ideal, weights in TEMPLATES:
            tc = build_test_configuration(ideal, weights)
            assert flatness_witness(tc) is True
            raw = raw_family(ideal, weights)
            verdict = revlex_flatness(family_config(raw, weights))
            assert verdict == quotient_is_flat(raw), str(ideal)
            rejected += not verdict
        assert rejected == 9

    def test_hidden_initial_element_is_rejected(self):
        # <y - x^2, y^2> at weights (1, 1): x^4 lies in (J : t^2) but not in J
        ring = ("x", "y", T_NAME)
        raw = IdealPresentation(ring, tuple(parse_polynomial(s, ring) for s in ("y - x^2*t", "y^2")))
        tc = family_config(raw, (1, 1))
        assert not quotient_is_flat(raw)
        assert not revlex_flatness(tc)

    def test_generators_that_are_no_basis(self):
        # the unit ideal, hence flat; homogenizing these generators as given
        # (not a Groebner basis) would leave t-torsion that J^h does not have,
        # which is why a family must be its reduced basis
        ring = ("x", "y", T_NAME)
        raw = IdealPresentation(ring, tuple(parse_polynomial(s, ring) for s in
                                            ("2*y", "x*t^2 - x*y*t^2", "2*y^2 + 1")))
        assert quotient_is_flat(raw)
        assert revlex_flatness(family_config(raw, (1, 1)))

    def test_empty_family_is_flat(self):
        empty = IdealPresentation(("x", T_NAME), ())
        assert revlex_flatness(family_config(empty, (1,)))

    def test_basis_for_another_order_is_refused(self):
        ring = ("x", "y", T_NAME)
        raw = IdealPresentation(ring, (parse_polynomial("y - x^2*t", ring),))
        weighted = TermOrder(3, weights=(ExactScalar.of(1), ExactScalar.of(3), ExactScalar.of(1)))
        wd = WeightData((ExactScalar.of(1), ExactScalar.of(1)), t_weight=Fraction(1))
        tc = degeneration.TestConfiguration.of_family(reduced_basis(raw, weighted), wd)
        with pytest.raises(ValueError, match="grevlex"):
            revlex_flatness(tc)


class TestFlatnessAgainstRevlexBasis:
    """revlex_flatness reads the leads of a minimal revlex basis, which are
    the leads of the reduced one: the verdict and the leads must agree with
    the full reduced basis on every family, flat or not."""

    @staticmethod
    def verdicts(tc):
        basis = revlex_basis(tc.family)
        oracle = [g.leading_monomial(basis.order) for g in basis]
        ring, rows = groebner._revlex_rows(tc.ring, tc.family.rows(), T_NAME)
        leads = groebner.minimal_leads(rows, TermOrder(len(ring)))
        assert sorted(leads) == sorted(oracle)
        return revlex_flatness(tc), not any(m[-1] for m in oracle)

    def test_criterion_1_families(self):
        for ideal, weights in CASES:
            tc = build_test_configuration(ideal, weights)
            assert self.verdicts(tc) == (True, True)
            witness, oracle = self.verdicts(family_config(raw_family(ideal, weights), weights))
            assert witness == oracle, str(ideal)

    def test_benchmark_template_families(self):
        rejected = 0
        for ideal, weights in TEMPLATES:
            assert self.verdicts(build_test_configuration(ideal, weights)) == (True, True)
            witness, oracle = self.verdicts(family_config(raw_family(ideal, weights), weights))
            assert witness == oracle, str(ideal)
            rejected += not witness
        assert rejected == 9

    def test_hand_built_non_flat_family(self):
        # the family of tests/test_degeneration.py's test_unsaturated_family_fails
        raw = IdealPresentation(("x", T_NAME), (parse_polynomial("t*x", ("x", T_NAME)),))
        assert self.verdicts(family_config(raw, (1,))) == (False, False)


def irrational_cases(count: int, seed: int):
    """Seeded (ideal, xi) from the kept benchmark draws: xi_i = w_i + q_i*sqrt(d),
    d in {2, 3} per case and q_i in {0, +-1/4, +-1/2, 3/5, -1/3, 1}."""
    rng = random.Random(seed)
    qs = [Fraction(q) for q in ("0", "1/4", "-1/4", "1/2", "-1/2", "3/5", "-1/3", "1")]
    cases = []
    for ideal, weights in template_cases(count, seed):
        d = rng.choice((2, 3))
        cases.append((ideal, tuple(ExactScalar.of(w) + ExactScalar.root(d, rng.choice(qs)) for w in weights)))
    return cases


ORACLE_BUDGET = 2000   # S-pairs for the family basis and the oracle's revlex basis


class TestCertificateAgainstRevlexRoute:
    """flatness_witness, the certificate on the flats, against revlex_flatness,
    the revlex route on the family basis it replaced."""

    def test_criterion_1_families(self):
        for ideal, weights in CASES:
            tc = build_test_configuration(ideal, weights)
            assert flatness_witness(tc) is True
            assert revlex_flatness(tc), str(ideal)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_template_draw(self, seed):
        # all 120 draws, the four the benchmark skips included
        cases = with_coefficients(template_draws(), random.Random(seed))
        for index, (ideal, weights) in enumerate(cases):
            tc = build_test_configuration(ideal, weights)
            assert flatness_witness(tc) is True
            assert revlex_flatness(tc), (index, str(ideal))

    @pytest.mark.parametrize("seed, heavy", [(1, [2]), (2, [2, 4]), (3, [])])
    def test_irrational_families(self, seed, heavy):
        # stable_initial_ideal certifies its family without building it.  The
        # oracle needs the family basis, which the search's large w make heavy
        # in `heavy` (along (60, 105, 5, 161) and (105, 126, 160) at seed 2),
        # so it runs under a budget no other case comes near (150 S-pairs suffice)
        over = []
        for index, (ideal, xi) in enumerate(irrational_cases(24, seed)):
            tc = stable_initial_ideal(ideal, xi)
            assert flatness_witness(tc) is True
            budgeted = _family(ideal.ring, tc.flats, tc.w, ORACLE_BUDGET)
            try:
                assert revlex_flatness(budgeted, ORACLE_BUDGET), (str(ideal), xi)
            except BudgetExceededError:
                over.append(index)
                continue
            assert degeneration.central_fiber(budgeted) == weighted_initial_ideal(ideal, WeightData(xi))
        assert over == heavy

    def test_generators_that_are_no_standard_basis(self):
        # the raw generators in place of the flats: the certificate may only
        # pass a flat family, and must refuse each family the oracle finds not flat
        refused = 0
        for ideal, weights in CASES + TEMPLATES:
            rows = [_integral(g.terms)[0] for g in ideal.generators]
            tc = _family(ideal.ring, rows, weights, None)
            oracle = revlex_flatness(tc)
            assert oracle == quotient_is_flat(raw_family(ideal, weights)), str(ideal)
            try:
                flatness_witness(tc)
            except CertificateError:
                refused += 1
            else:
                assert oracle, str(ideal)
        assert refused >= 9

    def test_hidden_initial_element_is_refused(self):
        # <y - x^2, y^2> at weights (1, 1): its S-pair leaves x^2*y*t
        source = IdealPresentation(("x", "y"), tuple(parse_polynomial(s, ("x", "y")) for s in ("y - x^2", "y^2")))
        tc = _family(source.ring, [_integral(g.terms)[0] for g in source.generators], (1, 1), None)
        assert not revlex_flatness(tc)
        with pytest.raises(CertificateError, match=r"along \(1, 1\) fail Buchberger's criterion"):
            flatness_witness(tc)

    def test_hand_built_family_is_refused(self):
        raw = IdealPresentation(("x", T_NAME), (parse_polynomial("t*x", ("x", T_NAME)),))
        with pytest.raises(ValueError, match="built from its flats"):
            flatness_witness(family_config(raw, (1,)))


class TestBudgets:
    def test_flatness_budget(self):
        # the certificate of HARD's ten flats reduces 17 S-pairs, all to zero
        tc = build_test_configuration(HARD, (1, 2, 3))
        assert flatness_witness(tc, max_steps=17)
        with pytest.raises(BudgetExceededError) as info:
            flatness_witness(tc, max_steps=16)
        assert str(info.value) == ("S-pair budget of 16 exceeded: 16 pairs reduced, "
                                   "28 dropped by the criteria, active basis of 10")

    def test_oracle_budget(self):
        tc = build_test_configuration(HARD, (1, 2, 3))
        assert revlex_flatness(tc)
        with pytest.raises(BudgetExceededError):
            revlex_flatness(tc, max_steps=1)

    def test_saturation_budget(self):
        raw = raw_family(HARD, (1, 2, 3))
        with pytest.raises(BudgetExceededError):
            saturate_by_variable(raw, T_NAME, max_steps=1)

    @staticmethod
    def spy_on_buchberger(monkeypatch):
        """The (term order, budget) of every Buchberger run, in order.  Every
        basis, the leads-only run of flatness_witness's certificate included, is
        one `_minimal_basis` call per width tried on the same rows; the reruns
        at double width count once."""
        seen, inputs = [], []
        inner = groebner._minimal_basis

        def spy(rows, packing, max_steps):
            if not inputs or inputs[-1] is not rows:
                inputs.append(rows)
                seen.append((packing.order, max_steps))
            return inner(rows, packing, max_steps)

        monkeypatch.setattr(groebner, "_minimal_basis", spy)
        return seen

    def test_budget_reaches_every_basis(self, monkeypatch):
        seen = self.spy_on_buchberger(monkeypatch)
        budget = 10**6
        # grevlex in (x, y, z) and in (x, y, z, t); the refined order on
        # (x, y, z, _h) weighs c - w_i and c, c = max floor(w_i) + 1, and the
        # certificate's order on (x, y, z, _h, t) weighs 2(c - w_i), 2c and 1
        base, family = (TermOrder(3), budget), (TermOrder(4), budget)

        def refined(*weights):
            return TermOrder(4, weights=weights), budget

        def certificate(*weights):
            return TermOrder(5, weights=weights), budget
        tc = build_test_configuration(HARD, (1, 2, 3), max_steps=budget)
        assert seen == [base, refined(3, 2, 1, 4)]
        seen.clear()
        assert flatness_witness(tc, max_steps=budget)
        assert seen == [certificate(6, 4, 2, 8, 1)]
        seen.clear()
        # the family is built on first read, once, under the budget it was built with
        tc.family
        tc.family
        assert seen == [family]
        seen.clear()
        weighted_initial_ideal(HARD, WeightData((ExactScalar.of(1), ExactScalar.of(2), ExactScalar.root(3, 2))),
                               max_steps=budget)
        assert seen == [base, refined(3, 2, 4 - ExactScalar.root(3, 2), 4), base]
        seen.clear()
        # base, refined and the certificate along the w found; no family
        tc = stable_initial_ideal(HARD, (ExactScalar.root(2, 2), ExactScalar.of(1), ExactScalar.of(3)),
                                  max_steps=budget)
        c = max(tc.w) + 1
        assert seen == [base, refined(4 - ExactScalar.root(2, 2), 3, 1, 4),
                        certificate(*(2 * (c - w) for w in tc.w), 2 * c, 1)]

    @pytest.mark.parametrize("steps", [-1, -5])
    def test_negative_budget_is_rejected(self, steps):
        # the degeneration stages call the kernel directly, not reduced_basis
        tc = build_test_configuration(HARD, (1, 2, 3))
        xi = (ExactScalar.root(2, 2), ExactScalar.of(1), ExactScalar.of(3))
        for run in (lambda: build_test_configuration(HARD, (1, 2, 3), max_steps=steps),
                    lambda: flatness_witness(tc, max_steps=steps),
                    lambda: weighted_initial_ideal(HARD, WeightData(xi), max_steps=steps),
                    lambda: stable_initial_ideal(HARD, xi, max_steps=steps)):
            with pytest.raises(ValueError, match="max_steps must be at least 0"):
                run()

    def test_unit_and_zero_ideals_skip_the_refined_basis(self, monkeypatch):
        seen = self.spy_on_buchberger(monkeypatch)
        build_test_configuration(UNIT, (1,), max_steps=5).family
        assert seen == [(TermOrder(1), 5), (TermOrder(2), 5)]
        seen.clear()
        # the zero ideal's base and family bases are runs on no rows
        build_test_configuration(IdealPresentation(("x",), ()), (1,), max_steps=5).family
        assert seen == [(TermOrder(1), 5), (TermOrder(2), 5)]
