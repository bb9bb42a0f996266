"""Bracket tables, homogeneity weights, scale-up conditions, decompositions."""

import random
from fractions import Fraction

from conify.exactnum import ExactScalar
from conify.groebner import IdealPresentation, reduced_basis
from conify.poisson import (
    FormTable,
    PoissonTable,
    bracket_weight,
    check_scaleup,
    decompose_semiinvariant,
    decomposition_bounds,
    form_weight,
    invariant_generators,
    jacobi_defect,
    jacobi_holds,
    preserves_ideal,
)
from conify.polyring import WeightData, parse_polynomial, term_weight

XYZ = ("x", "y", "z")
UV = ("u", "v")


def P(text, ring=XYZ):
    return parse_polynomial(text, ring)


def quadric_table():
    quadric = IdealPresentation(XYZ, (P("x*y - z^2"),))
    return PoissonTable(XYZ, {(0, 1): P("4*z"), (0, 2): P("2*x"), (1, 2): P("-2*y")},
                        ideal=quadric), quadric


def cusp_table():
    cusp = IdealPresentation(XYZ, (P("x*y - z^3"),))
    return PoissonTable(XYZ, {(0, 1): P("9*z^2"), (0, 2): P("3*x"), (1, 2): P("-3*y")},
                        ideal=cusp), cusp


class TestJacobi:
    def test_quadric_bracket_closes(self):
        table, _ = quadric_table()
        assert jacobi_holds(table)

    def test_two_variables_vacuous(self):
        table = PoissonTable(UV, {(0, 1): parse_polynomial("1", UV)})
        assert jacobi_defect(table) == {}
        assert jacobi_holds(table)

    def test_broken_table_has_defect(self):
        # {x,y} = z, {y,z} = x, {z,x} = x: cyclic sum collapses to -z
        table = PoissonTable(XYZ, {(0, 1): P("z"), (1, 2): P("x"), (0, 2): P("-x")})
        defects = jacobi_defect(table)
        assert str(defects[(0, 1, 2)]) == "-z"


class TestPreservesIdeal:
    def test_quadric(self):
        table, quadric = quadric_table()
        assert preserves_ideal(table, quadric)

    def test_cusp(self):
        table, cusp = cusp_table()
        assert jacobi_holds(table)
        assert preserves_ideal(table, cusp)

    def test_zero_table(self):
        table = PoissonTable(XYZ, {})
        assert preserves_ideal(table, IdealPresentation(XYZ, (P("x*y - z^2"),)))

    def test_quotient_basis_is_computed_once(self):
        table, quadric = quadric_table()
        assert table.quotient_basis() is table.quotient_basis()
        assert table.quotient_basis() == reduced_basis(quadric)
        assert table == PoissonTable(XYZ, table.table, ideal=quadric)
        assert PoissonTable(XYZ, {}).quotient_basis() is None
        # an ideal other than the table's own gets its own basis
        assert not preserves_ideal(table, IdealPresentation(XYZ, (P("x*y - z^3"),)))

    def test_constant_bracket_fails_on_axis(self):
        table = PoissonTable(UV, {(0, 1): parse_polynomial("1", UV)})
        axis = IdealPresentation(UV, (parse_polynomial("u", UV),))
        assert not preserves_ideal(table, axis)


class TestBracketWeight:
    def test_quadric_is_minus_two(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3)
        assert bracket_weight(table, wd) == ExactScalar.of(-2)

    def test_cusp_is_minus_two(self):
        table, _ = cusp_table()
        wd = WeightData((ExactScalar.of(3), ExactScalar.of(3), ExactScalar.of(2)))
        assert bracket_weight(table, wd) == ExactScalar.of(-2)

    def test_flat_plane(self):
        table = PoissonTable(UV, {(0, 1): parse_polynomial("1", UV)})
        wd = WeightData((ExactScalar.of(1),) * 2)
        assert bracket_weight(table, wd) == ExactScalar.of(-2)

    def test_inconsistent_returns_none(self):
        table = PoissonTable(UV, {(0, 1): parse_polynomial("u + u^2", UV)})
        wd = WeightData((ExactScalar.of(1),) * 2)
        assert bracket_weight(table, wd) is None


class TestFormWeight:
    def test_flat_form(self):
        form = FormTable(UV, {(0, 1): parse_polynomial("1", UV)})
        assert form_weight(form, WeightData((ExactScalar.of(1),) * 2)) == ExactScalar.of(2)

    def test_mixed_weights_consistent(self):
        ring = ("z1", "z2", "z3", "z4")
        form = FormTable(ring, {(0, 2): parse_polynomial("1", ring),
                                (1, 3): parse_polynomial("1", ring)})
        wd = WeightData(tuple(ExactScalar.of(w) for w in (1, 2, 3, 2)))
        assert form_weight(form, wd) == ExactScalar.of(4)

    def test_inconsistent(self):
        ring = ("z1", "z2", "z3")
        form = FormTable(ring, {(0, 1): parse_polynomial("1", ring),
                                (0, 2): parse_polynomial("z1", ring)})
        wd = WeightData((ExactScalar.of(1),) * 3)
        assert form_weight(form, wd) is None


class TestScaleUp:
    def test_quadric_family_passes(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, t_weight=Fraction(2),
                        form_weight=Fraction(2))
        report = check_scaleup(table, wd)
        assert report.all_pass()

    def test_missing_t_weight_fails_condition_one(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, form_weight=Fraction(2))
        report = check_scaleup(table, wd)
        assert not report.base_weight_negative
        assert report.bracket_weight_matches and report.section_condition

    def test_wrong_form_weight_fails_condition_two(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, t_weight=Fraction(1),
                        form_weight=Fraction(4))
        report = check_scaleup(table, wd)
        assert not report.bracket_weight_matches
        assert not report.all_pass()


class TestInvariantGenerators:
    def test_two_unit_weights(self):
        wd = WeightData((Fraction(1), Fraction(1)), t_weight=Fraction(1))
        assert invariant_generators(wd, 3) == [(0, 1, 1), (1, 0, 1)]

    def test_single_weight_two(self):
        wd = WeightData((Fraction(2),), t_weight=Fraction(1))
        assert invariant_generators(wd, 4) == [(1, 2)]

    def test_generators_have_weight_zero_and_cover_prescribed(self):
        rng = random.Random(59)
        for _ in range(10):
            nv = rng.randint(1, 3)
            wvec = tuple(rng.randint(1, 4) for _ in range(nv))
            w = rng.randint(1, 3)
            wd = WeightData(tuple(Fraction(x) for x in wvec), t_weight=Fraction(w))
            cap = max(wvec) + w
            gens = invariant_generators(wd, cap)
            for g in gens:
                assert term_weight(g, wd) == ExactScalar.of(0)
            for i in range(nv):
                prescribed = tuple(w if j == i else 0 for j in range(nv)) + (wvec[i],)
                assert prescribed in gens


class TestDecomposition:
    def test_bounds_match_thresholds(self):
        bounds = decomposition_bounds((1, 1), 1, 1)
        assert bounds.C == (2, 2) and bounds.D == 1

    def test_simple_extraction(self):
        wd = WeightData((Fraction(1), Fraction(1)), t_weight=Fraction(1))
        prefix, factors, bounds = decompose_semiinvariant((2, 0, 1), wd)
        assert prefix == (1, 0, 0)
        assert factors == [(1, 0, 1)]
        assert bounds.C == (2, 2) and bounds.D == 1

    def test_invariant_input_fully_factors(self):
        wd = WeightData((Fraction(1),), t_weight=Fraction(1))
        prefix, factors, _ = decompose_semiinvariant((1, 1), wd)
        assert prefix == (0, 0)
        assert factors == [(1, 1)]

    def test_double_extraction(self):
        wd = WeightData((Fraction(1),), t_weight=Fraction(1))
        prefix, factors, _ = decompose_semiinvariant((3, 2), wd)
        assert prefix == (1, 0)
        assert factors == [(1, 1), (1, 1)]

    def test_round_trip_and_bounds_random(self):
        rng = random.Random(61)
        for _ in range(100):
            nv = rng.randint(1, 4)
            wvec = tuple(rng.randint(1, 5) for _ in range(nv))
            w = rng.randint(1, 5)
            wd = WeightData(tuple(Fraction(x) for x in wvec), t_weight=Fraction(w))
            mono = tuple(rng.randint(0, 20) for _ in range(nv)) + (rng.randint(0, 20),)
            prefix, factors, bounds = decompose_semiinvariant(mono, wd)
            rebuilt = list(prefix)
            for f in factors:
                rebuilt = [a + b for a, b in zip(rebuilt, f)]
            assert tuple(rebuilt) == mono
            assert all(prefix[i] < bounds.C[i] for i in range(nv))
            assert prefix[-1] < bounds.D
            for f in factors:
                assert term_weight(f, wd) == ExactScalar.of(0)
