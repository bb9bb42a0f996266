"""Bracket tables, homogeneity weights, scale-up conditions, decompositions,
the Fraction bodies as oracles of the integer rows, and a sympy oracle for
brackets and Jacobi defects."""

import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest

from conify import poisson
from conify.errors import ArityError, CertificateError
from conify.exactnum import ExactScalar
from conify.groebner import IdealPresentation, normal_form, reduced_basis
from conify.poisson import (
    _monoid_solutions,
    DecompositionBounds,
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
from conify.polyring import Polynomial, WeightData, parse_polynomial, term_weight

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


class TestBracketRing:
    def test_arguments_from_another_ring_raise(self):
        table = PoissonTable(XYZ, {(0, 1): P("z")})
        a, x = Polynomial.variable(("a", "b", "c"), "a"), P("x")
        for f, g in ((a, x), (x, a), (a, a)):
            with pytest.raises(ArityError, match="bracket argument"):
                table.bracket(f, g)

    def test_zero_entries_are_dropped(self):
        table = PoissonTable(XYZ, {(0, 1): P("x - x"), (1, 2): P("z")})
        assert table.table == {(1, 2): P("z")}
        assert table.bracket(P("y"), P("z")) == P("z")
        assert table.bracket(P("x"), P("y")).is_zero()


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
        assert table.basis is table.basis
        assert table.basis == reduced_basis(quadric)
        assert table == PoissonTable(XYZ, table.table, ideal=quadric)
        assert PoissonTable(XYZ, {}).basis is None
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
        assert report["all_pass"]

    def test_missing_t_weight_fails_condition_one(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, form_weight=Fraction(2))
        report = check_scaleup(table, wd)
        assert not report["base_weight_negative"]
        assert report["bracket_weight_matches"] and report["section_condition"]

    def test_expected_weight_is_minus_the_form_weight(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, t_weight=Fraction(1), form_weight=Fraction(2))
        report = check_scaleup(table, wd)
        assert report["bracket_weight_matches"]
        assert report["expected_bracket_weight"] == "-2"
        assert report["bracket_weight"] == report["expected_bracket_weight"]

    def test_wrong_form_weight_fails_condition_two(self):
        table, _ = quadric_table()
        wd = WeightData((ExactScalar.of(2),) * 3, t_weight=Fraction(1),
                        form_weight=Fraction(4))
        report = check_scaleup(table, wd)
        assert not report["bracket_weight_matches"]
        assert not report["all_pass"]


def enumerated_generators(wd: WeightData, cap: int) -> list[tuple[int, ...]]:
    """The body invariant_generators had before Lambert's bound: every b <= cap."""
    wvec, w = wd.integer_weights(), int(wd.t_weight)
    solutions = _monoid_solutions(wvec, w, cap)
    sol_set = set(solutions)
    gens = []
    for sol in sorted(solutions, key=lambda s: (sum(s), s)):
        rests = (tuple(x - y for x, y in zip(sol, g)) for g in gens)
        if not any(min(r) >= 0 and any(r) and r in sol_set for r in rests):
            gens.append(sol)
    for i, wi in enumerate(wvec):
        prescribed = tuple(w if j == i else 0 for j in range(len(wvec))) + (wi,)
        if prescribed not in gens:
            gens.append(prescribed)
    return sorted(gens, key=lambda s: (sum(s), s))


class TestInvariantGenerators:
    def test_large_cap_is_fast_and_complete(self):
        wd = WeightData((Fraction(1),) * 4, t_weight=Fraction(5))
        start = time.perf_counter()
        gens = invariant_generators(wd, 24)
        assert time.perf_counter() - start < 1.0
        assert len(gens) == 56
        assert gens == invariant_generators(wd, 2) == enumerated_generators(wd, 2)

    def test_enumeration_oracle_on_seeded_cases(self):
        rng = random.Random(1987)
        for _ in range(40):
            wvec = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            w = rng.randint(1, 4)
            wd = WeightData(tuple(map(Fraction, wvec)), t_weight=Fraction(w))
            cap = rng.randint(1, max(wvec) + 4)
            assert invariant_generators(wd, cap) == enumerated_generators(wd, cap), (wvec, w, cap)

    def test_generator_at_the_bound(self):
        # x*y*t^3 is minimal and not prescribed, with b = 3 = max w_i
        wd = WeightData((Fraction(3), Fraction(3)), t_weight=Fraction(2))
        assert invariant_generators(wd, 10) == [(0, 2, 3), (1, 1, 3), (2, 0, 3)]

    def test_two_unit_weights(self):
        wd = WeightData((Fraction(1), Fraction(1)), t_weight=Fraction(1))
        assert invariant_generators(wd, 3) == [(0, 1, 1), (1, 0, 1)]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_raises(self, cap):
        wd = WeightData((Fraction(1), Fraction(2)), t_weight=Fraction(3))
        with pytest.raises(ValueError, match="cap must be at least 1"):
            invariant_generators(wd, cap)

    def test_prescribed_invariants_exceed_the_cap(self):
        # x_2^3 t^2 has t-degree 2 > cap but is always included
        wd = WeightData((Fraction(1), Fraction(2)), t_weight=Fraction(3))
        assert invariant_generators(wd, 1) == [(1, 1, 1), (3, 0, 1), (0, 3, 2)]

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

    @staticmethod
    def fraction_bounds(wvec, w, m):
        """The Fraction/ceil body decomposition_bounds had before it ran on integers."""
        c = tuple(int(ceil(max(Fraction(w), Fraction(w) + Fraction(m, wi)))) for wi in wvec)
        d_val = max([Fraction(sum(wvec)) - Fraction(m, w)] + [Fraction(wi) for wi in wvec])
        return DecompositionBounds(c, int(ceil(d_val)), w, m)

    def test_bounds_match_the_fraction_formula(self):
        rng = random.Random(34)
        cases = [((), 3, -7), ((), 2, 4), ((2, 3), 5, -4), ((3, 4), 7, -56), ((2, 3), 5, 20)]
        for _ in range(3000):
            wvec = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
            cases.append((wvec, rng.randint(1, 9), rng.randint(-60, 60)))
        for wvec, w, m in cases:
            assert decomposition_bounds(wvec, w, m) == self.fraction_bounds(wvec, w, m), (wvec, w, m)

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

    @pytest.mark.parametrize("mono", [(0, 0, -2), (-1, 3, 1)])
    def test_negative_exponent_raises(self, mono):
        wd = WeightData((Fraction(1), Fraction(1)), t_weight=Fraction(1))
        with pytest.raises(ValueError, match="nonnegative"):
            decompose_semiinvariant(mono, wd)

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

    @pytest.mark.parametrize("broken, message", [({"D": 0}, "bound D guarantees a large exponent"),
                                                 ({"C": (0, 0)}, "claim bounds violated")],
                             ids=["zero-D", "zero-C"])
    def test_broken_bound_is_a_certificate_error(self, monkeypatch, broken, message):
        # x y t^9 over weights (3, 4), w = 7 has C = (7, 7) and D = 15.  D = 0 leaves
        # b >= D with no a_i >= w; C = (0, 0) splits x^7 off a_1 = 1.  The same call
        # runs once more under python -O, which strips assert statements.
        real = poisson.decomposition_bounds
        monkeypatch.setattr(poisson, "decomposition_bounds", lambda *args: replace(real(*args), **broken))
        with pytest.raises(CertificateError) as info:
            decompose_semiinvariant((1, 1, 9), WeightData((3, 4), t_weight=7))
        assert str(info.value) == message
        script = ("from dataclasses import replace\n"
                  "from conify import poisson\n"
                  "from conify.errors import CertificateError\n"
                  "real = poisson.decomposition_bounds\n"
                  f"poisson.decomposition_bounds = lambda *args: replace(real(*args), **{broken!r})\n"
                  "try:\n"
                  "    poisson.decompose_semiinvariant((1, 1, 9), poisson.WeightData((3, 4), t_weight=7))\n"
                  "except CertificateError as exc:\n"
                  "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(poisson.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, message + "\n", "")


# -- differential test against sympy ---------------------------------------------------
# sympy recomputes {f, g} = sum over all i, j of P_ij d_i f d_j g, with P_ji = -P_ij
# filled in from the stored table, and the Jacobi cyclic sum of every coordinate
# triple, reduced by sympy's own grevlex basis of the quotient ideal.  The tables
# have the shapes of the poisson-check documents of the cli-mix benchmark:
# Jacobian brackets of one f in three variables, and the two-Casimir brackets
# of f1, f2 in four.  sympy is a test-only dependency.

XYZW = ("x", "y", "z", "w")


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _random_poly(rng, ring, terms, max_exponent) -> Polynomial:
    return Polynomial(ring, {tuple(rng.randint(0, max_exponent) for _ in ring): _coefficient(rng)
                             for _ in range(terms)})


def _jacobian_table(seed, quotient=False) -> PoissonTable:
    f = _random_poly(random.Random(seed), XYZ, 4, 3)
    d = [f.derivative(k) for k in range(3)]
    ideal = IdealPresentation(XYZ, (f,)) if quotient else None
    return PoissonTable(XYZ, {(0, 1): d[2], (0, 2): -d[1], (1, 2): d[0]}, ideal=ideal)


def _casimir_table(seed, quotient=False) -> PoissonTable:
    # f1 lives in two variables and f2 in the other two, each with a pure power
    # of both and one mixed term; {x_i, x_j} = sum over k, l of eps_ijkl d_k f1 d_l f2
    rng = random.Random(seed)
    order = rng.sample(range(4), 4)
    polys = []
    for a, b in (order[:2], order[2:]):
        terms = {}
        for k, e in ((a, rng.randint(2, 3)), (b, rng.randint(2, 3)), (None, 0)):
            m = [0] * 4
            if k is None:
                m[a], m[b] = rng.randint(1, 2), 1
            else:
                m[k] = e
            terms[tuple(m)] = _coefficient(rng)
        polys.append(Polynomial(XYZW, terms))
    f1, f2 = polys
    table = {}
    for i, j in combinations(range(4), 2):
        k, l = (x for x in range(4) if x not in (i, j))
        sign = -1 if sum(p > q for p, q in combinations((i, j, k, l), 2)) % 2 else 1
        entry = f1.derivative(k) * f2.derivative(l) - f1.derivative(l) * f2.derivative(k)
        table[(i, j)] = entry.scale(sign)
    ideal = IdealPresentation(XYZW, (f1, f2)) if quotient else None
    return PoissonTable(XYZW, table, ideal=ideal)


def _broken_table(quotient=False) -> PoissonTable:
    # no Jacobi identity on the ring nor modulo the quadric, which rewrites x*y
    ideal = IdealPresentation(XYZ, (P("x*y - z^2"),)) if quotient else None
    return PoissonTable(XYZ, {(0, 1): P("1/2*z + x*y"), (1, 2): P("x*z + 2/3*y^2"),
                              (0, 2): P("y")}, ideal=ideal)


def _to_sympy(sympy, p: Polynomial, gens):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(g**e for g, e in zip(gens, m)))
                       for m, c in p.terms.items()))


def _sympy_matrix(sympy, table: PoissonTable, gens):
    n = len(gens)
    matrix = sympy.zeros(n, n)
    for (i, j), p in table.table.items():
        matrix[i, j] = _to_sympy(sympy, p, gens)
        matrix[j, i] = -matrix[i, j]
    return matrix


def _same(sympy, conify_poly: Polynomial, expr, gens) -> bool:
    return sympy.expand(_to_sympy(sympy, conify_poly, gens) - expr) == 0


ORACLE_TABLES = (
    [("jacobian", seed, seed % 3 == 0) for seed in range(6)]
    + [("casimir", seed, seed % 2 == 0) for seed in range(4)]
    + [("broken", 0, False), ("broken", 0, True)]
)


def _oracle_table(kind, seed, quotient) -> PoissonTable:
    if kind == "broken":
        return _broken_table(quotient)
    return (_jacobian_table if kind == "jacobian" else _casimir_table)(seed, quotient)


@pytest.mark.parametrize("kind, seed, quotient", ORACLE_TABLES)
def test_bracket_matches_sympy(sympy, kind, seed, quotient):
    table = _oracle_table(kind, seed, quotient)
    gens = sympy.symbols(table.ring)
    matrix = _sympy_matrix(sympy, table, gens)
    rng = random.Random(100 + seed)
    for _ in range(3):
        f, g = (_random_poly(rng, table.ring, 3, 2) for _ in range(2))
        sf, sg = _to_sympy(sympy, f, gens), _to_sympy(sympy, g, gens)
        expected = sum(matrix[i, j] * sympy.diff(sf, gens[i]) * sympy.diff(sg, gens[j])
                       for i in range(len(gens)) for j in range(len(gens)))
        assert _same(sympy, table.bracket(f, g), expected, gens)


@pytest.mark.parametrize("kind, seed, quotient", ORACLE_TABLES)
def test_jacobi_defect_matches_sympy(sympy, kind, seed, quotient):
    table = _oracle_table(kind, seed, quotient)
    gens = sympy.symbols(table.ring)
    matrix = _sympy_matrix(sympy, table, gens)
    basis = None
    if table.ideal is not None:
        basis = sympy.groebner([_to_sympy(sympy, g, gens) for g in table.ideal.generators],
                               *gens, order="grevlex", domain="QQ")

    def coordinate_bracket(i, h):
        return sum(matrix[i, b] * sympy.diff(h, gens[b]) for b in range(len(gens)))

    defects = jacobi_defect(table)
    assert sorted(defects) == list(combinations(range(len(gens)), 3))
    for i, j, k in defects:
        total = sympy.expand(coordinate_bracket(i, matrix[j, k]) + coordinate_bracket(j, matrix[k, i])
                             + coordinate_bracket(k, matrix[i, j]))
        if basis is not None:
            total = basis.reduce(total)[1]
        assert _same(sympy, defects[(i, j, k)], total, gens), (i, j, k)
    assert jacobi_holds(table) is (kind != "broken")


@pytest.mark.parametrize("kind, seed, quotient", [case for case in ORACLE_TABLES if case[2]])
def test_preserves_ideal_matches_sympy(sympy, kind, seed, quotient):
    # {z_i, g} reduces to 0 under sympy's grevlex basis exactly when conify reduces it to 0
    table = _oracle_table(kind, seed, quotient)
    gens = sympy.symbols(table.ring)
    matrix = _sympy_matrix(sympy, table, gens)
    generators = table.ideal.generators
    basis = sympy.groebner([_to_sympy(sympy, g, gens) for g in generators],
                           *gens, order="grevlex", domain="QQ")
    ours = reduced_basis(table.ideal)
    verdicts = []
    for i, z in enumerate(Polynomial.variable(table.ring, name) for name in table.ring):
        for g in generators:
            sg = _to_sympy(sympy, g, gens)
            expected = sympy.expand(sum(matrix[i, b] * sympy.diff(sg, gens[b])
                                        for b in range(len(gens))))
            verdict = basis.reduce(expected)[1] == 0
            assert normal_form(table.bracket(z, g), ours).is_zero() is verdict, (i, g)
            verdicts.append(verdict)
    assert preserves_ideal(table, table.ideal) is all(verdicts)


# -- differential test against the Fraction bodies --------------------------------------
# The bodies bracket, jacobi_defect and preserves_ideal had before the integer
# rows: every bracket is a Fraction Polynomial summed over the stored i < j, and
# each check reduces it with normal_form.  They need no sympy.

def fraction_bracket(table: PoissonTable, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum over i < j of p_ij (d_i f d_j g - d_j f d_i g)."""
    df = [f.derivative(k).terms for k in range(len(table.ring))]
    dg = [g.derivative(k).terms for k in range(len(table.ring))]
    out = {}
    for (i, j), p in table.table.items():
        for a, b, sign in ((df[i], dg[j], 1), (df[j], dg[i], -1)):
            for m1, c1 in p.terms.items():
                for m2, c2 in a.items():
                    for m3, c3 in b.items():
                        m = tuple(x + y + z for x, y, z in zip(m1, m2, m3))
                        out[m] = out.get(m, 0) + sign * c1 * c2 * c3
    return Polynomial(table.ring, out)


def fraction_jacobi_defect(table: PoissonTable) -> dict:
    ring = table.ring
    basis = table.basis
    coords = [Polynomial.variable(ring, name) for name in ring]
    zero = Polynomial.zero(ring)
    out = {}
    for i, j, k in combinations(range(len(ring)), 3):
        pij, pik, pjk = (table.table.get(key, zero) for key in ((i, j), (i, k), (j, k)))
        # {z_j, {z_k, z_i}} = -{z_j, p_ik} by antisymmetry
        total = (fraction_bracket(table, coords[i], pjk) - fraction_bracket(table, coords[j], pik)
                 + fraction_bracket(table, coords[k], pij))
        out[(i, j, k)] = total if basis is None else normal_form(total, basis)
    return out


def fraction_preserves_ideal(table: PoissonTable, ideal: IdealPresentation) -> bool:
    if not ideal.generators:
        return True
    basis = reduced_basis(ideal)
    return all(normal_form(fraction_bracket(table, Polynomial.variable(table.ring, z), g), basis).is_zero()
               for z in table.ring for g in ideal.generators)


def _denominators_table(quotient: bool) -> PoissonTable:
    # denominators 2, 3 and 7, so D = 42 is no single entry's; no Jacobi identity.
    # The quotient's integer reducer 13*x*y - 5*z^2 has lc 13, prime to D, so
    # its reductions scale the remainder.
    ideal = IdealPresentation(XYZ, (P("x*y - 5/13*z^2"),)) if quotient else None
    return PoissonTable(XYZ, {(0, 1): P("1/2*z + x^2"), (0, 2): P("2/3*y^2 - x"),
                              (1, 2): P("3/7*x*z + y")}, ideal=ideal)


def _vanishing_entry_table() -> PoissonTable:
    # {x, y} = x*y - z^2 reduces to 0 modulo the quadric and is dropped
    quadric = IdealPresentation(XYZ, (P("x*y - z^2"),))
    return PoissonTable(XYZ, {(0, 1): P("x*y - z^2"), (0, 2): P("1/5*x"), (1, 2): P("-1/5*y")},
                        ideal=quadric)


EXTRA_TABLES = {
    "empty": lambda: PoissonTable(XYZ, {}),
    "empty with quotient": lambda: PoissonTable(XYZ, {}, ideal=IdealPresentation(XYZ, (P("x*y - z^2"),))),
    "two variables": lambda: PoissonTable(UV, {(0, 1): parse_polynomial("1/3*u^2 - 5/2*v", UV)}),
    "denominators 2, 3, 7": lambda: _denominators_table(False),
    "denominators 2, 3, 7 with quotient": lambda: _denominators_table(True),
    "entry vanishing modulo the ideal": _vanishing_entry_table,
}
DIFFERENTIAL_TABLES = [pytest.param(lambda case=case: _oracle_table(*case), id="-".join(map(str, case)))
                       for case in ORACLE_TABLES]
DIFFERENTIAL_TABLES += [pytest.param(build, id=name) for name, build in EXTRA_TABLES.items()]


def _other_ideals(table: PoissonTable) -> list[IdealPresentation]:
    """Ideals other than the table's own: single variables, a quadric with a
    fractional coefficient, the ideal of the table's entries, the unit ideal."""
    ring = table.ring
    ideals = [IdealPresentation(ring, (Polynomial.variable(ring, name),)) for name in ring]
    first, last = ring[0], ring[-1]
    ideals.append(IdealPresentation(ring, (parse_polynomial(f"{first}^2 - 3/2*{last}^3", ring),)))
    ideals.append(IdealPresentation(ring, tuple(table.table.values())))
    ideals.append(IdealPresentation(ring, (Polynomial.constant(ring, 7),)))
    return ideals


@pytest.mark.parametrize("build", DIFFERENTIAL_TABLES)
class TestFractionOracle:
    def test_bracket(self, build):
        table = build()
        rng = random.Random(len(table.table) + 17 * len(table.ring))
        zero, one = Polynomial.zero(table.ring), Polynomial.constant(table.ring, 1)
        pairs = [(zero, one), (one, zero)] + [(_random_poly(rng, table.ring, 3, 2), _random_poly(rng, table.ring, 3, 2))
                                              for _ in range(4)]
        pairs += [(Polynomial.variable(table.ring, a), Polynomial.variable(table.ring, b))
                  for a in table.ring for b in table.ring]
        for f, g in pairs:
            assert table.bracket(f, g) == fraction_bracket(table, f, g), (f, g)

    def test_jacobi_defect(self, build):
        table = build()
        defects = jacobi_defect(table)
        assert defects == fraction_jacobi_defect(table)
        assert sorted(defects) == list(combinations(range(len(table.ring)), 3))
        assert jacobi_holds(table) is all(p.is_zero() for p in defects.values())

    def test_preserves_ideal(self, build):
        table = build()
        ideals = _other_ideals(table) + ([table.ideal] if table.ideal is not None else [])
        verdicts = [preserves_ideal(table, ideal) for ideal in ideals]
        assert verdicts == [fraction_preserves_ideal(table, ideal) for ideal in ideals]


def test_differential_cases_reach_both_verdicts():
    # the oracle comparisons above see failing and passing checks and a
    # denominator of 42
    broken = _denominators_table(True)
    assert broken.rows[0] == 42
    assert not jacobi_holds(broken) and not jacobi_holds(_denominators_table(False))
    assert not preserves_ideal(broken, broken.ideal)
    vanishing = _vanishing_entry_table()
    assert (0, 1) not in vanishing.table and jacobi_holds(vanishing)
    assert preserves_ideal(*quadric_table())


def test_rows_store_both_signs_over_one_denominator():
    table = _denominators_table(False)
    d, rows = table.rows
    assert d == 42 and table.rows is table.rows
    for (i, j), p in table.table.items():
        assert rows[i][j] == {m: int(c * d) for m, c in p.terms.items()}
        assert rows[j][i] == {m: -c for m, c in rows[i][j].items()}
    assert all(i not in row for i, row in enumerate(rows))
    assert PoissonTable(XYZ, {}).rows == (1, [{}, {}, {}])


def test_passing_checks_make_no_fraction(monkeypatch):
    from conify import groebner, poisson

    tables = [_jacobian_table(0, True), _casimir_table(0, True), quadric_table()[0]]

    def no_fraction(*args):
        raise AssertionError("a passing check made a Fraction")
    # poisson names no Fraction: its checks leave the kernel through groebner._reduced
    assert not hasattr(poisson, "Fraction")
    monkeypatch.setattr(groebner, "Fraction", no_fraction)
    for table in tables:
        assert jacobi_holds(table) and preserves_ideal(table, table.ideal)
