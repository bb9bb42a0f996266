"""Rank, hulls, Dirichlet search, corner cubes, cone assembly, membership."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

from conify import diophantine
from conify.diophantine import (
    ApproximantReport,
    ConeDescription,
    ReebVector,
    _gauss_jordan,
    _reference_box,
    _within,
    affine_hull,
    approximant_cone,
    combo_sign,
    cone_contains,
    default_corner_resolution,
    default_N,
    dirichlet_approximant,
    kronecker_corner_search,
    nice_approximant,
    one_in_span,
    rational_matrix_rank,
    rational_rank,
    solve_integral,
    verify_perturbation_bound,
)
from conify.errors import ContainmentError, OutsideConeError, SearchExhaustedError
from conify.exactnum import ExactScalar

R2 = ExactScalar.root(2)
R3 = ExactScalar.root(3)


def solve_rational(columns, rhs_list):
    """solve_integral's numerators over its diagonal d, as Fractions; None as it gives."""
    solved = solve_integral(columns, rhs_list)
    return None if solved is None else [[Fraction(x, solved[1]) for x in row] for row in solved[0]]


def vec(*entries, n=None):
    return ReebVector(tuple(ExactScalar.of(e) for e in entries), n=n)


def parse_spaced(text):
    """Read a certificate string such as `1/2 - 3*sqrt(2) + sqrt(6)`."""
    coords, sign = {}, 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        head, _, rad = token.partition("sqrt(")
        k = int(rad.rstrip(")")) if rad else 1
        coeff = Fraction(head.rstrip("*") or 1) if rad else Fraction(head)
        coords[k] = coords.get(k, 0) + sign * coeff
        sign = 1
    return ExactScalar.from_coordinates(coords)


class TestComboSign:
    """Signs of scalars with several radicands, decided by prime-by-prime squaring."""

    def test_random_against_floats(self):
        rng = random.Random(47)
        for _ in range(400):
            coords = {}
            for rad in rng.sample([1, 2, 3, 5, 6, 7], rng.randint(1, 4)):
                coords[rad] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            value = sum(float(c) * math.sqrt(k) for k, c in coords.items())
            got = ExactScalar.from_coordinates(coords).sign()
            if abs(value) > 1e-6:
                assert got == (1 if value > 0 else -1)

    def test_exact_cancellation(self):
        # sqrt(2)*sqrt(3) = sqrt(6)
        assert R2 * R3 == ExactScalar.root(6)
        assert (R2 * R3 + 0).sign() == 1
        assert (R2 * R3 - 2).sign() == 1                    # 2.449... - 2 > 0
        assert (R2 * R3 - R2 - R3 + 1).sign() == 1         # (sqrt2 - 1)(sqrt3 - 1) > 0
        assert (R2 + R3 - R2 * R3 - 1).sign() == -1

    def test_product_identity_collapses(self):
        # (1 + sqrt2 + sqrt3)(1 + sqrt2 - sqrt3) = (1 + sqrt2)^2 - 3 = 2*sqrt2
        assert (1 + R2 + R3) * (1 + R2 - R3) == 2 * R2

    def test_any_number_of_radicands(self):
        # the public routine also takes zero, rational and one-radicand scalars
        assert combo_sign(ExactScalar(0)) == 0
        assert combo_sign(ExactScalar(Fraction(-1, 3))) == -1
        assert combo_sign(ExactScalar(-7, 5, 2)) == 1       # 5*sqrt(2) = 7.07...
        assert combo_sign(ExactScalar(7, -5, 2)) == -1
        assert combo_sign(R2 - R3) == -1


class TestRankAndSpan:
    def test_rational_vector(self):
        assert rational_rank(vec(2, 2, 2)) == 1
        assert rational_rank(vec(1, Fraction(3, 2))) == 1

    def test_mixed_vector(self):
        assert rational_rank(vec(1, R2, 1 + R2)) == 2

    def test_one_in_span(self):
        assert one_in_span(vec(2, 2, 2))
        assert one_in_span(vec(R2, 2 - R2))
        assert not one_in_span(vec(R2, 2 * R2))

    def test_two_radicands(self):
        assert rational_rank(ReebVector((R2, R3))) == 2
        assert not one_in_span(ReebVector((R2, R3)))


    def test_solve_rejects_dependent_columns(self):
        F = Fraction
        assert solve_rational([[F(1), F(0)], [F(0), F(1)]], [[F(2), F(3)]]) == [[F(2), F(3)]]
        # consistent right-hand sides, but no unique solution
        assert solve_rational([[F(1), F(2)], [F(2), F(4)]], [[F(3), F(6)]]) is None
        assert solve_rational([[F(1), F(0)], [F(0), F(0)]], [[F(1), F(0)]]) is None
        assert solve_rational([[F(0), F(0)]], [[F(0), F(0)]]) is None
        # independent columns, inconsistent right-hand side
        assert solve_rational([[F(1), F(1)]], [[F(1), F(2)]]) is None


# The Fraction elimination that rational_matrix_rank and the rational solve used
# before the fraction-free kernel, kept as its oracle.

def fraction_gauss_jordan(mat, ncols):
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(mat):
            break
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
    return pivots


def fraction_solve(columns, rhs_list):
    k = len(columns)
    dim = len(columns[0]) if k else (len(rhs_list[0]) if rhs_list else 0)
    aug = [[Fraction(columns[j][i]) for j in range(k)] +
           [Fraction(rhs[i]) for rhs in rhs_list] for i in range(dim)]
    if len(fraction_gauss_jordan(aug, k)) < k or any(x != 0 for row in aug[k:] for x in row[k:]):
        return None
    return [[aug[j][k + t] for j in range(k)] for t in range(len(rhs_list))]


def random_columns(rng, dim, k):
    """k columns of length dim with zero, repeated and dependent columns mixed in."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    cols = []
    for _ in range(k):
        kind = rng.random()
        if cols and kind < 0.15:
            cols.append([Fraction(0)] * dim)
        elif len(cols) >= 2 and kind < 0.35:
            a, b = rng.sample(cols, 2)
            p, q = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4))
            cols.append([p * x + q * y for x, y in zip(a, b)])
        else:
            cols.append([entry() for _ in range(dim)])
    return cols


class TestFractionFreeElimination:
    """The integer Bareiss kernel against the Fraction elimination it replaced."""

    def test_reduced_rows_rank_and_pivots(self):
        rng = random.Random(83)
        for _ in range(400):
            dim, k = rng.randint(1, 6), rng.randint(1, 6)
            cols = random_columns(rng, dim, k)
            rows = [[c[i] for c in cols] for i in range(dim)]
            if rows[0][0] > 0:
                rows[0] = [-x for x in rows[0]]   # a negative leading entry; column relations stay
            ncols = rng.randint(0, k)
            want = [list(r) for r in rows]
            want_pivots = fraction_gauss_jordan(want, ncols)
            got = [list(r) for r in rows]
            pivots, d = _gauss_jordan(got, ncols)
            assert pivots == want_pivots
            assert all(isinstance(x, int) for row in got for x in row)
            for t in range(len(pivots)):
                assert [Fraction(x, d) for x in got[t]] == want[t]
            for t in range(len(pivots), dim):
                assert [x != 0 for x in got[t]] == [x != 0 for x in want[t]]
            assert rational_matrix_rank(rows) == len(fraction_gauss_jordan([list(r) for r in rows], k))

    def test_solutions_match(self):
        rng = random.Random(89)
        outcomes = set()
        for _ in range(400):
            dim, k = rng.randint(1, 6), rng.randint(0, 5)
            cols = random_columns(rng, dim, k)
            rhs_list = []
            for _ in range(rng.randint(1, 3)):
                if cols and rng.random() < 0.6:
                    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in cols]
                    rhs_list.append([sum((c * col[i] for c, col in zip(coeffs, cols)), Fraction(0))
                                     for i in range(dim)])
                else:
                    rhs_list.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)])
            want = fraction_solve(cols, rhs_list)
            assert solve_rational(cols, rhs_list) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_integer_rows_match_fraction_rows(self):
        # p = 2 != d = 1 at the first pivot, so the row (0, 3, 1) must become (0, 6, 2)
        # before the next pivot; the diagonal ends as the determinant, -4
        mat = [[2, 1, 1], [0, 3, 1], [1, 1, 0]]
        assert _gauss_jordan(mat, 3) == ([0, 1, 2], -4)
        assert mat == [[-4, 0, 0], [0, -4, 0], [0, 0, -4]]
        rng = random.Random(101)
        rescaled = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[0 if rng.random() < 0.4 else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            got, want = [list(r) for r in rows], [list(map(Fraction, r)) for r in rows]
            pivots, d = _gauss_jordan(got, n)
            assert (pivots, d) == _gauss_jordan(want, n) and got == want
            assert all(type(x) is int for row in want for x in row)
            if len(pivots) == n:
                assert abs(d) == abs(TestApproximantCone.det([list(map(Fraction, r)) for r in rows]))
            rescaled += rows[0][0] not in (0, 1) and any(r[0] == 0 for r in rows[1:])
        assert rescaled > 20

    def test_zero_column_and_wide_systems(self):
        F = Fraction
        # more columns than rows, a zero leading entry, and an all-zero matrix
        assert solve_rational([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]], [[F(1), F(1)]]) is None
        assert solve_rational([[F(0), F(2)], [F(-3), F(0)]], [[F(1), F(1)]]) == [[F(1, 2), F(-1, 3)]]
        assert rational_matrix_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
        assert rational_matrix_rank([]) == 0


class TestAffineHull:
    def test_mixed_example(self):
        hull = affine_hull(vec(1, R2, 1 + R2))
        assert hull.s == 1
        assert hull.reorder == (1, 0, 2)   # sqrt(2) leads
        assert hull.m == 1
        # 1 = 0*sqrt(2) + 1 and 1 + sqrt(2) = 1*sqrt(2) + 1
        assert hull.a == ((0, 1),)
        assert hull.a0 == (1, 1)

    def test_rational_vector(self):
        hull = affine_hull(vec(2, 2, 2))
        assert hull.s == 0
        assert [Fraction(a, hull.m) for a in hull.a0] == [2, 2, 2]

    def test_repeated_irrational(self):
        hull = affine_hull(ReebVector((R2, R2)))
        assert hull.s == 1 and hull.a == ((1,),) and hull.a0 == (0,)

    def test_relation_verified_by_substitution(self):
        # verification happens inside affine_hull; just exercise a 2-radical case
        hull = affine_hull(ReebVector((R2, R3, 1 + R2)))
        assert hull.s == 2


class TestDirichlet:
    def test_sqrt2(self):
        report = dirichlet_approximant(vec(R2), 10, 100)
        assert (report.D, report.w_tilde) == (5, (7,))
        assert report.errors[0] == 5 * R2 - 7

    def test_rational_exact_hit(self):
        report = dirichlet_approximant(vec(Fraction(1, 2)), 10, 100)
        assert (report.D, report.w_tilde) == (2, (1,))
        assert report.errors[0] == ExactScalar.of(0)

    def test_two_radicands(self):
        report = dirichlet_approximant(ReebVector((R2, R3)), 5, 100)
        assert (report.D, report.w_tilde) == (7, (10, 12))

    def test_rational_vectors_hit_lcm_denominator(self):
        rng = random.Random(53)
        for _ in range(30):
            entries = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                            for _ in range(rng.randint(1, 3)))
            lcm = 1
            for e in entries:
                lcm = lcm * e.denominator // __import__("math").gcd(lcm, e.denominator)
            report = dirichlet_approximant(vec(*entries), max(2, lcm), max(2, lcm) * lcm)
            assert report.D == lcm
            assert all(e == ExactScalar.of(0) for e in report.errors)

    def test_cap_exhaustion(self):
        with pytest.raises(SearchExhaustedError):
            dirichlet_approximant(ReebVector((R2, R3)), 500, 500)


class TestDefaultN:
    def test_rational(self):
        assert default_N(vec(2, 2, 2, n=2)) == 4
        assert default_N(vec(1, n=1)) == 4

    def test_irrational_ceiling(self):
        assert default_N(vec(R2, 2 - R2, n=2)) == 14

    def test_requires_dimension(self):
        with pytest.raises(ValueError):
            default_N(vec(R2))

    @pytest.mark.parametrize("n", [0, -3])
    def test_dimension_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"ambient dimension n must be at least 1, not {n}"):
            vec(R2, n=n)


class TestNiceApproximant:
    def test_rational_is_its_own_approximant(self):
        report = nice_approximant(vec(2, 2, 2, n=2))
        assert (report.D, report.w_tilde, report.nice) == (1, (2, 2, 2), True)
        assert all(e == ExactScalar.of(0) for e in report.errors)

    def test_marginal_threshold_case(self):
        # 5*sqrt(2) - 7 < 1/14 iff 9800 < 9801: accepted exactly
        assert (70 * 70 * 2, 99 * 99) == (9800, 9801)
        report = nice_approximant(vec(R2, n=1), N=14)
        assert (report.D, report.w_tilde) == (5, (7,))

    def test_paired_weights(self):
        report = nice_approximant(vec(R2, 2 - R2, n=2), N=14)
        assert (report.D, report.w_tilde, report.nice) == (5, (7, 3), True)
        assert report.errors[0] == report.errors[1] == 5 * R2 - 7

    def test_narrow_cone_rejects_all_candidates(self):
        # the box is [3r/4, 5r/4] with r = (11/8, 3/2); the D = 1 candidate
        # (1, 2) needs 3r_1/4 * 2 <= 5r_2/4 * 1, but 33/16 > 15/8
        v = vec(R2, 3 - R2)
        assert _reference_box(v) == ([Fraction(33, 32), Fraction(9, 8)],
                                     [Fraction(55, 32), Fraction(15, 8)])
        assert dirichlet_approximant(v, 2, 2).w_tilde == (1, 2)
        with pytest.raises(OutsideConeError, match="denominator <= 1 fall outside the cone"):
            nice_approximant(v, N=2, cap=1)
        # a larger budget reaches the next candidate, inside the box
        report = nice_approximant(v, N=2, cap=2)
        assert (report.D, report.w_tilde, report.nice) == (2, (3, 3), True)

    def test_default_threshold_computed_once(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(v)
            return default_N(v)

        monkeypatch.setattr(diophantine, "default_N", counted)
        v = vec(R2, 2 - R2, n=2)
        for N, want in ((None, 14), (14, 14), (20, 20)):
            calls.clear()
            assert nice_approximant(v, N=N).N == want and len(calls) == 1
        calls.clear()
        with pytest.raises(ValueError, match="^N=3 is below the default threshold 14$"):
            nice_approximant(v, N=3)
        assert len(calls) == 1
        calls.clear()
        assert nice_approximant(vec(R2, 2 - R2), N=14).N == 14 and not calls
        with pytest.raises(ValueError, match="ambient dimension n is not set"):
            nice_approximant(vec(R2))

    def test_perturbation_bound(self):
        report = nice_approximant(vec(R2, 2 - R2, n=2), N=14)
        assert verify_perturbation_bound(report, 2, Fraction(2, 2))
        # an absurdly small budget fails
        assert not verify_perturbation_bound(report, 2, Fraction(1, 100))

    def test_perturbation_bound_checks_the_approximant(self):
        # w_tilde one off with the errors kept: only the 1/N check can see it
        report = nice_approximant(vec(R2, 2 - R2, n=2), N=14)
        assert verify_perturbation_bound(report, 0, Fraction(1000))
        for i in range(2):
            w_tilde = tuple(w + (j == i) for j, w in enumerate(report.w_tilde))
            assert not verify_perturbation_bound(replace(report, w_tilde=w_tilde), 0, Fraction(1000))


def reference_candidate(v, D, N):
    """_candidate before the floor shortcut: forms w*D, rounds w*D + 1/2, and
    decides every entry by the error |w*D - nearest| itself."""
    bound = Fraction(1, N)
    w_tilde = []
    errors = []
    for w in v.entries:
        scaled = w * D
        nearest = (scaled + Fraction(1, 2)).floor()
        if nearest < 1:
            return None
        err = abs(scaled - nearest)
        if not err < bound:
            return None
        w_tilde.append(nearest)
        errors.append(err)
    return ApproximantReport(D, tuple(w_tilde), N, tuple(errors), nice=False, xi=v)


def reference_nice_approximant(v, N, cap):
    """The first reference_candidate in the cone over the reference box: some
    scale lam has lower <= lam*u <= upper iff max lower_i/u_i <= min upper_j/u_j."""
    lower, upper = _reference_box(v)
    for D in range(1, cap + 1):
        report = reference_candidate(v, D, N)
        if report is None:
            continue
        u = report.approximation()
        if max(lo / x for lo, x in zip(lower, u)) <= min(up / x for up, x in zip(upper, u)):
            return ApproximantReport(D, report.w_tilde, N, report.errors, nice=True, xi=v)
    return None


def reference_perturbation_bound(report, p, eps_prime):
    """verify_perturbation_bound before multiplying out: divides by N*min w and by each w_i."""
    v = report.xi
    eps_prime = Fraction(eps_prime)
    half = ExactScalar.of(eps_prime / 2)
    bound = Fraction(1, report.N)
    if not all(e < bound for e in report.errors):
        return False
    threshold = ExactScalar.of(p) / (report.N * v.min_entry())
    if not threshold < half:
        return False
    relative = max((e / w for e, w in zip(report.errors, v.entries)), default=ExactScalar.of(0))
    return ExactScalar.of(p) * relative < half


def random_weight(rng):
    """A positive entry: rational, one radicand, or two or three radicands."""
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            return ExactScalar.of(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
        coords = {1: Fraction(rng.randint(-4, 6), rng.randint(1, 5))}
        for k in rng.sample([2, 3, 5, 6, 7, 30], kind):
            coords[k] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 5))
        w = ExactScalar.from_coordinates(coords)
        if w.sign() > 0 and w > Fraction(1, 3):
            return w


def search_outcomes(vectors):
    """Every Dirichlet and nice search result over the vectors, with its errors."""
    out = []
    for v in vectors:
        for N in (2, 5, 13):
            for search, kwargs in ((dirichlet_approximant, {"N": N, "cap": 4 * N}),
                                   (nice_approximant, {"N": N, "cap": 400})):
                try:
                    report = search(v, **kwargs)
                except (SearchExhaustedError, OutsideConeError) as exc:
                    out.append((type(exc), str(exc)))
                else:
                    out.append((report.to_json_dict(), report.errors, report))
    return out


class TestCandidateDifferential:
    """The floor-shortcut _candidate and the multiplied-out perturbation bound
    against the product-forming bodies kept above."""

    @staticmethod
    def vectors():
        rng = random.Random(59)
        vectors = [ReebVector(tuple(random_weight(rng) for _ in range(rng.randint(1, 3))))
                   for _ in range(40)]
        # w*D*N an exact integer: at D = 3, N = 4 the error of 7/12 is exactly 1/N
        vectors += [vec(Fraction(7, 12)), vec(Fraction(7, 12), R2), vec(Fraction(5, 4), 1 + R3),
                    vec(Fraction(1, 2), R2 + R3), vec(R2 - 1, Fraction(9, 10), 2 - R3)]
        return vectors

    def test_reports_match(self, monkeypatch):
        vectors = self.vectors()
        new = search_outcomes(vectors)
        with monkeypatch.context() as m:
            m.setattr(diophantine, "_candidate", reference_candidate)
            old = search_outcomes(vectors)
        assert [o[:2] for o in new] == [o[:2] for o in old]
        reports = [o[2] for o in new if len(o) == 3]
        assert any(r.nice for r in reports) and any(not r.nice for r in reports)
        assert any(r.xi.is_rational() for r in reports)
        assert any(len({k for e in r.xi.entries for k, _ in e.terms}) >= 2 for r in reports)

    def test_perturbation_bound_matches(self):
        seen = set()
        for outcome in search_outcomes(self.vectors()[::3]):
            if len(outcome) < 3:
                continue
            report = outcome[2]
            for p in (0, 1, 2, 5):
                for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(2), Fraction(12)):
                    got = verify_perturbation_bound(report, p, eps)
                    assert got == reference_perturbation_bound(report, p, eps)
                    seen.add(got)
        assert seen == {True, False}


class TestOneOverNRule:
    """_within, the integer 1/N rule of _candidate and approximant_cone, against
    |w*D - w_tilde| < 1/N formed as an ExactScalar and compared with a Fraction."""

    @staticmethod
    def cases(rng):
        for kind in ("one radicand", "mixed radicands", "rational", "rational at 1/N"):
            for _ in range(300):
                D, N = rng.randint(1, 60), rng.randint(2, 9)
                if kind == "rational at 1/N":
                    wt = rng.randint(1, 40)
                    w = ExactScalar.of(Fraction(wt * N + rng.choice((-1, 1)), N * D))
                    yield kind, w, D, wt, N
                    continue
                if kind == "rational":
                    w = ExactScalar.of(Fraction(rng.randint(1, 200), rng.randint(1, 40)))
                else:
                    radicands = rng.sample([2, 3, 5, 7], 1 if kind == "one radicand" else rng.randint(2, 3))
                    w = ExactScalar.of(rng.randint(1, 6))
                    for k in radicands:
                        w += ExactScalar.root(k, Fraction(rng.randint(1, 5), rng.randint(1, 4)))
                wt = (w.floor(2 * D) + 1) // 2 + rng.choice((-1, 0, 0, 0, 1))
                yield kind, w, D, wt, N

    def test_matches_scalar_comparison(self):
        verdicts = set()
        for kind, w, D, wt, N in self.cases(random.Random(107)):
            want = abs(ExactScalar.of(w) * D - wt) < Fraction(1, N)
            assert _within(w, D, wt, N) == want, (kind, w, D, wt, N)
            verdicts.add((kind, want, (w * D - wt).sign()))
        for kind in ("one radicand", "mixed radicands", "rational"):
            # accepted from below and from above, and refused
            assert {(kind, True, -1), (kind, True, 1), (kind, False, -1), (kind, False, 1)} <= verdicts
        assert {v[1] for v in verdicts if v[0] == "rational at 1/N"} == {False}


class TestCornerSearch:
    def test_resolution_20(self):
        result = kronecker_corner_search(vec(R2), 20)
        hits = {hit.corner: (hit.C, hit.v_tilde) for hit in result.hits}
        assert hits == {(0,): (17, (24,)), (1,): (12, (17,))}

    def test_resolution_10(self):
        result = kronecker_corner_search(vec(R2), 10)
        hits = {hit.corner: hit.C for hit in result.hits}
        assert hits == {(0,): 5, (1,): 12}

    def test_bounds_verified(self):
        result = kronecker_corner_search(vec(R2, 2 - R2), 20)
        side = Fraction(1, 20)
        for hit in result.hits:
            for i in range(result.hull.s):
                w = vec(R2, 2 - R2).entries[result.hull.reorder[i]]
                assert abs(w * hit.C - hit.v_tilde[i]) < side

    def test_rational_vector_rejected(self):
        with pytest.raises(ValueError):
            kronecker_corner_search(vec(2, 2), 10)

    def test_two_dimensional_corners(self):
        result = kronecker_corner_search(ReebVector((R2, R3)), 8, cap=10**5)
        assert len(result.hits) == 4
        side = Fraction(1, 8)
        entries = (R2, R3)
        for hit in result.hits:
            for i in range(2):
                w = entries[result.hull.reorder[i]]
                assert abs(w * hit.C - hit.v_tilde[i]) < side

    def test_cap_exhaustion(self):
        with pytest.raises(SearchExhaustedError):
            kronecker_corner_search(vec(R2), 10**4, cap=50)

    @staticmethod
    def reference_hits(v, resolution, cap):
        """The search by comparing exact fractional parts with the cube side."""
        hull = affine_hull(v)
        leading = [v.entries[i] for i in hull.reorder[:hull.s]]
        side = Fraction(1, resolution)
        corners = list(product((0, 1), repeat=hull.s))
        found = {}
        for C in range(1, cap + 1):
            floors = [(w * C).floor() for w in leading]
            fracs = [w * C - f for w, f in zip(leading, floors)]
            for corner in corners:
                if corner not in found and all(
                        (frac if bit == 0 else 1 - frac) <= side
                        for frac, bit in zip(fracs, corner)):
                    found[corner] = (C, tuple(f + bit for f, bit in zip(floors, corner)))
            if len(found) == len(corners):
                return found
        return None

    def test_differential_against_fractional_parts(self):
        rng = random.Random(59)
        for trial in range(40):
            length = 1 + trial % 3
            entries = [Fraction(rng.randint(1, 20), rng.randint(1, 6))
                       + ExactScalar.root(rng.choice([2, 3, 5, 7]), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                       for _ in range(length)]
            v = ReebVector(tuple(entries))
            resolution = rng.choice([2, 3, 5] if length == 3 else [2, 3, 5, 8, 13])
            cap = 3000
            want = self.reference_hits(v, resolution, cap)
            if want is None:
                with pytest.raises(SearchExhaustedError):
                    kronecker_corner_search(v, resolution, cap)
                continue
            got = kronecker_corner_search(v, resolution, cap)
            assert {hit.corner: (hit.C, hit.v_tilde) for hit in got.hits} == want


class TestMixedRadicands:
    """(sqrt 2, sqrt 3) with n set: every step compares entries of different fields."""

    def test_pipeline(self):
        v = ReebVector((R2, R3), n=2)
        assert default_N(v) == 6               # ceil(8 / sqrt 2)
        report = nice_approximant(v)
        assert report.nice and report.N == 6
        assert all(abs(w * report.D - wt) < Fraction(1, 6) for w, wt in zip(v.entries, report.w_tilde))
        assert verify_perturbation_bound(report, 2, Fraction(2, 2))
        assert not verify_perturbation_bound(report, 2, Fraction(1, 100))
        cone = approximant_cone(v)
        inside, certificate = cone_contains(cone, v)
        assert inside and certificate
        # the certificate reproduces (1, v) with nonnegative weights
        lambdas = [(index, parse_spaced(text)) for index, text in certificate]
        assert all(lam.sign() >= 0 for _, lam in lambdas)
        assert sum((lam for _, lam in lambdas), ExactScalar.of(0)) == ExactScalar.of(1)
        for i, w in enumerate(v.entries):
            assert sum((lam * cone.generators[j][i] for j, lam in lambdas), ExactScalar.of(0)) == w

    def test_nice_approximant_across_fields(self):
        # at N = 2 the D = 1 candidate (1, 2) of (sqrt 2, sqrt 3) falls outside the box
        v = ReebVector((R2, R3))
        assert dirichlet_approximant(v, 2, 2).w_tilde == (1, 2)
        report = nice_approximant(v, N=2)
        assert (report.D, report.w_tilde) == (2, (3, 3))
        for v in (v, ReebVector((R2, 3 * R3)), ReebVector((2 - R2, 3 - R3))):
            for N in (2, 3, 5, 8):
                assert nice_approximant(v, N=N, cap=400) == reference_nice_approximant(v, N, 400)


class TestApproximantCone:
    def test_bracketing_generators(self):
        corners = kronecker_corner_search(vec(R2, n=1), 20)
        cone = approximant_cone(vec(R2, n=1), corners)
        assert cone.generators == ((Fraction(24, 17),), (Fraction(17, 12),))
        assert cone.simplicial
        # cross-multiplied bracketing certificates
        assert 24**2 < 2 * 17**2 and 2 * 12**2 < 17**2
        inside, certificate = cone_contains(cone, vec(R2))
        assert inside and certificate is not None

    def test_hull_lifted_generators(self):
        v = vec(R2, 2 - R2, n=2)
        corners = kronecker_corner_search(v, 20)
        cone = approximant_cone(v, corners)
        assert cone.generators == ((Fraction(24, 17), Fraction(10, 17)),
                                   (Fraction(17, 12), Fraction(7, 12)))
        inside, certificate = cone_contains(cone, v)
        assert inside and certificate is not None

    def test_rational_ray(self):
        cone = approximant_cone(vec(2, 2, 2))
        assert cone.generators == ((Fraction(2), Fraction(2), Fraction(2)),)
        assert cone.simplicial
        inside, certificate = cone_contains(cone, vec(2, 2, 2))
        assert inside and certificate == [(0, "1")]

    def test_default_pipeline(self):
        cone = approximant_cone(vec(R2, n=1))
        inside, _ = cone_contains(cone, vec(R2))
        assert inside

    def test_parallel_generators_when_one_not_in_span(self):
        v = ReebVector((R2, 2 * R2), n=2)
        cone = approximant_cone(v)
        inside, _ = cone_contains(cone, v)
        assert inside

    # The nested search the cone assembly used to run, kept as a reference: the
    # first subset of lifted corner approximants, by size and then
    # lexicographically, with some sub-subset whose convex hull contains v.
    # Linear algebra is by Cramer's rule on the Gram matrix, not elimination.

    @staticmethod
    def det(m):
        if not m:
            return Fraction(1)
        return sum((-1) ** j * m[0][j] * TestApproximantCone.det([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))

    @staticmethod
    def gram(points):
        cols = [(1, *p) for p in points]
        return cols, [[sum(a * b for a, b in zip(c, d)) for d in cols] for c in cols]

    @classmethod
    def convex_weights(cls, points, v):
        """Weights of v over points when the (1, p) are independent, else None."""
        cols, gram = cls.gram(points)
        g = cls.det(gram)
        if g == 0:
            return None
        target = (ExactScalar.of(1), *v.entries)
        atb = [sum((t * a for a, t in zip(c, target)), ExactScalar.of(0)) for c in cols]
        n = len(cols)
        x = [sum((atb[i] * ((-1) ** (i + j) * cls.det(
                  [r[:j] + r[j + 1:] for k, r in enumerate(gram) if k != i]) / g)
                  for i in range(n)), ExactScalar.of(0)) for j in range(n)]
        for row, t in enumerate(target):
            if sum((xj * c[row] for xj, c in zip(x, cols)), ExactScalar.of(0)) != t:
                return None
        return x

    @classmethod
    def reference_cone(cls, v, corners):
        hull = corners.hull
        gens = []
        for hit in corners.hits:
            full = [None] * len(v)
            for i in range(hull.s):
                full[hull.reorder[i]] = Fraction(hit.v_tilde[i], hit.C)
            for j in range(len(v) - hull.s):
                value = sum(hull.a[i][j] * hit.v_tilde[i] for i in range(hull.s)) + hit.C * hull.a0[j]
                full[hull.reorder[hull.s + j]] = Fraction(value, hull.m * hit.C)
            gens.append(tuple(full))

        @cache
        def accepts(subset):
            x = cls.convex_weights([gens[i] for i in subset], v)
            return x is not None and all(lam.sign() >= 0 for lam in x)

        for size in range(1, len(gens) + 1):
            for subset in combinations(range(len(gens)), size):
                if any(accepts(inner) for k in range(1, size + 1)
                       for inner in combinations(subset, k)):
                    points = [gens[i] for i in subset]
                    simplicial = cls.det(cls.gram(points)[1]) != 0
                    return ConeDescription(tuple(points), simplicial)
        return None

    def test_differential_against_nested_search(self):
        rng = random.Random(71)

        def entry(d):
            return Fraction(rng.randint(0, 3)) + ExactScalar.root(d, Fraction(rng.randint(1, 3), rng.randint(1, 2)))

        vectors = []
        for trial in range(12):
            d = rng.choice([2, 3, 5, 7])
            vectors.append(ReebVector(tuple(entry(d) for _ in range(1 + trial % 3))))
        for _ in range(8):
            p, q = rng.sample([2, 3, 5, 7], 2)
            vectors.append(ReebVector((entry(p), entry(q))))
        for _ in range(4):
            vectors.append(ReebVector(tuple(entry(d) for d in (2, 3, 5))))
        for v in vectors:
            hull = affine_hull(v)
            N = rng.randint(2, 4)
            corners = kronecker_corner_search(v, default_corner_resolution(hull, N))
            want = self.reference_cone(v, corners)
            if want is None:
                with pytest.raises(ContainmentError):
                    approximant_cone(v, corners, N)
                continue
            got = approximant_cone(v, corners, N)
            assert (got.generators, got.simplicial) == (want.generators, want.simplicial)
            assert cone_contains(got, v) == cone_contains(want, v)

    def test_resolution_threshold_relation(self):
        hull = affine_hull(vec(R2, 2 - R2))
        assert default_corner_resolution(hull, 14) == 14 * hull.m * hull.s * max(1, hull.max_abs_coeff()) + 1


class TestConeMembership:
    def test_generic_two_generator_solve(self):
        # (1, sqrt 2) on the segment from (1, 7/5) to (1, 3/2)
        cone = ConeDescription(((Fraction(1), Fraction(7, 5)), (Fraction(1), Fraction(3, 2))),
                               simplicial=True)
        inside, certificate = cone.contains((ExactScalar.of(1), R2))
        assert inside
        labels = dict(certificate)
        assert labels[0] == "15 - 10*sqrt(2)"
        assert labels[1] == "-14 + 10*sqrt(2)"

    def test_outside(self):
        cone = ConeDescription(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))),
                               simplicial=True)
        inside, certificate = cone.contains((1, 0))
        assert not inside and certificate is None

    def test_ray_through_self(self):
        cone = ConeDescription(((Fraction(3), Fraction(1)),), simplicial=True)
        inside, certificate = cone.contains((ExactScalar.of(3), ExactScalar.of(1)))
        assert inside and certificate == [(0, "1")]

    def test_negative_diagonal(self, monkeypatch):
        # (1, sqrt 2) between (1, 1) and (1, 2): the second pivot of the solve is -1
        diagonals = []

        def recorded(columns, rhs_list):
            solved = solve_integral(columns, rhs_list)
            diagonals.append(solved and solved[1])
            return solved

        cone = ConeDescription(((Fraction(2),), (Fraction(1),)), simplicial=True)
        monkeypatch.setattr("conify.diophantine.solve_integral", recorded)
        inside, certificate = cone.contains((R2,))
        assert diagonals == [-1]
        assert (inside, certificate) == contains_from_size_one(cone, (R2,))
        assert certificate == [(0, "-1 + sqrt(2)"), (1, "2 - sqrt(2)")]


def contains_from_size_one(cone, v):
    """ConeDescription.contains as it was: sizes from 1, Fraction elimination."""
    target = [{1: Fraction(1)}] + [ExactScalar.of(x).coordinates() for x in v]
    columns = [(1, *g) for g in cone.generators]
    radicands = sorted({k for coords in target for k in coords}) or [1]
    rhs_list = [[coords.get(k, Fraction(0)) for coords in target] for k in radicands]
    for size in range(1, len(columns) + 1):
        for subset in combinations(range(len(columns)), size):
            sols = fraction_solve([columns[i] for i in subset], rhs_list)
            if sols is None:
                continue
            lambdas = [ExactScalar.from_coordinates(dict(zip(radicands, column)))
                       for column in zip(*sols)]
            if all(lam.sign() >= 0 for lam in lambdas):
                return True, [(i, lam.spaced()) for i, lam in zip(subset, lambdas)]
    return False, None


class TestRankBoundedMembership:
    """Starting at the target's rank keeps every certificate of the size-from-1 search."""

    @staticmethod
    def weight(rng, radicands):
        lam = ExactScalar.of(Fraction(rng.randint(0, 6), rng.randint(1, 4)))
        for k in radicands:
            if rng.random() < 0.7:
                lam += ExactScalar.root(k, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        return lam

    def test_certificates_match_size_from_one(self):
        rng = random.Random(97)
        verdicts = set()
        for trial in range(300):
            dim = rng.randint(1, 3)
            gens = tuple(tuple(Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(dim))
                         for _ in range(rng.randint(1, 6)))
            cone = ConeDescription(gens, simplicial=False)
            kind = rng.choice(["rational", "irrational", "zero", "outside"])
            if kind == "zero":
                v = [ExactScalar.of(0)] * dim
            elif kind == "outside":
                v = [ExactScalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(dim)]
            else:
                radicands = [] if kind == "rational" else rng.sample([2, 3, 5], rng.randint(1, 3))
                used = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
                lams = [self.weight(rng, radicands) for _ in used]
                if lams and all(lam.is_zero() for lam in lams):
                    lams[0] = ExactScalar.of(1)
                total = sum(lams, ExactScalar.of(0))
                lams = [lam / total for lam in lams]
                v = [sum((lam * gens[i][c] for lam, i in zip(lams, used)), ExactScalar.of(0))
                     for c in range(dim)]
            want = contains_from_size_one(cone, v)
            assert cone.contains(v) == want
            verdicts.add((kind, want[0]))
        assert {("rational", True), ("irrational", True), ("outside", False)} <= verdicts

    def test_simplicial_cone_needs_one_solve(self, monkeypatch):
        v = ReebVector((R2, R3, ExactScalar.root(5)), n=3)
        cone = approximant_cone(v, N=2)
        calls = []

        def counted(columns, rhs_list):
            calls.append(len(columns))
            return solve_integral(columns, rhs_list)

        monkeypatch.setattr("conify.diophantine.solve_integral", counted)
        inside, certificate = cone.contains(v.entries)
        assert inside and calls == [4]
        assert certificate[0] == (0, "6524 - 2330*sqrt(2) - 1864*sqrt(3)")


class TestReferenceBox:
    """The box [3r/4, 5r/4] of nice_approximant: r dyadic, 7w/8 < r <= w, so v is inside."""

    def test_seeded_boxes_contain_their_vectors(self):
        rng = random.Random(83)
        for _ in range(60):
            v = ReebVector(tuple(random_weight(rng) for _ in range(rng.randint(1, 3))))
            lower, upper = _reference_box(v)
            for w, lo, up in zip(v.entries, lower, upper):
                r = lo * Fraction(4, 3)
                assert up == r * Fraction(5, 4) and r.denominator & (r.denominator - 1) == 0
                assert 7 * w < 8 * r and not w < r
            # lam = 1 puts v in the box, so v is in the cone over it
            assert all(lo <= w <= up for w, lo, up in zip(v.entries, lower, upper))
