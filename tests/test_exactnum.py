"""Exact multi-quadratic arithmetic: signs, field axioms, floors, parsing."""

import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from conify import exactnum
from conify.errors import ParseError
from conify.exactnum import ExactScalar, parse_scalar, sign

R2 = ExactScalar.root(2)
R3 = ExactScalar.root(3)


def rand_scalar(rng, d=2, rational=False):
    a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    b = Fraction(0) if rational else Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return ExactScalar(a, b, d)


def rand_multi(rng):
    """A scalar over one to four of the radicands 2, 3, 5, 6, 7, 30."""
    coords = {1: Fraction(rng.randint(-30, 30), rng.randint(1, 12))}
    for k in rng.sample([2, 3, 5, 6, 7, 30], rng.randint(1, 4)):
        coords[k] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return ExactScalar.from_coordinates(coords)


def decimal_value(x: ExactScalar, prec: int = 60) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        total = Decimal(x.a.numerator) / x.a.denominator
        for k, c in x.terms:
            total += Decimal(c.numerator) / c.denominator * Decimal(k).sqrt()
        return total


class TestSign:
    def test_zero(self):
        assert sign(ExactScalar(Fraction(0), Fraction(0), 2)) == 0

    def test_negative_rational_dominates(self):
        # -3 + 2*sqrt(2): compare 2^2*2 = 8 against 3^2 = 9
        assert (ExactScalar.of(-3) + 2 * R2).sign() == -1

    def test_negative_radical_dominates(self):
        # 1 - sqrt(2): 1 < 2
        assert (ExactScalar.of(1) - R2).sign() == -1

    def test_trichotomy_and_multiplicativity(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rand_scalar(rng)
            q = rand_scalar(rng)
            assert [p.sign() < 0, p.sign() == 0, p.sign() > 0].count(True) == 1
            assert (p * q).sign() == p.sign() * q.sign()

    def test_order_is_consistent_with_floats(self):
        rng = random.Random(13)
        for _ in range(300):
            p = rand_scalar(rng)
            q = rand_scalar(rng)
            if abs(float(p) - float(q)) > 1e-6:
                assert (p < q) == (float(p) < float(q))


def reference_sign(x: ExactScalar) -> int:
    """ExactScalar.sign before the integer filter, kept as the oracle: one radicand
    compares a^2 with b^2*d, several go to reference_combo_sign's squarings."""
    a, terms = x.a, x.terms
    sa = (a > 0) - (a < 0)
    if not terms:
        return sa
    if len(terms) > 1:
        return reference_combo_sign(x)
    (d, b), = terms
    sb = (b > 0) - (b < 0)
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > b * b * d else sb


def reference_combo_sign(x: ExactScalar) -> int:
    """combo_sign before the integer filter: x = A + sqrt(p)*C, one prime per squaring."""
    signs = {c > 0 for _, c in x.terms}
    if x.a:
        signs.add(x.a > 0)
    if len(signs) < 2:
        return (1 if signs.pop() else -1) if signs else 0
    k0 = x.terms[0][0]
    p = next(q for q in range(2, k0 + 1) if k0 % q == 0)
    sa = reference_sign(ExactScalar.from_coordinates(
        {1: x.a, **{k: c for k, c in x.terms if k % p}}))
    sb = reference_sign(ExactScalar.from_coordinates(
        {k // p: c for k, c in x.terms if k % p == 0}))
    if sa * sb >= 0:
        return sa or sb
    conj = ExactScalar.from_coordinates(
        {1: x.a, **{k: -c if k % p == 0 else c for k, c in x.terms}})
    return sa * reference_sign(x * conj)


def sqrt_convergents(d: int, count: int) -> list[tuple[int, int]]:
    """Convergents p/q of sqrt(d), from its periodic continued fraction in integers."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = []
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


def convergents(x: ExactScalar, qmin: int, qmax: int) -> list[Fraction]:
    """Continued-fraction convergents p/q of x with qmin < q < qmax (120-digit value)."""
    v = Fraction(decimal_value(x, prec=120))
    h0, k0, h1, k1 = 0, 1, 1, 0
    out = []
    while k1 < qmax:
        a = math.floor(v)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if qmin < k1 < qmax:
            out.append(Fraction(h1, k1))
        v = 1 / (v - a)
    return out


ALPHAS = [R2 + R3,
          parse_scalar("sqrt(2) + sqrt(3) + sqrt(5)"),
          parse_scalar("sqrt(5) + sqrt(6) - sqrt(7) + 3*sqrt(30)"),
          parse_scalar("1/3*sqrt(2) - 2/7*sqrt(3) + sqrt(5)")]


def near_zero_cases() -> list[ExactScalar]:
    """Irrational values within 10^-30 of 0 whose filter bracket must hold 0."""
    pell = [ExactScalar.of(p) - ExactScalar.root(2, q)
            for p, q in sqrt_convergents(2, 100) if q > 10**31][:6]
    cases = [x * R3 for x in pell] + [x * ExactScalar.root(5, 7) for x in pell]
    cases += [(ExactScalar.of(p) - ExactScalar.root(3, q)) * pell[0]
              for p, q in sqrt_convergents(3, 120) if q > 10**31][:4]
    for alpha in ALPHAS:
        cases += [alpha - r for r in convergents(alpha, 2**64, 10**40)[:4]]
        cases += [r - alpha for r in convergents(alpha, 2**64, 10**40)[:2]]
    return cases


@pytest.fixture
def fallbacks(monkeypatch):
    """Every scalar that ExactScalar.sign hands to the exact fallback combo_sign."""
    calls = []
    original = exactnum.combo_sign

    def spy(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(exactnum, "combo_sign", spy)
    return calls


class TestFilteredSign:
    """ExactScalar.sign's integer filter against the squaring oracle kept above."""

    def test_random_scalars_with_one_to_four_radicands(self):
        rng = random.Random(43)
        for _ in range(400):
            x, y = rand_multi(rng), rand_multi(rng)
            for z in (x, -x, x - y, x * y, x.a - x, ExactScalar.of(x.a)):
                assert z.sign() == reference_sign(z), z

    def test_near_zero_values_fall_back(self, fallbacks):
        cases = near_zero_cases()
        assert len(cases) == 40
        for x in cases:
            assert len(x.terms) >= 2
            assert abs(decimal_value(x, prec=200)) < Decimal("1e-30")
            fallbacks.clear()
            assert x.sign() == reference_sign(x), x
            assert fallbacks and fallbacks[0] == x
        assert {x.sign() for x in cases} == {-1, 1}

    def test_one_radicand_bracket_is_the_exact_floor(self, fallbacks):
        # for one radicand the bracket is (floor, floor + 1) of an irrational, which
        # holds no integer: even values within 10^-30 of 0 are decided without squaring
        cases = []
        for d in (2, 3, 7, 30):
            for p, q in [pq for pq in sqrt_convergents(d, 200) if pq[1] > 10**31][:6]:
                cases += [ExactScalar.of(p) - ExactScalar.root(d, q),
                          ExactScalar.root(d, q) - p]
        assert {x.sign() for x in cases} == {-1, 1}
        for x in cases:
            assert abs(decimal_value(x, prec=200)) < Decimal("1e-30")
            assert x.sign() == reference_sign(x), x
        assert fallbacks == []

    def test_values_beyond_the_bracket_width_decide_without_fallback(self, fallbacks):
        # a convergent p/q with q < 2^30 leaves |x| < 1/q^2, close enough to 0 for
        # some brackets at times = 1 to hold 0, yet far beyond t/(R*2^64)
        cases = [s * (alpha - r) for alpha in ALPHAS
                 for r in convergents(alpha, 10**3, 2**30) for s in (1, -1)]
        assert len(cases) == 84
        for x in cases:
            assert x.sign() == reference_sign(x), x
        assert fallbacks == []


class TestFieldOps:
    def test_conjugate_product(self):
        assert (1 + R2) * (1 - R2) == ExactScalar.of(-1)

    def test_conjugate_sum(self):
        assert (1 + R2) + (1 - R2) == ExactScalar.of(2)

    def test_rationalized_inverse(self):
        assert 1 / (1 + R2) == -1 + R2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (1 + R2) / ExactScalar.of(0)

    def test_field_axioms_random(self):
        rng = random.Random(17)
        for _ in range(200):
            p, q, r = (rand_scalar(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            if not p.is_zero():
                assert p * (1 / p) == ExactScalar.of(1)

    def test_mixed_radicands_combine(self):
        assert str(R2 + R3) == "sqrt(2)+sqrt(3)"
        assert R2 * R3 == ExactScalar.root(6)
        assert (R2 + R3) - R3 == R2
        assert (R2 + R3) * (R2 - R3) == ExactScalar.of(-1)
        assert ExactScalar.root(6) * ExactScalar.root(10) == ExactScalar.root(15, 2)

    def test_mixed_field_axioms_random(self):
        rng = random.Random(29)
        for _ in range(100):
            p, q, r = (rand_multi(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            if not p.is_zero():
                assert p * p.inverse() == ExactScalar.of(1)

    def test_coordinates_round_trip(self):
        x = 1 - 2 * R2 + ExactScalar.root(30, Fraction(1, 3))
        assert x.coordinates() == {1: 1, 2: -2, 30: Fraction(1, 3)}
        assert ExactScalar.from_coordinates(x.coordinates()) == x
        assert ExactScalar.from_coordinates({}) == ExactScalar.of(0)
        assert pickle.loads(pickle.dumps(x)) == x

    def test_rationals_mix_with_any_field(self):
        assert ExactScalar.of(2) * ExactScalar.root(3) == ExactScalar.root(3, 2)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar.root(12)


class TestFloor:
    def test_floor_matches_exact_bracketing(self):
        rng = random.Random(19)
        for _ in range(300):
            p = rand_scalar(rng, d=rng.choice([2, 3, 5, 7]))
            n = p.floor()
            assert (p - n).sign() >= 0
            assert (p - (n + 1)).sign() < 0
            assert p.ceil() == -(-p).floor()

    def test_known_values(self):
        assert (2 * R2).floor() == 2
        assert (8 + 4 * R2).floor() == 13
        assert (8 + 4 * R2).ceil() == 14
        assert (-R2).floor() == -2

    def test_multi_radicand_floor_against_decimal(self):
        rng = random.Random(31)
        for _ in range(300):
            p = rand_multi(rng)
            scale = rng.choice([1, 7, 1000])
            x = p * scale
            assert Decimal(x.floor()) <= decimal_value(x) < x.floor() + 1
            assert x.ceil() == -(-x).floor()
        # integer coefficients: the per-term floors leave up to two units to fix up
        r5 = ExactScalar.root(5)
        for i in range(-6, 7):
            for j in range(-6, 7):
                x = i * R2 + j * R3 - 5 * r5
                assert Decimal(x.floor()) <= decimal_value(x) < x.floor() + 1

    def test_floor_times_is_floor_of_product(self):
        rng = random.Random(37)
        scalars = [R2, -R2]
        for _ in range(120):
            coords = {1: Fraction(rng.randint(-30, 30), rng.randint(1, 12))}
            for k in rng.sample([2, 3, 5, 6, 7], rng.randint(1, 3)):
                coords[k] = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))
            scalars.append(ExactScalar.from_coordinates(coords))
        # integer coefficients leave the most units for the fix-up loop
        scalars += [i * R2 + j * R3 - 5 * ExactScalar.root(5) for i in (-3, 2) for j in (-4, 1)]
        for x in scalars:
            for t in list(range(-7, 8)) + [10**6]:
                n = x.floor(t)
                assert n == (x * t).floor()
                with localcontext() as ctx:
                    ctx.prec = 60
                    assert Decimal(n) <= t * decimal_value(x) < n + 1
        assert R2.floor(0) == 0 and (-R2).floor(0) == 0
        for t in range(-7, 8):
            assert ExactScalar.of(Fraction(-7, 3)).floor(t) == math.floor(Fraction(-7, 3) * t)

    def test_nearest_rounds_ties_up(self):
        assert ExactScalar.of(Fraction(1, 2)).nearest_int() == 1
        assert ExactScalar.of(Fraction(-1, 2)).nearest_int() == 0
        assert (5 * R2).nearest_int() == 7


class TestParsePrint:
    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(200):
            d = rng.choice([2, 5])
            p = rand_scalar(rng, d=d)
            assert parse_scalar(str(p), d) == p

    def test_printing(self):
        x = Fraction(-3, 2) + R2 - ExactScalar.root(5, 2)
        assert str(x) == "-3/2+sqrt(2)-2*sqrt(5)"
        assert x.spaced() == "-3/2 + sqrt(2) - 2*sqrt(5)"
        assert str(ExactScalar.of(0)) == ExactScalar.of(0).spaced() == "0"
        assert (15 - 10 * R2).spaced() == "15 - 10*sqrt(2)"
        assert str(-R2 + Fraction(1, 2)) == "1/2-sqrt(2)"

    def test_input_forms(self):
        assert parse_scalar("7/5") == ExactScalar.of(Fraction(7, 5))
        assert parse_scalar("1+1*s", 2) == 1 + R2
        assert parse_scalar("1+s", 2) == 1 + R2
        assert parse_scalar("s", 2) == R2
        assert parse_scalar("2-1/2*s", 2) == 2 - ExactScalar.root(2, Fraction(1, 2))
        assert parse_scalar("1+1*sqrt(2)", 2) == 1 + R2
        assert parse_scalar("1+1*sqrt(2)") == 1 + R2  # radicand inferred

    def test_terms_and_radicands_mix(self):
        assert parse_scalar("1+s+s", 2) == 1 + 2 * R2
        assert parse_scalar("1+1*sqrt(3)", 2) == 1 + R3  # sqrt(k) is never s
        assert parse_scalar("sqrt(2)+s") == 2 * R2  # s is the first sqrt(k)
        assert parse_scalar("1/2*sqrt(2) - sqrt(3) + 2*sqrt(5)") == (
            ExactScalar.from_coordinates({2: Fraction(1, 2), 3: -1, 5: 2}))

    def test_errors(self):
        for text, d in [("", 0), ("s", 0), ("s+sqrt(2)", 0), ("0*sqrt(5)+s", 0),
                        ("1+", 2), ("0*sqrt(4)", 0), ("sqrt(-2)", 0), ("1/0", 0),
                        ("2*s*3", 2), ("sqrt(x)", 0)]:
            with pytest.raises(ParseError):
                parse_scalar(text, d)
