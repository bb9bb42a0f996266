"""Exact multi-quadratic arithmetic: signs, field axioms, floors, parsing."""

import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from conify import exactnum
from conify.errors import ParseError
from conify.exactnum import ExactScalar, parse_scalar

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
        assert ExactScalar(Fraction(0), Fraction(0), 2).sign() == 0

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


def squarefree_by_definition(d: int) -> bool:
    """No p <= sqrt(d) with p^2 | d: the trial division check_radicand replaced."""
    return d >= 2 and all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


# the 7- to 10-digit primes that test_products_of_large_primes multiplies
PRIMES = (1000003, 9999991, 10000019, 100000007, 1000000007, 1000000009)


class TestRadicand:
    def test_agrees_with_the_definition_below_20000(self):
        for d in range(-3, 20000):
            try:
                ok = exactnum.check_radicand(d) == d
            except ValueError:
                ok = False
            assert ok == squarefree_by_definition(d), d

    @pytest.mark.parametrize("d, squarefree", [
        (1000000007 * 1000000009, True), (10000019 * 100000007, True), (9999991 * 1000003, True),
        (1000000007 ** 2, False), (100000007 ** 2, False),
        (1000003 ** 2 * 1000000007, False), (1000000007 ** 2 * 1000003, False)])
    def test_products_of_large_primes(self, d, squarefree):
        """Trial division stops at d^(1/3), so p*q and p^2 of 10-digit primes are left
        whole and only the square test tells them apart; in p^2*q the square shows
        once the smaller prime is divided out."""
        if squarefree:
            assert exactnum.check_radicand(d) == d
        else:
            with pytest.raises(ValueError, match="squarefree"):
                exactnum.check_radicand(d)

    def test_factors_are_prime(self):
        assert all(exactnum._least_prime(p) == p for p in PRIMES)

    def test_eighteen_digit_prime_is_quick(self):
        d = 1000000000000000003
        assert exactnum.check_radicand(d) == d
        assert parse_scalar(f"sqrt({d})") == ExactScalar.root(d)


# -- the Fraction-pair scalar, kept as the oracle of the integer layout ------------------

def _fmake(a: Fraction, terms: tuple) -> "FractionScalar":
    x = object.__new__(FractionScalar)
    x.a, x.terms = a, terms
    return x


def _fsorted(coeffs: dict) -> tuple:
    return tuple(sorted((k, c) for k, c in coeffs.items() if c))


class FractionScalar:
    """ExactScalar as it was stored before integer coordinates: a Fraction `a` and
    Fraction pairs (k, c_k), with an lcm and a rescaling in every floor and sign."""

    __slots__ = ("a", "terms")

    @staticmethod
    def of(value) -> "FractionScalar":
        return value if isinstance(value, FractionScalar) else _fmake(Fraction(value), ())

    @staticmethod
    def from_coordinates(coords: dict) -> "FractionScalar":
        return _fmake(Fraction(coords.get(1, 0)),
                      _fsorted({k: Fraction(c) for k, c in coords.items() if k != 1}))

    def coordinates(self) -> dict:
        out = {1: self.a} if self.a else {}
        out.update(self.terms)
        return out

    def __reduce__(self):
        return _fmake, (self.a, self.terms)

    def __add__(self, other) -> "FractionScalar":
        if isinstance(other, (int, Fraction)):
            return _fmake(self.a + other, self.terms)
        coeffs = dict(self.terms)
        for k, c in other.terms:
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        return _fmake(self.a + other.a, _fsorted(coeffs))

    __radd__ = __add__

    def __neg__(self) -> "FractionScalar":
        return _fmake(-self.a, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other) -> "FractionScalar":
        if isinstance(other, (int, Fraction)):
            return _fmake(self.a - other, self.terms)
        return self + -other

    def __rsub__(self, other) -> "FractionScalar":
        return -self + other

    def _scale(self, c) -> "FractionScalar":
        return _fmake(self.a * c, tuple((k, v * c) for k, v in self.terms) if c else ())

    def __mul__(self, other) -> "FractionScalar":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not other.terms:
            return self._scale(other.a)
        if not self.terms:
            return other._scale(self.a)
        coeffs: dict = {}
        for j, cj in ((1, self.a),) + self.terms:
            for k, ck in ((1, other.a),) + other.terms:
                g = math.gcd(j, k)
                m = j * k // (g * g)
                coeffs[m] = coeffs.get(m, Fraction(0)) + cj * ck * g
        return _fmake(coeffs.pop(1), _fsorted(coeffs))

    __rmul__ = __mul__

    def _conjugate(self, p: int) -> "FractionScalar":
        return _fmake(self.a, tuple((k, -c if k % p == 0 else c) for k, c in self.terms))

    def inverse(self) -> "FractionScalar":
        if not self.terms:
            if not self.a:
                raise ZeroDivisionError("division by zero scalar")
            return _fmake(1 / self.a, ())
        conj = self._conjugate(exactnum._least_prime(self.terms[0][0]))
        return conj * (self * conj).inverse()

    def __truediv__(self, other) -> "FractionScalar":
        return self * FractionScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "FractionScalar":
        return FractionScalar.of(other) * self.inverse()

    def sign(self) -> int:
        if not self.terms:
            return (self.a > 0) - (self.a < 0)
        lo, _ = self._bracket(1 << 64)
        if lo >= 0:
            return 1
        if lo + len(self.terms) <= 0:
            return -1
        return fraction_combo_sign(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.terms and self.a == other
        return self.a == other.a and self.terms == other.terms

    __hash__ = None

    def _bracket(self, times: int) -> tuple[int, int]:
        a, terms = self.a, self.terms
        R = math.lcm(a.denominator, *(c.denominator for _, c in terms))
        lo = a.numerator * (R // a.denominator) * times
        for k, c in terms:
            Q = c.numerator * (R // c.denominator) * times
            root = math.isqrt(Q * Q * k)
            lo += root if Q > 0 else -root - 1
        return lo, R

    def floor(self, times: int = 1) -> int:
        a, terms = self.a, self.terms
        if not terms or not times:
            return a.numerator * times // a.denominator
        lo, R = self._bracket(times)
        n = lo // R
        top = (lo + len(terms) - 1) // R
        while top > n and (self - Fraction(top, times)).sign() * times < 0:
            top -= 1
        return top

    def ceil(self) -> int:
        return -(-self).floor()

    def nearest_int(self) -> int:
        return (self.floor(2) + 1) // 2

    def _text(self, plus: str, minus: str) -> str:
        parts = []
        for k, c in ((1, self.a),) + self.terms:
            if not c:
                continue
            mag = abs(c)
            body = str(mag) if k == 1 else (f"sqrt({k})" if mag == 1 else f"{mag}*sqrt({k})")
            if parts:
                parts.append((plus if c > 0 else minus) + body)
            else:
                parts.append(body if c > 0 else "-" + body)
        return "".join(parts) or "0"

    def __str__(self) -> str:
        return self._text("+", "-")

    def spaced(self) -> str:
        return self._text(" + ", " - ")


def fraction_combo_sign(x: FractionScalar) -> int:
    p = exactnum._least_prime(x.terms[0][0])
    sa = _fmake(x.a, tuple(t for t in x.terms if t[0] % p)).sign()
    cofactor = {k // p: c for k, c in x.terms if k % p == 0}
    sb = _fmake(cofactor.pop(1, Fraction(0)), _fsorted(cofactor)).sign()
    if sa * sb >= 0:
        return sa or sb
    return sa * (x * x._conjugate(p)).sign()


SHARED_DENOMINATORS = (1, 2, 4, 6, 12, 18, 36, 60)     # many common factors
COPRIME_DENOMINATORS = (1, 5, 7, 11, 13, 17, 19)     # pairwise coprime


def oracle_pair(rng, dens, radicands=(2, 3, 5, 6, 7, 10, 30)):
    """The same random scalar, 0 to 4 radicands, as ExactScalar and FractionScalar."""
    coords = {1: Fraction(rng.randint(-40, 40), rng.choice(dens))}
    for k in rng.sample(radicands, rng.randint(0, 4)):
        coords[k] = Fraction(rng.randint(-40, 40), rng.choice(dens))
    return ExactScalar.from_coordinates(coords), FractionScalar.from_coordinates(coords)


def assert_canonical(x: ExactScalar):
    """R > 0, the Q_k nonzero and sorted by distinct radicand, gcd(P, Q_k..., R) = 1."""
    assert type(x.num) is int and type(x.den) is int and x.den > 0
    radicands = [k for k, _ in x.surds]
    assert radicands == sorted(set(radicands))
    assert all(exactnum.check_radicand(k) == k for k in radicands)
    assert all(type(q) is int and q for _, q in x.surds)
    assert math.gcd(x.num, x.den, *(q for _, q in x.surds)) == 1


def assert_agree(x: ExactScalar, f: FractionScalar):
    assert_canonical(x)
    assert x.coordinates() == f.coordinates(), (x, str(f))
    assert (x.a, x.terms) == (f.a, f.terms)
    assert str(x) == str(f) and x.spaced() == f.spaced()


@pytest.mark.parametrize("dens", [SHARED_DENOMINATORS, COPRIME_DENOMINATORS],
                         ids=["shared", "coprime"])
class TestFractionOracle:
    """Every operation of the integer layout against the Fraction-pair scalar."""

    def test_field_operations(self, dens):
        rng = random.Random(101)
        for _ in range(400):
            (x, f), (y, g) = oracle_pair(rng, dens), oracle_pair(rng, dens)
            r = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice(dens))])
            assert_agree(x, f)
            for got, want in [(x + y, f + g), (x - y, f - g), (x * y, f * g), (-x, -f),
                              (x + r, f + r), (r + x, r + f), (x - r, f - r), (r - x, r - f),
                              (x * r, f * r), (r * x, r * f), (x + x, f + f), (x - x, f - f)]:
                assert_agree(got, want)
            if f.coordinates():
                assert_agree(x.inverse(), f.inverse())
                assert_agree(y / x, g / f)
                if r:
                    assert_agree(r / x, r / f)
            if r:
                assert_agree(x / r, f / r)

    def test_order_floors_and_rounding(self, dens):
        rng = random.Random(103)
        for _ in range(300):
            (x, f), (y, g) = oracle_pair(rng, dens), oracle_pair(rng, dens)
            for z, h in [(x, f), (x - y, f - g), (x * y, f * g)]:
                assert z.sign() == h.sign()
                assert (z.ceil(), z.nearest_int()) == (h.ceil(), h.nearest_int())
                for times in (-(2**64) - 1, -12, -7, -2, -1, 0, 1, 2, 3, 7, 60, 10**6):
                    assert z.floor(times) == h.floor(times), (z, times)
            assert (x < y, x <= y, x > y, x >= y) == ((f - g).sign() < 0, (f - g).sign() <= 0,
                                                     (f - g).sign() > 0, (f - g).sign() >= 0)

    def test_equality_hash_and_pickle(self, dens):
        rng = random.Random(107)
        for _ in range(300):
            (x, f), (y, g) = oracle_pair(rng, dens), oracle_pair(rng, dens)
            assert (x == y) == (f == g)
            same = (x + y) - y                  # x again, by another route
            assert same == x and hash(same) == hash(x)
            assert (same.num, same.surds, same.den) == (x.num, x.surds, x.den)
            if not f.terms:
                assert x == f.a and hash(x) == hash(f.a)
            for r in (f.a, f.a.numerator):
                assert (x == r) == (f == r)
            back = pickle.loads(pickle.dumps(x))
            assert back == x and (back.num, back.surds, back.den) == (x.num, x.surds, x.den)


def near_integer_cases() -> list[ExactScalar]:
    """Multi-radicand values q*alpha - p + m within 1/q < 2^-151 of the integer m,
    for the first two convergents p/q of each alpha past 2^151 (one on each side)."""
    return [alpha * r.denominator - r.numerator + m for alpha in ALPHAS
            for r in convergents(alpha, 2**151, 10**55)[:2] for m in (-2, 0, 3)]


FLOOR_TIMES = (1, -1, 3, -5, 2**64 + 1, -(2**64) - 1, 2**128, -(3**100), 2**200, -(2**200))


@pytest.fixture
def brackets(monkeypatch):
    """The `times` of every ExactScalar._bracket call."""
    calls = []
    original = ExactScalar._bracket

    def spy(x, times):
        calls.append(times)
        return original(x, times)

    monkeypatch.setattr(ExactScalar, "_bracket", spy)
    return calls


class TestRefinedFloor:
    """floor's refined bracket against the FractionScalar oracle's descent by signs."""

    def test_near_integer_values_refine_until_decided(self, brackets):
        cases = near_integer_cases()
        assert len(cases) == 24
        deepest = 0
        for y in cases:
            assert len(y.surds) >= 2
            value = decimal_value(y, prec=200)
            m = round(value)
            assert abs(value - m) < Decimal(2) ** -150
            for times in FLOOR_TIMES:
                x = y / times           # times * x = y, over the denominator |times|
                brackets.clear()
                got = x.floor(times)
                assert got == FractionScalar.from_coordinates(x.coordinates()).floor(times), (x, times)
                assert got == (m if value > m else m - 1), (x, times)
                deepest = max(deepest, *((c // times).bit_length() - 1 for c in brackets))
        assert deepest >= 128

    def test_one_radicand_floors_read_one_bracket(self, brackets):
        # for one radicand lo is the exact floor of R*times*self, so s = 0 decides
        for d in (2, 3, 7, 30):
            for p, q in [pq for pq in sqrt_convergents(d, 200) if pq[1] > 10**31][:3]:
                for x in (ExactScalar.of(p) - ExactScalar.root(d, q), ExactScalar.root(d, q) - p,
                          (ExactScalar.of(p) - ExactScalar.root(d, q)) / 7 + Fraction(5, 3)):
                    for times in FLOOR_TIMES:
                        brackets.clear()
                        want = FractionScalar.from_coordinates(x.coordinates()).floor(times)
                        assert (x.floor(times), brackets) == (want, [times]), (x, times)


class TestCanonicalForm:
    def test_results_are_canonical(self):
        rng = random.Random(109)
        for _ in range(300):
            x, y = rand_multi(rng), rand_multi(rng)
            for z in (x, y, x + y, x - y, x * y, -x, 3 * x, x / 6, x - x, x * 0,
                      ExactScalar.of(x.a), ExactScalar(x.a, 2, 7)):
                assert_canonical(z)
            if not x.is_zero():
                assert_canonical(x.inverse())
                assert_canonical(y / x)

    def test_content_and_sign_are_divided_out(self):
        x = ExactScalar.from_coordinates({1: Fraction(6, 4), 2: Fraction(-9, 6)})
        assert (x.num, x.surds, x.den) == (3, ((2, -3),), 2)
        assert ExactScalar.of(Fraction(-3, 4)).inverse().den == 3
        assert (ExactScalar.of(Fraction(-3, 4)).inverse().num) == -4
        zero = R2 - R2
        assert (zero.num, zero.surds, zero.den) == (0, (), 1)
        half = (R2 / 2) * R2
        assert (half.num, half.surds, half.den) == (1, (), 1)


    def test_coordinates_must_be_rational(self):
        for make in (lambda: ExactScalar(R2), lambda: ExactScalar(1, R2, 3),
                     lambda: ExactScalar.from_coordinates({2: R3})):
            with pytest.raises(TypeError):
                make()


class TestRationalKeys:
    def test_rational_scalars_hash_as_their_value(self):
        for value in (0, 3, -7, Fraction(1, 2), Fraction(-22, 7)):
            x = ExactScalar.of(value)
            assert x == value and hash(x) == hash(value)
            assert {x: "v"}.get(value) == "v" and {value: "v"}.get(x) == "v"
        assert hash(R2 * R2) == hash(2) and {(1 + R2) * (1 - R2): "v"}.get(-1) == "v"
        assert {R3 * R3 / 6: "v"}.get(Fraction(1, 2)) == "v"

    def test_irrational_keys(self):
        x = 1 + R2 / 3
        table = {x: "v"}
        assert table.get(parse_scalar("1 + 1/3*sqrt(2)")) == "v"
        assert table.get(1) is None and table.get(R2 / 3) is None


def test_traced_operations_are_class_attributes():
    """perfbench/tracer.py wraps these methods by name in ExactScalar.__dict__;
    a refactor that moves one off the class would silently stop its counter."""
    for name in ("sign", "floor", "nearest_int", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__mul__", "__rmul__", "inverse"):
        assert callable(ExactScalar.__dict__.get(name)), name
