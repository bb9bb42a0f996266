"""Exact arithmetic in real multi-quadratic fields Q(sqrt(k_1), ..., sqrt(k_r)).

A scalar is a + sum(c_k * sqrt(k)) with rational a and c_k over distinct
squarefree radicands k >= 2.  Rationals have no radicand terms, and scalars
over different radicands combine freely.  Every decision is exact: the sign
of a + b*sqrt(d) compares a^2 with b^2*d, the sign of a scalar with several
radicands removes one prime per squaring (combo_sign), and floors come from
integer square roots.  No floating point enters any decision.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import ParseError

RationalLike = int | Fraction

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_set = object.__setattr__


def check_radicand(d: int) -> int:
    """d itself if it is a squarefree integer >= 2, else ValueError."""
    if d < 2 or any(d % (p * p) == 0 for p in range(2, isqrt(d) + 1)):
        raise ValueError(f"radicand must be squarefree and >= 2, got {d}")
    return d


def _least_prime(k: int) -> int:
    return next((p for p in range(2, isqrt(k) + 1) if k % p == 0), k)


def _make(a: Fraction, terms: tuple) -> "ExactScalar":
    x = object.__new__(ExactScalar)
    _set(x, "a", a)
    _set(x, "terms", terms)
    return x


def _sorted_terms(coeffs: dict[int, Fraction]) -> tuple:
    return tuple(sorted((k, c) for k, c in coeffs.items() if c))


class ExactScalar:
    """An element a + sum(c_k*sqrt(k)) of a real multi-quadratic field.

    Canonical and immutable: `a` is the rational part and `terms` holds the
    pairs (k, c_k) with c_k != 0, sorted by radicand.
    """

    __slots__ = ("a", "terms")

    def __init__(self, a: RationalLike, b: RationalLike = 0, d: int = 0):
        """The scalar a + b*sqrt(d); d is ignored when b is zero."""
        b = Fraction(b)
        _set(self, "a", Fraction(a))
        _set(self, "terms", ((check_radicand(d), b),) if b else ())

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return _make, (self.a, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: RationalLike | "ExactScalar") -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return _make(Fraction(value), ())

    @staticmethod
    def root(d: int, coeff: RationalLike = 1) -> "ExactScalar":
        """The scalar coeff*sqrt(d)."""
        return ExactScalar(0, coeff, d)

    @staticmethod
    def from_coordinates(coords: dict[int, RationalLike]) -> "ExactScalar":
        """The scalar sum(c_k*sqrt(k)) for {k: c_k}; key 1 is the rational part."""
        terms = {check_radicand(k): Fraction(c) for k, c in coords.items() if k != 1}
        return _make(Fraction(coords.get(1, 0)), _sorted_terms(terms))

    # -- predicates --------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return not self.a and not self.terms

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise ValueError(f"{self} is irrational")
        return self.a

    def coordinates(self) -> dict[int, Fraction]:
        """Nonzero coefficients by radicand; key 1 holds the rational part."""
        out = {1: self.a} if self.a else {}
        out.update(self.terms)
        return out

    # -- field structure ---------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return _make(self.a + other, self.terms)
        other = ExactScalar.of(other)
        s, o = self.terms, other.terms
        if not s or not o:
            terms = s or o
        else:
            coeffs = dict(s)
            for k, c in o:
                coeffs[k] = coeffs.get(k, _ZERO) + c
            terms = _sorted_terms(coeffs)
        return _make(self.a + other.a, terms)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _make(-self.a, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return _make(self.a - other, self.terms)
        return self + -ExactScalar.of(other)

    def __rsub__(self, other) -> "ExactScalar":
        return -self + other

    def _scale(self, c: RationalLike) -> "ExactScalar":
        return _make(self.a * c, tuple((k, v * c) for k, v in self.terms) if c else ())

    def __mul__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = ExactScalar.of(other)
        if not other.terms:
            return self._scale(other.a)
        if not self.terms:
            return other._scale(self.a)
        # sqrt(j)*sqrt(k) = g*sqrt(j*k/g^2) with g = gcd(j, k), for squarefree j, k
        coeffs: dict[int, Fraction] = {}
        for j, cj in ((1, self.a),) + self.terms:
            for k, ck in ((1, other.a),) + other.terms:
                g = gcd(j, k)
                m = j * k // (g * g)
                coeffs[m] = coeffs.get(m, _ZERO) + cj * ck * g
        return _make(coeffs.pop(1), _sorted_terms(coeffs))

    __rmul__ = __mul__

    def _conjugate(self, p: int) -> "ExactScalar":
        """The image under sqrt(p) -> -sqrt(p): flips the terms whose radicand p divides."""
        return _make(self.a, tuple((k, -c if k % p == 0 else c) for k, c in self.terms))

    def inverse(self) -> "ExactScalar":
        if not self.terms:
            if not self.a:
                raise ZeroDivisionError("division by zero scalar")
            return _make(1 / self.a, ())
        # x * conj(x) has no radicand divisible by p, so the recursion ends
        conj = self._conjugate(_least_prime(self.terms[0][0]))
        return conj * (self * conj).inverse()

    def __truediv__(self, other) -> "ExactScalar":
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.of(other) * self.inverse()

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real number, in {-1, 0, +1}."""
        a, terms = self.a, self.terms
        sa = (a > 0) - (a < 0)
        if not terms:
            return sa
        if len(terms) > 1:
            return combo_sign(self)
        (d, b), = terms
        sb = (b > 0) - (b < 0)
        if sa == 0 or sa == sb:
            return sb
        # opposite signs: |a| vs |b|*sqrt(d) by squaring, never equal for squarefree d
        return sa if a * a > b * b * d else sb

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.terms and self.a == other
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.a == other.a and self.terms == other.terms

    def __hash__(self):
        return hash((self.a, self.terms))

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> "ExactScalar":
        return -self if self.sign() < 0 else self

    # -- integer bracketing (no floats) -------------------------------------

    def floor(self, times: int = 1) -> int:
        """floor(times * self) for every integer times, without forming the product:
        floor((times*P + sum(times*Q_k*sqrt(k))) / R) over the common denominator R."""
        a, terms = self.a, self.terms
        if not terms or not times:
            return a.numerator * times // a.denominator
        R = lcm(a.denominator, *(c.denominator for _, c in terms))
        s = 0
        for k, c in terms:
            Q = c.numerator * (R // c.denominator) * times
            root = isqrt(Q * Q * k)    # Q*sqrt(k) is irrational: floor is root or -root-1
            s += root if Q > 0 else -root - 1
        P = a.numerator * (R // a.denominator) * times
        n = (P + s) // R
        # the t fractional parts sum to less than t, so floor(sum Q_k*sqrt(k)) <= s + t - 1
        top = (P + s + len(terms) - 1) // R
        # times*x - top has the sign of times * sign(x - top/times)
        while top > n and (self - Fraction(top, times)).sign() * times < 0:
            top -= 1
        return top

    def ceil(self) -> int:
        return -(-self).floor()

    def nearest_int(self) -> int:
        """Nearest integer, ties rounded up."""
        return (self + _HALF).floor()

    def __float__(self) -> float:
        return float(self.a) + sum(float(c) * k**0.5 for k, c in self.terms)

    # -- printing ----------------------------------------------------------

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
        """Like str(), with the terms joined by ' + ' and ' - '."""
        return self._text(" + ", " - ")

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


def combo_sign(x: ExactScalar) -> int:
    """Exact sign of a scalar; ExactScalar.sign calls it for two or more radicands.

    With p the least prime of the first radicand, x = A + sqrt(p)*C where
    neither A nor C has a radicand divisible by p.  When A and C have opposite
    signs, sign(x) = sign(A) * sign(A^2 - p*C^2), and A^2 - p*C^2 =
    x * conj_p(x): each squaring eliminates one prime.
    """
    signs = {c > 0 for _, c in x.terms}
    if x.a:
        signs.add(x.a > 0)
    if len(signs) < 2:
        return (1 if signs.pop() else -1) if signs else 0
    p = _least_prime(x.terms[0][0])
    sa = _make(x.a, tuple(t for t in x.terms if t[0] % p)).sign()
    cofactor = {k // p: c for k, c in x.terms if k % p == 0}
    sb = _make(cofactor.pop(1, _ZERO), _sorted_terms(cofactor)).sign()
    if sa * sb >= 0:
        return sa or sb
    return sa * (x * x._conjugate(p)).sign()


_TERM_START = re.compile(r"(?<=[^-+*/(])(?=[-+])")


def _rational(piece: str, text: str) -> Fraction:
    try:
        return Fraction(piece)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {piece!r} in scalar {text!r}") from None


def parse_scalars(entries: list[str], d: int = 0) -> tuple[ExactScalar, ...]:
    """Parse scalars, each a signed sum of terms q, q*s and q*sqrt(k) (q by Fraction).

    A bare `s` or `sqrt(k)` has coefficient 1, and radicands mix freely.  `s` is
    sqrt(d) for a declared d, else the first sqrt(k) with a nonzero coefficient
    written earlier in the list.  Raises ParseError on malformed input, a bad
    radicand, or an `s` with no radicand to stand for.
    """
    out = []
    for text in entries:
        src = "".join(text.split())
        if not src:
            raise ParseError("empty scalar")
        total = ExactScalar.of(0)
        for term in _TERM_START.split(src):
            body = term.lstrip("+-")
            if not body:
                raise ParseError(f"dangling sign in scalar {text!r}")
            head, star, atom = body.rpartition("*")
            sign = -1 if term.count("-", 0, len(term) - len(body)) % 2 else 1
            q = sign * _rational(head, text) if star else sign
            if atom == "s":
                if not d:
                    raise ParseError(f"s used in {text!r} but no quadratic field declared")
                total += ExactScalar.root(d, q)
            elif atom.startswith("sqrt(") and atom.endswith(")"):
                try:
                    k = check_radicand(int(atom[5:-1]))
                except ValueError:
                    raise ParseError(f"bad radical {atom!r} in scalar {text!r}; "
                                     "a radicand is a squarefree integer >= 2") from None
                total += ExactScalar.root(k, q)
                if not d and q:
                    d = k
            else:
                total += q * _rational(atom, text)
        out.append(total)
    return tuple(out)


def parse_scalar(text: str, d: int = 0) -> ExactScalar:
    """One scalar in the syntax of `parse_scalars`."""
    return parse_scalars([text], d)[0]


def sign(q: ExactScalar) -> int:
    """Module-level alias for ExactScalar.sign."""
    return ExactScalar.of(q).sign()
