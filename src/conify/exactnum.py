"""Exact arithmetic in real multi-quadratic fields Q(sqrt(k_1), ..., sqrt(k_r)).

A scalar a + sum(c_k * sqrt(k)) over distinct squarefree radicands k >= 2 is
stored as integers over one denominator, (P + sum(Q_k*sqrt(k))) / R, as in
FLINT's nf_elem; rationals have no radicand terms, and radicands mix freely.
Field operations run on the integers with one gcd per result.  Decisions are
exact: floors and signs bracket R*times*x by integer square roots.  A sign
reads the bracket at times = 2^64, and only one that holds 0 goes to the
fallback combo_sign, the sign of the floor; a floor refines its bracket by
2^64 until it lies in one integer cell, which ends because a scalar with a
surd is irrational (Besicovitch, J. London Math. Soc. 15, 1940).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import ParseError

RationalLike = int | Fraction

_set = object.__setattr__


def check_radicand(d: int) -> int:
    """d itself if it is a squarefree integer >= 2, else ValueError, in O(d^(1/3)) steps:
    trial division runs while p^3 <= n for the cofactor n, which is then 1, a prime, a
    product of two primes or a prime squared, so squarefree unless it is a square > 1."""
    n, p = d, 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                break
        p += 1 + (p & 1)
    else:
        if d >= 2 and (n == 1 or isqrt(n) ** 2 != n):
            return d
    raise ValueError(f"radicand must be squarefree and >= 2, got {d}")


def _least_prime(k: int) -> int:
    return next((p for p in range(2, isqrt(k) + 1) if k % p == 0), k)


def _new(num: int, surds: tuple, den: int) -> "ExactScalar":
    """(num + sum(q*sqrt(k))) / den for den > 0, with the content gcd(num, q..., den) divided out."""
    g = gcd(num, den)
    if g != 1 and (g := gcd(g, *(q for _, q in surds))) != 1:
        num, den, surds = num // g, den // g, tuple((k, q // g) for k, q in surds)
    x = object.__new__(ExactScalar)
    _set(x, "num", num)
    _set(x, "surds", surds)
    _set(x, "den", den)
    return x


def _from_dict(coeffs: dict[int, int], den: int) -> "ExactScalar":
    """sum(q_k*sqrt(k)) / den for den > 0; key 1 is the rational part."""
    return _new(coeffs.pop(1, 0), tuple(sorted((k, q) for k, q in coeffs.items() if q)), den)


def _times(surds: tuple, n: int) -> tuple:
    return surds if n == 1 else tuple((k, q * n) for k, q in surds)


def _parts(x) -> tuple[int, tuple, int]:
    """(num, surds, den) of a scalar; a rational enters as (numerator, (), denominator)."""
    if isinstance(x, ExactScalar):
        return x.num, x.surds, x.den
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator, (), x.denominator


class ExactScalar:
    """An element (num + sum(q_k*sqrt(k))) / den of a real multi-quadratic field.

    Canonical and immutable: `surds` holds the pairs (k, q_k) with q_k != 0
    sorted by radicand, den > 0, and gcd(num, q_k..., den) = 1.  The views `a`
    (the rational part) and `terms` (the pairs (k, c_k)) are Fractions.
    """

    __slots__ = ("num", "surds", "den")

    def __new__(cls, a: RationalLike, b: RationalLike = 0, d: int = 0):
        """The scalar a + b*sqrt(d); d is ignored when b is zero."""
        return ExactScalar.from_coordinates({1: a, check_radicand(d): b} if Fraction(b) else {1: a})

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    def __reduce__(self):
        return _new, (self.num, self.surds, self.den)

    a = property(lambda self: Fraction(self.num, self.den), doc="The rational part.")
    terms = property(lambda self: tuple((k, Fraction(q, self.den)) for k, q in self.surds))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: RationalLike | "ExactScalar") -> "ExactScalar":
        return value if isinstance(value, ExactScalar) else _new(*_parts(value))

    @staticmethod
    def root(d: int, coeff: RationalLike = 1) -> "ExactScalar":
        """The scalar coeff*sqrt(d)."""
        return ExactScalar(0, coeff, d)

    @staticmethod
    def from_coordinates(coords: dict[int, RationalLike]) -> "ExactScalar":
        """The scalar sum(c_k*sqrt(k)) for {k: c_k}; key 1 is the rational part."""
        parts = {k if k == 1 else check_radicand(k): _parts(c) for k, c in coords.items()}
        if any(surds for _, surds, _ in parts.values()):
            raise TypeError("coordinates must be rational")
        r = lcm(*(d for _, _, d in parts.values()))
        return _from_dict({k: n * (r // d) for k, (n, _, d) in parts.items()}, r)

    def is_rational(self) -> bool:
        return not self.surds

    def is_zero(self) -> bool:
        return not self.num and not self.surds

    def as_fraction(self) -> Fraction:
        if self.surds:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.num, self.den)

    def coordinates(self) -> dict[int, Fraction]:
        """Nonzero coefficients by radicand; key 1 holds the rational part."""
        return {k: c for k, c in ((1, self.a),) + self.terms if c}

    # -- field structure ---------------------------------------------------

    def _add(self, num: int, surds: tuple, den: int) -> "ExactScalar":
        """self + (num + sum(q*sqrt(k))) / den, over the lcm of the denominators."""
        n, s, r = self.num, self.surds, self.den
        if r != den:
            g = gcd(r, den)
            u, v = den // g, r // g
            n, s, num, surds, r = n * u, _times(s, u), num * v, _times(surds, v), r * u
        if not s or not surds:
            return _new(n + num, s or surds, r)
        coeffs = {1: n + num, **dict(s)}
        for k, q in surds:
            coeffs[k] = coeffs.get(k, 0) + q
        return _from_dict(coeffs, r)

    def __add__(self, other) -> "ExactScalar":
        return self._add(*_parts(other))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _new(-self.num, _times(self.surds, -1), self.den)

    def __sub__(self, other) -> "ExactScalar":
        num, surds, den = _parts(other)
        return self._add(-num, _times(surds, -1), den)

    def __rsub__(self, other) -> "ExactScalar":
        return -self + other

    def _scale(self, n: int, d: int) -> "ExactScalar":
        """self * n/d for d > 0."""
        return _new(self.num * n, _times(self.surds, n) if n else (), self.den * d)

    def __mul__(self, other) -> "ExactScalar":
        num, surds, den = _parts(other)
        if not surds:
            return self._scale(num, den)
        if not self.surds:
            return other._scale(self.num, self.den)
        # sqrt(j)*sqrt(k) = g*sqrt(j*k/g^2) with g = gcd(j, k), for squarefree j, k
        coeffs: dict[int, int] = {}
        for j, p in ((1, self.num),) + self.surds:
            for k, q in ((1, num),) + surds:
                g = gcd(j, k)
                m = j * k // (g * g)
                coeffs[m] = coeffs.get(m, 0) + p * q * g
        return _from_dict(coeffs, self.den * den)

    __rmul__ = __mul__

    def _conjugate(self, p: int) -> "ExactScalar":
        """The image under sqrt(p) -> -sqrt(p): flips the terms whose radicand p divides."""
        return _new(self.num, tuple((k, -q if k % p == 0 else q) for k, q in self.surds), self.den)

    def inverse(self) -> "ExactScalar":
        if not self.surds:
            if not self.num:
                raise ZeroDivisionError("division by zero scalar")
            return _new(self.den, (), self.num) if self.num > 0 else _new(-self.den, (), -self.num)
        # x * conj(x) has no radicand divisible by p, so the recursion ends
        conj = self._conjugate(_least_prime(self.surds[0][0]))
        return conj * (self * conj).inverse()

    def __truediv__(self, other) -> "ExactScalar":
        return self * ExactScalar.of(other).inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.of(other) * self.inverse()

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        """Sign, in {-1, 0, +1}: +1 if lo >= 0 and -1 if lo + t <= 0 for the bracket of
        2^64*self; only a bracket that holds 0 goes to the exact fallback combo_sign."""
        if not self.surds:
            return (self.num > 0) - (self.num < 0)
        lo = self._bracket(1 << 64)
        return 1 if lo >= 0 else -1 if lo + len(self.surds) <= 0 else combo_sign(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.surds and self.num == other.numerator and self.den == other.denominator
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.surds == other.surds

    def __hash__(self):
        # a rational scalar equals its Fraction, so it hashes as one
        return hash((self.num, self.surds, self.den) if self.surds else Fraction(self.num, self.den))

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

    def _bracket(self, times: int) -> int:
        """lo with R*times*self = P*times + sum(Q_k*times*sqrt(k)) strictly inside (lo, lo + t)
        for t radicands: lo = P*times + sum(floor(Q_k*times*sqrt(k))), floored by isqrt."""
        lo = self.num * times
        for k, q in self.surds:
            q *= times
            root = isqrt(q * q * k)
            lo += root if q > 0 else -root - 1
        return lo

    def floor(self, times: int = 1) -> int:
        """floor(times * self) for every integer times, without forming the product:
        the bracket (lo, lo + t) of scale*times*self, scale = R*2^s for s = 0, 64,
        128, ..., until its floor's bounds lo // scale and (lo + t - 1) // scale agree."""
        if not self.surds or not times:
            return self.num * times // self.den
        lo, scale, t = self._bracket(times), self.den, len(self.surds)
        while lo // scale != (lo + t - 1) // scale:
            times, scale = times << 64, scale << 64
            lo = self._bracket(times)
        return lo // scale

    def ceil(self) -> int:
        return -(-self).floor()

    def nearest_int(self) -> int:
        """Nearest integer, ties rounded up: floor(self + 1/2)."""
        return (self.floor(2) + 1) // 2

    def __float__(self) -> float:
        return self.num / self.den + sum(q / self.den * k**0.5 for k, q in self.surds)

    def _text(self, plus: str, minus: str) -> str:
        out = ""
        for k, q in ((1, self.num),) + self.surds:
            if q:
                g = gcd(q, self.den)
                mag = f"{abs(q) // g}" + ("" if g == self.den else f"/{self.den // g}")
                body = mag if k == 1 else (f"sqrt({k})" if mag == "1" else f"{mag}*sqrt({k})")
                out += ((plus if q > 0 else minus) if out else ("" if q > 0 else "-")) + body
        return out or "0"

    def __str__(self) -> str:
        return self._text("+", "-")

    def spaced(self) -> str:
        """Like str(), with the terms joined by ' + ' and ' - '."""
        return self._text(" + ", " - ")

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


def combo_sign(x: ExactScalar) -> int:
    """Exact sign of a scalar, the fallback of ExactScalar.sign near 0: a scalar
    with a surd is irrational, so it is positive iff its floor is at least 0."""
    if not x.surds:
        return x.sign()
    return 1 if x.floor() >= 0 else -1


_TERM_START = re.compile(r"(?<=[^-+*/(])(?=[-+])")


def _ratio(piece: str, text: str) -> tuple[int, int]:
    """(n, d) with piece = n/d as Fraction reads it; plain a and a/b are read by int."""
    a, slash, b = piece.partition("/")
    try:
        if a.isdecimal() and (b.isdecimal() or not slash) and (d := int(b) if slash else 1):
            return int(a), d
        x = Fraction(piece)
        return x.numerator, x.denominator
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {piece!r} in scalar {text!r}") from None


def parse_scalars(entries: list[str], d: int = 0) -> tuple[ExactScalar, ...]:
    """Parse scalars, each a signed sum of terms q, q*s and q*sqrt(k) (q as Fraction reads it).

    A bare `s` or `sqrt(k)` has coefficient 1, and radicands mix freely.  `s` is
    sqrt(d) for a declared d, else the first sqrt(k) with a nonzero coefficient
    written earlier in the list.  Each term is read as integers (k, n, den) for
    n/den*sqrt(k), k = 1 for a rational term, and a scalar is summed once over the
    lcm of its denominators.  Raises ParseError on malformed input, a bad
    radicand, or an `s` with no radicand to stand for.
    """
    out = []
    for text in entries:
        src = "".join(text.split())
        if not src:
            raise ParseError("empty scalar")
        terms = []
        for term in _TERM_START.split(src):
            body = term.lstrip("+-")
            if not body:
                raise ParseError(f"dangling sign in scalar {text!r}")
            head, star, atom = body.rpartition("*")
            n, den = _ratio(head, text) if star else (1, 1)
            if term.count("-", 0, len(term) - len(body)) % 2:
                n = -n
            if atom == "s":
                if not d:
                    raise ParseError(f"s used in {text!r} but no quadratic field declared")
                k = check_radicand(d)
            elif atom.startswith("sqrt(") and atom.endswith(")"):
                try:
                    k = check_radicand(int(atom[5:-1]))
                except ValueError:
                    raise ParseError(f"bad radical {atom!r} in scalar {text!r}; "
                                     "a radicand is a squarefree integer >= 2") from None
                if not d and n:
                    d = k
            else:
                a, b = _ratio(atom, text)
                k, n, den = 1, n * a, den * b
            terms.append((k, n, den))
        r = lcm(*(den for _, _, den in terms))
        coeffs: dict[int, int] = {}
        for k, n, den in terms:
            coeffs[k] = coeffs.get(k, 0) + n * (r // den)
        out.append(_from_dict(coeffs, r))
    return tuple(out)


def parse_scalar(text: str, d: int = 0) -> ExactScalar:
    """One scalar in the syntax of `parse_scalars`."""
    return parse_scalars([text], d)[0]

