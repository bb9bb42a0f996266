"""Sparse multivariate polynomials over Q with weighted gradings.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients,
tagged with the tuple of variable names that fixes its ring.  Weights are
ExactScalar (so gradings by quadratic irrationals compare exactly), while
coefficients stay rational throughout.

Initial forms follow the minimal-weight convention: initial_form keeps the
terms of least weight, which is the part surviving the substitution
z_i -> t^{w_i} z_i as t -> 0.  The fixed tie-break order everywhere is
graded reverse lexicographic on the declared variable order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, le, mul
from typing import Iterable

from .errors import ArityError, ParseError
from .exactnum import ExactScalar

Monomial = tuple[int, ...]


# -- monomial helpers --------------------------------------------------------

def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))

def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))

def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _rescaled(ws: tuple[ExactScalar, ...]) -> tuple[int, ...] | None:
    """Rational weights times the lcm of their denominators, which keeps every
    comparison of weights and skips ExactScalar; None if one is irrational."""
    if all(w.is_rational() for w in ws):
        scale = lcm(*(w.den for w in ws))
        return tuple(w.num * (scale // w.den) for w in ws)
    return None


def least_weight(terms: dict, ws: tuple[ExactScalar, ...]) -> dict:
    """The terms of least weight under ws: on integers for rational weights."""
    ints = _rescaled(ws)
    if ints is None:
        zero = ExactScalar.of(0)
        graded = {m: sum((w * e for w, e in zip(ws, m) if e), zero) for m in terms}
    else:
        graded = {m: sum(map(mul, ints, m)) for m in terms}
    low = min(graded.values())
    return {m: c for m, c in terms.items() if graded[m] == low}


@dataclass(frozen=True)
class TermOrder:
    """grevlex, optionally refined by a weight vector and an elimination block.

    Comparison: (1) total degree in the first `elim` variables, grevlex within
    the block as tie-break; (2) weight of the full monomial, larger first;
    (3) grevlex over all variables.  Weights must all be positive so the order
    is global; larger key = larger monomial.  Keys are memoized on the order,
    for printing, `leading_monomial` and irrational weights: the Buchberger
    kernel compares packed ints instead (`groebner._Packing`).
    """

    nvars: int
    weights: tuple[ExactScalar, ...] | None = None
    elim: int = 0
    _int_weights: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != self.nvars:
                raise ArityError("weight vector length does not match ring arity")
            ws = tuple(ExactScalar.of(w) for w in self.weights)
            if any(w.sign() <= 0 for w in ws):
                raise ValueError("order weights must be strictly positive")
            object.__setattr__(self, "weights", ws)
            object.__setattr__(self, "_int_weights", _rescaled(ws))
        object.__setattr__(self, "_cache", {})

    def key(self, m: Monomial):
        cache = self._cache
        hit = cache.get(m)
        if hit is not None:
            return hit
        parts: list = []
        if self.elim:
            parts.append(_grevlex_key(m[: self.elim]))
        if self._int_weights is not None:
            parts.append(sum([w * e for w, e in zip(self._int_weights, m)]))
        elif self.weights is not None:
            total = ExactScalar.of(0)
            for w, e in zip(self.weights, m):
                if e:
                    total = total + w * e
            parts.append(total)
        parts.append(_grevlex_key(m))
        result = tuple(parts)
        cache[m] = result
        return result


# -- polynomials --------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial over Q in named variables."""

    ring: tuple[str, ...]
    terms: dict[Monomial, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for mono, coeff in self.terms.items():
            coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
            if not coeff:
                continue
            if len(mono) != len(self.ring):
                raise ArityError(f"monomial {mono} has wrong arity for ring {self.ring}")
            clean[tuple(mono)] = coeff
        object.__setattr__(self, "terms", clean)

    # constructors
    @staticmethod
    def zero(ring: Iterable[str]) -> "Polynomial":
        return Polynomial(tuple(ring), {})

    @staticmethod
    def constant(ring: Iterable[str], value) -> "Polynomial":
        ring = tuple(ring)
        return Polynomial(ring, {(0,) * len(ring): Fraction(value)})

    @staticmethod
    def variable(ring: Iterable[str], name: str) -> "Polynomial":
        ring = tuple(ring)
        idx = ring.index(name)
        expo = [0] * len(ring)
        expo[idx] = 1
        return Polynomial(ring, {tuple(expo): Fraction(1)})

    # structure
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ArityError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # arithmetic
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        return Polynomial(self.ring, {m: c * value for m, c in self.terms.items()})

    def derivative(self, var_index: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            dm = list(m)
            dm[var_index] = e - 1
            key = tuple(dm)
            out[key] = out.get(key, Fraction(0)) + c * e
        return Polynomial(self.ring, out)

    # order-dependent views
    def leading_monomial(self, order: TermOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    # printing
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda item: _grevlex_key(item[0]), reverse=True):
            factors = []
            for name, e in zip(self.ring, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- weighted gradings --------------------------------------------------------

@dataclass(frozen=True)
class WeightData:
    """Positive weights for the ring variables, plus family metadata.

    `weights` grades the z-variables; when `t_weight` (the positive integer w
    with t scaling as lambda^{-w}) is present, a trailing t-variable carries
    weight -t_weight.  `form_weight` is the weight of the symplectic form when
    the input carries one.
    """

    weights: tuple[ExactScalar, ...]
    t_weight: Fraction | None = None
    form_weight: Fraction | None = None

    def __post_init__(self):
        ws = tuple(ExactScalar.of(w) for w in self.weights)
        if any(w.sign() <= 0 for w in ws):
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "weights", ws)
        if self.t_weight is not None:
            tw = Fraction(self.t_weight)
            if tw <= 0:
                raise ValueError("t-weight must be positive")
            object.__setattr__(self, "t_weight", tw)
        if self.form_weight is not None:
            fw = Fraction(self.form_weight)
            if fw <= 0:
                raise ValueError("form weight must be positive")
            object.__setattr__(self, "form_weight", fw)

    def integer_weights(self) -> tuple[int, ...]:
        out = []
        for w in self.weights:
            f = w.as_fraction()
            if f.denominator != 1:
                raise ValueError("integer weights required")
            out.append(f.numerator)
        return tuple(out)

    def full_vector(self, arity: int) -> tuple[ExactScalar, ...]:
        """Weight per ring position; supports an optional trailing t."""
        if arity == len(self.weights):
            return self.weights
        if arity == len(self.weights) + 1 and self.t_weight is not None:
            return self.weights + (ExactScalar.of(-self.t_weight),)
        raise ArityError(f"cannot grade arity {arity} with {len(self.weights)} weights")


def term_weight(mono: Monomial, wd: WeightData) -> ExactScalar:
    """Weighted degree of a monomial; a trailing t counts with -t_weight."""
    vec = wd.full_vector(len(mono))
    total = ExactScalar.of(0)
    for w, e in zip(vec, mono):
        if e:
            total = total + w * e
    return total


def initial_form(f: Polynomial, wd: WeightData) -> Polynomial:
    """Sum of the terms of minimal weight."""
    if f.is_zero():
        raise ValueError("zero polynomial has no initial form")
    return Polynomial(f.ring, least_weight(f.terms, wd.full_vector(len(f.ring))))


def homogeneous_weight(f: Polynomial, wd: WeightData) -> ExactScalar | None:
    """Common weight of all terms, or None if the terms disagree.

    The zero polynomial is homogeneous of every weight; use is_homogeneous
    to distinguish that case from a genuine disagreement.
    """
    n = len(f.terms)
    if not n or n > 1 and len(least_weight(f.terms, wd.full_vector(len(f.ring)))) < n:
        return None
    return term_weight(next(iter(f.terms)), wd)


def is_homogeneous(f: Polynomial, wd: WeightData) -> bool:
    if f.is_zero():
        return True
    return homogeneous_weight(f, wd) is not None


# -- polynomial parsing --------------------------------------------------------

_NUM_CHARS = set("0123456789")


def _tokenize(text: str, line: int | None):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in "+-*^":
            tokens.append((ch, ch, col))
            i += 1
        elif ch in _NUM_CHARS:
            j = i
            while j < n and text[j] in _NUM_CHARS:
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k] in _NUM_CHARS:
                    k += 1
                if k == j + 1:
                    raise ParseError("missing denominator", line, j + 1)
                if not int(text[j + 1:k]):
                    raise ParseError("zero denominator", line, col)
                tokens.append(("num", Fraction(int(text[i:j]), int(text[j + 1:k])), col))
                i = k
            else:
                tokens.append(("num", Fraction(int(text[i:j])), col))
                i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], col))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


def parse_polynomial(text: str, ring: Iterable[str], line: int | None = None) -> Polynomial:
    """Parse `+ - * ^` polynomial syntax with explicit multiplication."""
    ring = tuple(ring)
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty polynomial", line)
    terms: dict[Monomial, Fraction] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] in "+-":
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign", line, tokens[-1][2])
        coeff = Fraction(sign)
        expo = [0] * len(ring)
        expect_factor = True
        while i < n:
            kind, value, col = tokens[i]
            if kind == "num":
                coeff *= value
                i += 1
            elif kind == "name":
                if value not in ring:
                    raise ParseError(f"unknown variable {value!r}", line, col)
                idx = ring.index(value)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "^":
                    i += 1
                    if i >= n or tokens[i][0] != "num" or tokens[i][1].denominator != 1:
                        raise ParseError("exponent must be an integer", line, col)
                    power = tokens[i][1].numerator
                    i += 1
                expo[idx] += power
            else:
                raise ParseError(f"unexpected token {value!r}", line, col)
            expect_factor = False
            if i < n and tokens[i][0] == "*":
                i += 1
                expect_factor = True
                continue
            if i < n and tokens[i][0] not in "+-":
                raise ParseError("missing '*' between factors", line, tokens[i][2])
            break
        if expect_factor:
            raise ParseError("dangling '*'", line)
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(ring, terms)
