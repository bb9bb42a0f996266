"""Sparse multivariate polynomials over Q with weighted gradings.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients,
tagged with the tuple of variable names that fixes its ring.  Every grading,
a TermOrder's weights too, comes from `_grades`, the one test of rational
weights (ints over a denominator s) against irrational ones (ExactScalars).

Initial forms follow the minimal-weight convention: initial_form keeps the
terms of least weight, which is the part surviving the substitution
z_i -> t^{w_i} z_i as t -> 0.  The fixed tie-break order everywhere is
graded reverse lexicographic on the declared variable order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add, le, mul
from typing import Iterable, NoReturn

from .errors import ArityError, ParseError
from .exactnum import ExactScalar, _parts

Monomial = tuple[int, ...]


# -- monomial helpers --------------------------------------------------------

def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    return all(map(le, m1, m2))

def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))

def minimal_monomials(monos: Iterable[Monomial]) -> list[Monomial]:
    """The minimal generators of the ideal of the monomials, in increasing grevlex order (Cox, Little and
    O'Shea, *Ideals, Varieties, and Algorithms*, 2.4): a proper divisor has lower degree, so it is kept first."""
    minimal: list[Monomial] = []
    for m in sorted(monos, key=_grevlex_key):
        if not any(mono_divides(d, m) for d in minimal):
            minimal.append(m)
    return minimal


def _partial(terms: dict, k: int) -> dict:
    """The partial derivative by the k-th variable of a term dict."""
    return {m[:k] + (m[k] - 1,) + m[k + 1:]: c * m[k] for m, c in terms.items() if m[k]}


def _product(f: dict, g: dict, out: dict) -> dict:
    """Add the product of two term dicts into out."""
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def _grades(ws) -> tuple[tuple, int | None]:
    """(g, s): for rational weights (int, Fraction or ExactScalar entries alike) g
    is integers over s, the lcm of their denominators, so g.e = s*wt(e) for every
    exponent tuple e; for irrational ones g is the ExactScalars and s is None."""
    if all(type(w) is int for w in ws):
        return tuple(ws), 1
    parts = list(map(_parts, ws))
    if any([surds for _, surds, _ in parts]):
        return tuple(map(ExactScalar.of, ws)), None
    s = lcm(*[d for _, _, d in parts])
    return tuple([n * (s // d) for n, _, d in parts]), s


def least_weight(terms: dict, ws) -> dict:
    """The terms of least weight under ws."""
    g, _ = _grades(ws)
    graded = {m: sum(map(mul, g, m)) for m in terms}
    low = min(graded.values())
    return {m: c for m, c in terms.items() if graded[m] == low}


def _shared_weight(monos: Iterable[Monomial], ws) -> ExactScalar | None:
    """The weight under ws that all the monomials share, None if they disagree or there are none."""
    g, s = _grades(ws)
    weights = {sum(map(mul, g, m)) for m in monos}
    return ExactScalar.of(weights.pop())._scale(1, s or 1) if len(weights) == 1 else None


@dataclass(frozen=True)
class TermOrder:
    """grevlex, optionally refined by a weight vector and an elimination block.

    Comparison: (1) total degree in the first `elim` variables, grevlex within
    the block as tie-break; (2) weight of the full monomial, larger first;
    (3) grevlex over all variables.  Weights must all be positive so the order
    is global; larger key = larger monomial.  `weights` keeps only their
    `_grades`: ints for rational weights, ExactScalars for irrational ones,
    which `groebner._Packing` ranks by `key` once per packed monomial.
    """

    nvars: int
    weights: tuple | None = None
    elim: int = 0

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != self.nvars:
                raise ArityError("weight vector length does not match ring arity")
            g, _ = _grades(self.weights)
            if any(x <= 0 for x in g):
                raise ValueError("order weights must be strictly positive")
            object.__setattr__(self, "weights", g)

    def key(self, m: Monomial):
        parts: list = [_grevlex_key(m[: self.elim])] if self.elim else []
        if self.weights is not None:
            parts.append(sum(map(mul, self.weights, m)))
        parts.append(_grevlex_key(m))
        return tuple(parts)


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
        return Polynomial(self.ring, _product(self.terms, other.terms, {}))

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        return Polynomial(self.ring, {m: c * value for m, c in self.terms.items()})

    def derivative(self, var_index: int) -> "Polynomial":
        return Polynomial(self.ring, _partial(self.terms, var_index))

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
        g, s = _grades(self.weights)
        if s != 1:
            raise ValueError("integer weights required")
        return g

    def full_vector(self, arity: int) -> tuple[ExactScalar, ...]:
        """Weight per ring position; supports an optional trailing t."""
        if arity == len(self.weights):
            return self.weights
        if arity == len(self.weights) + 1 and self.t_weight is not None:
            return self.weights + (ExactScalar.of(-self.t_weight),)
        raise ArityError(f"cannot grade arity {arity} with {len(self.weights)} weights")


def term_weight(mono: Monomial, wd: WeightData) -> ExactScalar:
    """Weighted degree of a monomial; a trailing t counts with -t_weight."""
    return _shared_weight((mono,), wd.full_vector(len(mono)))


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
    return _shared_weight(f.terms, wd.full_vector(len(f.ring)))


def is_homogeneous(f: Polynomial, wd: WeightData) -> bool:
    if f.is_zero():
        return True
    return homogeneous_weight(f, wd) is not None


# -- polynomial parsing --------------------------------------------------------

# an operator, a number a or a/b in ASCII digits, a word, or any other character but a blank
_TOKEN = re.compile(r"[-+*^]|[0-9]+(?:/[0-9]*)?|\w+|[^ \t]")
_DIGITS = "0123456789"


def _ratio(tok: str) -> tuple[int, int]:
    """(a, b) of a number token a or a/b; b is 0 for a missing or zero denominator."""
    a, slash, b = tok.partition("/")
    return int(a), (int(b) if b else 0) if slash else 1


def _fail(text: str, line: int | None, message: str, at: int | None) -> NoReturn:
    """Raise the first lexical error of the line, else message at the column of
    token number `at`, or with no column for None."""
    column = None
    for k, match in enumerate(_TOKEN.finditer(text)):
        tok, start = match.group(), match.start()
        if tok[0] in _DIGITS:
            if tok.endswith("/"):
                raise ParseError("missing denominator", line, start + len(tok))
            if not _ratio(tok)[1]:
                raise ParseError("zero denominator", line, start + 1)
        elif not (tok[0].isalpha() or tok[0] == "_" or tok in "+-*^"):
            raise ParseError(f"unexpected character {tok[0]!r}", line, start + 1)
        if k == at:
            column = start + 1
    raise ParseError(message, line, column)


def parse_polynomial(text: str, ring: Iterable[str], line: int | None = None) -> Polynomial:
    """Parse `+ - * ^` polynomial syntax with explicit multiplication.  Each term's
    coefficient is kept as integers num/den and makes one Fraction; a lexical error
    anywhere in the line is reported before a syntax error."""
    ring = tuple(ring)
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty polynomial", line)
    terms: dict[Monomial, Fraction] = {}
    i, n = 0, len(tokens)
    while i < n:
        num = den = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                num = -num
            i += 1
        if i == n:
            _fail(text, line, "dangling sign", n - 1)
        expo = [0] * len(ring)
        while True:
            tok = tokens[i]
            if tok[0] in _DIGITS:
                a, b = _ratio(tok)
                if not b:
                    _fail(text, line, "zero denominator", i)
                num, den = num * a, den * b
                i += 1
            elif tok in ring and (tok[0].isalpha() or tok[0] == "_"):    # names open with a letter or '_'
                k, power, at = ring.index(tok), 1, i
                i += 1
                if i < n and tokens[i] == "^":
                    a, b = _ratio(tokens[i + 1]) if i + 1 < n and tokens[i + 1][0] in _DIGITS else (0, 0)
                    if not b or a % b:
                        _fail(text, line, "exponent must be an integer", at)
                    power = a // b
                    i += 2
                expo[k] += power
            else:
                _fail(text, line, f"unexpected token {tok!r}" if tok in "+-*^" else f"unknown variable {tok!r}", i)
            if i < n and tokens[i] == "*":
                i += 1
                if i == n:
                    _fail(text, line, "dangling '*'", None)
            elif i < n and tokens[i] not in "+-":
                _fail(text, line, "missing '*' between factors", i)
            else:
                break
        key, coeff = tuple(expo), Fraction(num, den) if den != 1 else Fraction(num)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Polynomial(ring, terms)
