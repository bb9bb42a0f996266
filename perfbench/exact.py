"""Small exact helpers the output checks use instead of conify's own arithmetic.

A check that reused conify's scalar or cone code would pass whenever that code
agreed with itself; these helpers recompute each answer another way.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

# A multi-quadratic number sum(c_k * sqrt(k)) as {k: c_k}; key 1 is the rational part.
MultiQuad = dict[int, Fraction]

_DIGITS = 60


def quad_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for squarefree d >= 2, by comparing squares."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa in (0, sb):
        return sb
    return sa if a * a > b * b * d else sb


def below(x: MultiQuad, bound: Fraction) -> bool:
    """|x| < bound for x with at most one radicand, decided exactly."""
    rads = [k for k in x if k != 1 and x[k]]
    if len(rads) > 1:
        raise ValueError("below() takes one radicand at most")
    a = x.get(1, Fraction(0))
    b, d = (x[rads[0]], rads[0]) if rads else (Fraction(0), 2)
    return quad_sign(bound - a, -b, d) > 0 and quad_sign(bound + a, b, d) > 0


def decimal_value(x: MultiQuad) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        total = Decimal(0)
        for k, c in x.items():
            term = Decimal(c.numerator) / Decimal(c.denominator)
            if k != 1:
                term *= Decimal(k).sqrt()
            total += term
        return total


def nonnegative(x: MultiQuad) -> bool:
    """x >= 0, evaluated to 60 digits; an exactly zero x has no terms."""
    terms = {k: c for k, c in x.items() if c}
    if not terms:
        return True
    value = decimal_value(terms)
    if abs(value) < Decimal("1e-40"):
        raise ValueError("sign not resolved at 60 digits")
    return value > 0


def parse_multiquad(text: str) -> MultiQuad:
    """Parse the `a + b*sqrt(k) - c*sqrt(m)` strings conify prints for certificates."""
    out: MultiQuad = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        coeff, rad = Fraction(1), 1
        if "sqrt(" in token:
            head, _, tail = token.partition("sqrt(")
            rad = int(tail.rstrip(")"))
            if head:
                coeff = Fraction(head.rstrip("*"))
        else:
            coeff = Fraction(token)
        out[rad] = out.get(rad, Fraction(0)) + sign * coeff
        sign = 1
    return out


def add_scaled(acc: MultiQuad, x: MultiQuad, scale: Fraction) -> None:
    for k, c in x.items():
        acc[k] = acc.get(k, Fraction(0)) + c * scale


def same(x: MultiQuad, y: MultiQuad) -> bool:
    keys = set(x) | set(y)
    return all(x.get(k, Fraction(0)) == y.get(k, Fraction(0)) for k in keys)


def rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    mat = [list(r) for r in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col] / mat[r][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def graded_dimensions(numerator: dict[int, int], weights: list[int], cap: int) -> dict[int, int]:
    """Coefficients up to cap of numerator(t) / prod(1 - t^w), zeros dropped."""
    coeffs = [0] * (cap + 1)
    for deg, c in numerator.items():
        if deg <= cap:
            coeffs[deg] += c
    for w in weights:
        for k in range(w, cap + 1):
            coeffs[k] += coeffs[k - w]
    return {k: c for k, c in enumerate(coeffs) if c}
