"""Differential test of the Buchberger kernel against sympy.groebner.

tests/test_groebner.py checks bases with conify's own spoly and normal_form,
which cannot catch a kernel that is wrong in the same way.  Here reduced
grevlex bases are compared with sympy's.  Saturations and intersections are
compared with sympy's lex elimination: sympy computes the reduced lex basis
of conify's result and of the elimination ideal, and the two must agree.
(sympy's grevlex reduction of the intersection of case 5 does not finish in
minutes, so lex is used on both sides.)  sympy is a test-only dependency.
"""

from fractions import Fraction

import pytest

from conify.groebner import IdealPresentation, _fresh_name, intersect, reduced_basis, saturate_by_variable
from conify.polyring import Polynomial, TermOrder, parse_polynomial
from test_acceptance import _degeneration_cases

sympy = pytest.importorskip("sympy")

CASES = _degeneration_cases()


def to_sympy(f: Polynomial, symbols):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
               for m, c in f.terms.items())


def from_sympy(expr, ring, symbols) -> Polynomial:
    terms = {m: Fraction(int(c.p), int(c.q))
             for m, c in sympy.Poly(expr, *symbols).terms()}
    lc = terms[max(terms, key=TermOrder(len(ring)).key)]
    return Polynomial(ring, {m: c / lc for m, c in terms.items()})


def sympy_basis(exprs, ring, symbols, order) -> set[Polynomial]:
    basis = sympy.groebner(exprs, *symbols, order=order, domain="QQ", method="f5b")
    return {from_sympy(g, ring, symbols) for g in basis.exprs}


def sympy_eliminate(exprs, tag, ring, symbols) -> set[Polynomial]:
    """The tag-free part of a reduced lex basis with the tag first: the
    reduced lex basis of the elimination ideal."""
    lex = sympy_basis(exprs, (str(tag),) + ring, (tag,) + tuple(symbols), "lex")
    return {Polynomial(ring, {m[1:]: c for m, c in g.terms.items()})
            for g in lex if not any(m[0] for m in g.terms)}


def sympy_lex(ideal: IdealPresentation, symbols) -> set[Polynomial]:
    exprs = [to_sympy(g, symbols) for g in ideal.generators]
    return sympy_basis(exprs, ideal.ring, symbols, "lex")


def conify_grevlex(ideal: IdealPresentation) -> set[Polynomial]:
    return set(reduced_basis(ideal).elements)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_reduced_grevlex_matches_sympy(index):
    ideal, _ = CASES[index]
    symbols = sympy.symbols(ideal.ring)
    exprs = [to_sympy(g, symbols) for g in ideal.generators]
    assert conify_grevlex(ideal) == sympy_basis(exprs, ideal.ring, symbols, "grevlex")


def test_perturbed_minors_match_sympy():
    ring = tuple(f"a{i}{j}" for i in range(3) for j in range(3))
    minors = [f"a{r}{c}*a{s}{d} - a{r}{d}*a{s}{c}"
              for r in range(3) for s in range(r + 1, 3)
              for c in range(3) for d in range(c + 1, 3)]
    minors[0] += " + a22^3"
    ideal = IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in minors))
    symbols = sympy.symbols(ring)
    exprs = [to_sympy(g, symbols) for g in ideal.generators]
    assert conify_grevlex(ideal) == sympy_basis(exprs, ring, symbols, "grevlex")


@pytest.mark.parametrize("index", range(len(CASES)))
def test_saturation_matches_sympy(index):
    ideal, _ = CASES[index]
    symbols = sympy.symbols(ideal.ring)
    tag = sympy.Symbol("_tag")
    exprs = [to_sympy(g, symbols) for g in ideal.generators] + [tag * symbols[-1] - 1]
    expected = sympy_eliminate(exprs, tag, ideal.ring, symbols)
    assert sympy_lex(saturate_by_variable(ideal, ideal.ring[-1]), symbols) == expected


@pytest.mark.parametrize("index", range(len(CASES)))
def test_intersection_matches_sympy(index):
    ideal, _ = CASES[index]
    ring = ideal.ring
    other = IdealPresentation(ring, (parse_polynomial(f"{ring[0]}*{ring[-1]} - 1", ring),))
    symbols = sympy.symbols(ring)
    tag = sympy.Symbol("_tag")
    exprs = [tag * to_sympy(g, symbols) for g in ideal.generators]
    exprs += [(1 - tag) * to_sympy(g, symbols) for g in other.generators]
    expected = sympy_eliminate(exprs, tag, ring, symbols)
    assert sympy_lex(intersect(ideal, other), symbols) == expected


def test_intersection_beside_a_ring_variable_named_u_matches_sympy():
    """intersect's tag is first in its ring; a ring that holds `_u` makes it
    `_u_`, and rational coefficients survive adding and stripping it."""
    ring = ("x", "_u", "y")
    assert _fresh_name(ring, "_u") == "_u_"
    a = IdealPresentation(ring, tuple(parse_polynomial(t, ring) for t in (
        "2/3*x*_u - y^2", "x^2 - 1/2*_u*y")))
    b = IdealPresentation(ring, (parse_polynomial("3/5*x*y - 7/4*_u + 1", ring),))
    symbols = sympy.symbols(ring)
    tag = sympy.Symbol("_tag")
    exprs = [tag * to_sympy(g, symbols) for g in a.generators]
    exprs += [(1 - tag) * to_sympy(g, symbols) for g in b.generators]
    expected = sympy_eliminate(exprs, tag, ring, symbols)
    meet = intersect(a, b)
    assert meet.ring == ring and meet.generators
    assert any(c.denominator != 1 for g in meet.generators for c in g.terms.values())
    assert sympy_lex(meet, symbols) == expected
