"""The scalar grammar against the one-radicand parser it replaced.

`exactnum.parse_scalars` reads each scalar as a signed sum of terms q, q*s and
q*sqrt(k), over any number of radicands.  The replaced parser allowed at most
two terms and one radical per scalar and pinned a whole list to one radicand;
it is kept here as the oracle of a seeded differential test.  On every input
the oracle accepts, the new parser returns the same value, except a zero
multiple of a non-squarefree radical, which it now rejects.
"""

import random
import re
from fractions import Fraction

import pytest

from conify.errors import ParseError
from conify.exactnum import ExactScalar, parse_scalars


def oracle_scalar(text: str, d: int = 0) -> ExactScalar:
    """The replaced `parse_scalar`: `a/b`, `c/e*s`, `a/b + c/e*s`, sqrt(d) spelled out."""
    src = text.strip()
    if not src:
        raise ParseError("empty scalar")
    terms: list[str] = []
    start = 0
    for i, ch in enumerate(src):
        if ch in "+-" and i > start and src[i - 1] not in "+-*/(":
            terms.append(src[start:i])
            start = i
    terms.append(src[start:])
    if len(terms) > 2:
        raise ParseError(f"too many terms in scalar {text!r}")

    a = Fraction(0)
    b = Fraction(0)
    seen_rad = False
    for term in terms:
        term = term.replace(" ", "")
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ParseError(f"dangling sign in scalar {text!r}")
        coeff = Fraction(1)
        radical = False
        body = term
        if "*" in body:
            head, _, tail = body.partition("*")
            try:
                coeff = Fraction(head)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {head!r} in scalar {text!r}")
            body = tail
        if body in ("s",) or body.startswith("sqrt(") and body.endswith(")"):
            radical = True
            if body.startswith("sqrt("):
                try:
                    rad_val = int(body[5:-1])
                except ValueError:
                    raise ParseError(f"bad radical {body!r} in scalar {text!r}")
                if d and rad_val != d:
                    raise ParseError(f"radical sqrt({rad_val}) does not match field sqrt({d})")
                if not d:
                    d = rad_val
        else:
            try:
                coeff = coeff * Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad number {body!r} in scalar {text!r}")
        if radical:
            if seen_rad:
                raise ParseError(f"two radical terms in scalar {text!r}")
            if not d:
                raise ParseError(f"radical used in {text!r} but no quadratic field declared")
            seen_rad = True
            b += sign * coeff
        else:
            a += sign * coeff
    return ExactScalar(a, b, d if seen_rad else 0)


def oracle_scalars(entries: list[str], d: int = 0) -> tuple[ExactScalar, ...]:
    """The replaced `parse_scalars`: one radicand, d or else the first sqrt(k) written."""
    out = []
    for entry in entries:
        x = oracle_scalar(entry, d)
        if x.terms:
            d = x.terms[0][0]
        out.append(x)
    return tuple(out)


COEFFS = ["", "", "", "1", "2", "3/2", "1/3", "7/4", "1.5", "0", "0/5", "12"]
ATOMS = ["s", "s", "sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(6)", "sqrt(4)", "sqrt(8)",
         "sqrt(1)", "5", "7/3", "1/2", "0", "-3", "sqrt(x)"]
LEAD = ["", "", "", "+", "-", "--", "+-"]
JOIN = ["+", "-", "+", "-", " + ", " - ", "--", "+-", "- -"]


def random_scalar_text(rng) -> str:
    """One to three terms q*atom or atom, with stray spaces and the odd typo."""
    text = rng.choice(LEAD)
    for i in range(rng.choice((1, 1, 2, 2, 3))):
        coeff, atom = rng.choice(COEFFS), rng.choice(ATOMS)
        text += (rng.choice(JOIN) if i else "") + (f"{coeff}*{atom}" if coeff else atom)
    roll = rng.random()
    if roll < 0.05:
        text += rng.choice(("+", "*", "*s", "/", "-"))
    elif roll < 0.10 and len(text) > 1:
        cut = rng.randrange(len(text))
        text = text[:cut] + text[cut + 1:]
    return text


# a zero multiple of sqrt(k) for k not squarefree: the oracle skipped the check
ZERO_BAD_RADICAL = re.compile(r"(?<![\d./])0(?:/\d+)?\*sqrt\((?:1|4|8)\)")


def outcome(parse, entries, d):
    try:
        return parse(entries, d)
    except ParseError:
        return ParseError


class TestAgainstOneRadicandOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_lists(self, seed):
        rng = random.Random(seed)
        accepted = zero_bad = 0
        for _ in range(2500):
            entries = [random_scalar_text(rng) for _ in range(rng.choice((1, 1, 2, 3)))]
            for d in (0, 2, 3):
                new = outcome(parse_scalars, entries, d)
                try:
                    old = oracle_scalars(entries, d)
                except (ParseError, ValueError):
                    continue
                accepted += 1
                if new is ParseError:
                    assert any(ZERO_BAD_RADICAL.search("".join(e.split())) for e in entries), (entries, d)
                    zero_bad += 1
                else:
                    assert new == old, (entries, d)
        assert accepted >= 900 and zero_bad >= 1, (accepted, zero_bad)

    def test_s_follows_the_first_nonzero_radical_of_the_list(self):
        entries = ["0*sqrt(5)", "2-sqrt(2)", "1/2*s"]
        assert parse_scalars(entries) == oracle_scalars(entries)
        assert parse_scalars(entries)[2] == ExactScalar.root(2, Fraction(1, 2))
        # the first radicand binds s, and a later one does not rebind it
        assert parse_scalars(["1+sqrt(2)", "sqrt(3)", "s"])[2] == ExactScalar.root(2)
        assert parse_scalars(["sqrt(3)", "s"], 5)[1] == ExactScalar.root(5)

    def test_only_parse_errors_escape(self):
        rng = random.Random(4)
        for _ in range(2000):
            for d in (0, 2):
                outcome(parse_scalars, [random_scalar_text(rng)], d)
