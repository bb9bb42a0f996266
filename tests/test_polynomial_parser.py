"""The polynomial reader against the per-character tokenizer it replaced.

`polyring.parse_polynomial` reads a line with one token regex and keeps each
term's coefficient as integers over one denominator.  The replaced reader,
which tokenized character by character and multiplied Fractions per token,
is kept here as the oracle of a seeded differential test: on every text both
give the same Polynomial, or the same error message, line and column.
"""

import random
from fractions import Fraction

import pytest

from conify.errors import ParseError
from conify.polyring import Polynomial, parse_polynomial

_NUM_CHARS = set("0123456789")


def oracle_tokenize(text, line):
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


def oracle_polynomial(text, ring, line=None):
    """The replaced `parse_polynomial`, one Fraction product per token."""
    ring = tuple(ring)
    tokens = oracle_tokenize(text, line)
    if not tokens:
        raise ParseError("empty polynomial", line)
    terms = {}
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


# ring names the oracle's tokenizer reads, and two it cannot ('²x' opens with
# a digit that is not ASCII, '%' is no word character); the same rings twice
# make half of the texts plain
RINGS = [("x", "y", "z"), ("x", "y", "z"), ("x", "zé", "_t", "α1", "x²"), ("x", "²x", "%", "y")]
# each list holds readable pieces first and broken ones after the bar
COEFFS = ["1", "2", "3/4", "12/8", "10/5", "0", "007", "2/3", "5/10", "|", "3/0", "3/", "1/00", "٣", "½"]
EXPONENTS = ["", "", "", "^2", "^3", "^4/2", "^0", "^10/5", "^ 2", "|", "^1/2", "^-1", "^", "^y", "^3/0"]
FACTOR_JOINS = ["*", "*", "*", " * ", "\t*", "|", "**", " ", ""]
TERM_JOINS = [" + ", " - ", "+", "-", "\t+\t", " -", "--", "+-", "- -"]
LEADS = ["", "", "", "-", "+", "- ", "--"]
STRAYS = ["+", "-", "*", "^", "/", "%", "·", "\t", " ", "\r", "Ⅻ", "²", "3", "x", "_", "(", "."]


def pick(rng, pieces, broken=0.04):
    """A readable piece, or a broken one with probability `broken`."""
    bar = pieces.index("|") if "|" in pieces else len(pieces)
    return rng.choice(pieces[bar + 1:] if rng.random() < broken else pieces[:bar])


def random_term(rng, ring):
    factors = []
    for _ in range(rng.choice((1, 1, 2, 2, 3))):
        if rng.random() < 0.35:
            factors.append(pick(rng, COEFFS))
        else:
            name = rng.choice(ring) if rng.random() > 0.03 else rng.choice(("w", "Ⅻ"))
            factors.append(name + pick(rng, EXPONENTS))
    text = factors[0]
    for factor in factors[1:]:
        text += pick(rng, FACTOR_JOINS) + factor
    return text


def random_text(rng, ring):
    """(text, repeats): one to four terms, and whether one repeats an earlier term
    after a minus sign, so that their monomials cancel or add up."""
    terms, repeats = [], False
    text = rng.choice(LEADS)
    for i in range(rng.choice((1, 2, 3, 4))):
        if terms and rng.random() < 0.2:
            term, join, repeats = rng.choice(terms), " - ", True
        else:
            term, join = random_term(rng, ring), rng.choice(TERM_JOINS)
        terms.append(term)
        text += (join if i else "") + term
    roll = rng.random()
    if roll < 0.1:
        text += rng.choice(("+", " -", "*", " *", "^"))
    elif roll < 0.25:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(STRAYS) + text[cut:]
    return text, repeats


def outcome(parse, text, ring):
    try:
        return parse(text, ring, 7)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


class TestAgainstCharacterTokenizer:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_texts(self, seed):
        rng = random.Random(seed)
        parsed = repeated = 0
        messages = set()
        for _ in range(3000):
            ring = rng.choice(RINGS)
            text, repeats = random_text(rng, ring)
            old = outcome(oracle_polynomial, text, ring)
            assert outcome(parse_polynomial, text, ring) == old, (text, ring)
            if isinstance(old, Polynomial):
                parsed += 1
                repeated += repeats
            else:
                messages.add(old[0].split(" (line")[0].split(" '")[0])   # up to any quote
        assert parsed >= 1200 and repeated >= 300, (parsed, repeated)
        assert {"zero denominator", "missing denominator", "unexpected character", "unexpected token",
                "unknown variable", "exponent must be an integer", "missing", "dangling sign",
                "dangling"} <= messages, messages

    @pytest.mark.parametrize("text, terms", [
        ("x^4/2 - 3/6*y + 1/2*y", {(2, 0, 0): Fraction(1)}),
        ("x*y - y*x + 2*3/4", {(0, 0, 0): Fraction(3, 2)}),
        ("-\t2/4*z^10/5*z", {(0, 0, 3): Fraction(-1, 2)}),
        ("- - x - -1/3*x", {(1, 0, 0): Fraction(4, 3)}),
    ])
    def test_signs_and_denominators(self, text, terms):
        assert parse_polynomial(text, ("x", "y", "z")) == Polynomial(("x", "y", "z"), terms)
        assert oracle_polynomial(text, ("x", "y", "z")).terms == terms
