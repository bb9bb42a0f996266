"""Line-oriented input documents: field, ring, weights, ideal, bracket, form.

Grammar (one declaration per line, `#` starts a comment anywhere):

    field rational            | field quad 2
    ring x y z
    weights 2 2 2             # scalars: signed sums of q, q*s and q*sqrt(k)
    tweight 1                 # optional positive rational
    sympweight 2              # optional positive rational (2-form weight)
    ideal                     # opens a block of polynomial lines
    x*y - z^2
    bracket                   # opens a block of `var var : polynomial` lines
    x y : 4*z
    form                      # same line shape as bracket
    u v : 1

Radicands mix freely within a weights line.  `s` is sqrt(d) for the declared
field, else the first sqrt(k) with a nonzero coefficient written before it in
the line.  Parsing is strict: unknown keywords, a second field, ring, weights,
tweight or sympweight line, arity mismatches, bad scalars and non-positive
weights are position-annotated errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exactnum import check_radicand, parse_scalars
from .groebner import IdealPresentation
from .poisson import FormTable, PoissonTable
from .polyring import Polynomial, WeightData, parse_polynomial

_DECLARATIONS = {"field", "ring", "weights", "tweight", "sympweight"}
_KEYWORDS = _DECLARATIONS | {"ideal", "bracket", "form"}


@dataclass(frozen=True)
class InputDocument:
    """A parsed document: its ideal, weights, bracket entries and 2-form, each built once."""

    ideal: IdealPresentation
    weight_data: WeightData
    brackets: dict[tuple[int, int], Polynomial]
    form: FormTable | None

    def poisson_table(self) -> PoissonTable | None:
        """The bracket table on the document's quotient; each call computes its basis."""
        if not self.brackets:
            return None
        return PoissonTable(self.ideal.ring, self.brackets, ideal=self.ideal)


def parse_input(text: str) -> InputDocument:
    field_d = 0                       # 0 for rational, else the squarefree radicand
    declared: set[str] = set()
    ring: tuple[str, ...] | None = None
    t_weight: Fraction | None = None
    form_weight: Fraction | None = None
    ideal_polys: list[Polynomial] = []
    brackets: dict[tuple[int, int], Polynomial] = {}
    form_coeffs: dict[tuple[int, int], Polynomial] = {}
    pending_weights: tuple[list[str], int] | None = None

    block: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in _KEYWORDS:
            block = None
            rest = line[len(head):].strip()
            if head in _DECLARATIONS:
                if head in declared:
                    raise ParseError(f"second {head!r} declaration", lineno)
                declared.add(head)
            if head == "field":
                parts = rest.split()
                if parts[:1] == ["quad"] and len(parts) == 2 and parts[1].isdigit():
                    try:
                        field_d = check_radicand(int(parts[1]))
                    except ValueError as exc:
                        raise ParseError(str(exc), lineno)
                elif parts != ["rational"]:
                    raise ParseError(f"bad field declaration {rest!r}", lineno)
            elif head == "ring":
                names = tuple(rest.split())
                if not names:
                    raise ParseError("ring declaration needs variable names", lineno)
                if len(set(names)) != len(names):
                    raise ParseError("duplicate ring variable", lineno)
                ring = names
            elif head == "weights":
                entries = rest.split()
                if not entries:
                    raise ParseError("weights declaration is empty", lineno)
                pending_weights = (entries, lineno)
            elif head == "tweight":
                t_weight = _parse_positive_fraction(rest, lineno, "tweight")
            elif head == "sympweight":
                form_weight = _parse_positive_fraction(rest, lineno, "sympweight")
            else:
                block = head
                if rest:
                    raise ParseError(f"unexpected text after {head!r}", lineno)
            continue
        if block == "ideal":
            if ring is None:
                raise ParseError("ring required before the ideal block", lineno)
            ideal_polys.append(parse_polynomial(line, ring, lineno))
        elif block in ("bracket", "form"):
            if ring is None:
                raise ParseError(f"ring required before the {block} block", lineno)
            pair, poly = _parse_pair_line(line, ring, lineno)
            target = brackets if block == "bracket" else form_coeffs
            if pair in target:
                raise ParseError(f"duplicate {block} entry for {pair}", lineno)
            target[pair] = poly
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno)

    if ring is None:
        raise ParseError("ring required")
    if pending_weights is None:
        raise ParseError("weights required")
    entries, wline = pending_weights
    if len(entries) != len(ring):
        raise ParseError(f"{len(entries)} weights for {len(ring)} variables", wline)
    try:
        weights = parse_scalars(entries, field_d)
    except ParseError as exc:
        raise ParseError(str(exc), wline)
    for entry, w in zip(entries, weights):
        if w.sign() <= 0:
            raise ParseError(f"weight {entry!r} is not positive", wline)
    return InputDocument(IdealPresentation(ring, tuple(ideal_polys)),
                         WeightData(weights, t_weight=t_weight, form_weight=form_weight),
                         brackets, FormTable(ring, form_coeffs) if form_coeffs else None)


def _parse_positive_fraction(text: str, lineno: int, what: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {what} value {text!r}", lineno)
    if value <= 0:
        raise ParseError(f"{what} must be positive", lineno)
    return value


def _parse_pair_line(line: str, ring: tuple[str, ...], lineno: int):
    if ":" not in line:
        raise ParseError("expected `var var : polynomial`", lineno)
    head, _, tail = line.partition(":")
    names = head.split()
    if len(names) != 2:
        raise ParseError("expected exactly two variables before ':'", lineno)
    for name in names:
        if name not in ring:
            raise ParseError(f"unknown variable {name!r}", lineno)
    i, j = ring.index(names[0]), ring.index(names[1])
    if i == j:
        raise ParseError("bracket pair must use two distinct variables", lineno)
    poly = parse_polynomial(tail.strip(), ring, lineno)
    if i > j:
        i, j = j, i
        poly = -poly
    return (i, j), poly
