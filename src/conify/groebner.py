"""Buchberger's algorithm with reduced bases, elimination, saturation, quotients.

Saturation by a variable needs no tag variable: Bayer's revlex trick reads it
off one grevlex basis with that variable last (`revlex_basis`).

Pairs are taken smallest lcm first (the normal strategy) and filtered once,
when an element is inserted, by the Gebauer-Moller update (Becker and
Weispfenning, *Groebner Bases*, 5.5): criteria M, F and B, and retirement of
the elements whose leading monomial the new one divides.  S-polynomials are
pseudo-reduced (Greuel and Pfister, *A Singular Introduction to Commutative
Algebra*, ch. 1) on primitive integer term dicts against the remaining active
set, a minimal basis whose interreduction is the result.  A Fraction is made
only where a result leaves the kernel, by dividing out the reduction's scale.
All results are unique reduced bases sorted by leading monomial, so equal
ideals compare equal.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm as int_lcm
from operator import add, le, sub

from .errors import ArityError, BudgetExceededError
from .polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    mono_lcm,
)


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal given by generators."""

    ring: tuple[str, ...]
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        gens = []
        for g in self.generators:
            if g.ring != self.ring:
                raise ArityError(f"generator ring {g.ring} differs from ideal ring {self.ring}")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its term order."""

    ring: tuple[str, ...]
    elements: tuple[Polynomial, ...]
    order: TermOrder

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self) -> list[Monomial]:
        return [r[0] for r in self.reducers]

    @cached_property
    def reducers(self) -> list[Reducer]:
        return [_reducer(_integral(g.terms)[0], self.order.key) for g in self.elements]

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.elements) + "}"


# -- reduction on integer term dicts ------------------------------------------

Reducer = tuple[Monomial, int, list[tuple[Monomial, int]]]


def _integral(terms: dict[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """(d * terms, d) for d > 0 the lcm of the denominators."""
    d = int_lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _reducer(terms: dict[Monomial, int], key) -> Reducer:
    """The primitive part with a positive lead, as (leading monomial, lc, tail)."""
    lm = max(terms, key=key)
    content = gcd(*terms.values()) if terms[lm] > 0 else -gcd(*terms.values())
    return lm, terms[lm] // content, [(m, c // content) for m, c in terms.items() if m != lm]


def _reduce(work: dict[Monomial, int], reducers: list[Reducer], key,
            quotients: list[dict] | None = None) -> tuple[dict[Monomial, int], int]:
    """Fully pseudo-reduce the terms in `work` (consumed); return (r, s), s > 0
    and r = s * the remainder over Q.

    Terms are taken largest first from a key-sorted pending list; a term that
    cancels stays in `work` with coefficient 0 until its turn.  The first
    reducer whose lead divides the term c is used: with g = gcd(c, lc), work
    and remainder are multiplied by lc/g and c/g times its shifted tail is
    subtracted; quotients[i], if given, records the terms it cancels over Q."""
    pending = sorted(work, key=key)
    remainder = {}
    scale = 1
    while pending:
        m = pending.pop()
        c = work.pop(m)
        if not c:
            continue
        for i, (lm, lc, tail) in enumerate(reducers):
            if all(map(le, lm, m)):
                factor = tuple(map(sub, m, lm))
                if quotients is not None:
                    quotients[i][factor] = Fraction(c, scale)
                g = gcd(c, lc)
                c, a = c // g, lc // g
                if a != 1:
                    scale *= a
                    for part in (work, remainder):
                        for m2 in part:
                            part[m2] *= a
                for m2, c2 in tail:
                    target = tuple(map(add, m2, factor))
                    value = work.get(target)
                    if value is None:
                        work[target] = -c * c2
                        insort(pending, target, key=key)
                    else:
                        work[target] = value - c * c2
                break
        else:
            remainder[m] = c
    return remainder, scale


def _spair(f: Reducer, g: Reducer, lcm: Monomial) -> dict[Monomial, int]:
    """The S-polynomial (lc_g/d) x^a f - (lc_f/d) x^b g, d = gcd(lc_f, lc_g)."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    d = gcd(cf, cg)
    af, ag = cg // d, cf // d
    sf, sg = tuple(map(sub, lcm, lf)), tuple(map(sub, lcm, lg))
    work = {tuple(map(add, m, sf)): af * c for m, c in tf}
    for m, c in tg:
        target = tuple(map(add, m, sg))
        value = work.get(target)
        work[target] = -ag * c if value is None else value - ag * c
    return work


def division(f: Polynomial, divisors: list[Polynomial], order: TermOrder):
    """Full multivariate division: f = sum(q_i d_i) + r with no term of r
    divisible by any leading term of the divisors.  Returns (quotients, r)."""
    key = order.key
    live = [i for i, d in enumerate(divisors) if not d.is_zero()]
    reducers = [_reducer(_integral(divisors[i].terms)[0], key) for i in live]
    found: list[dict] = [{} for _ in live]
    work, den = _integral(f.terms)
    remainder, scale = _reduce(work, reducers, key, found)
    quotients = [Polynomial.zero(f.ring) for _ in divisors]
    for i, (lm, _, _), q in zip(live, reducers, found):
        quotients[i] = Polynomial(f.ring, {m: c / (den * divisors[i].terms[lm]) for m, c in q.items()})
    return quotients, Polynomial(f.ring, {m: Fraction(c, den * scale) for m, c in remainder.items()})


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """The unique remainder of f on division by a Groebner basis."""
    if f.ring != basis.ring:
        raise ArityError(f"ring mismatch: {f.ring} vs {basis.ring}")
    if not basis.reducers:
        return f
    work, den = _integral(f.terms)
    remainder, scale = _reduce(work, basis.reducers, basis.order.key)
    return Polynomial(f.ring, {m: Fraction(c, den * scale) for m, c in remainder.items()})


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f for f dividing g exactly; raises otherwise."""
    order = TermOrder(len(g.ring))
    (q,), r = division(g, [f], order)
    if not r.is_zero():
        raise ValueError(f"{f} does not divide {g}")
    return q


# -- Buchberger ----------------------------------------------------------------

def spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    rf, rg = _reducer(_integral(f.terms)[0], order.key), _reducer(_integral(g.terms)[0], order.key)
    scale = Fraction(gcd(rf[1], rg[1]), rf[1] * rg[1])
    return Polynomial(f.ring, {m: c * scale for m, c in _spair(rf, rg, mono_lcm(rf[0], rg[0])).items()})


def _buchberger(gens: list[Polynomial], order: TermOrder, max_steps: int | None) -> list[Reducer]:
    """A minimal Groebner basis of the generators: the final active set."""
    key = order.key
    elements: list[Reducer] = []   # every element ever inserted; pairs index it
    active: list[int] = []         # the current minimal basis
    reducers: list[Reducer] = []   # elements[k] for k in active
    pairs: list = []               # heap of (key(lcm), i, j, lcm)
    reduced = dropped = 0

    def insert(terms):
        """Add an element with the Gebauer-Moller update of pairs and active set."""
        nonlocal pairs, reducers, dropped
        h = len(elements)
        elements.append(_reducer(terms, key))
        lh = elements[h][0]
        # criterion B: an old pair goes when lh divides its lcm properly
        old = []
        for pair in pairs:
            lcm = pair[3]
            if (all(map(le, lh, lcm)) and lcm != mono_lcm(elements[pair[1]][0], lh)
                    and lcm != mono_lcm(elements[pair[2]][0], lh)):
                dropped += 1
            else:
                old.append(pair)
        if len(old) < len(pairs):
            heapq.heapify(old)
        pairs = old
        # criteria M and F: one new pair per minimal lcm, coprime ones kept
        # only to shadow the others
        new = [(mono_lcm(elements[g][0], lh), g) for g in active]
        kept = []
        for n, (lcm, g) in enumerate(new):
            coprime = lcm == tuple(map(add, elements[g][0], lh))
            rivals = [p[0] for p in kept] + [p[0] for p in new[n + 1:]]
            if coprime or not any(all(map(le, other, lcm)) for other in rivals):
                kept.append((lcm, g, coprime))
        dropped += len(new)
        for lcm, g, coprime in kept:
            if not coprime:
                dropped -= 1
                heapq.heappush(pairs, (key(lcm), g, h, lcm))
        # retire the elements whose leading monomial lh divides
        active[:] = [g for g in active if not all(map(le, lh, elements[g][0]))] + [h]
        reducers = [elements[g] for g in active]
        if not any(lh):
            pairs.clear()   # the unit ideal

    for g in gens:
        r, _ = _reduce(_integral(g.terms)[0], reducers, key)
        if r:
            insert(r)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if reduced == max_steps:
            raise BudgetExceededError(
                f"S-pair budget of {max_steps} exceeded: {reduced} pairs reduced, "
                f"{dropped} dropped by the criteria, active basis of {len(active)}")
        reduced += 1
        r, _ = _reduce(_spair(elements[i], elements[j], lcm), reducers, key)
        if r:
            insert(r)
    return reducers


def _interreduce(basis: list[Reducer], order: TermOrder, ring: tuple[str, ...]) -> list[Polynomial]:
    """The reduced basis from a minimal one, sorted by leading monomial.

    A tail term lies below its own lead, so no element reduces its own tail."""
    key = order.key
    out = []
    for lm, lc, tail in sorted(basis, key=lambda r: key(r[0])):
        terms = {lm: Fraction(1)}
        remainder, scale = _reduce(dict(tail), basis, key)
        terms.update((m, Fraction(c, lc * scale)) for m, c in remainder.items())
        out.append(Polynomial(ring, terms))
    return out


def reduced_basis(ideal: IdealPresentation, order: TermOrder | None = None,
                  max_steps: int | None = None) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal for the order.

    `max_steps` >= 0 bounds the number of S-pairs reduced, counted after
    the Gebauer-Moller criteria have dropped theirs; BudgetExceededError
    reports the pairs reduced and dropped and the active basis size."""
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    order = order or TermOrder(len(ideal.ring))
    if order.nvars != len(ideal.ring):
        raise ArityError("order arity does not match ring")
    if not ideal.generators:
        return GroebnerBasis(ideal.ring, (), order)
    raw = _buchberger(list(ideal.generators), order, max_steps)
    return GroebnerBasis(ideal.ring, tuple(_interreduce(raw, order, ideal.ring)), order)


def ideals_equal(a: IdealPresentation, b: IdealPresentation) -> bool:
    """Exact ideal equality via canonical grevlex reduced bases."""
    if a.ring != b.ring:
        raise ArityError("cannot compare ideals in different rings")
    return reduced_basis(a).elements == reduced_basis(b).elements


# -- saturation and quotient -----------------------------------------------------

def _fresh_name(ring: tuple[str, ...], base: str) -> str:
    name = base
    while name in ring:
        name += "_"
    return name


def revlex_basis(ideal: IdealPresentation, var: str,
                 max_steps: int | None = None) -> GroebnerBasis:
    """Reduced grevlex basis of the generators homogenized by a fresh h, in the
    ring (other variables..., h, var).  With var last, in(K : var) = in(K) : var
    for homogeneous K (Bayer, thesis, Harvard 1982; Bayer and Stillman, Invent.
    Math. 1987; Eisenbud, Prop. 15.12)."""
    if var not in ideal.ring:
        raise ArityError(f"{var!r} is not a ring variable")
    k = ideal.ring.index(var)
    ring = ideal.ring[:k] + ideal.ring[k + 1:] + (_fresh_name(ideal.ring, "_h"), var)
    gens = []
    for g in ideal.generators:
        deg = g.total_degree()
        gens.append(Polynomial(ring, {m[:k] + m[k + 1:] + (deg - sum(m), m[k]): c for m, c in g.terms.items()}))
    return reduced_basis(IdealPresentation(ring, tuple(gens)), max_steps=max_steps)


def saturate_by_variable(ideal: IdealPresentation, var: str,
                         max_steps: int | None = None) -> IdealPresentation:
    """(I : var^infinity) as its reduced grevlex basis, by Bayer's trick: divide
    each element of `revlex_basis` by its largest power of var, set h = 1, and
    reduce in the ring of I (setting h = 1 commutes with saturating by var).
    Only the tests (its oracle for the t-families) and the benchmark tracer
    use it; it leaves with `intersect` and `ideal_quotient`."""
    basis, k = revlex_basis(ideal, var, max_steps), ideal.ring.index(var)
    flat = []
    for g in basis:
        low = min(m[-1] for m in g.terms)
        flat.append(Polynomial(ideal.ring, {m[:k] + (m[-1] - low,) + m[k:-2]: c for m, c in g.terms.items()}))
    result = reduced_basis(IdealPresentation(ideal.ring, tuple(flat)), max_steps=max_steps)
    return IdealPresentation(ideal.ring, result.elements)


def intersect(a: IdealPresentation, b: IdealPresentation,
              max_steps: int | None = None) -> IdealPresentation:
    """Ideal intersection via the one-tag-variable elimination trick."""
    if a.ring != b.ring:
        raise ArityError("cannot intersect ideals in different rings")
    u = _fresh_name(a.ring, "_u")
    big_ring = (u,) + a.ring
    order = TermOrder(len(big_ring), elim=1)
    tag = Polynomial.variable(big_ring, u)
    one_minus = Polynomial.constant(big_ring, 1) - tag
    gens = [tag * g.extend_ring(big_ring) for g in a.generators]
    gens += [one_minus * g.extend_ring(big_ring) for g in b.generators]
    basis = reduced_basis(IdealPresentation(big_ring, tuple(gens)), order, max_steps)
    kept = [g.drop_variable(0) for g in basis if g.leading_monomial(order)[0] == 0]
    return IdealPresentation(a.ring, tuple(kept))


def ideal_quotient(ideal: IdealPresentation, f: Polynomial,
                   max_steps: int | None = None) -> IdealPresentation:
    """(I : f) computed as (I cap <f>) / f."""
    if f.is_zero():
        raise ValueError("cannot quotient by the zero polynomial")
    if f.ring != ideal.ring:
        raise ArityError("polynomial ring differs from ideal ring")
    if not ideal.generators:
        return ideal
    meet = intersect(ideal, IdealPresentation(ideal.ring, (f,)), max_steps)
    divided = tuple(exact_divide(g, f) for g in meet.generators)
    return IdealPresentation(ideal.ring, divided)
