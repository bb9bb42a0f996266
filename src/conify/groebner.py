"""Buchberger's algorithm with reduced bases, elimination, saturation, quotients.

Saturation by a variable needs no tag variable: Bayer's revlex trick reads it
off one grevlex basis with that variable last (`_revlex_rows`).

Inside the kernel each monomial is one int that compares as the term order
does (`_Packing`; Bachmann and Schoenemann, ISSAC 1998, as in Singular), so a
shift is one add and a divisibility test one guard-bit test; a step in which a
monomial outgrows the field width reruns at double width (`_widening`).

Pairs are taken smallest lcm first (the normal strategy) and filtered once,
when an element is inserted, by the Gebauer-Moller update (Becker and
Weispfenning, *Groebner Bases*, 5.5): criteria M, F and B, and retirement of
the elements whose leading monomial the new one divides.  An insert reads the
new lead off the first key of its terms, forms its lcm with each active lead
once, as a packed int (`_lcm_code`), for the criteria, and extends the active
set in place, rebuilding it only when an element retires.  S-polynomials are
pseudo-reduced (Greuel and Pfister, *A Singular Introduction to Commutative
Algebra*, ch. 1) on primitive integer term dicts against the active set, a
minimal basis whose interreduction is the result.  Nothing is reduced by an
empty reducer set, and a monomial ideal is reduced by taking its minimal
generators.  A Fraction is made only where a result leaves the kernel, by
dividing out the reduction's scale.  All results are unique reduced bases
sorted by leading monomial, so equal ideals compare equal.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm as int_lcm
from operator import mul, sub

from .errors import ArityError, BudgetExceededError
from .polyring import Monomial, Polynomial, TermOrder, minimal_monomials, mono_lcm


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


# -- packed monomials ------------------------------------------------------------

class _Overflow(Exception):
    """A packed monomial outgrew the field width."""


class _Packing:
    """Monomials as ints K(m) that compare as the order does.  From the top
    field down: the elimination block's degree and FMAX - e_i for its
    variables, the integer weight w.m, the total degree, and FMAX - e_i for
    every variable, the last most significant; a field only where the order
    has it.  Fields below the top are `width` bits with a zero guard bit,
    FMAX = 2^(width-1) - 1, so K(ab) = K(a) + K(b) - K(1), a | b iff
    K(b) - K(a) + K(1) has no guard bit set, and a sum of codes whose monomial
    outgrew the width has one set.  Irrational weights have no field (`weights`
    is None); `key`, the order's key of the decoded monomial memoized per code,
    sorts instead."""

    def __init__(self, order: TermOrder, width: int):
        self.order, self.width, self.fmax = order, width, (1 << width - 1) - 1
        self.weights = _field_weights(order)
        self.one, self.steps, self.guard = _layout(order.nvars, self.weights, order.elim, width)
        self.shifts, self.monomials = range(0, width * order.nvars, width), {}   # decoded or encoded so far
        irrational = self.weights is None and order.weights
        self.key = lru_cache(maxsize=None)(lambda k: order.key(self.monomial(k))) if irrational else None

    @classmethod
    def fit(cls, order: TermOrder, rows) -> _Packing:
        """Fields that hold twice the largest grade of the monomials of the
        term dicts, or twice its square under an elimination order, whose
        reductions raise the degree outside the block past the inputs'."""
        top = max((sum(m) for row in rows for m in row), default=0) * max(_field_weights(order) or (1,))
        return cls(order, (top * top if order.elim else top).bit_length() + 2)

    def code(self, m: Monomial) -> int:
        """K(m) for any m: the grade (weight, else degree) bounds every field."""
        ws = self.weights
        if (sum(m) if ws is None else sum(map(mul, ws, m))) > self.fmax:
            raise _Overflow
        k = self.one + sum(map(mul, self.steps, m))
        self.monomials[k] = m
        return k

    def monomial(self, k: int) -> Monomial:
        m = self.monomials.get(k)
        if m is None:
            fmax, mask = self.fmax, (1 << self.width) - 1
            m = self.monomials[k] = tuple([fmax - (k >> s & mask) for s in self.shifts])
        return m

    def pack(self, polys) -> list[Reducer]:
        return [_reducer(row := _integral(g.terms, self.code)[0], max(row, key=self.key)) for g in polys]


def _field_weights(order: TermOrder) -> tuple[int, ...] | None:
    """The order's weights if rational, else None: TermOrder keeps their `_grades`, all ints or all ExactScalars."""
    return order.weights if order.weights and type(order.weights[0]) is int else None


@lru_cache(maxsize=256)
def _layout(n: int, ws: tuple[int, ...] | None, k: int, width: int) -> tuple[int, tuple[int, ...], int]:
    """(K(1), K(x_i) - K(1) for each variable, the guard bits) of a packing,
    from its fields (base, linear form in the exponents), lowest first."""
    fmax = (1 << width - 1) - 1
    exponents = [(fmax, [-int(i == j) for j in range(n)]) for i in range(n)]     # FMAX - e_i
    fields = exponents + [(0, [1] * n)] + ([(0, list(ws))] if ws else [])
    if k:
        fields += exponents[:k] + [(0, [1] * k + [0] * (n - k))]
    one = sum(base << width * f for f, (base, _) in enumerate(fields))
    steps = tuple(sum(form[j] << width * f for f, (_, form) in enumerate(fields)) for j in range(n))
    return one, steps, sum(1 << width * f + width - 1 for f in range(len(fields) - 1))


def _widening(packing: _Packing, run):
    """(p, run(p)) for the first p of packing and its doublings that holds every monomial."""
    while True:
        try:
            return packing, run(packing)
        except _Overflow:
            packing = _Packing(packing.order, 2 * packing.width)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, its term order, and its elements as packed
    reducers; only `basis_of_rows` builds one."""

    ring: tuple[str, ...]
    elements: tuple[Polynomial, ...]
    order: TermOrder
    packing: _Packing = field(repr=False, compare=False)
    reducers: list[Reducer] = field(repr=False, compare=False)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def reduce(self, work: dict[Monomial, int]) -> tuple[dict[Monomial, int], int]:
        """(r, s), s > 0 and r = s * the remainder of the terms in work over Q."""
        return _divide(work, self.elements, self.packing, self.reducers)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.elements) + "}"


# -- reduction on integer term dicts ------------------------------------------

Reducer = tuple[int, int, list[tuple[int, int]]]
Row = dict[Monomial, int]   # a polynomial as an integer term dict


def _integral(terms: dict[Monomial, Fraction], code=tuple) -> tuple[dict, int]:
    """(d * terms, d) for d > 0 the lcm of the denominators, monomials mapped by code."""
    d = int_lcm(*(c.denominator for c in terms.values()))
    return {code(m): c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _reducer(terms: dict[int, int], lm: int) -> Reducer:
    """The primitive part with a positive lead, as (leading monomial lm, lc, tail)."""
    content = gcd(*terms.values()) if terms[lm] > 0 else -gcd(*terms.values())
    return lm, terms[lm] // content, [(m, c // content) for m, c in terms.items() if m != lm]


def _reduce(work: dict[int, int], reducers: list[Reducer], packing: _Packing,
            quotients: list[dict] | None = None) -> tuple[dict[int, int], int]:
    """Fully pseudo-reduce the packed terms in `work` (consumed); return (r, s),
    s > 0 and r = s * the remainder over Q.

    Terms are taken largest first from a sorted pending list; a term that
    cancels stays in `work` with coefficient 0 until its turn.  The first
    reducer whose lead divides the term c is used: with g = gcd(c, lc), work
    and remainder are multiplied by lc/g and c/g times its shifted tail is
    subtracted; quotients[i], if given, records the terms it cancels over Q."""
    key, one, guard = packing.key, packing.one, packing.guard
    pending = sorted(work, key=key)
    remainder = {}
    scale = 1
    while pending:
        m = pending.pop()
        c = work.pop(m)
        if not c:
            continue
        top = m + one   # top - K(l) has no guard bit set iff l divides m
        for lm, lc, tail in reducers:
            if not (top - lm) & guard:
                shift = m - lm
                if quotients is not None:   # an equal reducer earlier would have been taken
                    quotients[reducers.index((lm, lc, tail))][top - lm] = Fraction(c, scale)
                g = gcd(c, lc)
                c, a = c // g, lc // g
                if a != 1:
                    scale *= a
                    for part in (work, remainder):
                        for m2 in part:
                            part[m2] *= a
                for m2, c2 in tail:
                    target = m2 + shift
                    value = work.get(target)
                    if value is None:
                        if target & guard:
                            raise _Overflow
                        work[target] = -c * c2
                        insort(pending, target, key=key)
                    else:
                        work[target] = value - c * c2
                break
        else:
            remainder[m] = c
    return remainder, scale


def _spair(f: Reducer, g: Reducer, lcm: int, guard: int) -> dict[int, int]:
    """The S-polynomial (lc_g/d) x^a f - (lc_f/d) x^b g, d = gcd(lc_f, lc_g)."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    d = gcd(cf, cg)
    af, ag = cg // d, cf // d
    sf, sg = lcm - lf, lcm - lg
    work = {m + sf: af * c for m, c in tf}
    for m, c in tg:
        target = m + sg
        value = work.get(target)
        work[target] = -ag * c if value is None else value - ag * c
    if any(m & guard for m in work):
        raise _Overflow
    return work


def _divide(work: dict[Monomial, int], polys, packing: _Packing, reducers: list[Reducer] | None,
            quotients: list[dict] | None = None) -> tuple[dict[Monomial, int], int]:
    """`_reduce` by the polynomials (reducers: packed by packing, if known) on
    the terms in work: encode, reduce and decode, repacking at double width as
    often as a monomial overflows; quotients[i] gets what polys[i] cancels."""
    def run(p):
        found = None if quotients is None else [{} for _ in polys]
        packed = reducers if p is packing and reducers is not None else p.pack(polys)
        return found, _reduce({p.code(m): c for m, c in work.items() if c}, packed, p, found)
    p, (found, (remainder, scale)) = _widening(packing, run)
    for q, part in zip(quotients or (), found or ()):
        q.update((p.monomial(k), c) for k, c in part.items())
    return {p.monomial(m): c for m, c in remainder.items()}, scale


def division(f: Polynomial, divisors: list[Polynomial], order: TermOrder):
    """Full multivariate division: f = sum(q_i d_i) + r with no term of r
    divisible by any leading term of the divisors.  Returns (quotients, r)."""
    live = [i for i, d in enumerate(divisors) if not d.is_zero()]
    polys = [divisors[i] for i in live]
    found: list[dict] = [{} for _ in live]
    work, den = _integral(f.terms)
    remainder, scale = _divide(work, polys, _Packing.fit(order, [g.terms for g in polys + [f]]), None, found)
    quotients = [Polynomial.zero(f.ring) for _ in divisors]
    for i, g, q in zip(live, polys, found):
        lc = g.terms[g.leading_monomial(order)]
        quotients[i] = Polynomial(f.ring, {m: c / (den * lc) for m, c in q.items()})
    return quotients, Polynomial(f.ring, {m: Fraction(c, den * scale) for m, c in remainder.items()})


def normal_form(f: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """The unique remainder of f on division by a Groebner basis."""
    if f.ring != basis.ring:
        raise ArityError(f"ring mismatch: {f.ring} vs {basis.ring}")
    return _reduced(f.ring, *_integral(f.terms), basis)


def _reduced(ring: tuple[str, ...], work: Row, den: int, basis: GroebnerBasis | None) -> Polynomial:
    """work / den, pseudo-reduced mod the basis on integers; no Fraction for 0."""
    work, scale = basis.reduce(work) if basis is not None and basis.elements else (work, 1)
    return Polynomial(ring, {m: Fraction(c, den * scale) for m, c in work.items() if c})


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f for f dividing g exactly; raises otherwise."""
    order = TermOrder(len(g.ring))
    (q,), r = division(g, [f], order)
    if not r.is_zero():
        raise ValueError(f"{f} does not divide {g}")
    return q


# -- Buchberger ----------------------------------------------------------------

def spoly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """x^a f / lc(f) - x^b g / lc(g), where x^a lm(f) = x^b lm(g) is their lcm."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(lf, lg)
    return (Polynomial(f.ring, {tuple(map(sub, lcm, lf)): 1 / f.terms[lf]}) * f
            - Polynomial(f.ring, {tuple(map(sub, lcm, lg)): 1 / g.terms[lg]}) * g)


def _buchberger(rows: list[Row], order: TermOrder, max_steps: int | None,
                finish=None) -> tuple[_Packing, list[Reducer]]:
    """The reduced basis of the integer rows: its packing and `_minimal_basis`
    interreduced (or passed to finish(basis, packing)).  A monomial that
    outgrows the packing reruns both at double width; the pair order does not
    depend on the width, nor does the budget."""
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, not {max_steps}")
    finish = finish or _interreduce
    return _widening(_Packing.fit(order, rows), lambda p: finish(_minimal_basis(rows, p, max_steps), p))


def _lcm_code(k: int, a: Monomial, b: Monomial, steps: tuple[int, ...]) -> int:
    """K(lcm(a, b)) from k = K(a), one add per exponent b raises above a's:
    K is linear in the exponents, so this is K(1) + sum(steps * lcm(a, b)),
    and a lcm that outgrows the width sets a guard bit as its code would."""
    for s, t, e in zip(steps, b, a):
        if t > e:
            k += s * (t - e)
    return k


def _minimal_basis(rows: list[Row], p: _Packing, max_steps: int | None) -> list[Reducer]:
    """A minimal Groebner basis of the integer rows: the final active set."""
    key, one, guard, steps = p.key, p.one, p.guard, p.steps
    elements: list[Reducer] = []   # every element ever inserted; pairs index it
    leads: list[Monomial] = []     # leads[k]: the leading monomial of elements[k], decoded
    active: list[int] = []         # the current minimal basis
    reducers: list[Reducer] = []   # elements[k] for k in active
    pairs: list = []               # heap of (rank of lcm, i, j, lcm) for i < j
    reduced = dropped = 0

    def insert(terms):
        """Add an element, its terms largest first, with the Gebauer-Moller update."""
        nonlocal pairs, dropped
        h, lh = len(elements), next(iter(terms))   # the lead is the first key
        elements.append(_reducer(terms, lh))
        leads.append(th := p.monomial(lh))
        # lh's lcm with each active lead, formed once for criteria B, M, F and
        # retirement; no field exceeds the sum of two leads', so guards see an overflow
        lcms, new, kept, retired = {}, [], [], False
        for g in active:
            lcm = lcms[g] = _lcm_code(k := elements[g][0], leads[g], th, steps)
            if lcm & guard:
                raise _Overflow
            retired |= lcm == k   # lh divides g's lead
            if lcm != k + lh - one:   # coprime leads: Buchberger's first criterion drops the pair
                new.append((lcm, -g))
        # criterion B: an old pair goes when lh divides its lcm properly; lh's
        # lcm with a retired lead, not in lcms, divides the pair's, so it fits
        if pairs:   # none queued at 50% of the later inserts on degen-families, 100% on cli-mix
            old = []
            for pair in pairs:
                _, i, j, lcm = pair
                if (not (lcm - lh + one) & guard
                        and lcm != (lcms.get(i) or _lcm_code(elements[i][0], leads[i], th, steps))
                        and lcm != (lcms.get(j) or _lcm_code(elements[j][0], leads[j], th, steps))):
                    dropped += 1
                else:
                    old.append(pair)
            if len(old) < len(pairs):
                heapq.heapify(old)
            pairs = old
        # criteria M and F in one pass: a proper divisor of a lcm comes first in
        # the order, so by (lcm, later element first) each new pair meets every
        # rival before it.  A coprime pair would shadow none: lg * lh divides
        # lcm(lg', lh) only if lg divides lg', and no active lead divides another
        dropped += len(lcms) - len(new)
        new.sort()
        for lcm, later in new:
            for other in kept:
                if not (lcm - other + one) & guard:
                    dropped += 1
                    break
            else:
                kept.append(lcm)
                heapq.heappush(pairs, (lcm if key is None else key(lcm), -later, h, lcm))
        if retired:   # otherwise the active set only grows, in element order
            active[:] = [g for g in active if lcms[g] != elements[g][0]]
            reducers[:] = [elements[g] for g in active]
        active.append(h)
        reducers.append(elements[h])
        if lh == one:
            pairs.clear()   # the unit ideal

    for row in rows:
        work = {p.code(m): c for m, c in row.items()}
        # no reducer yet (40% of rows on degen-families, 90% on cli-mix): the remainder `_reduce` would leave
        r = _reduce(work, reducers, p)[0] if reducers else {m: work[m] for m in sorted(work, key=key)[::-1] if work[m]}
        if r:
            insert(r)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if reduced == max_steps:
            raise BudgetExceededError(
                f"S-pair budget of {max_steps} exceeded: {reduced} pairs reduced, "
                f"{dropped} dropped by the criteria, active basis of {len(active)}")
        reduced += 1
        r, _ = _reduce(_spair(elements[i], elements[j], lcm, guard), reducers, p)
        if r:
            insert(r)
    return reducers


def _interreduce(basis: list[Reducer], packing: _Packing) -> list[Reducer]:
    """The reduced basis from a minimal one, as primitive reducers sorted by
    leading monomial.  A tail term lies below its own lead and every later one,
    none of which divides it, so each tail is reduced by the elements before it."""
    key = packing.key
    reduced = []
    for lm, lc, tail in sorted(basis, key=None if key is None else lambda r: key(r[0])):
        if not (reduced and tail):   # first or one-term: 58% on degen-families, 88% on cli-mix; primitive already
            reduced.append((lm, lc, tail))
            continue
        remainder, scale = _reduce(dict(tail), reduced, packing)
        lead = lc * scale
        content = gcd(lead, *remainder.values())
        reduced.append((lm, lead // content, [(m, c // content) for m, c in remainder.items()]))
    return reduced


def _rows(packing: _Packing, reducers: list[Reducer]) -> list[Row]:
    """Reducers as primitive integer term dicts with positive leads, lead first."""
    return [{packing.monomial(m): c for m, c in [(lm, lc), *tail]} for lm, lc, tail in reducers]


def minimal_leads(rows: list[Row], order: TermOrder, max_steps: int | None = None) -> list[Monomial]:
    """The leading monomials of the reduced basis of the integer rows, read off
    a minimal basis, which has the same ones, without interreducing."""
    p, basis = _buchberger(rows, order, max_steps, lambda basis, p: basis)
    return [p.monomial(r[0]) for r in basis]


def reduced_rows(rows: list[Row], order: TermOrder, max_steps: int | None = None) -> list[Row]:
    """The reduced basis of the integer rows as `_rows`, sorted by leading monomial."""
    return _rows(*_buchberger(rows, order, max_steps))


def _monic(ring: tuple[str, ...], packing: _Packing, reducers: list[Reducer]) -> tuple[Polynomial, ...]:
    """Reducers as monic Polynomials in the ring."""
    return tuple(Polynomial(ring, {m: Fraction(c, lc) for m, c in row.items()})
                 for row, (_, lc, _) in zip(_rows(packing, reducers), reducers))


def basis_of_rows(ring: tuple[str, ...], rows: list[Row], order: TermOrder,
                  max_steps: int | None = None) -> GroebnerBasis:
    """The reduced basis of the integer rows as a GroebnerBasis in the ring."""
    packing, reducers = _buchberger(rows, order, max_steps)
    return GroebnerBasis(ring, _monic(ring, packing, reducers), order, packing, reducers)


def interreduced(ring: tuple[str, ...], rows: list[Row]) -> IdealPresentation:
    """The ideal of grevlex Groebner basis rows, by its reduced basis built with no
    S-pair: `_interreduce` on the rows whose lead no earlier lead divides, or a monomial ideal's minimal generators."""
    if all(len(row) == 1 for row in rows):   # 86% of the calls on degen-families, 75% on cli-mix
        monos = minimal_monomials(m for row in rows for m, c in row.items() if c)
        return IdealPresentation(ring, tuple(Polynomial(ring, {m: Fraction(1)}) for m in monos))
    def run(p):
        basis = sorted(_reducer(r, max(r)) for row in rows if (r := {p.code(m): c for m, c in row.items() if c}))
        return _interreduce([r for i, r in enumerate(basis)
                             if all((r[0] - s[0] + p.one) & p.guard for s in basis[:i])], p)
    return IdealPresentation(ring, _monic(ring, *_widening(_Packing.fit(TermOrder(len(ring)), rows), run)))


def reduced_basis(ideal: IdealPresentation, order: TermOrder | None = None,
                  max_steps: int | None = None) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal for the order.

    `max_steps` >= 0 bounds the number of S-pairs reduced, counted after
    the Gebauer-Moller criteria have dropped theirs; BudgetExceededError
    reports the pairs reduced and dropped and the active basis size."""
    order = order or TermOrder(len(ideal.ring))
    if order.nvars != len(ideal.ring):
        raise ArityError("order arity does not match ring")
    return basis_of_rows(ideal.ring, [_integral(g.terms)[0] for g in ideal.generators], order, max_steps)


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


def _revlex_rows(ring: tuple[str, ...], rows: list[Row], var: str) -> tuple[tuple[str, ...], list[Row]]:
    """The rows homogenized by a fresh h, in the ring (other variables..., h, var).
    For the ideal K they generate, with var last in grevlex, in(K : var) =
    in(K) : var (Bayer, thesis, Harvard 1982; Bayer and Stillman, Invent. Math.
    1987; Eisenbud, Prop. 15.12)."""
    if var not in ring:
        raise ArityError(f"{var!r} is not a ring variable")
    k, degrees = ring.index(var), [max(map(sum, row)) for row in rows]
    out = [{m[:k] + m[k + 1:] + (d - sum(m), m[k]): c for m, c in row.items()} for row, d in zip(rows, degrees)]
    return ring[:k] + ring[k + 1:] + (_fresh_name(ring, "_h"), var), out


def saturate_by_variable(ideal: IdealPresentation, var: str,
                         max_steps: int | None = None) -> IdealPresentation:
    """(I : var^infinity) as its reduced grevlex basis, by Bayer's trick: divide
    each element of the reduced grevlex basis of `_revlex_rows` by its largest
    power of var, set h = 1, and reduce in the ring of I (setting h = 1
    commutes with saturating by var).  Only the tests call it, as the oracle
    of the t-families; it stays while the benchmark tracer wraps it by name."""
    ring, rows = _revlex_rows(ideal.ring, [_integral(g.terms)[0] for g in ideal.generators], var)
    k, flat = ideal.ring.index(var), []
    for g in reduced_rows(rows, TermOrder(len(ring)), max_steps):
        low = min(m[-1] for m in g)
        flat.append({m[:k] + (m[-1] - low,) + m[k:-2]: c for m, c in g.items()})
    result = basis_of_rows(ideal.ring, flat, TermOrder(len(ideal.ring)), max_steps)
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
    gens = []
    for factor, ideal in ((tag, a), (Polynomial.constant(big_ring, 1) - tag, b)):
        gens += [factor * Polynomial(big_ring, {(0,) + m: c for m, c in g.terms.items()})
                 for g in ideal.generators]
    basis = reduced_basis(IdealPresentation(big_ring, tuple(gens)), order, max_steps)
    # the tag is the eliminated block, so an element with a tag-free lead has no tag
    kept = [Polynomial(a.ring, {m[1:]: c for m, c in g.terms.items()})
            for g in basis if g.leading_monomial(order)[0] == 0]
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
