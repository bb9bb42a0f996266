"""Differential tests of the packed integer Buchberger kernel against two oracles.

conify.groebner packs each monomial into one int that compares as the term
order does, and reduces primitive integer polynomials by pseudo-reduction,
making Fractions only where a result leaves the kernel.  The oracles below are
the kernels it replaced:

- the Fraction kernel: monic reducers over Q, reduced term by term with
  Fraction arithmetic;
- the tuple kernel: the same integer pseudo-reduction on exponent tuples,
  sorted by `TermOrder.key`, with criterion M rebuilding each new pair's
  rivals (the pairs kept so far and the later new pairs).

Both use the same pair selection and Gebauer-Moller update.  The packed
kernel must agree with them on

- the minimal basis before interreduction, element by element: each integer
  reducer is the primitive multiple, with positive leading coefficient, of
  the monic Fraction reducer, and decodes to the tuple kernel's reducer;
- the reduced bases under grevlex, weighted, irrationally weighted and
  elimination orders;
- the budget message, so the pair trajectory and its counters are the same;
- normal forms, and division quotients and remainders.

The inputs are seeded ideals with rational coefficients of denominators 2-7
and non-monic leading coefficients, the 20 criterion-1 ideals, and seeded
ideals in the 14-variable ring of the `ogrady_weights` catalogue entry.  The
packing itself is checked at exponents 0 and FMAX, on divisibility that fails
in one field only, and with a field width too small for the inputs.
"""

import heapq
import random
from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub

import pytest

from conify import groebner
from conify.errors import BudgetExceededError
from conify.exactnum import ExactScalar
from conify.groebner import (
    IdealPresentation,
    division,
    normal_form,
    reduced_basis,
)
from conify.catalogue import ENTRIES
from conify.polyring import Polynomial, TermOrder, mono_divides, mono_lcm, parse_polynomial
from test_acceptance import _degeneration_cases

CASES = _degeneration_cases()
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


# -- the Fraction kernel, the oracle ------------------------------------------------

def frac_reducer(terms, key):
    """A polynomial made monic, as (leading monomial, tail)."""
    lm = max(terms, key=key)
    lc = terms[lm]
    return lm, [(m, c / lc) for m, c in terms.items() if m != lm]


def frac_reduce(work, reducers, key, quotients=None):
    """Fully reduce the terms in `work` (consumed) over Q; return the remainder."""
    pending = sorted(work, key=key)
    remainder = {}
    while pending:
        m = pending.pop()
        c = work.pop(m)
        if not c:
            continue
        for i, (lm, tail) in enumerate(reducers):
            if all(map(le, lm, m)):
                factor = tuple(map(sub, m, lm))
                for m2, c2 in tail:
                    target = tuple(map(add, m2, factor))
                    value = work.get(target)
                    if value is None:
                        work[target] = -c * c2
                        insort(pending, target, key=key)
                    else:
                        work[target] = value - c * c2
                if quotients is not None:
                    quotients[i][factor] = c
                break
        else:
            remainder[m] = c
    return remainder


def frac_spair(f, g, lcm_):
    (lf, tf), (lg, tg) = f, g
    sf, sg = tuple(map(sub, lcm_, lf)), tuple(map(sub, lcm_, lg))
    work = {tuple(map(add, m, sf)): c for m, c in tf}
    for m, c in tg:
        target = tuple(map(add, m, sg))
        value = work.get(target)
        work[target] = -c if value is None else value - c
    return work


def frac_buchberger(gens, order, max_steps=None):
    """The minimal basis of the Fraction kernel, with the same pair handling."""
    key = order.key
    elements, active, reducers, pairs = [], [], [], []
    reduced = dropped = 0

    def insert(terms):
        nonlocal pairs, reducers, dropped
        h = len(elements)
        lh, tail = frac_reducer(terms, key)
        elements.append((lh, tail))
        old = []
        for pair in pairs:
            lcm_ = pair[3]
            if (all(map(le, lh, lcm_)) and lcm_ != mono_lcm(elements[pair[1]][0], lh)
                    and lcm_ != mono_lcm(elements[pair[2]][0], lh)):
                dropped += 1
            else:
                old.append(pair)
        if len(old) < len(pairs):
            heapq.heapify(old)
        pairs = old
        new = [(mono_lcm(elements[g][0], lh), g) for g in active]
        kept = []
        for n, (lcm_, g) in enumerate(new):
            coprime = lcm_ == tuple(map(add, elements[g][0], lh))
            rivals = [p[0] for p in kept] + [p[0] for p in new[n + 1:]]
            if coprime or not any(all(map(le, other, lcm_)) for other in rivals):
                kept.append((lcm_, g, coprime))
        dropped += len(new)
        for lcm_, g, coprime in kept:
            if not coprime:
                dropped -= 1
                heapq.heappush(pairs, (key(lcm_), g, h, lcm_))
        active[:] = [g for g in active if not all(map(le, lh, elements[g][0]))] + [h]
        reducers = [elements[g] for g in active]
        if not any(lh):
            pairs.clear()

    for g in gens:
        r = frac_reduce(dict(g.terms), reducers, key)
        if r:
            insert(r)
    while pairs:
        _, i, j, lcm_ = heapq.heappop(pairs)
        if reduced == max_steps:
            raise BudgetExceededError(
                f"S-pair budget of {max_steps} exceeded: {reduced} pairs reduced, "
                f"{dropped} dropped by the criteria, active basis of {len(active)}")
        reduced += 1
        r = frac_reduce(frac_spair(elements[i], elements[j], lcm_), reducers, key)
        if r:
            insert(r)
    return reducers


def frac_interreduce(basis, order, ring):
    key = order.key
    out = []
    for lm, tail in sorted(basis, key=lambda r: key(r[0])):
        terms = {lm: Fraction(1)}
        terms.update(frac_reduce(dict(tail), basis, key))
        out.append(Polynomial(ring, terms))
    return out


def frac_reduced_basis(ideal, order):
    return tuple(frac_interreduce(frac_buchberger(list(ideal.generators), order), order, ideal.ring))


def frac_division(f, divisors, order):
    key = order.key
    live = [i for i, d in enumerate(divisors) if not d.is_zero()]
    reducers = [frac_reducer(divisors[i].terms, key) for i in live]
    found = [{} for _ in live]
    remainder = frac_reduce(dict(f.terms), reducers, key, found)
    quotients = [Polynomial.zero(f.ring) for _ in divisors]
    for i, (lm, _), q in zip(live, reducers, found):
        quotients[i] = Polynomial(f.ring, {m: c / divisors[i].terms[lm] for m, c in q.items()})
    return quotients, Polynomial(f.ring, remainder)


def primitive(lm, tail):
    """The primitive integer multiple of a monic reducer, as an integer reducer."""
    coeffs = [Fraction(1)] + [c for _, c in tail]
    d = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * d) for c in coeffs]
    content = gcd(*ints)
    return lm, ints[0] // content, [(m, c // content) for (m, _), c in zip(tail, ints[1:])]


# -- the tuple kernel, the oracle the packing replaced -------------------------------

def tuple_integral(terms):
    d = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def tuple_reducer(terms, key):
    lm = max(terms, key=key)
    content = gcd(*terms.values()) if terms[lm] > 0 else -gcd(*terms.values())
    return lm, terms[lm] // content, [(m, c // content) for m, c in terms.items() if m != lm]


def tuple_reduce(work, reducers, key, quotients=None):
    """Fully pseudo-reduce `work` (consumed) on exponent tuples; return (r, s)."""
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


def tuple_spair(f, g, lcm_):
    (lf, cf, tf), (lg, cg, tg) = f, g
    d = gcd(cf, cg)
    af, ag = cg // d, cf // d
    sf, sg = tuple(map(sub, lcm_, lf)), tuple(map(sub, lcm_, lg))
    work = {tuple(map(add, m, sf)): af * c for m, c in tf}
    for m, c in tg:
        target = tuple(map(add, m, sg))
        value = work.get(target)
        work[target] = -ag * c if value is None else value - ag * c
    return work


def tuple_buchberger(gens, order, max_steps=None):
    """The minimal basis of the tuple kernel, criterion M rival by rival."""
    key = order.key
    elements, active, reducers, pairs = [], [], [], []
    reduced = dropped = 0

    def insert(terms):
        nonlocal pairs, reducers, dropped
        h = len(elements)
        elements.append(tuple_reducer(terms, key))
        lh = elements[h][0]
        old = []
        for pair in pairs:
            lcm_ = pair[3]
            if (all(map(le, lh, lcm_)) and lcm_ != mono_lcm(elements[pair[1]][0], lh)
                    and lcm_ != mono_lcm(elements[pair[2]][0], lh)):
                dropped += 1
            else:
                old.append(pair)
        if len(old) < len(pairs):
            heapq.heapify(old)
        pairs = old
        new = [(mono_lcm(elements[g][0], lh), g) for g in active]
        kept = []
        for n, (lcm_, g) in enumerate(new):
            coprime = lcm_ == tuple(map(add, elements[g][0], lh))
            rivals = [p[0] for p in kept] + [p[0] for p in new[n + 1:]]
            if coprime or not any(all(map(le, other, lcm_)) for other in rivals):
                kept.append((lcm_, g, coprime))
        dropped += len(new)
        for lcm_, g, coprime in kept:
            if not coprime:
                dropped -= 1
                heapq.heappush(pairs, (key(lcm_), g, h, lcm_))
        active[:] = [g for g in active if not all(map(le, lh, elements[g][0]))] + [h]
        reducers = [elements[g] for g in active]
        if not any(lh):
            pairs.clear()

    for g in gens:
        r, _ = tuple_reduce(tuple_integral(g.terms)[0], reducers, key)
        if r:
            insert(r)
    while pairs:
        _, i, j, lcm_ = heapq.heappop(pairs)
        if reduced == max_steps:
            raise BudgetExceededError(
                f"S-pair budget of {max_steps} exceeded: {reduced} pairs reduced, "
                f"{dropped} dropped by the criteria, active basis of {len(active)}")
        reduced += 1
        r, _ = tuple_reduce(tuple_spair(elements[i], elements[j], lcm_), reducers, key)
        if r:
            insert(r)
    return reducers


def tuple_reduced_basis(ideal, order):
    key = order.key
    basis = tuple_buchberger(list(ideal.generators), order)
    out = []
    for lm, lc, tail in sorted(basis, key=lambda r: key(r[0])):
        terms = {lm: Fraction(1)}
        remainder, scale = tuple_reduce(dict(tail), basis, key)
        terms.update((m, Fraction(c, lc * scale)) for m, c in remainder.items())
        out.append(Polynomial(ideal.ring, terms))
    return tuple(out)


def tuple_normal_form(f, basis):
    reducers = [tuple_reducer(tuple_integral(g.terms)[0], basis.order.key) for g in basis.elements]
    work, den = tuple_integral(f.terms)
    remainder, scale = tuple_reduce(work, reducers, basis.order.key)
    return Polynomial(f.ring, {m: Fraction(c, den * scale) for m, c in remainder.items()})


def tuple_division(f, divisors, order):
    key = order.key
    live = [i for i, d in enumerate(divisors) if not d.is_zero()]
    reducers = [tuple_reducer(tuple_integral(divisors[i].terms)[0], key) for i in live]
    found = [{} for _ in live]
    work, den = tuple_integral(f.terms)
    remainder, scale = tuple_reduce(work, reducers, key, found)
    quotients = [Polynomial.zero(f.ring) for _ in divisors]
    for i, (lm, _, _), q in zip(live, reducers, found):
        quotients[i] = Polynomial(f.ring, {m: c / (den * divisors[i].terms[lm]) for m, c in q.items()})
    return quotients, Polynomial(f.ring, {m: Fraction(c, den * scale) for m, c in remainder.items()})


# -- seeded inputs ----------------------------------------------------------------

def rational_poly(rng, ring, max_deg=3, max_terms=4):
    """Coefficients p/q with q in 2..7 and p in -9..9, so leads are rarely monic."""
    terms = {}
    for _ in range(rng.randint(2, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in ring)
        while sum(mono) > max_deg:
            mono = tuple(rng.randint(0, max_deg) for _ in ring)
        q = rng.randint(2, 7)
        terms[mono] = Fraction(rng.choice([p for p in range(-9, 10) if gcd(p, q) == 1]), q)
    return Polynomial(ring, terms)


def rational_ideals(count, seed, ring=XYZ):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = tuple(rational_poly(rng, ring) for _ in range(rng.randint(2, 3)))
        ideal = IdealPresentation(ring, gens)
        if ideal.generators:
            out.append(ideal)
    return out


def sparse_ideals(count, seed, ring):
    """Generators of 2-4 terms of degree at most 3, each term in at most three
    variables, coefficients as in rational_poly."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                mono = [0] * len(ring)
                for _ in range(rng.randint(0, 3)):
                    mono[rng.randrange(len(ring))] += 1
                q = rng.randint(2, 7)
                terms[tuple(mono)] = Fraction(rng.choice([p for p in range(-9, 10) if gcd(p, q) == 1]), q)
            gens.append(Polynomial(ring, terms))
        out.append(IdealPresentation(ring, tuple(gens)))
    return out


SEEDED = rational_ideals(12, seed=1729)
SEEDED4 = rational_ideals(6, seed=2718, ring=XYZW)
# the zero ideal, a principal ideal, and the unit ideal reached by one S-pair
EDGES = [IdealPresentation(XYZ, tuple(parse_polynomial(g, XYZ) for g in gens))
         for gens in ((), ("3/2*x^2*y - z^3 + 2/5*y",), ("x*y - 1/2", "2/3*x"))]
OGRADY = ENTRIES["ogrady_weights"].document()
FOURTEEN = sparse_ideals(6, seed=1414, ring=OGRADY.ideal.ring)
KINDS = ["grevlex", "weighted", "irrational", "elimination"]


def orders(n):
    """grevlex, integer-weighted, irrationally weighted and elimination orders."""
    return {
        "grevlex": TermOrder(n),
        "weighted": TermOrder(n, weights=tuple(range(n, 0, -1))),
        "irrational": TermOrder(n, weights=(ExactScalar.root(2),) + (1,) * (n - 1)),
        "elimination": TermOrder(n, elim=1),
    }


def both_kernels(ideal, order):
    return reduced_basis(ideal, order).elements, frac_reduced_basis(ideal, order)


def packed_minimal_basis(gens, order):
    """The packed kernel's minimal basis, decoded, at the width reduced_basis reaches."""
    rows = [groebner._integral(g.terms)[0] for g in gens]
    packing = groebner._Packing.fit(order, rows)
    while True:
        try:
            packed = groebner._minimal_basis(rows, packing, None)
            break
        except groebner._Overflow:
            packing = groebner._Packing(order, 2 * packing.width)
    decode = groebner._Packing(order, packing.width).monomial    # no memo of the encoded monomials
    return [(decode(lm), lc, [(decode(m), c) for m, c in tail]) for lm, lc, tail in packed]


def budget_message(run, *args):
    try:
        run(*args)
    except BudgetExceededError as error:
        return str(error)
    return None


# -- the packing --------------------------------------------------------------------

def fits(packing, m):
    """Whether every field of K(m) below the top one holds its value."""
    order, fmax, ws = packing.order, packing.fmax, packing.weights
    bounded = list(m)
    if ws is not None or order.elim:
        bounded.append(sum(m))      # the degree field is not the top one
    if ws is not None and order.elim:
        bounded.append(sum(w * e for w, e in zip(ws, m)))
    return max(bounded) <= fmax


def edge_monomials(packing):
    """Exponents 0, 1 and the largest each variable carries alone."""
    ws = packing.weights or (1, 1, 1)
    tops = [packing.fmax // w for w in ws]
    monos = [(a, b, c) for a in (0, 1, tops[0]) for b in (0, 1, tops[1]) for c in (0, 1, tops[2])]
    return [m for m in monos if sum(w * e for w, e in zip(ws, m)) <= packing.fmax]


@pytest.mark.parametrize("kind", KINDS)
def test_packing_at_exponents_zero_and_fmax(kind):
    order = orders(3)[kind]
    p, fresh = groebner._Packing(order, 6), groebner._Packing(order, 6)
    monos = edge_monomials(p)
    assert max(max(m) for m in monos) == p.fmax == 31
    codes = {m: p.code(m) for m in monos}
    assert all(fresh.monomial(k) == m for m, k in codes.items())
    rank = (lambda m: codes[m]) if p.key is None else (lambda m: p.key(codes[m]))
    assert sorted(monos, key=rank) == sorted(monos, key=order.key)
    for a in monos:
        for b in monos:
            quotient = codes[b] - codes[a] + p.one
            assert (not quotient & p.guard) == mono_divides(a, b)
            product = codes[a] + codes[b] - p.one
            ab = tuple(map(add, a, b))
            assert (not product & p.guard) == fits(p, ab)
            if fits(p, ab):
                assert fresh.monomial(product) == ab


@pytest.mark.parametrize("kind", KINDS)
def test_divisibility_failing_in_one_field(kind):
    order = orders(3)[kind]
    p = groebner._Packing(order, 6)
    b = (2, 2, 2)
    for a in ((3, 2, 2), (2, 2, 3), (0, 0, 3), (3, 0, 0)):   # least, then most significant variable
        assert (p.code(b) - p.code(a) + p.one) & p.guard
    for a in ((2, 2, 2), (0, 2, 2), (2, 2, 0), (0, 0, 0)):
        assert not (p.code(b) - p.code(a) + p.one) & p.guard
    # reduction by a lead that exceeds the term in one field only leaves it alone
    for lead in ((3, 2, 2), (2, 2, 3)):
        reducer = p.code(lead), 1, [(p.code((0, 0, 0)), -1)]
        remainder, scale = groebner._reduce({p.code(b): 5}, [reducer], p)
        assert remainder == {p.code(b): 5} and scale == 1


def test_codes_beyond_the_width_overflow():
    p = groebner._Packing(TermOrder(3), 6)
    with pytest.raises(groebner._Overflow):
        p.code((32, 0, 0))
    with pytest.raises(groebner._Overflow):
        p.code((11, 11, 10))      # each exponent fits, the degree does not
    weighted = groebner._Packing(TermOrder(3, weights=(3, 2, 1)), 6)
    with pytest.raises(groebner._Overflow):
        weighted.code((0, 16, 0))


def test_too_narrow_a_width_reruns_at_double_width(monkeypatch):
    widths = []
    init = groebner._Packing.__init__

    def spy(self, order, width):
        widths.append(width)
        init(self, order, width)
    monkeypatch.setattr(groebner._Packing, "__init__", spy)
    monkeypatch.setattr(groebner._Packing, "fit", classmethod(lambda cls, order, polys: cls(order, 2)))
    rng = random.Random(5)
    for kind in KINDS:
        order = orders(3)[kind]
        for ideal in SEEDED[:6]:
            basis = reduced_basis(ideal, order)
            assert basis.elements == tuple_reduced_basis(ideal, order)
            assert budget_message(reduced_basis, ideal, order, 3) == budget_message(
                tuple_buchberger, list(ideal.generators), order, 3)
            f = rational_poly(rng, XYZ, max_deg=9, max_terms=6)
            assert normal_form(f, basis) == tuple_normal_form(f, basis)
            assert basis.packing.width > 2
            divisors = list(ideal.generators)
            assert division(f, divisors, order) == tuple_division(f, divisors, order)
    assert {2, 4, 8} <= set(widths)


def test_a_shifted_tail_past_the_width_reruns_the_reduction(monkeypatch):
    # x - y^5 packs at width 7 (FMAX 63) and x*y^60 (degree 61) encodes, but
    # reducing it by x shifts the tail y^5 to y^65: a guard bit inside _reduce
    ring = ("x", "y")
    g = Polynomial(ring, {(1, 0): Fraction(1), (0, 5): Fraction(-1)})
    basis = reduced_basis(IdealPresentation(ring, (g,)), TermOrder(2, elim=1))
    assert (basis.packing.width, basis.packing.fmax) == (7, 63)
    widths = []
    init = groebner._Packing.__init__

    def spy(self, order, width):
        widths.append(width)
        init(self, order, width)
    monkeypatch.setattr(groebner._Packing, "__init__", spy)
    f = Polynomial(ring, {(1, 60): Fraction(1)})
    assert normal_form(f, basis) == Polynomial(ring, {(0, 65): Fraction(1)})
    assert widths == [14]


def test_elimination_orders_fit_without_a_rerun(monkeypatch):
    # fields fitted to the inputs' grade alone made 10 of the 18 seeded bases run twice
    widths = []
    init = groebner._Packing.__init__

    def spy(self, order, width):
        widths.append(width)
        init(self, order, width)
    monkeypatch.setattr(groebner._Packing, "__init__", spy)
    for ideal in SEEDED + SEEDED4 + [case[0] for case in CASES]:
        widths.clear()
        basis = reduced_basis(ideal, TermOrder(len(ideal.ring), elim=1))
        assert len(widths) == 1 and basis.packing.width == widths[0]


def test_exponents_past_two_to_the_31():
    ring = ("x", "y")
    x = Polynomial(ring, {(2**31 + 1, 0): Fraction(1)})
    ideal = IdealPresentation(ring, (Polynomial(ring, {(2**31, 0): Fraction(1), (0, 1): Fraction(-1)}),))
    for order in (TermOrder(2), TermOrder(2, weights=(1, 1)), TermOrder(2, elim=1)):
        basis = reduced_basis(ideal, order)
        assert basis.elements == tuple_reduced_basis(ideal, order)
        assert normal_form(x, basis) == tuple_normal_form(x, basis)


# -- tests --------------------------------------------------------------------------

def test_seeded_inputs_have_rational_coefficients_and_non_monic_leads():
    order = TermOrder(3)
    coeffs = [c for ideal in SEEDED for g in ideal.generators for c in g.terms.values()]
    assert all(c.denominator > 1 for c in coeffs)
    leads = [g.terms[g.leading_monomial(order)] for ideal in SEEDED for g in ideal.generators]
    assert not any(c == 1 for c in leads)


@pytest.mark.parametrize("kind", KINDS)
def test_reduced_bases_agree_on_seeded_ideals(kind):
    for ideal in SEEDED + SEEDED4:
        new, old = both_kernels(ideal, orders(len(ideal.ring))[kind])
        assert new == old
        assert new == tuple_reduced_basis(ideal, orders(len(ideal.ring))[kind])


@pytest.mark.parametrize("kind", KINDS)
def test_minimal_bases_are_the_primitive_parts(kind):
    for ideal in SEEDED + SEEDED4:
        order = orders(len(ideal.ring))[kind]
        new = packed_minimal_basis(list(ideal.generators), order)
        assert new == tuple_buchberger(list(ideal.generators), order)
        old = frac_buchberger(list(ideal.generators), order)
        assert new == [primitive(lm, tail) for lm, tail in old]
        for lm, lc, tail in new:
            assert lc > 0 and gcd(lc, *(c for _, c in tail)) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_reduced_bases_hand_over_primitive_rows(kind):
    # each element times the lcm of its denominators, leading term first: the
    # integer rows the degeneration stages pass each other
    for ideal in SEEDED + SEEDED4:
        order = orders(len(ideal.ring))[kind]
        basis = reduced_basis(ideal, order)
        rows = groebner.reduced_rows([groebner._integral(g.terms)[0] for g in ideal.generators], order)
        assert rows == groebner._rows(basis.packing, basis.reducers)
        for g, row in zip(basis.elements, rows):
            d = lcm(*(c.denominator for c in g.terms.values()))
            assert row == {m: int(c * d) for m, c in g.terms.items()}
            assert next(iter(row)) == g.leading_monomial(order)


@pytest.mark.parametrize("kind", KINDS)
def test_minimal_leads_are_the_reduced_basis_leads(kind):
    # a minimal basis has one element per leading monomial of the reduced one
    for ideal in SEEDED + SEEDED4:
        order = orders(len(ideal.ring))[kind]
        leads = groebner.minimal_leads([groebner._integral(g.terms)[0] for g in ideal.generators], order)
        basis = reduced_basis(ideal, order)
        assert len(leads) == len(basis)
        assert set(leads) == {g.leading_monomial(order) for g in basis}
    order = orders(3)[kind]
    assert groebner.minimal_leads([{(1, 0, 0): 2, (0, 0, 0): -1}, {(1, 0, 0): 1}], order) == [(0, 0, 0)]
    assert groebner.minimal_leads([], order) == []


@pytest.mark.parametrize("index", range(len(CASES)))
def test_reduced_bases_agree_on_criterion_1_ideals(index):
    ideal, weights = CASES[index]
    n = len(ideal.ring)
    for order in (TermOrder(n), TermOrder(n, weights=weights), TermOrder(n, elim=1)):
        new, old = both_kernels(ideal, order)
        assert new == old
        assert new == tuple_reduced_basis(ideal, order)


@pytest.mark.parametrize("kind", KINDS + ["catalogue"])
def test_fourteen_variables_agree_with_the_tuple_kernel(kind):
    order = TermOrder(14, weights=OGRADY.weight_data.weights) if kind == "catalogue" else orders(14)[kind]
    rng = random.Random(kind)
    for ideal in FOURTEEN:
        gens = list(ideal.generators)
        assert packed_minimal_basis(gens, order) == tuple_buchberger(gens, order)
        basis = reduced_basis(ideal, order)
        assert basis.elements == tuple_reduced_basis(ideal, order)
        for f in sparse_ideals(1, rng.random(), OGRADY.ideal.ring)[0].generators:
            assert normal_form(f, basis) == tuple_normal_form(f, basis)
        for steps in range(3):
            assert budget_message(reduced_basis, ideal, order, steps) == budget_message(
                tuple_buchberger, gens, order, steps)


def test_budget_messages_agree():
    for kind in KINDS:
        stopped = 0
        for ideal in SEEDED + SEEDED4 + EDGES + ([case[0] for case in CASES] if kind == "grevlex" else []):
            order = orders(len(ideal.ring))[kind]
            for steps in range(6):
                message = budget_message(reduced_basis, ideal, order, steps)
                assert message == budget_message(frac_buchberger, list(ideal.generators), order, steps)
                assert message == budget_message(tuple_buchberger, list(ideal.generators), order, steps)
                stopped += message is not None
        assert stopped > (50 if kind == "grevlex" else 25)


def test_normal_forms_agree():
    rng = random.Random(99)
    leads = set()
    for ideal in SEEDED:
        for order in orders(3).values():
            basis = reduced_basis(ideal, order)
            monic = [frac_reducer(g.terms, order.key) for g in basis.elements]
            leads.update(lc for _, lc, _ in basis.reducers)
            for _ in range(3):
                f = rational_poly(rng, XYZ, max_deg=5, max_terms=6)
                expected = Polynomial(XYZ, frac_reduce(dict(f.terms), monic, order.key))
                assert normal_form(f, basis) == expected
                assert tuple_normal_form(f, basis) == expected
    assert len(leads) > 3


def test_normal_form_divides_by_the_scale():
    # the reducer of x - 2/3*y is 3x - 2y, so reducing x^2 scales by 9
    g = Polynomial(XYZ, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-2, 3)})
    basis = reduced_basis(IdealPresentation(XYZ, (g,)), TermOrder(3))
    assert basis.elements == (g,)
    f = Polynomial(XYZ, {(2, 0, 0): Fraction(1, 5), (0, 0, 1): Fraction(1, 2)})
    assert normal_form(f, basis) == Polynomial(
        XYZ, {(0, 2, 0): Fraction(4, 45), (0, 0, 1): Fraction(1, 2)})


def test_division_agrees():
    rng = random.Random(7)
    for ideal in SEEDED + SEEDED4:
        ring = ideal.ring
        for order in orders(len(ring)).values():
            divisors = list(ideal.generators) + [Polynomial.zero(ring)]
            for _ in range(3):
                f = rational_poly(rng, ring, max_deg=5, max_terms=6)
                quotients, remainder = division(f, divisors, order)
                expected_q, expected_r = frac_division(f, divisors, order)
                assert quotients == expected_q
                assert remainder == expected_r
                assert (quotients, remainder) == tuple_division(f, divisors, order)
                total = remainder
                for q, d in zip(quotients, divisors):
                    total = total + q * d
                assert total == f
