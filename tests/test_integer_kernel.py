"""Differential test of the integer Buchberger kernel against a Fraction kernel.

conify.groebner reduces primitive integer polynomials by pseudo-reduction and
makes Fractions only where a result leaves the kernel.  The oracle below is
the kernel it replaced: monic reducers over Q, reduced term by term with
Fraction arithmetic, with the same pair selection and Gebauer-Moller update.
The two must agree on

- the minimal basis before interreduction, element by element: each integer
  reducer is the primitive multiple, with positive leading coefficient, of
  the monic Fraction reducer;
- the reduced bases under grevlex, weighted and elimination orders;
- the budget message, so the pair trajectory and its counters are the same;
- normal forms, and division quotients and remainders.

The inputs are seeded ideals with rational coefficients of denominators 2-7
and non-monic leading coefficients, and the 20 criterion-1 ideals.
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
    GroebnerBasis,
    IdealPresentation,
    division,
    normal_form,
    reduced_basis,
)
from conify.polyring import Polynomial, TermOrder, mono_lcm
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


SEEDED = rational_ideals(12, seed=1729)
SEEDED4 = rational_ideals(6, seed=2718, ring=XYZW)


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


# -- tests --------------------------------------------------------------------------

def test_seeded_inputs_have_rational_coefficients_and_non_monic_leads():
    order = TermOrder(3)
    coeffs = [c for ideal in SEEDED for g in ideal.generators for c in g.terms.values()]
    assert all(c.denominator > 1 for c in coeffs)
    leads = [g.leading_coeff(order) for ideal in SEEDED for g in ideal.generators]
    assert not any(c == 1 for c in leads)


@pytest.mark.parametrize("kind", ["grevlex", "weighted", "irrational", "elimination"])
def test_reduced_bases_agree_on_seeded_ideals(kind):
    for ideal in SEEDED + SEEDED4:
        new, old = both_kernels(ideal, orders(len(ideal.ring))[kind])
        assert new == old


@pytest.mark.parametrize("kind", ["grevlex", "weighted", "elimination"])
def test_minimal_bases_are_the_primitive_parts(kind):
    for ideal in SEEDED:
        order = orders(3)[kind]
        new = groebner._buchberger(list(ideal.generators), order, None)
        old = frac_buchberger(list(ideal.generators), order)
        assert new == [primitive(lm, tail) for lm, tail in old]
        for lm, lc, tail in new:
            assert lc > 0 and gcd(lc, *(c for _, c in tail)) == 1


@pytest.mark.parametrize("index", range(len(CASES)))
def test_reduced_bases_agree_on_criterion_1_ideals(index):
    ideal, weights = CASES[index]
    n = len(ideal.ring)
    for order in (TermOrder(n), TermOrder(n, weights=weights), TermOrder(n, elim=1)):
        new, old = both_kernels(ideal, order)
        assert new == old


def budget_message(run, *args):
    try:
        run(*args)
    except BudgetExceededError as error:
        return str(error)
    return None


def test_budget_messages_agree():
    stopped = 0
    for ideal in SEEDED + [case[0] for case in CASES]:
        order = TermOrder(len(ideal.ring))
        for steps in range(6):
            message = budget_message(reduced_basis, ideal, order, steps)
            assert message == budget_message(frac_buchberger, list(ideal.generators), order, steps)
            stopped += message is not None
    assert stopped > 50


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
    assert len(leads) > 3


def test_normal_form_divides_by_the_scale():
    # the reducer of x - 2/3*y is 3x - 2y, so reducing x^2 scales by 9
    basis = GroebnerBasis(XYZ, (Polynomial(XYZ, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-2, 3)}),),
                          TermOrder(3))
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
                total = remainder
                for q, d in zip(quotients, divisors):
                    total = total + q * d
                assert total == f
