"""The Gebauer-Moller pair update on packed leading monomials.

Each insert forms the lcm of the new lead with every active lead once, as
K(a) plus one step per exponent the new lead raises (`groebner._lcm_code`),
and criterion B reuses those lcms, forming one afresh only for an element
already retired.  The tests check the packed lcm against the code of the
tuple lcm under four orders, at exponents 0 and FMAX and past the field
width, and check that the retired-element path runs and leaves the pair
trajectory of the tuple kernel unchanged at every budget.
"""

import random
from operator import mul

import pytest

from conify import groebner
from conify.groebner import reduced_basis
from conify.polyring import mono_divides, mono_lcm
from test_integer_kernel import (
    KINDS,
    SEEDED,
    budget_message,
    edge_monomials,
    fits,
    orders,
    tuple_buchberger,
)


def unchecked_code(p, m):
    """K(m) as the sum of the steps, with no grade check: a monomial past the
    width gives the int whose guard bits show it."""
    return p.one + sum(map(mul, p.steps, m))


def random_leads(p, rng, count):
    """Monomials of grade (weight, else degree) at most FMAX, so each codes."""
    ws = p.weights or (1, 1, 1)
    out = []
    while len(out) < count:
        m = tuple(rng.randint(0, p.fmax // w) for w in ws)
        if sum(map(mul, ws, m)) <= p.fmax:
            out.append(m)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_packed_lcm_is_the_code_of_the_lcm(kind):
    order = orders(3)[kind]
    p = groebner._Packing(order, 6)
    leads = edge_monomials(p) + random_leads(p, random.Random(kind), 40)
    assert max(max(m) for m in leads) == p.fmax
    coded = past = 0
    for a in leads:
        for b in leads:
            lcm = mono_lcm(a, b)
            k = groebner._lcm_code(p.code(a), a, b, p.steps)
            assert k == unchecked_code(p, lcm)
            assert (not k & p.guard) == fits(p, lcm)
            try:
                assert k == p.code(lcm)
                coded += 1
            except groebner._Overflow:
                past += 1
    assert coded > 1000 and past > 100


@pytest.mark.parametrize("kind", ["weighted", "elimination"])
def test_a_lcm_past_the_width_sets_a_guard_bit(kind):
    # both leads code at width 6 (FMAX 31), but their lcm has degree 46, and
    # the degree field lies below the top one under these orders
    p = groebner._Packing(orders(3)[kind], 6)
    a, b = (0, 0, 31), (0, 15, 0)
    k = groebner._lcm_code(p.code(a), a, b, p.steps)
    assert k == unchecked_code(p, (0, 15, 31))
    assert k & p.guard
    with pytest.raises(groebner._Overflow):
        p.code((0, 15, 31))


def retired_calls(calls):
    """How many lcms were formed with a retired element's lead.

    calls holds (a, b) per `_lcm_code` call: a the element's lead, b the
    inserted one.  Leads of inserts are distinct, and no lead divides a later
    one, so a's element was retired exactly when a proper divisor of a came
    in with an earlier insert than the current one."""
    inserted, count = [], 0
    for a, b in calls:
        if b not in inserted:
            inserted.append(b)
        count += any(t != a and mono_divides(t, a) for t in inserted[:-1])
    return count


@pytest.mark.parametrize("kind", KINDS)
def test_criterion_b_forms_the_lcm_of_a_retired_element(kind, monkeypatch):
    ideal = SEEDED[3]
    order = orders(3)[kind]
    calls = []
    packed_lcm = groebner._lcm_code

    def spy(k, a, b, steps):
        calls.append((a, b))
        return packed_lcm(k, a, b, steps)
    monkeypatch.setattr(groebner, "_lcm_code", spy)
    rows = [groebner._integral(g.terms)[0] for g in ideal.generators]
    groebner._minimal_basis(rows, groebner._Packing.fit(order, rows), None)
    assert retired_calls(calls) > 0
    # the pair trajectory and its counters at every budget up to the full run
    gens, steps = list(ideal.generators), 0
    while (message := budget_message(reduced_basis, ideal, order, steps)) is not None:
        assert message == budget_message(tuple_buchberger, gens, order, steps)
        steps += 1
    assert budget_message(tuple_buchberger, gens, order, steps) is None
    assert steps > 5
