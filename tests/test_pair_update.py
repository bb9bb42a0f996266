"""The Gebauer-Moller pair update on packed leading monomials.

Each insert forms the lcm of the new lead with every active lead once, as
K(a) plus one step per exponent the new lead raises (`groebner._lcm_code`),
and criterion B reuses those lcms, forming one afresh only for an element
already retired.  The tests check the packed lcm against the code of the
tuple lcm under four orders, at exponents 0 and FMAX and past the field
width, and check that the retired-element path runs and leaves the pair
trajectory of the tuple kernel unchanged at every budget.

An insert reads its lead off the first key of its terms, drops coprime
pairs without letting them shadow others, and extends the active set in place
unless the new lead retires an element.  The tests check that every insert
and every `_reduce` remainder comes largest first, and keep the update that
took the lead by the order's max, kept coprime lcms as rivals and rebuilt the
active set on every insert (`rebuilding_minimal_basis`) as the oracle of the
minimal basis and the budget message, on the rows of the three Buchberger
runs of a degen-families job.
"""

import heapq
import random
from functools import lru_cache
from operator import mul
from unittest import mock

import pytest

from conify import degeneration, groebner
from conify.errors import BudgetExceededError
from conify.groebner import division, normal_form, reduced_basis
from conify.polyring import WeightData, mono_divides, mono_lcm
from test_integer_kernel import (
    KINDS,
    SEEDED,
    SEEDED4,
    XYZ,
    budget_message,
    edge_monomials,
    fits,
    orders,
    rational_poly,
    tuple_buchberger,
)
from test_saturation import template_draws, with_coefficients


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


# -- the insert's precondition and the update that rebuilt the active set ------------

def rebuilding_minimal_basis(rows, p, max_steps):
    """`groebner._minimal_basis` with the insert that took its lead by the
    order's max and rebuilt the active set and the reducers on every insert."""
    key, one, guard, steps = p.key, p.one, p.guard, p.steps
    elements, leads, active, reducers, pairs = [], [], [], [], []
    reduced = dropped = 0

    def insert(terms):
        nonlocal pairs, reducers, dropped
        h = len(elements)
        elements.append(groebner._reducer(terms, max(terms, key=key)))
        lh = elements[h][0]
        th = p.monomial(lh)
        leads.append(th)
        lcms = {}
        for g in active:
            lcm = lcms[g] = groebner._lcm_code(elements[g][0], leads[g], th, steps)
            if lcm & guard:
                raise groebner._Overflow
        if pairs:
            old = []
            for pair in pairs:
                _, i, j, lcm = pair
                if (not (lcm - lh + one) & guard
                        and lcm != (lcms.get(i) or groebner._lcm_code(elements[i][0], leads[i], th, steps))
                        and lcm != (lcms.get(j) or groebner._lcm_code(elements[j][0], leads[j], th, steps))):
                    dropped += 1
                else:
                    old.append(pair)
            if len(old) < len(pairs):
                heapq.heapify(old)
            pairs = old
        if lcms:
            kept = []
            new = [(lcm, lcm != elements[g][0] + lh - one, -g) for g, lcm in lcms.items()]
            for lcm, proper, later in sorted(new):
                for other in kept if proper else ():
                    if not (lcm - other + one) & guard:
                        break
                else:
                    kept.append(lcm)
                    if proper:
                        heapq.heappush(pairs, (lcm if key is None else key(lcm), -later, h, lcm))
                        continue
                dropped += 1
        active[:] = [g for g in active if (elements[g][0] - lh + one) & guard] + [h]
        reducers = [elements[g] for g in active]
        if lh == one:
            pairs.clear()

    for row in rows:
        work = {p.code(m): c for m, c in row.items()}
        r = groebner._reduce(work, reducers, p)[0] if reducers else {
            m: work[m] for m in sorted(work, key=key)[::-1] if work[m]}
        if r:
            insert(r)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if reduced == max_steps:
            raise BudgetExceededError(
                f"S-pair budget of {max_steps} exceeded: {reduced} pairs reduced, "
                f"{dropped} dropped by the criteria, active basis of {len(active)}")
        reduced += 1
        r, _ = groebner._reduce(groebner._spair(elements[i], elements[j], lcm, guard), reducers, p)
        if r:
            insert(r)
    return reducers


def degen_jobs(seed):
    """Run the degen-families job on all 120 template draws with seed's coefficients."""
    for ideal, weights in with_coefficients(template_draws(), random.Random(seed)):
        tc = degeneration.build_test_configuration(ideal, weights)
        assert degeneration.central_fiber(tc) == degeneration.weighted_initial_ideal(ideal, WeightData(weights))
        assert degeneration.flatness_witness(tc)


@lru_cache(maxsize=None)
def degen_runs(seed):
    """{site: [(rows, order)]} of the distinct Buchberger runs of degen_jobs(seed):
    the grevlex and the refined `reduced_rows` of `_flats`, and the `minimal_leads`
    of `flatness_witness`."""
    runs, seen = {"grevlex": [], "refined": [], "flatness": []}, set()

    def capture(site, real):
        def spy(rows, order, max_steps=None):
            site_of = site or ("refined" if order.weights else "grevlex")
            if (site_of, repr(rows), repr(order)) not in seen:
                seen.add((site_of, repr(rows), repr(order)))
                runs[site_of].append(([dict(row) for row in rows], order))
            return real(rows, order, max_steps)
        return spy
    with mock.patch.object(degeneration, "reduced_rows", capture(None, degeneration.reduced_rows)), \
            mock.patch.object(degeneration, "minimal_leads", capture("flatness", degeneration.minimal_leads)):
        degen_jobs(seed)
    return runs


def largest_first(p, monomials):
    """Whether the packed monomials come strictly largest first in p's order."""
    ranks = monomials if p.key is None else [p.key(m) for m in monomials]
    return all(b < a for a, b in zip(ranks, ranks[1:]))


def test_inserts_and_remainders_come_largest_first(monkeypatch):
    # checked as each call returns: a lead taken from an unsorted row can send
    # the run round the pair loop for good
    inserted, remainders, packings = [], [], []
    minimal_basis, reducer, reduce = groebner._minimal_basis, groebner._reducer, groebner._reduce

    def spy_minimal_basis(rows, p, max_steps):
        packings.append(p)
        try:
            return minimal_basis(rows, p, max_steps)
        finally:
            packings.pop()

    def spy_reducer(terms, lm):
        if packings:   # inside `_minimal_basis` only `insert` makes a reducer
            p = packings[-1]
            assert largest_first(p, list(terms)) and lm == next(iter(terms)), terms
            inserted.append(p.key is not None and len(terms) > 1)
        return reducer(terms, lm)

    def spy_reduce(work, reducers, packing, quotients=None):
        remainder, scale = reduce(work, reducers, packing, quotients)
        assert largest_first(packing, list(remainder)), remainder
        remainders.append((packing.key is not None, len(remainder)))
        return remainder, scale
    monkeypatch.setattr(groebner, "_minimal_basis", spy_minimal_basis)
    monkeypatch.setattr(groebner, "_reducer", spy_reducer)
    monkeypatch.setattr(groebner, "_reduce", spy_reduce)
    degen_jobs(1)
    rng = random.Random(37)
    for kind in KINDS:
        for ideal in SEEDED + SEEDED4:
            order = orders(len(ideal.ring))[kind]
            basis = reduced_basis(ideal, order)
            if ideal.ring == XYZ:
                f = rational_poly(rng, XYZ, max_deg=5, max_terms=6)
                normal_form(f, basis)
                division(f, list(ideal.generators), order)
    assert len(inserted) > 2000 and len(remainders) > 4000
    assert sum(size > 2 for _, size in remainders) > 1000
    # irrational weights, where `key` ranks the codes
    assert sum(inserted) > 90 and sum(irrational for irrational, _ in remainders) > 200


def outcome(minimal_basis, rows, order, max_steps):
    """(width, basis) of the run at the width it reaches, or its budget message."""
    try:
        return groebner._widening(groebner._Packing.fit(order, rows),
                                  lambda p: (p.width, minimal_basis(rows, p, max_steps)))[1]
    except BudgetExceededError as error:
        return str(error)


# the flats' leads are minimal already, so the flatness runs retire nothing
@pytest.mark.parametrize("site, retiring_runs", [("grevlex", 32), ("refined", 3), ("flatness", 0)])
def test_in_place_update_matches_the_rebuilding_one(site, retiring_runs):
    runs = degen_runs(1)[site]
    budgets = retiring = 0
    for rows, order in runs:
        steps = 0
        while isinstance(got := outcome(groebner._minimal_basis, rows, order, steps), str):
            assert got == outcome(rebuilding_minimal_basis, rows, order, steps), (rows, order, steps)
            steps += 1
        assert got == outcome(rebuilding_minimal_basis, rows, order, steps)
        budgets += steps + 1
        # inside `_minimal_basis` only `insert` makes a reducer: more inserts than
        # elements left means the in-place update rebuilt the active set
        with mock.patch.object(groebner, "_reducer", wraps=groebner._reducer) as inserts:
            assert outcome(groebner._minimal_basis, rows, order, None) == got
        retiring += inserts.call_count > len(got[1])
    assert len(runs) > 100 and budgets > 3 * len(runs) and retiring >= retiring_runs
