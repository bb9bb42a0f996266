"""Small ideals pay for their terms, not for the kernel.

A Buchberger run reduces nothing against an empty reducer set: its first row,
and in the interreduction its first element and every one-term element, are
taken as they are.  A monomial ideal's reduced basis is its minimal
generators, monic and in grevlex order (`polyring.minimal_monomials`), which
`groebner.interreduced` returns with no packing.  The spies below pin both
paths; the oracle `packed_interreduced` is the packed body `interreduced` runs
for every other input, checked against the shortcut on seeded monomial rows and
on the central fibers of all 120 template draws.
"""

import random

import pytest

from conify import groebner
from conify.degeneration import build_test_configuration
from conify.groebner import IdealPresentation, basis_of_rows, interreduced, minimal_leads, reduced_rows
from conify.polyring import Polynomial, TermOrder, least_weight
from test_integer_kernel import orders, tuple_reduced_basis
from test_saturation import template_draws, with_coefficients


def packed_interreduced(ring, rows):
    """`interreduced` through the packed kernel: `_interreduce` on the rows whose
    lead no earlier lead divides, for monomial rows too."""
    def run(p):
        packed = ({p.code(m): c for m, c in row.items()} for row in rows)
        basis = sorted(groebner._reducer(row, max(row)) for row in packed)
        return groebner._interreduce([r for i, r in enumerate(basis)
                                      if all((r[0] - s[0] + p.one) & p.guard for s in basis[:i])], p)
    packing = groebner._Packing.fit(TermOrder(len(ring)), rows)
    return IdealPresentation(ring, groebner._monic(ring, *groebner._widening(packing, run)))


def seeded_rows(rng, n):
    """One integer row of 1-4 terms in n variables, exponents 0-4, one
    coefficient 0 now and then."""
    monos = {tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))}
    row = {m: rng.choice((-7, -3, -1, 1, 2, 5, 12)) for m in monos}
    if len(row) > 1 and rng.random() < 0.3:
        row[rng.choice(sorted(row))] = 0
    return row


def seeded_monomial_rows(rng, n):
    """One-term rows in n variables: duplicates, divisor chains and now and then
    the unit monomial, each with a nonzero integer coefficient."""
    pool = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    monos = []
    for _ in range(rng.randint(0, 8)):
        m = rng.choice(pool)
        if rng.random() < 0.4:   # a multiple of an earlier pick
            m = tuple(e + rng.randint(0, 2) for e in m)
        monos.append(m)
    if rng.random() < 0.1:
        monos.append((0,) * n)
    rng.shuffle(monos)
    return [{m: rng.choice((-4, -1, 1, 3, 6))} for m in monos]


def spy_calls(monkeypatch, name):
    calls = []
    real = getattr(groebner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(groebner, name, spy)
    return calls


@pytest.mark.parametrize("kind", ["grevlex", "weighted", "irrational", "elimination"])
def test_one_row_makes_no_reduction(kind, monkeypatch):
    rng = random.Random(kind)
    ring = ("x", "y", "z")
    order = orders(3)[kind]
    checked = 0
    for _ in range(60):
        row = seeded_rows(rng, 3)
        nonzero = {m: c for m, c in row.items() if c}
        if not nonzero:
            continue
        # what `_reduce` leaves of the row with no reducer: its nonzero terms, largest first
        packing = groebner._Packing.fit(order, [row])
        left, scale = groebner._reduce({packing.code(m): c for m, c in row.items()}, [], packing)
        expected = groebner._rows(packing, [groebner._reducer(left, max(left, key=packing.key))])
        calls = spy_calls(monkeypatch, "_reduce")
        rows = reduced_rows([row], order)
        leads = minimal_leads([row], order)
        basis = basis_of_rows(ring, [row], order)
        assert calls == []
        monkeypatch.undo()
        assert scale == 1
        assert rows == expected and list(rows[0]) == list(expected[0])   # the same terms, in the same order
        assert leads == [next(iter(rows[0]))]
        poly = Polynomial(ring, nonzero)
        assert basis.elements == tuple_reduced_basis(IdealPresentation(ring, (poly,)), order)
        checked += 1
    assert checked > 50
    # a zero coefficient, which no Polynomial holds, is dropped, also from a lead
    m, m2 = (2, 0, 1), (0, 1, 0)
    calls = spy_calls(monkeypatch, "_reduce")
    assert reduced_rows([{m: 0, m2: 3}], order) == reduced_rows([{m2: 3}], order) == [{m2: 1}]
    assert reduced_rows([{m: 0}], order) == []
    assert reduced_rows([{m: 0}, {m2: -2, m: 4}], order) == reduced_rows([{m2: -2, m: 4}], order)
    assert calls == []


def test_a_monomial_interreduction_builds_no_packing(monkeypatch):
    widths = []
    init = groebner._Packing.__init__

    def spy(self, order, width):
        widths.append(width)
        init(self, order, width)
    monkeypatch.setattr(groebner._Packing, "__init__", spy)
    ring = ("x", "y", "z")
    fiber = interreduced(ring, [{(2, 0, 0): 3}, {(1, 1, 0): -1}, {(3, 0, 0): 2}, {(1, 1, 0): 5}])
    assert [str(g) for g in fiber.generators] == ["x*y", "x^2"]
    assert interreduced(ring, []).generators == ()
    assert widths == []
    interreduced(ring, [{(2, 0, 0): 3, (0, 0, 1): 1}])   # not monomial: the packed kernel
    assert widths != []


def test_monomial_interreduction_matches_the_packed_kernel():
    rng = random.Random(36)
    seen = {"empty": 0, "unit": 0, "duplicate": 0, "divided": 0}
    for _ in range(400):
        n = rng.randint(1, 4)
        ring = ("x", "y", "z", "w")[:n]
        rows = seeded_monomial_rows(rng, n)
        fiber, oracle = interreduced(ring, rows), packed_interreduced(ring, rows)
        assert fiber == oracle, rows
        assert [str(g) for g in fiber.generators] == [str(g) for g in oracle.generators]
        monos = [next(iter(row)) for row in rows]
        seen["empty"] += not rows
        seen["unit"] += (0,) * n in monos
        seen["duplicate"] += len(set(monos)) < len(monos)
        seen["divided"] += len(fiber.generators) < len(set(monos))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("seed", [1, 2])
def test_template_central_fibers_match_the_packed_kernel(seed):
    # all 120 draws, the four the benchmark skips included
    monomial = 0
    for index, (ideal, weights) in enumerate(with_coefficients(template_draws(), random.Random(seed))):
        tc = build_test_configuration(ideal, weights)
        forms = [least_weight(f, tc.w) for f in tc.flats]
        fiber, oracle = interreduced(ideal.ring, forms), packed_interreduced(ideal.ring, forms)
        assert fiber == oracle, index
        assert [str(g) for g in fiber.generators] == [str(g) for g in oracle.generators], index
        monomial += all(len(form) == 1 for form in forms)
    assert 60 < monomial < 120
