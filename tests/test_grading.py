"""Differential test of the one grading rule, `polyring._grades`.

The oracle is the route the rule replaced: rational weights rescaled to
integers over the lcm of their denominators (`_rescaled`), and irrational
weights summed as ExactScalars over the nonzero exponents (`_weight_sum`),
with a branch between the two in every caller.  Least-weight terms, shared
and term weights, the orders' weights and the order of their keys must agree
with it on seeded weight vectors of five kinds: ints, Fractions,
rational ExactScalars, one radicand and mixed radicands.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from conify.exactnum import ExactScalar
from conify.polyring import (
    Polynomial,
    TermOrder,
    WeightData,
    _grades,
    _grevlex_key,
    homogeneous_weight,
    least_weight,
    term_weight,
)

KINDS = ("int", "fraction", "rational_scalar", "one_radicand", "mixed_radicands")
SEEDS = range(6)
RING = ("x", "y", "z", "w")


def _rescaled(ws):
    """(ints, scale) for rational weights, None if one is irrational."""
    if all(w.is_rational() for w in ws):
        scale = lcm(*(w.den for w in ws))
        return tuple(w.num * (scale // w.den) for w in ws), scale
    return None


def _weight_sum(ws, m):
    return ExactScalar.of(sum((w * e for w, e in zip(ws, m) if e), 0))


def oracle_least_weight(terms, ws):
    rescaled = _rescaled(ws)
    if rescaled is None:
        graded = {m: _weight_sum(ws, m) for m in terms}
    else:
        graded = {m: sum(w * e for w, e in zip(rescaled[0], m)) for m in terms}
    low = min(graded.values())
    return {m: c for m, c in terms.items() if graded[m] == low}


def oracle_shared_weight(monos, ws):
    rescaled = _rescaled(ws)
    if rescaled is None:
        weights = {_weight_sum(ws, m) for m in monos}
        return weights.pop() if len(weights) == 1 else None
    ints, scale = rescaled
    weights = {sum(w * e for w, e in zip(ints, m)) for m in monos}
    return ExactScalar.of(Fraction(weights.pop(), scale)) if len(weights) == 1 else None


def oracle_key(ws, elim, m):
    rescaled = _rescaled(ws)
    parts = [_grevlex_key(m[:elim])] if elim else []
    if rescaled is None:
        parts.append(_weight_sum(ws, m))
    else:
        parts.append(sum(w * e for w, e in zip(rescaled[0], m)))
    return tuple(parts) + (_grevlex_key(m),)


def _positive_irrational(rng, radicands):
    """a + sum(b_k*sqrt(k)) > 0 with small rational a and b_k."""
    while True:
        w = ExactScalar.from_coordinates(
            {1: Fraction(rng.randint(-3, 6), rng.randint(1, 4)),
             **{k: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5)) for k in radicands}})
        if w.sign() > 0:
            return w


def weight_vector(kind, rng, n):
    """n positive weights of the kind, as the caller would pass them."""
    if kind == "int":
        return tuple(rng.randint(1, 7) for _ in range(n))
    if kind in ("fraction", "rational_scalar"):
        ws = tuple(Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(n))
        return ws if kind == "fraction" else tuple(map(ExactScalar.of, ws))
    if kind == "one_radicand":
        d = rng.choice([2, 3, 5, 7])
        return tuple(_positive_irrational(rng, [d] if i == 0 or rng.random() < 0.75 else []) for i in range(n))
    while True:
        ws = tuple(_positive_irrational(rng, rng.sample([2, 3, 5, 6, 7], rng.randint(1, 2))) for _ in range(n))
        if len({k for w in ws for k, _ in w.surds}) >= 2:
            return ws


def case(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    n = rng.randint(2, 4)
    ws = weight_vector(kind, rng, n)
    monos = sorted({tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(12)})
    return rng, n, ws, tuple(map(ExactScalar.of, ws)), monos


def same_weight_groups(scalars, n, cap=3):
    """Sets of at least two monomials with exponents up to cap that share a weight."""
    groups: dict = {}
    for m in product(range(cap + 1), repeat=n):
        groups.setdefault(_weight_sum(scalars, m), []).append(m)
    return [g for g in groups.values() if len(g) > 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
class TestGradingRule:
    def test_grades(self, kind, seed):
        # g.e = s*wt(e), with integers for rational weights
        _, n, ws, scalars, monos = case(kind, seed)
        g, s = _grades(ws)
        assert all(sum(x * e for x, e in zip(g, m)) == (s or 1) * _weight_sum(scalars, m) for m in monos)
        assert all(type(x) is int for x in g) == (_rescaled(scalars) is not None)

    def test_least_weight(self, kind, seed):
        rng, n, ws, scalars, monos = case(kind, seed)
        for k in range(1, len(monos) + 1):
            terms = {m: Fraction(rng.randint(1, 5)) for m in rng.sample(monos, k)}
            assert least_weight(terms, ws) == oracle_least_weight(terms, scalars)
        for group in same_weight_groups(scalars, n)[:10]:
            terms = {m: Fraction(1) for m in group + monos}
            assert least_weight(terms, ws) == oracle_least_weight(terms, scalars)

    def test_homogeneous_and_term_weight(self, kind, seed):
        rng, n, ws, scalars, monos = case(kind, seed)
        wd = WeightData(ws, t_weight=Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        full = wd.full_vector(n + 1)
        for m in monos:
            assert term_weight(m, wd) == _weight_sum(scalars, m)
            mt = m + (rng.randint(0, 3),)
            assert term_weight(mt, wd) == _weight_sum(full, mt)
            assert homogeneous_weight(Polynomial(RING[:n], {m: 1}), wd) == _weight_sum(scalars, m)
        polys = [monos[:2], monos] + same_weight_groups(scalars, n)[:10]
        for group in polys:
            f = Polynomial(RING[:n], {m: 1 for m in group})
            assert homogeneous_weight(f, wd) == oracle_shared_weight(group, scalars)

    def test_order_integer_weights_and_keys(self, kind, seed):
        rng, n, ws, scalars, monos = case(kind, seed)
        rescaled = _rescaled(scalars)
        for elim in range(n):
            order = TermOrder(n, weights=ws, elim=elim)
            assert order.weights == (scalars if rescaled is None else rescaled[0])
            assert sorted(monos, key=order.key) == sorted(monos, key=lambda m: oracle_key(scalars, elim, m))
            assert [order.key(a) < order.key(b) for a in monos for b in monos] == \
                   [oracle_key(scalars, elim, a) < oracle_key(scalars, elim, b) for a in monos for b in monos]

    def test_order_weights_are_the_grades(self, kind, seed):
        # one weight field: the grades, ints for rational weights however they are written
        _, n, ws, scalars, _ = case(kind, seed)
        g, s = _grades(ws)
        weights = TermOrder(n, weights=ws).weights
        assert weights == g and list(map(type, weights)) == list(map(type, g))
        assert (s is None) == (_rescaled(scalars) is None)
        if s is None:
            return
        assert not any(isinstance(x, ExactScalar) for x in weights)
        # the same order from ints, Fractions and ExactScalars, rescaled or not
        ints = _rescaled(scalars)[0]
        written = [ints, tuple(map(Fraction, ints)), tuple(map(ExactScalar.of, ints)),
                   tuple(x.as_fraction() for x in scalars), scalars]
        orders = [TermOrder(n, weights=v, elim=1) for v in written]
        assert all(order == orders[0] and hash(order) == hash(orders[0]) for order in orders)


def test_every_kind_is_drawn():
    # the seeds really draw each kind: fractional denominators, and one and several radicands
    cases = {kind: [case(kind, seed)[3] for seed in SEEDS] for kind in KINDS}
    assert all(w.is_rational() and w.den == 1 for ws in cases["int"] for w in ws)
    for kind in ("fraction", "rational_scalar"):
        assert any(_rescaled(ws)[1] > 1 for ws in cases[kind])
    assert all(len({k for w in ws for k, _ in w.surds}) == 1 for ws in cases["one_radicand"])
    assert all(len({k for w in ws for k, _ in w.surds}) >= 2 for ws in cases["mixed_radicands"])
