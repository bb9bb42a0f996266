"""One-parameter flat degenerations of an affine variety to its weighted cone.

Every route starts from the flats of I along positive weights w (`_flats`):
I's reduced grevlex basis, homogenized with a fresh variable h, gives the
reduced basis for the order refined by (c - w_1, ..., c - w_l, c),
c = max floor(w_i) + 1, which at h = 1 is a standard basis of I for w.
(Refining by the weight directly, max-first, is not sound for the minimal
convention: <y - x^2, y^2> with weights (1, 1) has initial ideal <y, x^4>,
while the max-refined reduced basis only shows <y>.)

A TestConfiguration is the flats, w and one S-pair budget, nothing else: z_i ->
t^{w_i} z_i in each flat, the common t power stripped, generates the t-saturated
family (Eisenbud, Thm. 15.17), whose reduced grevlex basis only testconfig
reads, built on first read.  Both fibers come from the flats: at t = 1 the input
they generate, at t = 0 in_w(I), their initial forms interreduced with no
S-pair, as these are a grevlex basis of in_u(I^h), u = (c - w, c) (Sturmfels,
Groebner Bases and Convex Polytopes, Prop. 1.8), so of in_w(I) at h = 1, h last.
flatness_witness certifies the family by Buchberger's criterion on the flats
homogenized by h and t.  An irrational xi's family (stable_initial_ideal) goes
along the first lam.B in its Groebner cone (B the integer echelon basis of xi's
span, lam > 0 by coordinate sum, then lexicographically), certified by the
flats' initial forms and the check.

The stages pass each other primitive integer rows (`groebner.Row`); only the
family, the fibers and the initial ideals are made into Polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, count, islice
from math import gcd
from operator import mul

from .diophantine import ReebVector, _gauss_jordan
from .errors import ArityError, CertificateError, InhomogeneousError
from .exactnum import ExactScalar
from .groebner import (GroebnerBasis, IdealPresentation, Row, _integral, basis_of_rows, interreduced, minimal_leads,
                       reduced_rows)
from .polyring import Monomial, TermOrder, WeightData, _grades, is_homogeneous, least_weight, mono_divides

T_NAME = "t"


@dataclass(frozen=True)
class TestConfiguration:
    """A flat family over the t-line degenerating the input at t = 0.

    The input's `flats` (`_flats`) along positive integer weights `w`, t weighing
    -1.  The fibers and the flatness certificate are built from the flats;
    `family`, the reduced grevlex basis of the t-saturated family ideal in
    (z_1, ..., z_n, t), t last, is built on first read, for testconfig only.
    Every Buchberger run takes the budget `max_steps`, at least 0."""

    ring: tuple[str, ...]
    flats: tuple[Row, ...]
    w: tuple[int, ...]
    max_steps: int | None = None

    def __post_init__(self):
        if (self.max_steps or 0) < 0:
            raise ValueError(f"max_steps must be at least 0, not {self.max_steps}")

    @cached_property
    def family(self) -> GroebnerBasis:
        gens = [_homogenize_by_t(f, self.w) for f in self.flats]
        return basis_of_rows(self.ring, gens, TermOrder(len(self.ring)), self.max_steps)


def _homogenize_by_t(terms: dict, wvec: tuple[int, ...]) -> dict:
    """The terms times t^(w.m - least w.m), t appended last; variables past w weigh 0."""
    weights = {mono: sum(map(mul, wvec, mono)) for mono in terms}
    m = min(weights.values())
    return {mono + (weights[mono] - m,): c for mono, c in terms.items()}


def _at(row: Row, value: int) -> Row:
    """The row with its last variable set to 0 or 1 and dropped."""
    out: Row = {}
    for m, c in row.items():
        if value or not m[-1]:
            out[m[:-1]] = out.get(m[:-1], 0) + c
    return out


def build_test_configuration(ideal: IdealPresentation, wvec: tuple[int, ...],
                             max_steps: int | None = None) -> TestConfiguration:
    """Degenerate along positive integer weights: the flats of I, homogenized
    by t, generate the t-saturated family, whose basis is built on first read."""
    if T_NAME in ideal.ring:    # before any basis is computed
        raise ArityError(f"ring already contains the family variable {T_NAME!r}")
    if len(wvec) != len(ideal.ring):
        raise ArityError("weight vector arity does not match ring")
    g, s = _grades(wvec)
    if s != 1 or any(w <= 0 for w in g):
        raise ValueError("weights must be positive integers")
    return _family(ideal.ring, _flats(ideal, g, max_steps), g, max_steps)


def _family(ring: tuple[str, ...], flats: list[Row], wvec: tuple[int, ...],
            max_steps: int | None) -> TestConfiguration:
    """The configuration of the flats along wvec; its family is built on first read."""
    return TestConfiguration(ring + (T_NAME,), tuple(flats), wvec, max_steps)


def central_fiber(tc: TestConfiguration) -> IdealPresentation:
    """The fiber at t = 0, in_w(I): the reduced basis of the flats' initial forms."""
    return interreduced(tc.ring[:-1], [least_weight(f, tc.w) for f in tc.flats])


def general_fiber(tc: TestConfiguration) -> IdealPresentation:
    """The fiber at t = 1, I: the reduced basis of the flats, which generate I."""
    ring = tc.ring[:-1]
    return IdealPresentation(ring, basis_of_rows(ring, tc.flats, TermOrder(len(ring)), tc.max_steps).elements)


def flatness_witness(tc: TestConfiguration) -> bool:
    """True: t is a nonzerodivisor on the family ring, certified from the flats.

    The flats homogenized by h to their top degree are B, the refined basis of
    I^h (no b is divisible by h); B~ is B homogenized by t along w.  Ordered by
    the weights (2(c - w), 2c, 1), c = max w_i + 1, then grevlex, each b~ has b's
    t-free lead.  If these are the `minimal_leads` of B~ (Buchberger's criterion),
    in(<B~>) has no t, so t is a nonzerodivisor on the family (Eisenbud, Thm.
    15.17).  Else CertificateError, a bug.  The check runs under tc.max_steps."""
    c = max(tc.w) + 1
    order = TermOrder(len(tc.w) + 2, weights=tuple(2 * (c - w) for w in tc.w) + (2 * c, 1))
    rows = [_homogenize_by_t({m + (d - sum(m),): a for m, a in f.items()}, tc.w)
            for f in tc.flats for d in [max(map(sum, f))]]
    leads = sorted(next(iter(row)) for row in rows)   # `_flats` keeps each b's lead first
    if sorted(minimal_leads(rows, order, tc.max_steps)) != leads or any(m[-1] for m in leads):
        raise CertificateError(f"the flats along {tc.w} fail Buchberger's criterion")
    return True


# -- graded dimensions -----------------------------------------------------------

def hilbert_function(ideal: IdealPresentation, wd: WeightData, cap: int) -> dict[int, int]:
    """Dimensions of the graded pieces of the quotient ring, weights <= cap.

    Requires a weighted-homogeneous ideal with positive integer weights w_i,
    so the quotient has the graded dimensions of R / M, M the ideal of the
    leading monomials of the grevlex basis (`groebner.minimal_leads`).  Its
    Hilbert-Poincare series is K(t) / prod(1 - t^{w_i}); the numerator K comes
    from Bigatti's pivot recursion (`_series_numerator`), and dividing by each
    1 - t^{w_i} is one exact integer prefix sum with stride w_i over the
    coefficients up to cap.
    Only weights with a nonzero dimension appear, in increasing order.
    """
    wvec = wd.integer_weights()
    if len(wvec) != len(ideal.ring):
        raise ArityError("weights do not match ring")
    for g in ideal.generators:
        if not is_homogeneous(g, wd):
            raise InhomogeneousError(f"generator {g} is not homogeneous")
    if cap < 0:
        return {}
    leads = minimal_leads([_integral(g.terms)[0] for g in ideal.generators], TermOrder(len(ideal.ring)))
    coeffs = _series_numerator(leads, wvec, cap)
    for w in wvec:
        for d in range(w, cap + 1):
            coeffs[d] += coeffs[d - w]
    return {d: c for d, c in enumerate(coeffs) if c}


def _series_numerator(gens: list[Monomial], wvec: tuple[int, ...], cap: int) -> list[int]:
    """Coefficients of t^0..t^cap in the numerator K(t) of R / <gens>.

    Bigatti's pivot recursion ("Computation of Hilbert-Poincare series",
    JPAA 1997): K(M) = K(M + <p>) + t^{deg p} K(M : p) for a monomial p outside
    M.  The pivot is x_i^e, x_i a variable in the most generators and e the
    median exponent of x_i over the generators that are not powers of x_i, so
    p lies outside M and both branches have a smaller sum of generator degrees.
    The recursion ends at pairwise coprime generators, where
    K = prod(1 - t^{deg m}); the unit ideal gives K = 0.  A branch weighted by
    t^s needs its coefficients only up to t^(cap - s), and monomials of weight
    above cap - s cannot divide one below it, so they are dropped; every pivot
    then has weight below cap - s, and every shift stays at most cap.
    """
    def weight(m: Monomial) -> int:
        return sum(w * e for w, e in zip(wvec, m))

    coeffs = [0] * (cap + 1)
    stack = [(gens, 0)]
    while stack:
        gens, shift = stack.pop()
        gens = [m for m in gens if weight(m) <= cap - shift]
        counts = [sum(1 for m in gens if m[i]) for i in range(len(wvec))]
        top = max(counts, default=0)
        if top < 2:
            terms = {shift: 1}
            for m in gens:
                d = weight(m)
                for k, c in list(terms.items()):
                    if k + d <= cap:
                        terms[k + d] = terms.get(k + d, 0) - c
            for k, c in terms.items():
                coeffs[k] += c
            continue
        i = counts.index(top)
        exps = sorted(m[i] for m in gens if 0 < m[i] < sum(m))
        e = exps[len(exps) // 2]
        pivot = tuple(e if j == i else 0 for j in range(len(wvec)))
        stack.append(([m for m in gens if m[i] < e] + [pivot], shift))
        quotient = {m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens}
        minimal: list[Monomial] = []
        for m in sorted(quotient, key=sum):
            if not any(mono_divides(d, m) for d in minimal):
                minimal.append(m)
        stack.append((minimal, shift + e * wvec[i]))
    return coeffs


# -- the initial ideal and irrational weights --------------------------------------

CONE_CANDIDATES = 10**5  # small span points stable_initial_ideal tries before rounding xi


def weighted_initial_ideal(ideal: IdealPresentation, wd: WeightData,
                           max_steps: int | None = None) -> IdealPresentation:
    """Minimal-weight initial ideal without the t-family: the flats' initial forms."""
    g, _ = _grades(wd.weights)
    return interreduced(ideal.ring, [least_weight(f, g) for f in _flats(ideal, g, max_steps)])


def _flats(ideal: IdealPresentation, ws: tuple, max_steps: int | None) -> list[Row]:
    """The refined reduced basis of I^h at h = 1 along the positive weights ws,
    as primitive integer rows: [] for <0>, [1] for <1>."""
    if len(ws) != len(ideal.ring):
        raise ArityError("weights do not match ring")
    n = len(ideal.ring)
    base = reduced_rows([_integral(g.terms)[0] for g in ideal.generators], TermOrder(n), max_steps)
    if base in ([], [{(0,) * n: 1}]):
        return base
    degrees = [max(map(sum, g)) for g in base]
    homogenized = [{m + (d - sum(m),): c for m, c in g.items()} for g, d in zip(base, degrees)]
    g, s = _grades(ws)
    c = max(x.floor() for x in g) + 1 if s is None else (max(g) // s + 1) * s
    refined = TermOrder(n + 1, weights=tuple(c - x for x in g) + (c,))
    return [_at(b, 1) for b in reduced_rows(homogenized, refined, max_steps)]


def stable_initial_ideal(ideal: IdealPresentation, xi: tuple[ExactScalar, ...],
                         max_steps: int | None = None) -> TestConfiguration:
    """The family of an irrational weight vector, certified exact.

    For each f of the refined basis, a a term of in_xi(f), the rows
    (m - a).w > 0 for the terms m of f outside in_xi(f) cut the Groebner cone of
    xi, where in_w(I) = in_xi(I) (Sturmfels, Groebner Bases and Convex Polytopes,
    Prop. 2.3), out of xi's rational span, which keeps every tie (m - a).xi = 0
    inside in_xi(f).  w runs over lam.B, B the integer echelon basis of the span
    and lam > 0 by coordinate sum, then lexicographically.  After CONE_CANDIDATES
    of those, lam = round(2^k lam_xi) for k = 1, 2, ..., where xi = lam_xi.B (xi
    at the pivots over |d|): these tend to the ray of xi, inside the open cone, so
    the search ends.  The family is certified, not built: in_w(f) = in_xi(f) for
    each flat, and flatness_witness along w, so in_w(I) = in_xi(I).
    """
    if T_NAME in ideal.ring:
        raise ArityError(f"ring already contains the family variable {T_NAME!r}")
    v = ReebVector(xi)
    flats = _flats(ideal, v.entries, max_steps)
    initials = [least_weight(f, v.entries) for f in flats]
    greater = []
    for f, lead in zip(flats, initials):
        a = next(iter(lead))
        greater += [tuple(x - y for x, y in zip(m, a)) for m in f if m not in lead]
    basis = [list(col) for col in zip(*v.coordinate_rows())]
    pivots, d = _gauss_jordan(basis, len(xi))
    basis = [[x if d > 0 else -x for x in row] for row in basis[:len(pivots)]]
    lams = (tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,))) for total in count(len(pivots))
            for cuts in combinations(range(1, total), len(pivots) - 1))
    near = (tuple((v.entries[p].floor(2 ** (k + 1)) + abs(d)) // (2 * abs(d)) for p in pivots) for k in count(1))
    for lam in chain(islice(lams, CONE_CANDIDATES), near):
        w = [sum(map(int.__mul__, lam, col)) for col in zip(*basis)]
        if min(w) > 0 and all(sum(map(int.__mul__, row, w)) > 0 for row in greater):
            break
    w = tuple(x // gcd(*w) for x in w)
    tc = _family(ideal.ring, flats, w, max_steps)
    if [least_weight(f, tc.w) for f in tc.flats] != initials:
        raise CertificateError(f"the family along {w} does not degenerate to in_xi(I)")
    flatness_witness(tc)
    return tc
