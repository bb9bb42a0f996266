"""One-parameter flat degenerations of an affine variety to its weighted cone.

build_test_configuration realizes the zoom-in family: substitute
z_i -> t^{w_i} z_i in each generator, strip the common t power, then saturate
by t with Bayer's revlex trick (`groebner.saturate_by_variable`).  The fiber
at t = 0 presents the coordinate ring of the degeneration (the quotient by the
minimal-weight initial forms); the fiber at t = 1 is the original variety.
flatness_witness reads t-torsion off one grevlex basis with t last.

weighted_initial_ideal is the independent oracle for that central fiber.  It
never touches the t-family: it homogenizes a degree-compatible Groebner basis
with a fresh variable h, recomputes a reduced basis for the order refined by
the positive vector (c - w_1, ..., c - w_l, c), and reads off minimal-weight
forms after setting h = 1.  (Refining by the weight directly, max-first, is
not sound for the minimal convention: <y - x^2, y^2> with weights (1, 1) has
initial ideal <y, x^4>, while the max-refined reduced basis only shows <y>.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diophantine import ReebVector, default_box_cone
from .errors import ArityError, InhomogeneousError, UnstableError
from .exactnum import ExactScalar
from .groebner import IdealPresentation, reduced_basis, revlex_basis, saturate_by_variable
from .polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    WeightData,
    initial_form,
    is_homogeneous,
    mono_divides,
)

T_NAME = "t"


@dataclass(frozen=True)
class TestConfiguration:
    """A flat family over the t-line degenerating the input at t = 0."""

    family_ideal: IdealPresentation
    weights: WeightData
    saturated: bool

    @property
    def ring(self) -> tuple[str, ...]:
        return self.family_ideal.ring

    def z_ring(self) -> tuple[str, ...]:
        return self.ring[:-1]


def _homogenize_by_t(g: Polynomial, big_ring: tuple[str, ...], wvec: tuple[int, ...]) -> Polynomial:
    weights = {}
    for mono in g.terms:
        weights[mono] = sum(w * e for w, e in zip(wvec, mono))
    m = min(weights.values())
    out = {}
    for mono, coeff in g.terms.items():
        out[mono + (weights[mono] - m,)] = coeff
    return Polynomial(big_ring, out)


def build_test_configuration(ideal: IdealPresentation, wvec: tuple[int, ...],
                             max_steps: int | None = None) -> TestConfiguration:
    """Degenerate along positive integer weights; the result is t-saturated."""
    if len(wvec) != len(ideal.ring):
        raise ArityError("weight vector arity does not match ring")
    if any(w <= 0 or int(w) != w for w in wvec):
        raise ValueError("weights must be positive integers")
    if T_NAME in ideal.ring:
        raise ArityError(f"ring already contains the family variable {T_NAME!r}")
    wvec = tuple(int(w) for w in wvec)
    big_ring = ideal.ring + (T_NAME,)
    gens = tuple(_homogenize_by_t(g, big_ring, wvec) for g in ideal.generators)
    family = IdealPresentation(big_ring, gens)
    family = saturate_by_variable(family, T_NAME, max_steps)
    wd = WeightData(tuple(ExactScalar.of(w) for w in wvec), t_weight=Fraction(1))
    family = IdealPresentation(big_ring, family.generators, wd)
    return TestConfiguration(family, wd, saturated=True)


def central_fiber(tc: TestConfiguration) -> IdealPresentation:
    """The ideal of the fiber at t = 0, presented in the z-ring."""
    if not tc.saturated:
        raise ValueError("central fiber requires a saturated family")
    t_index = len(tc.ring) - 1
    gens = []
    for g in tc.family_ideal.generators:
        h = g.set_variable(t_index, 0)
        if not h.is_zero():
            gens.append(h.drop_variable(t_index))
    ideal = IdealPresentation(tc.z_ring(), tuple(gens), tc.weights)
    basis = reduced_basis(ideal)
    return IdealPresentation(ideal.ring, basis.elements, tc.weights)


def general_fiber(tc: TestConfiguration) -> IdealPresentation:
    """The fiber at t = 1; equals the input ideal of the family."""
    t_index = len(tc.ring) - 1
    gens = []
    for g in tc.family_ideal.generators:
        h = g.set_variable(t_index, 1)
        if not h.is_zero():
            gens.append(h.drop_variable(t_index))
    ideal = IdealPresentation(tc.z_ring(), tuple(gens))
    basis = reduced_basis(ideal)
    return IdealPresentation(ideal.ring, basis.elements)


def flatness_witness(tc: TestConfiguration, max_steps: int | None = None) -> bool:
    """True iff t is a nonzerodivisor on the family ring: (J : t) = J.

    J's reduced grevlex basis is degree-compatible, so its h-homogenization
    generates J^h, and (J : t) = J iff (J^h : t) = J^h.  With t last in revlex,
    in(J^h : t) = in(J^h) : t (`groebner.revlex_basis`), so J is flat iff no
    leading monomial of the revlex basis of J^h is divisible by t."""
    family = tc.family_ideal
    basis = reduced_basis(family, TermOrder(len(family.ring)), max_steps)
    leads = revlex_basis(IdealPresentation(family.ring, basis.elements), T_NAME, max_steps)
    return not any(m[-1] for m in leads.leading_monomials())


# -- graded dimensions -----------------------------------------------------------

def hilbert_function(ideal: IdealPresentation, wd: WeightData, cap: int) -> dict[int, int]:
    """Dimensions of the graded pieces of the quotient ring, weights <= cap.

    Requires a weighted-homogeneous ideal with positive integer weights w_i,
    so the quotient has the graded dimensions of R / M, M the ideal of the
    leading monomials of the reduced basis.  Its Hilbert-Poincare series is
    K(t) / prod(1 - t^{w_i}); the numerator K comes from Bigatti's pivot
    recursion (`_series_numerator`), and dividing by each 1 - t^{w_i} is one
    exact integer prefix sum with stride w_i over the coefficients up to cap.
    Only weights with a nonzero dimension appear, in increasing order.
    """
    wvec = wd.integer_weights()
    if len(wvec) != len(ideal.ring):
        raise ArityError("weights do not match ring")
    if any(w <= 0 for w in wvec):
        raise ValueError("weights must be positive integers")
    for g in ideal.generators:
        if not is_homogeneous(g, wd):
            raise InhomogeneousError(f"generator {g} is not homogeneous")
    if cap < 0:
        return {}
    leads = reduced_basis(ideal).leading_monomials()
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


# -- the independent initial-ideal oracle ------------------------------------------

H_NAME = "_h"


def weighted_initial_ideal(ideal: IdealPresentation, wd: WeightData,
                           max_steps: int | None = None) -> IdealPresentation:
    """Minimal-weight initial ideal computed without the t-family.

    Route: reduced grevlex basis -> homogenize with h -> reduced basis for the
    order refined by the positive weights (c - w_i, c) -> set h = 1 and take
    minimal-weight initial forms.  Valid for positive integer weights.
    """
    wvec = wd.integer_weights()
    if len(wvec) != len(ideal.ring):
        raise ArityError("weights do not match ring")
    if not ideal.generators:
        return IdealPresentation(ideal.ring, (), wd)
    base = reduced_basis(ideal, max_steps=max_steps)
    if any(g.total_degree() == 0 for g in base.elements):
        return IdealPresentation(ideal.ring, (Polynomial.constant(ideal.ring, 1),), wd)
    big_ring = ideal.ring + (H_NAME,)
    homogenized = []
    for g in base.elements:
        deg = g.total_degree()
        terms = {mono + (deg - sum(mono),): c for mono, c in g.terms.items()}
        homogenized.append(Polynomial(big_ring, terms))
    c = max(wvec) + 1
    refined = TermOrder(len(big_ring),
                        weights=tuple(ExactScalar.of(c - w) for w in wvec) + (ExactScalar.of(c),))
    basis = reduced_basis(IdealPresentation(big_ring, tuple(homogenized)), refined, max_steps)
    h_index = len(big_ring) - 1
    forms = []
    for b in basis.elements:
        flat = b.set_variable(h_index, 1).drop_variable(h_index)
        forms.append(initial_form(flat, wd))
    canonical = reduced_basis(IdealPresentation(ideal.ring, tuple(forms)))
    return IdealPresentation(ideal.ring, canonical.elements, wd)


def stable_initial_ideal(ideal: IdealPresentation, xi: tuple[ExactScalar, ...],
                         approximants: tuple[tuple[Fraction, ...], tuple[Fraction, ...]],
                         max_steps: int | None = None) -> IdealPresentation:
    """Initial ideal for an irrational weight vector via two rational stand-ins.

    Both approximants are scaled to integer vectors and degenerated; the
    common central fiber is returned.  Disagreement means the approximants
    straddle a wall, so the caller must refine them.
    """
    first, second = approximants
    if first == second:
        raise ValueError("the two approximants must be distinct")
    vector = ReebVector(tuple(ExactScalar.of(x) for x in xi))
    if vector.is_rational():
        raise ValueError("weights are rational; degenerate along them directly")
    box = default_box_cone(vector)
    fibers = []
    for approx in (first, second):
        if len(approx) != len(ideal.ring):
            raise ArityError("approximant arity does not match ring")
        fracs = [Fraction(a) for a in approx]
        if any(a <= 0 for a in fracs):
            raise ValueError("approximant weights must be positive")
        if not box.contains(fracs)[0]:
            raise ValueError("approximant falls outside the reference cone around the weights")
        scale = math.lcm(*(a.denominator for a in fracs))
        wvec = tuple(int(a * scale) for a in fracs)
        tc = build_test_configuration(ideal, wvec, max_steps)
        fibers.append(central_fiber(tc))
    if fibers[0].generators != fibers[1].generators:
        raise UnstableError(
            "approximants give different central fibers: "
            f"{fibers[0]} vs {fibers[1]}; refine the approximation")
    return fibers[0]
