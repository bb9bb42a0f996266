"""Graded Poisson brackets from coordinate tables, homogeneity weights,
invariant-monomial generators, and bounded semi-invariant decompositions.

A bracket table lists {z_i, z_j} for i < j, kept as integer rows over one
common denominator D (FLINT's fmpq_poly layout).  One integer kernel gives the
coordinate brackets D * {z_l, p}, and {f, g} sums d_l f * {z_l, g}.  With a
quotient ideal attached, the Jacobi identity and ideal preservation are decided
on the quotient ring by pseudo-reducing integer coordinate brackets, so a
passing check makes no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil, lcm
from operator import add

from .errors import ArityError
from .exactnum import ExactScalar
from .groebner import GroebnerBasis, IdealPresentation, _integral, normal_form, reduced_basis
from .polyring import Monomial, Polynomial, WeightData, _partial, _product, _shared_weight


@dataclass(frozen=True)
class PoissonTable:
    """Antisymmetric coordinate bracket table on a polynomial ring."""

    ring: tuple[str, ...]
    table: dict[tuple[int, int], Polynomial]      # keys (i, j) with i < j
    ideal: IdealPresentation | None = None
    _basis: GroebnerBasis | None = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        if self.ideal is not None and self.ideal.ring != self.ring:
            raise ArityError("quotient ideal lives in the wrong ring")
        basis = None
        if self.ideal is not None and self.ideal.generators:
            basis = reduced_basis(self.ideal)
        object.__setattr__(self, "_basis", basis)
        clean = {}
        for (i, j), p in self.table.items():
            if not 0 <= i < j < len(self.ring):
                raise ArityError(f"bad bracket index pair ({i}, {j})")
            if p.ring != self.ring:
                raise ArityError("bracket polynomial lives in the wrong ring")
            p = p if basis is None else normal_form(p, basis)
            if not p.is_zero():
                clean[(i, j)] = p
        object.__setattr__(self, "table", clean)

    @cached_property
    def rows(self) -> tuple[int, list[dict[int, dict[Monomial, int]]]]:
        """(D, rows): D > 0 the lcm of the entries' denominators and
        rows[l][k] = D * {z_l, z_k} as an integer term dict, for both signs."""
        d = lcm(*(c.denominator for p in self.table.values() for c in p.terms.values()))
        rows: list[dict] = [{} for _ in self.ring]
        for (i, j), p in self.table.items():
            rows[i][j] = {m: c.numerator * (d // c.denominator) for m, c in p.terms.items()}
            rows[j][i] = {m: -c for m, c in rows[i][j].items()}
        return d, rows

    def _coordinate(self, l: int, dp: dict[int, dict[Monomial, int]], out: dict[Monomial, int]) -> dict[Monomial, int]:
        """Add D * {z_l, p} = sum over k of D * {z_l, z_k} * d_k p into out, given
        dp[k] = d_k p for every k with {z_l, z_k} != 0."""
        for k, row in self.rows[1][l].items():
            _product(dp[k], row, out)
        return out

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = sum over l of d_l f * {z_l, g}, one Fraction per output term."""
        if f.ring != self.ring or g.ring != self.ring:
            raise ArityError("bracket argument lives in the wrong ring")
        (fi, a), (gi, b) = _integral(f.terms), _integral(g.terms)
        dg = {k: _partial(gi, k) for k in range(len(self.ring))}
        out: dict[Monomial, int] = {}
        for l in range(len(self.ring)):
            df = _partial(fi, l)
            if df:
                _product(self._coordinate(l, dg, {}), df, out)
        return _reduced(self.ring, out, a * b * self.rows[0], None)

    def quotient_basis(self) -> GroebnerBasis | None:
        """The grevlex reduced basis of the quotient ideal, computed once."""
        return self._basis


def _reduced(ring: tuple[str, ...], work: dict[Monomial, int], den: int, basis: GroebnerBasis | None) -> Polynomial:
    """work / den, pseudo-reduced mod the basis on integers; no Fraction for 0."""
    scale = 1
    if basis is not None:
        work, scale = basis.reduce(work)
    return Polynomial(ring, {m: Fraction(c, den * scale) for m, c in work.items() if c})


def jacobi_defect(table: PoissonTable) -> dict[tuple[int, int, int], Polynomial]:
    """The Jacobi cyclic sum for every variable triple, reduced mod the ideal:
    D^2 times it is the sum of the integer coordinate brackets D * {z_a, D * p_bc}."""
    d, rows = table.rows
    basis = table.quotient_basis()
    out = {}
    for i, j, k in combinations(range(len(table.ring)), 3):
        total: dict[Monomial, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if c in rows[b]:
                table._coordinate(a, {v: _partial(rows[b][c], v) for v in rows[a]}, total)
        out[(i, j, k)] = _reduced(table.ring, total, d * d, basis)
    return out


def jacobi_holds(table: PoissonTable) -> bool:
    return all(p.is_zero() for p in jacobi_defect(table).values())


def preserves_ideal(table: PoissonTable, ideal: IdealPresentation) -> bool:
    """Whether {z_i, g} lies in the ideal for every variable and generator."""
    if ideal.ring != table.ring:
        raise ArityError("ideal ring differs from bracket ring")
    if not ideal.generators:
        return True
    basis = table.quotient_basis() if ideal == table.ideal else reduced_basis(ideal)
    n = len(table.ring)
    for gi in (_integral(g.terms)[0] for g in ideal.generators):
        dg = {k: _partial(gi, k) for k in range(n)}
        for l in range(n):
            if basis.reduce(table._coordinate(l, dg, {}))[0]:
                return False
    return True


def _common_weight(entries: dict[tuple[int, int], Polynomial], wd: WeightData,
                   sign: int) -> ExactScalar | None:
    """The common wt(p) + sign * (w_i + w_j) over the nonzero entries p at (i, j), if any:
    the weight that the monomials m + sign * (e_i + e_j), m a term of p, all share."""
    shifted = []
    for (i, j), p in entries.items():
        step = [sign * ((k == i) + (k == j)) for k in range(len(p.ring))]
        shifted += [tuple(map(add, m, step)) for m in p.terms]
    return _shared_weight(shifted, wd.full_vector(len(shifted[0]))) if shifted else None


def bracket_weight(table: PoissonTable, wd: WeightData) -> ExactScalar | None:
    """The common lambda with wt({z_i, z_j}) = w_i + w_j + lambda, if any."""
    return _common_weight(table.table, wd, -1)


@dataclass(frozen=True)
class FormTable:
    """A polynomial 2-form sum c_ab dz_a ^ dz_b with a < b."""

    ring: tuple[str, ...]
    coefficients: dict[tuple[int, int], Polynomial]

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        clean = {}
        for (a, b), p in self.coefficients.items():
            if not 0 <= a < b < len(self.ring):
                raise ArityError(f"bad form index pair ({a}, {b})")
            if p.ring != self.ring:
                raise ArityError("form coefficient lives in the wrong ring")
            if not p.is_zero():
                clean[(a, b)] = p
        object.__setattr__(self, "coefficients", clean)


def form_weight(form: FormTable, wd: WeightData) -> ExactScalar | None:
    """The common lambda with wt(c_ab) + w_a + w_b = lambda, if any."""
    return _common_weight(form.coefficients, wd, 1)


# -- scale-up deformation conditions ------------------------------------------------

@dataclass(frozen=True)
class ScaleUpReport:
    base_weight_negative: bool       # t scales with a positive exponent w
    bracket_weight_matches: bool     # bracket weight equals minus the form weight
    section_condition: bool          # all fiber-variable weights positive
    bracket_weight_value: ExactScalar | None
    expected_bracket_weight: Fraction | None    # minus the form weight

    def all_pass(self) -> bool:
        return (self.base_weight_negative and self.bracket_weight_matches
                and self.section_condition)

    def to_json_dict(self) -> dict:
        return {
            "base_weight_negative": self.base_weight_negative,
            "bracket_weight_matches": self.bracket_weight_matches,
            "section_condition": self.section_condition,
            "bracket_weight": None if self.bracket_weight_value is None
            else str(self.bracket_weight_value),
            "expected_bracket_weight": None if self.expected_bracket_weight is None
            else str(self.expected_bracket_weight),
            "all_pass": self.all_pass(),
        }


def check_scaleup(table: PoissonTable, wd: WeightData) -> ScaleUpReport:
    """The three scale-up conditions, each reported independently.

    (1) the base coordinate carries a negative weight (t_weight > 0);
    (2) the bracket is homogeneous of weight minus the form weight;
    (3) sufficient form of the invariant-section condition: every fiber
        variable has strictly positive weight, so z = 0 is the section.
    """
    cond1 = wd.t_weight is not None and wd.t_weight > 0
    value = bracket_weight(table, wd)
    cond2 = False
    if wd.form_weight is not None and value is not None:
        cond2 = (value + ExactScalar.of(wd.form_weight)).sign() == 0
    cond3 = all(w.sign() > 0 for w in wd.weights)
    return ScaleUpReport(cond1, cond2, cond3, value, None if wd.form_weight is None else -wd.form_weight)


# -- invariant monomials and semi-invariant decomposition ------------------------------

def _weighted_partitions(wvec: tuple[int, ...], target: int):
    """All exponent tuples a with sum(a_i * w_i) == target."""
    if not wvec:
        if target == 0:
            yield ()
        return
    w0 = wvec[0]
    for a0 in range(target // w0 + 1):
        for rest in _weighted_partitions(wvec[1:], target - a0 * w0):
            yield (a0,) + rest


def _monoid_solutions(wvec: tuple[int, ...], w: int, cap: int) -> list[tuple[int, ...]]:
    """Nonzero (a, b) with sum(a_i w_i) = b*w and b <= cap."""
    out = []
    for b in range(0, cap + 1):
        for a in _weighted_partitions(wvec, b * w):
            if b or any(a):
                out.append(tuple(a) + (b,))
    return out


def invariant_generators(wd: WeightData, cap: int) -> list[Monomial]:
    """Generators (up to t-degree cap >= 1) of the monoid of invariant monomials.

    Solutions of sum(a_i w_i) = b*w that are not sums of two smaller
    solutions, together with the distinguished invariants x_i^w t^{w_i},
    which are always included, whatever their t-degree (and even when they
    factor, since the decomposition routine divides by exactly these).  b stops
    at max w_i, which bounds every minimal solution (Lambert, CRAS 305, 1987).
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, not {cap}")
    wvec = wd.integer_weights()
    if wd.t_weight is None:
        raise ValueError("a t-weight is required")
    w = Fraction(wd.t_weight)
    if w.denominator != 1:
        raise ValueError("integer t-weight required")
    w = w.numerator
    if not wvec:
        return []
    solutions = _monoid_solutions(wvec, w, min(cap, max(wvec)))
    sol_set = set(solutions)
    gens = []
    for sol in sorted(solutions, key=lambda s: (sum(s), s)):
        reducible = False
        for other in gens:
            rest = tuple(x - y for x, y in zip(sol, other))
            if all(x >= 0 for x in rest) and any(rest) and rest in sol_set:
                reducible = True
                break
        if not reducible:
            gens.append(sol)
    for i, wi in enumerate(wvec):
        prescribed = tuple(w if j == i else 0 for j in range(len(wvec))) + (wi,)
        if prescribed not in gens:
            gens.append(prescribed)
    return sorted(gens, key=lambda s: (sum(s), s))


@dataclass(frozen=True)
class DecompositionBounds:
    """The explicit exponent bounds controlling a semi-invariant monomial."""

    C: tuple[int, ...]
    D: int
    w: int
    m: int


def decomposition_bounds(wvec: tuple[int, ...], w: int, m: int) -> DecompositionBounds:
    """C_i = max(w, w + m/w_i) and D = max(sum w_i - m/w, w_1, ..., w_n),
    rounded up when fractional."""
    c = tuple(int(ceil(max(Fraction(w), Fraction(w) + Fraction(m, wi)))) for wi in wvec)
    d_val = max([Fraction(sum(wvec)) - Fraction(m, w)] + [Fraction(wi) for wi in wvec])
    return DecompositionBounds(c, int(ceil(d_val)), w, m)


def decompose_semiinvariant(mono: Monomial, wd: WeightData
                            ) -> tuple[Monomial, list[Monomial], DecompositionBounds]:
    """Factor x^a t^b into a bounded prefix times invariant monomials x_i^w t^{w_i}.

    While some a_i reaches C_i (which forces b >= w_i), or b reaches D (which
    forces some a_i >= w), an invariant factor is split off; the remaining
    prefix satisfies a_i < C_i and b < D.  The product of the outputs equals
    the input.
    """
    wvec = wd.integer_weights()
    if wd.t_weight is None or Fraction(wd.t_weight).denominator != 1:
        raise ValueError("integer t-weight required")
    w = Fraction(wd.t_weight).numerator
    if len(mono) != len(wvec) + 1:
        raise ArityError("monomial arity must be weights plus one t-slot")
    if any(e < 0 for e in mono):
        raise ValueError(f"exponents must be nonnegative, got {list(mono)}")
    a = list(mono[:-1])
    b = mono[-1]
    m = sum(x * wi for x, wi in zip(a, wvec)) - b * w
    bounds = decomposition_bounds(wvec, w, m)
    factors: list[Monomial] = []
    while True:
        hot = next((i for i, x in enumerate(a) if x >= bounds.C[i]), None)
        if hot is None and b >= bounds.D:
            hot = next((i for i, x in enumerate(a) if x >= w), None)
            assert hot is not None, "bound D guarantees a large exponent"
        if hot is None:
            break
        assert a[hot] >= w and b >= wvec[hot], "claim bounds violated"
        a[hot] -= w
        b -= wvec[hot]
        factor = [0] * len(mono)
        factor[hot] = w
        factor[-1] = wvec[hot]
        factors.append(tuple(factor))
    return tuple(a) + (b,), factors, bounds
