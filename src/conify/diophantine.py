"""Rational rank, affine hulls, Dirichlet approximants, corner-cube search,
and exact rational cone membership for positive weight vectors.

Everything here decides with exact arithmetic.  Weights are ExactScalar
values, which may mix radicands; linear algebra happens on their rational
coordinates over the basis {1, sqrt(k_1), sqrt(k_2), ...}, and every sign,
floor and comparison not made on integers is the scalar type's own exact one.
Elimination is Bareiss's fraction-free method on integer rows.  The 1/N bound
of Dirichlet candidates and corner lifts is one rule: a floor of w*D*N for an
irrational entry, an integer comparison for a rational one.  A nice
approximant is the first candidate in the cone over a fixed box around the
weights, tested on Fractions.  ConeDescription is the convex-hull cone of its
generators; membership reads the integers of the target and the generators,
tries no subset smaller than the rank of the target's coordinates, and builds
each coefficient from the Bareiss numerators over the diagonal.  The corner
test takes one floor, floor(C*res*w), per multiplier and entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Sequence

from .errors import ArityError, CertificateError, ContainmentError, OutsideConeError, SearchExhaustedError
from .exactnum import ExactScalar, _from_dict, _parts, combo_sign  # noqa: F401  combo_sign stays public here

# -- rational linear algebra -------------------------------------------------------

def _gauss_jordan(mat: list[list], ncols: int) -> tuple[list[int], int]:
    """Reduce mat in place over its first ncols columns; return (pivot columns, d).

    Rows holding a Fraction are scaled to integers, then Bareiss's fraction-free
    Gauss-Jordan (Math. Comp. 1968) divides each updated row exactly by the
    previous pivot; a row with 0 in the pivot column is only rescaled, by p/d.
    The t-th pivot row ends with the common diagonal d in its pivot column and
    zeros in the other pivot columns, so rows over d are the reduced echelon
    form and the number of pivots is the rank of those columns.
    """
    for r, row in enumerate(mat):
        if not all(type(x) is int for x in row):
            m = lcm(*(x.denominator for x in row))
            mat[r] = [x.numerator * (m // x.denominator) for x in row]
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(mat):
            break
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        top = mat[row]
        p = top[col]
        for r in range(len(mat)):
            if r != row and (f := mat[r][col]):
                mat[r] = [(p * x - f * y) // d for x, y in zip(mat[r], top)]
            elif r != row and p != d:
                mat[r] = [p * x // d for x in mat[r]]
        d = p
        pivots.append(col)
    return pivots, d


def rational_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    return len(_gauss_jordan(mat, len(mat[0]) if mat else 0)[0])


def solve_integral(columns: Sequence[Sequence[Fraction]],
                   rhs_list: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int] | None:
    """(X, d): the unique x with sum(x_j * columns[j]) = rhs is X[t] / d for the t-th rhs,
    X the Bareiss numerators over the common diagonal d.

    None when the columns are linearly dependent (a zero column included) or
    any rhs lies outside their span.
    """
    k = len(columns)
    dim = len(columns[0]) if k else (len(rhs_list[0]) if rhs_list else 0)
    aug = [[columns[j][i] for j in range(k)] + [rhs[i] for rhs in rhs_list]
           for i in range(dim)]
    pivots, d = _gauss_jordan(aug, k)
    if len(pivots) < k or any(x for row in aug[k:] for x in row[k:]):
        return None
    return [[aug[j][k + t] for j in range(k)] for t in range(len(rhs_list))], d


# -- weight vectors ------------------------------------------------------------------

@dataclass(frozen=True)
class ReebVector:
    """A positive weight vector with its rational-rank data.

    `n` is the complex dimension of the ambient singularity; it only feeds
    the default approximation threshold.
    """

    entries: tuple[ExactScalar, ...]
    n: int | None = None

    def __post_init__(self):
        entries = tuple(ExactScalar.of(e) for e in self.entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if any(e.sign() <= 0 for e in entries):
            raise ValueError("all weights must be positive")
        if self.n is not None and self.n < 1:
            raise ValueError(f"ambient dimension n must be at least 1, not {self.n}")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def radicands(self) -> list[int]:
        return [1] + sorted({k for e in self.entries for k, _ in e.surds})

    def coordinate_rows(self) -> list[list[Fraction | int]]:
        """Coordinates of each entry over the basis {1} + {sqrt(k)}, read off its integers."""
        basis = self.radicands()
        rows = []
        for e in self.entries:
            coords = {1: e.num, **dict(e.surds)}
            rows.append([Fraction(coords[k], e.den) if coords.get(k) else 0 for k in basis])
        return rows

    def min_entry(self) -> ExactScalar:
        return min(self.entries)

    def is_rational(self) -> bool:
        return all(e.is_rational() for e in self.entries)


def rational_rank(v: ReebVector) -> int:
    """Dimension of the Q-span of the entries."""
    return rational_matrix_rank(v.coordinate_rows())


def one_in_span(v: ReebVector) -> bool:
    """Whether 1 is a rational combination of the entries."""
    rows = v.coordinate_rows()
    one = [int(i == 0) for i in range(len(rows[0]))]
    return rational_matrix_rank(rows) == rational_matrix_rank(rows + [one])


@dataclass(frozen=True)
class AffineHull:
    """Exact description of the minimal affine Q-subspace containing the vector.

    After the reorder permutation, 1 and the first s entries are linearly
    independent over Q, and every later entry satisfies
    m * w_{s+j} = sum_i a[i][j] * w_i + a0[j].
    """

    reorder: tuple[int, ...]
    s: int
    m: int
    a: tuple[tuple[int, ...], ...]   # s rows, one per leading weight
    a0: tuple[int, ...]              # constant row


def affine_hull(v: ReebVector) -> AffineHull:
    """The affine hull from one elimination on the columns (1, w_1, ..., w_l).

    The pivot columns after the first pick the leading weights, greedily in
    order; every other column, over the common diagonal d, gives its relation.
    """
    rows = v.coordinate_rows()
    mat = [[int(i == 0)] + [row[i] for row in rows] for i in range(len(rows[0]))]
    pivots, d = _gauss_jordan(mat, len(rows) + 1)
    picked = [c - 1 for c in pivots[1:]]
    rest = [j for j in range(len(rows)) if j not in picked]
    coeffs = [[Fraction(mat[t][1 + j], d) for t in range(len(pivots))] for j in rest]
    m = lcm(*(c.denominator for x in coeffs for c in x))
    a_rows = tuple(tuple(int(x[1 + i] * m) for x in coeffs) for i in range(len(picked)))
    a0 = tuple(int(x[0] * m) for x in coeffs)
    hull = AffineHull(tuple(picked + rest), len(picked), m, a_rows, a0)
    _verify_hull(v, hull)
    return hull


def _verify_hull(v: ReebVector, hull: AffineHull):
    rows = v.coordinate_rows()
    for j in range(len(v) - hull.s):
        target = [hull.m * x for x in rows[hull.reorder[hull.s + j]]]
        acc = [hull.a0[j]] + [0] * (len(rows[0]) - 1)
        for i in range(hull.s):
            acc = [u + hull.a[i][j] * w for u, w in zip(acc, rows[hull.reorder[i]])]
        if acc != target:
            raise CertificateError("affine hull relation failed verification")


# -- approximants ---------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximantReport:
    """A rational approximation w_tilde / D of a weight vector with its bounds."""

    D: int
    w_tilde: tuple[int, ...]
    N: int
    errors: tuple[ExactScalar, ...]
    nice: bool
    xi: ReebVector | None = field(default=None, compare=False)

    def approximation(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.D) for w in self.w_tilde)

    def to_json_dict(self) -> dict:
        return {
            "D": self.D,
            "w_tilde": list(self.w_tilde),
            "N": self.N,
            "errors_as_strings": [str(e) for e in self.errors],
            "nice": self.nice,
        }


def default_N(v: ReebVector) -> int:
    """max(2, ceil(4n / min w_i)), the baseline approximation threshold."""
    if v.n is None:
        raise ValueError("ambient dimension n is not set on the weight vector")
    return max(2, (ExactScalar.of(4 * v.n) / v.min_entry()).ceil())


def _within(w: ExactScalar, D: int, wt: int, N: int) -> bool:
    """|w*D - wt| < 1/N, on integers.  For irrational w, w*D*N is irrational, so
    this holds iff floor(w*D*N) is wt*N - 1 or wt*N; for w = a/b, iff |a*D - wt*b|*N < b."""
    if w.surds:
        return wt * N - 1 <= w.floor(D * N) <= wt * N
    return abs(w.num * D - wt * w.den) * N < w.den


def _candidate(v: ReebVector, D: int, N: int) -> ApproximantReport | None:
    w_tilde, errors = [], []
    for w in v.entries:
        nearest = (w.floor(2 * D) + 1) // 2
        if nearest < 1 or not _within(w, D, nearest, N):
            return None
        w_tilde.append(nearest)
        errors.append(abs(w * D - nearest))
    return ApproximantReport(D, tuple(w_tilde), N, tuple(errors), nice=False, xi=v)


def _candidates(v: ReebVector, N: int, cap: int):
    """Every D <= cap with all |D w_i - nearest integer| < 1/N, as a report, in
    increasing D; raises SearchExhaustedError when there is none."""
    found = False
    for D in range(1, cap + 1):
        report = _candidate(v, D, N)
        if report is not None:
            found = True
            yield report
    if not found:
        raise SearchExhaustedError(f"no approximant with denominator <= {cap} at threshold 1/{N}")


def dirichlet_approximant(v: ReebVector, N: int, cap: int) -> ApproximantReport:
    """Smallest D <= cap with every |D w_i - nearest integer| < 1/N."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if cap < N:
        raise ValueError("cap must be at least N")
    return next(_candidates(v, N, cap))


def _reference_box(v: ReebVector) -> tuple[list[Fraction], list[Fraction]]:
    """The box [3r/4, 5r/4] around v, r_i the floor of w_i to a multiple of 1/k
    for the least power of two k with k*w_i >= 8: 7w_i/8 < r_i <= w_i, so v is in it."""
    lower, upper = [], []
    for w in v.entries:
        k = 1
        while (f := w.floor(k)) < 8:
            k *= 2
        r = Fraction(f, k)
        lower.append(Fraction(3, 4) * r)
        upper.append(Fraction(5, 4) * r)
    return lower, upper


def nice_approximant(v: ReebVector, N: int | None = None, cap: int = 10**6) -> ApproximantReport:
    """The first Dirichlet approximant u = w_tilde/D in the cone over the reference box."""
    if N is None or v.n is not None:
        least = default_N(v)
        if N is None:
            N = least
        elif N < least:
            raise ValueError(f"N={N} is below the default threshold {least}")
    if N < 2:
        raise ValueError("N must be at least 2")
    lower, upper = _reference_box(v)
    for report in _candidates(v, N, cap):
        u = report.approximation()
        # u > 0, and some lam > 0 has lower <= lam*u <= upper iff lower_i*u_j <= upper_j*u_i
        if all(lo * uj <= up * ui for lo, ui in zip(lower, u) for up, uj in zip(upper, u)):
            return replace(report, nice=True)
    raise OutsideConeError(f"all approximants with denominator <= {cap} fall outside the cone")


def verify_perturbation_bound(report: ApproximantReport, p: int, eps_prime) -> bool:
    """Exact check that the scaled perturbation stays below eps_prime.

    Requires every |D w_i - w'_i| < 1/N (`_within`), the threshold bound
    p/(N * min w_i) < eps_prime/2, and the relative error bound p * D *
    max_i |w_i - w'_i| / w_i < eps_prime/2, both multiplied out as w_i > 0.
    Any sufficiently small tau-exponent slack then fits in the remaining half.
    A negative p would pass both bounds for free, so it is refused.
    """
    v = report.xi
    if v is None:
        raise ValueError("report does not retain its weight vector")
    if p < 0:
        raise ValueError(f"tau slack p must be nonnegative, not {p}")
    if not all(_within(w, report.D, wt, report.N) for w, wt in zip(v.entries, report.w_tilde)):
        return False
    half = Fraction(eps_prime) / 2
    if not p < half * report.N * v.min_entry():
        return False
    return all(p * e < half * w for e, w in zip(report.errors, v.entries))


# -- cones ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeDescription:
    """The convex-hull cone of rational points: v is a member when nonnegative
    lambda solve sum(lambda_k (1, g_k)) = (1, v), i.e. v is a convex
    combination of the generators.
    """

    generators: tuple[tuple[Fraction, ...], ...]
    simplicial: bool

    def contains(self, v: Sequence) -> tuple[bool, list[tuple[int, str]] | None]:
        """Exact membership with a nonnegative-coefficient certificate.

        Subsets of generators are tried by size, then lexicographically; the
        certificate is the first one with linearly independent columns and
        nonnegative coefficients, listed as (generator index, coefficient).

        Sizes start at the rank of the target's coordinate matrix T, one column
        per radicand: independent columns G with G*X = T number at least rank T.
        All of it runs on the integers of the target and the generators, and each
        coefficient is the canonical scalar X/d with the sign of d moved into X.
        """
        target = [(1, (), 1)] + [_parts(x) for x in v]
        columns = [(1, *g) for g in self.generators]
        if columns and len(columns[0]) != len(target):
            raise ArityError("dimension mismatch in cone membership")
        coords = [{1: num, **dict(surds)} for num, surds, _ in target]
        radicands = sorted({k for c in coords for k, q in c.items() if q}) or [1]
        # equation i times the lcm m_i of its denominators: integer rows, the same solutions
        lcms = [lcm(den, *(col[i].denominator for col in columns)) for i, (_, _, den) in enumerate(target)]
        columns = [[g.numerator * (m // g.denominator) for g, m in zip(col, lcms)] for col in columns]
        rhs_list = [[c.get(k, 0) * (m // den) for c, m, (_, _, den) in zip(coords, lcms, target)]
                    for k in radicands]
        for size in range(max(1, rational_matrix_rank(rhs_list)), len(columns) + 1):
            for subset in combinations(range(len(columns)), size):
                solved = solve_integral([columns[i] for i in subset], rhs_list)
                if solved is None:
                    continue
                numerators, d = solved
                s = 1 if d > 0 else -1
                lambdas = [_from_dict({k: s * x for k, x in zip(radicands, column)}, s * d)
                           for column in zip(*numerators)]
                if all(lam.sign() >= 0 for lam in lambdas):
                    return True, [(i, lam.spaced()) for i, lam in zip(subset, lambdas)]
        return False, None

    def to_json_dict(self) -> dict:
        return {
            "generators": [[str(x) for x in g] for g in self.generators],
            "simplicial": self.simplicial,
        }


def cone_contains(sigma, v: ReebVector | Sequence) -> tuple[bool, list | None]:
    """Exact membership of a weight vector in a cone, with certificate."""
    entries = v.entries if isinstance(v, ReebVector) else v
    return sigma.contains(entries)


# -- corner-cube search ----------------------------------------------------------------

@dataclass(frozen=True)
class CornerHit:
    """Least multiplier steering the fractional parts into one corner cube."""

    corner: tuple[int, ...]      # 0 = near 0, 1 = near 1, per leading coordinate
    C: int
    v_tilde: tuple[int, ...]


@dataclass(frozen=True)
class CornerSearchResult:
    hits: tuple[CornerHit, ...]
    hull: AffineHull


def default_corner_resolution(hull: AffineHull, N: int) -> int:
    """Smallest cube resolution compatible with the approximation threshold:
    max(1, max|a|) * m * max(1, s) * N + 1 against the affine-hull constants."""
    top = max((abs(x) for row in hull.a for x in row), default=0)
    return max(1, top) * hull.m * max(1, hull.s) * N + 1


def kronecker_corner_search(v: ReebVector, resolution: int, cap: int = 10**6,
                            hull: AffineHull | None = None) -> CornerSearchResult:
    """For each corner of the unit cube, the least C with {C w} in the cube.

    Works on the leading (irrational) coordinates singled out by the affine
    hull; density of the fractional parts guarantees hits eventually, and cap
    bounds the search.
    """
    hull = hull or affine_hull(v)
    if hull.s == 0:
        raise ValueError("all weights are rational; corner search is undefined")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    leading = [v.entries[i] for i in hull.reorder[:hull.s]]
    corners = list(product((0, 1), repeat=hull.s))
    found: dict[tuple[int, ...], CornerHit] = {}
    for C in range(1, cap + 1):
        # Cw is irrational, so with F = floor(res*Cw) and (f, g) = divmod(F, res),
        # f = floor(Cw) since floor(floor(x)/res) = floor(x/res), and
        # {Cw} < 1/res iff g == 0, and 1 - {Cw} < 1/res iff g == res - 1
        corner, v_tilde = [], []
        for w in leading:
            f, g = divmod(w.floor(C * resolution), resolution)
            if g != 0 and g != resolution - 1:
                break
            corner.append(int(g != 0))
            v_tilde.append(f + corner[-1])
        else:
            corner = tuple(corner)
            if corner not in found:
                found[corner] = CornerHit(corner, C, tuple(v_tilde))
                if len(found) == len(corners):
                    break
    missing = [c for c in corners if c not in found]
    if missing:
        raise SearchExhaustedError(f"corners {missing} not reached within cap {cap}")
    hits = tuple(found[c] for c in corners)
    return CornerSearchResult(hits, hull)


# -- assembling the approximant cone ------------------------------------------------------

def approximant_cone(v: ReebVector, corners: CornerSearchResult | None = None,
                     N: int | None = None) -> ConeDescription:
    """A simplicial cone of close rational approximants containing the vector.

    For rational v this is the ray through v itself.  Otherwise each corner
    hit is lifted through the affine-hull relations to a full-length rational
    vector, and every one is verified against the 1/N approximation bound,
    N = default_N(v) unless given (the corners default to the search at the
    default resolution for N).  The returned cone is spanned by the smallest
    subset of them, first in lexicographic order, whose convex hull contains v.

    One membership certificate over all the lifted vectors finds that subset.
    By Caratheodory's theorem a smallest subset S with v in its convex hull
    is affinely independent, since otherwise v would lie in the hull of a
    proper subset of S.  So its columns (1, g) are linearly independent, its
    convex weights are unique and nonnegative, and S is exactly the first
    subset that ConeDescription.contains accepts.  Independence also makes
    the cone simplicial.
    """
    if v.is_rational():
        generators = (tuple(e.as_fraction() for e in v.entries),)
        return ConeDescription(generators, simplicial=True)
    if N is None:
        N = default_N(v)
    if corners is None:
        hull = affine_hull(v)
        corners = kronecker_corner_search(v, default_corner_resolution(hull, N), hull=hull)
    hull = corners.hull
    l = len(v)
    generators = []
    for hit in corners.hits:
        D = hull.m * hit.C
        full = [0] * l
        for i in range(hull.s):
            full[hull.reorder[i]] = hull.m * hit.v_tilde[i]
        for j in range(l - hull.s):
            value = sum(hull.a[i][j] * hit.v_tilde[i] for i in range(hull.s))
            value += hit.C * hull.a0[j]
            full[hull.reorder[hull.s + j]] = value
        if any(x < 1 for x in full):
            raise ContainmentError(
                "corner approximant has a nonpositive entry; raise the resolution")
        if not all(_within(w, D, wt, N) for w, wt in zip(v.entries, full)):
            raise ContainmentError(f"corner approximant misses the 1/{N} bound; raise the resolution")
        generators.append(tuple(Fraction(x, D) for x in full))
    all_corners = ConeDescription(tuple(generators), simplicial=False)
    inside, certificate = all_corners.contains(v.entries)
    if not inside:
        raise ContainmentError("no subset of corner approximants contains the vector; "
                               "raise the resolution or the cap")
    return ConeDescription(tuple(generators[i] for i, _ in certificate),
                           simplicial=True)
