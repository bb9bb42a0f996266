"""The three seeded workloads: inputs for one pass, and the job that checks each.

A run is a sequence of passes.  Every pass holds the same recipe of job kinds,
so passes cost about the same and a run's figures do not hang on a few draws;
the seed and the pass number draw the concrete inputs of each pass, so no two
passes repeat an input.  Jobs call conify through module attributes at call
time, which is what lets the tracer see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import exact

F = Fraction


class WrongAnswer(Exception):
    """A job returned, but its output failed the check."""


class Job:
    """One generated input, taken through its pipeline and checked."""

    __slots__ = ("label", "inputs", "run", "expect_error")

    def __init__(self, label: str, inputs: str, run, expect_error: str | None = None):
        self.label = label          # job kind, for reports
        self.inputs = inputs        # canonical text of the input, for the input digest
        self.run = run              # () -> canonical output text; raises on failure
        self.expect_error = expect_error  # exception name a known defect raises today


class ApproximantsCoincide(Exception):
    """The CLI found one rational stand-in where it needs two (a known defect)."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


# -- degen-families ---------------------------------------------------------------

NAMES = ("x", "y", "z", "w")
TEMPLATE_SEED = 20260808   # the seed of acceptance criterion 1
TEMPLATE_DRAWS = 120
# Draws whose job ran past 3 s on the reference machine (each one alone would
# take most of a pass); every other draw is kept, heavy ones included.
TEMPLATE_SKIPPED = frozenset({8, 29, 78, 87})


def degen_templates() -> list[tuple[int, list[list[tuple[int, ...]]], tuple[int, ...]]]:
    """Supports and weights of the degen-families ideals.

    The criterion-1 generator widened to 2-4 variables: 1-3 generators of 1-3
    terms, total degree <= 4 (<= 3 in four variables), weights 1-5.
    """
    rng = random.Random(TEMPLATE_SEED)
    out = []
    for index in range(TEMPLATE_DRAWS):
        nvars = rng.randint(2, 4)
        deg = 4 if nvars < 4 else 3
        supports = []
        for _ in range(rng.randint(1, 3)):
            support = set()
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, deg) for _ in range(nvars))
                while sum(mono) > deg:
                    mono = tuple(rng.randint(0, deg) for _ in range(nvars))
                support.add(mono)
            supports.append(sorted(support))
        weights = tuple(rng.randint(1, 5) for _ in range(nvars))
        if index not in TEMPLATE_SKIPPED:
            out.append((nvars, supports, weights))
    return out


class DegenFamilies:
    name = "degen-families"
    # p90 over >= 2 passes of 116 jobs leaves >= 23 jobs beyond it.  p90 falls
    # among the mid-weight templates; p95 would sit on the edge of the six
    # heaviest, where the value jumps between two templates.
    tail_percentile = 90
    min_passes = 2

    def __init__(self, cf, seed: int, docdir: Path):
        self.cf = cf
        self.seed = seed
        self.templates = degen_templates()

    def make_pass(self, p: int) -> list[Job]:
        cf = self.cf
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        jobs = []
        for nvars, supports, weights in self.templates:
            ring = NAMES[:nvars]
            gens = tuple(
                cf.polyring.Polynomial(ring, {m: F(rng.choice((-3, -2, -1, 1, 2, 3))) for m in sup})
                for sup in supports)
            ideal = cf.groebner.IdealPresentation(ring, gens)
            text = ", ".join(_poly_text(ring, g.terms) for g in gens)
            jobs.append(Job(f"{nvars}vars", f"<{text}> w={weights}", self._runner(ideal, weights)))
        rng.shuffle(jobs)
        return jobs

    def _runner(self, ideal, weights):
        cf = self.cf

        def run() -> str:
            dg = cf.degeneration
            tc = dg.build_test_configuration(ideal, weights)
            fiber = dg.central_fiber(tc)
            oracle = dg.weighted_initial_ideal(ideal, cf.polyring.WeightData(weights))
            _require(fiber.generators == oracle.generators, "central fiber differs from the oracle")
            _require(dg.flatness_witness(tc) is True, "family is not flat")
            return "; ".join(str(g) for g in fiber.generators)
        return run


# -- reeb-approx ------------------------------------------------------------------

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
SEARCH_CAP = 10**6


def _entry(rng, d: int) -> tuple[Fraction, Fraction, int]:
    """a + b*sqrt(d) with small a, b, strictly between 1 and 4."""
    while True:
        a = F(rng.randint(0, 6), 2)
        b = F(rng.choice((-1, 1)) * rng.choice((1, 1, 2)), rng.choice((1, 2)))
        if exact.quad_sign(a - 1, b, d) > 0 and exact.quad_sign(4 - a, -b, d) > 0:
            return a, b, d


def _multiquad(entry) -> exact.MultiQuad:
    a, b, d = entry
    return {1: a, d: b}


class ReebApprox:
    """Weight vectors in fixed slots; --seed shifts their entries by integers.

    The cost of the searches hangs on the fractional parts of the entries, so
    a vector drawn afresh per run would swing the figures from seed to seed.
    The slots are drawn once from TEMPLATE_SEED.  Per pass, --seed adds a
    multiple of 4 to each entry of the slots without n: that leaves every
    fractional part, the affine-hull denominator m and hence the corner
    resolution unchanged, while the vectors, approximants and cones differ.
    Slots with n keep their entries, because n fixes N through the smallest
    entry.
    """

    name = "reeb-approx"
    # p95 over >= 6 passes of 44 jobs leaves >= 13 jobs beyond it.
    tail_percentile = 95
    min_passes = 6

    def __init__(self, cf, seed: int, docdir: Path):
        self.cf = cf
        self.seed = seed
        self.templates = self.recipe(random.Random(f"{self.name}:templates:{TEMPLATE_SEED}"))

    @staticmethod
    def recipe(rng):
        """(label, entries, n, N) per slot; N is None where n fixes it."""
        out = []
        for i in range(18):
            d = rng.choice(RADICANDS)
            out.append(("single-n", [_entry(rng, d) for _ in range(1 + i % 3)], rng.choice((1, 2)), None))
        for i in range(18):
            d = rng.choice(RADICANDS)
            out.append(("single", [_entry(rng, d) for _ in range(1 + i % 3)], None, rng.choice((3, 4))))
        for _ in range(4):
            out.append(("mixed2", [_entry(rng, d) for d in rng.sample((2, 3, 5, 7), 2)], None, 2))
        out.append(("mixed3", [_entry(rng, d) for d in (2, 3, 5)], None, 2))
        # Mixed radicands with n set: nice_approximant compares entries of
        # different fields and raises FieldMismatchError today.
        for _ in range(3):
            out.append(("mixed-n", [_entry(rng, d) for d in rng.sample((2, 3, 5, 7), 2)], 2, None))
        return out

    def make_pass(self, p: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        jobs = []
        for label, entries, n, N in self.templates:
            if n is None:
                entries = [(a + 4 * rng.randint(0, 2), b, d) for a, b, d in entries]
            text = f"{[(str(a), str(b), d) for a, b, d in entries]} n={n} N={N}"
            expect = "FieldMismatchError" if label == "mixed-n" else None
            jobs.append(Job(label, text, self._runner(entries, n, N), expect))
        rng.shuffle(jobs)
        return jobs

    def _runner(self, entries, n, N):
        cf = self.cf

        def run() -> str:
            dio = cf.diophantine
            v = dio.ReebVector(tuple(cf.exactnum.ExactScalar(a, b, d) for a, b, d in entries), n=n)
            rank = dio.rational_rank(v)
            rows = [[a] + [b if d == rad else F(0) for rad in sorted({e[2] for e in entries})]
                    for a, b, d in entries]
            _require(rank == exact.rank(rows), "rational rank")
            hull = dio.affine_hull(v)
            if n is not None:
                report = dio.nice_approximant(v)
                N_used = report.N
                _require(report.nice, "approximant not marked nice")
                _require(dio.verify_perturbation_bound(report, 2, F(2, n)) is True,
                         "perturbation bound")
            else:
                N_used = N
                report = dio.dirichlet_approximant(v, N, SEARCH_CAP)
            bound = F(1, N_used)
            _require(report.D <= N_used ** len(entries), "Dirichlet bound D <= N^l")
            for e, wt in zip(entries, report.w_tilde):
                err = {k: c * report.D for k, c in _multiquad(e).items()}
                err[1] -= wt
                _require(exact.below(err, bound), "approximation error not below 1/N")
            resolution = dio.default_corner_resolution(hull, N_used)
            corners = dio.kronecker_corner_search(v, resolution, SEARCH_CAP, hull)
            cone = dio.approximant_cone(v, corners, N_used)
            inside, certificate = dio.cone_contains(cone, v)
            _require(inside is True and certificate, "cone does not contain the vector")
            denominators = [hull.m * hit.C for hit in corners.hits]
            for g in cone.generators:
                _require(any(_meets_bound(entries, g, D, bound) for D in denominators),
                         "cone generator misses the 1/N bound")
            _check_certificate(cone.generators, certificate, [_multiquad(e) for e in entries])
            return (f"rank={rank} D={report.D} w={report.w_tilde} "
                    f"C={[hit.C for hit in corners.hits]} cone={[[str(x) for x in g] for g in cone.generators]}")
        return run


def _meets_bound(entries, g, D: int, bound: Fraction) -> bool:
    for e, gi in zip(entries, g):
        scaled = gi * D
        if scaled.denominator != 1:
            return False
        err = {k: c * D for k, c in _multiquad(e).items()}
        err[1] -= scaled
        if not exact.below(err, bound):
            return False
    return True


def _check_certificate(generators, certificate, target) -> None:
    """sum(lambda_j * (1, g_j)) == (1, v) with every lambda_j >= 0."""
    sums = [dict() for _ in range(len(target) + 1)]
    for index, text in certificate:
        lam = exact.parse_multiquad(text)
        _require(exact.nonnegative(lam), "negative certificate coefficient")
        exact.add_scaled(sums[0], lam, F(1))
        for i, gi in enumerate(generators[index]):
            exact.add_scaled(sums[i + 1], lam, F(gi))
    _require(exact.same(sums[0], {1: F(1)}), "certificate weights do not sum to 1")
    for got, want in zip(sums[1:], target):
        _require(exact.same(got, want), "certificate does not reproduce the vector")


# -- cli-mix ----------------------------------------------------------------------

def _nonzero(rng) -> Fraction:
    return F(rng.choice((-3, -2, -1, 1, 2, 3)))


def _monomials_of_weight(weights, target: int):
    """Exponent tuples with sum(e_i * w_i) == target, in a fixed order."""
    if not weights:
        return [()] if target == 0 else []
    out = []
    for e in range(target // weights[0] + 1):
        for rest in _monomials_of_weight(weights[1:], target - e * weights[0]):
            out.append((e,) + rest)
    return out


def _mono_text(ring, mono) -> str:
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(ring, mono) if e]
    return "*".join(factors) or "1"


def _poly_text(ring, terms) -> str:
    """Input syntax for {monomial: coefficient}, without conify's printer:
    printing sorts terms by grevlex key, which would warm the key caches."""
    parts = []
    for mono, coeff in sorted(terms.items(), reverse=True):
        body = _mono_text(ring, mono)
        mag = abs(coeff)
        if body == "1":
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if parts:
            parts.append(f"{'-' if coeff < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if coeff < 0 else body)
    return " ".join(parts) or "0"


def _scalar_text(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a)
    irr = f"{b}*s"
    return irr if a == 0 else f"{a}{'' if b < 0 else '+'}{irr}"


class CliMix:
    name = "cli-mix"
    # p90 over >= 3 passes of 73 jobs leaves >= 21 jobs beyond it.  Above the
    # two fixed ogrady_weights jobs of each pass, p90 falls mid-way through
    # the irrational-weight jobs; p95 sat on their top few and swung by seed.
    tail_percentile = 90
    min_passes = 3

    def __init__(self, cf, seed: int, docdir: Path):
        self.cf = cf
        self.seed = seed
        self.docdir = docdir

    def make_pass(self, p: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        folder = self.docdir / f"pass{p}"
        folder.mkdir(parents=True, exist_ok=True)
        self._folder, self._count = folder, 0
        jobs = []
        for _ in range(12):
            jobs.append(self._poisson(rng, *self._brieskorn(rng)))
        for _ in range(4):
            jobs.append(self._poisson(rng, *self._xy_zn(rng)))
        for _ in range(8):
            jobs.append(self._casimirs(rng))
        jobs += self._hilbert(rng)
        for _ in range(2):
            jobs += self._irrational(rng)
            jobs += [self._demo(name) for name in self.cf.catalogue.names()]
        for _ in range(4):
            jobs += [self._rank(rng), self._approximate(rng), self._cone(rng),
                     self._decompose(rng), self._invariants(rng), self._rotate(rng)]
        rng.shuffle(jobs)
        return jobs

    # documents

    def _write(self, text: str) -> str:
        path = self._folder / f"doc{self._count}.txt"
        self._count += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _job(self, label, argv, check, inputs=None) -> Job:
        cli = self.cf.cli

        def run() -> str:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            if code == 2 and "approximants must be distinct" in err.getvalue():
                raise ApproximantsCoincide(err.getvalue().strip())
            _require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
            text = out.getvalue()
            payload = json.loads(text)
            _require(payload.get("schema") == "conify/1", "schema")
            check(payload)
            return text
        # Document paths differ between runs; digest the document text instead.
        return Job(label, inputs if inputs is not None else " ".join(argv), run)

    # poisson-check on Jacobian brackets

    def _brieskorn(self, rng):
        p, q, r = (rng.randint(2, 5) for _ in range(3))
        L = math.lcm(p, q, r)
        weights = (L // p, L // q, L // r)
        ring = ("x", "y", "z")
        f = {(p, 0, 0): _nonzero(rng), (0, q, 0): _nonzero(rng), (0, 0, r): _nonzero(rng)}
        return ring, weights, f, L

    def _xy_zn(self, rng):
        n, c = rng.randint(2, 5), rng.randint(1, 2)
        a = rng.randint(1, n * c - 1)
        weights = (a, n * c - a, c)
        f = {(1, 1, 0): _nonzero(rng), (0, 0, n): _nonzero(rng)}
        return ("x", "y", "z"), weights, f, n * c

    def _poly(self, ring, terms):
        return self.cf.polyring.Polynomial(ring, terms)

    def _poisson(self, rng, ring, weights, f_terms, f_weight) -> Job:
        f = self._poly(ring, f_terms)
        d = [f.derivative(k) for k in range(3)]
        table = {(0, 1): d[2], (0, 2): -d[1], (1, 2): d[0]}
        expected = str(f_weight - sum(weights))
        return self._poisson_doc("poisson-check-3", ring, weights, [f], table, expected)

    def _casimirs(self, rng) -> Job:
        ring = ("x", "y", "z", "w")
        weights = tuple(rng.randint(1, 2) for _ in range(4))
        # f1 lives in two of the variables and f2 in the other two, each with a
        # pure power of both.  Then {x_a, x_c}, for a in f1's pair and c in
        # f2's, is a product of nonzero partials in disjoint variables; it does
        # not lie in <f1, f2>, so the bracket weight is defined.
        order = rng.sample(range(4), 4)
        polys, degrees = [], []
        for pair in (order[:2], order[2:]):
            deg = math.lcm(*(weights[i] for i in pair)) * rng.randint(2, 3)
            monos = [m for m in _monomials_of_weight(weights, deg)
                     if all(m[i] == 0 for i in range(4) if i not in pair)]
            pure = [m for m in monos if sum(1 for e in m if e) == 1]
            mixed = [m for m in monos if m not in pure]
            picked = pure + rng.sample(mixed, min(len(mixed), 1))
            polys.append(self._poly(ring, {m: _nonzero(rng) for m in picked}))
            degrees.append(deg)
        f1, f2 = polys
        table = {}
        for i in range(4):
            for j in range(i + 1, 4):
                k, l = (x for x in range(4) if x not in (i, j))
                entry = f1.derivative(k) * f2.derivative(l) - f1.derivative(l) * f2.derivative(k)
                if not entry.is_zero():
                    table[(i, j)] = entry.scale(_perm_sign((i, j, k, l)))
        expected = str(sum(degrees) - sum(weights))
        return self._poisson_doc("poisson-check-4", ring, weights, polys, table, expected)

    def _poisson_doc(self, label, ring, weights, ideal, table, expected_weight) -> Job:
        lines = ["field rational", "ring " + " ".join(ring),
                 "weights " + " ".join(map(str, weights)), "ideal"]
        lines += [_poly_text(ring, g.terms) for g in ideal]
        lines.append("bracket")
        lines += [f"{ring[i]} {ring[j]} : {_poly_text(ring, poly.terms)}"
                  for (i, j), poly in sorted(table.items())]
        text = "\n".join(lines) + "\n"

        def check(payload):
            _require(payload["jacobi_holds"] is True, "Jacobi identity")
            _require(payload["preserves_ideal"] is True, "ideal preservation")
            _require(payload["bracket_weight"] == expected_weight, "bracket weight")
        return self._job(label, ["poisson-check", "--input", self._write(text)], check, text)

    # hilbert

    def _hilbert(self, rng) -> list[Job]:
        cat = self.cf.catalogue
        jobs = []
        a1 = cat.ENTRIES["a1"].text
        cases = [(a1, 8, {0: 1, 4: -1}, [2, 2, 2])]
        ogrady = cat.ENTRIES["ogrady_weights"].text
        cases += [(ogrady, cap, {0: 1}, [2] * 10 + [1] * 4) for cap in (2, 3)]
        for _ in range(2):
            ring, weights, f_terms, L = self._brieskorn(rng)
            text = ("field rational\nring x y z\nweights " + " ".join(map(str, weights))
                    + f"\nideal\n{_poly_text(ring, f_terms)}\n")
            cases.append((text, 2 * L, {0: 1, L: -1}, list(weights)))
        for text, cap, numerator, weights in cases:
            expected = {str(k): v for k, v in exact.graded_dimensions(numerator, weights, cap).items()}

            def check(payload, expected=expected):
                _require(payload["dimensions"] == expected, "graded dimensions")
            jobs.append(self._job("hilbert", ["hilbert", "--input", self._write(text),
                                              "--degree-cap", str(cap)], check, f"{text} cap={cap}"))
        return jobs

    # degeneration subcommands on quadratic-irrational weights

    def _irrational(self, rng) -> list[Job]:
        jobs = []
        for command in ("initial-ideal", "testconfig", "fiber", "flatness"):
            text, lead = self._irrational_doc(rng, coincide=False)
            if command in ("initial-ideal", "fiber"):
                key = "central_fiber" if command == "initial-ideal" else "fiber"

                def check(payload, key=key, lead=lead):
                    _require(payload[key] == [lead], "central fiber")
            elif command == "testconfig":
                def check(payload):
                    _require(payload["saturated"] is True and payload["ring"] == ["x", "y", "t"],
                             "test configuration")
            else:
                def check(payload):
                    _require(payload["flat"] is True, "flatness")
            jobs.append(self._job(command, [command, "--input", self._write(text)], check,
                                  f"{command} {text}"))
        # Weights whose approximants at N, 2N and 4N coincide: the CLI finds no
        # second approximant and exits 2 today.
        text, lead = self._irrational_doc(rng, coincide=True)

        def check(payload):
            _require(payload["central_fiber"] == [lead], "central fiber")
        job = self._job("initial-ideal", ["initial-ideal", "--input", self._write(text)], check,
                        f"initial-ideal {text}")
        job.expect_error = ApproximantsCoincide.__name__
        jobs.append(job)
        return jobs

    def _irrational_doc(self, rng, coincide: bool):
        """A principal ideal whose least-weight term is unique by a 10% margin,
        so any close rational stand-in for the weights gives the same fiber."""
        while True:
            d = rng.choice((2, 3, 5))
            weights = [_entry(rng, d) for _ in range(2)]
            monos = rng.sample([(i, j) for i in range(5) for j in range(5) if 1 <= i + j <= 5], 3)
            floats = [float(a) + float(b) * math.sqrt(d) for a, b, _ in weights]
            values = sorted((sum(e * w for e, w in zip(m, floats)), m) for m in monos)
            if values[1][0] >= 1.1 * values[0][0] and _approximants_coincide(floats) is coincide:
                break
        lead = values[0][1]
        f = _poly_text(("x", "y"), {m: _nonzero(rng) for m in monos})
        text = (f"field quad {d}\nring x y\nweights "
                + " ".join(_scalar_text(a, b) for a, b, _ in weights) + f"\nideal\n{f}\n")
        return text, _mono_text(("x", "y"), lead)

    # catalogue and vector subcommands

    def _demo(self, name: str) -> Job:
        def check(payload):
            _require(payload["ok"] is True and payload["name"] == name, "demo")
        return self._job("demo", ["demo", name], check)

    def _vector(self, rng, length: int, rational_ok: bool):
        d = rng.choice((2, 3, 5, 7))
        entries = []
        for _ in range(length):
            a, b, _ = _entry(rng, d)
            if rational_ok and rng.random() < 0.3:
                b = F(0)
                a = max(a, F(1))
            entries.append((a, b))
        return d, entries

    def _rank(self, rng) -> Job:
        d, entries = self._vector(rng, rng.randint(2, 3), True)
        rows = [[a, b] for a, b in entries]
        expected_rank = exact.rank(rows)
        expected_one = exact.rank(rows + [[F(1), F(0)]]) == expected_rank

        def check(payload):
            _require(payload["rank"] == expected_rank and payload["one_in_span"] == expected_one,
                     "rank")
        weights = ",".join(_scalar_text(a, b) for a, b in entries)
        return self._job("rank", ["rank", "--weights", weights, "--field", f"quad:{d}"], check)

    def _approximate(self, rng) -> Job:
        d, entries = self._vector(rng, 2, False)
        N = rng.choice((4, 6, 8))

        def check(payload):
            report = payload["approximant"]
            D = report["D"]
            _require(report["nice"] is True and D <= N ** len(entries), "approximant")
            for (a, b), wt in zip(entries, report["w_tilde"]):
                _require(exact.below({1: a * D - wt, d: b * D}, F(1, N)), "approximation error")
        weights = ",".join(_scalar_text(a, b) for a, b in entries)
        return self._job("approximate", ["approximate", "--weights", weights,
                                         "--field", f"quad:{d}", "--N", str(N)], check)

    def _cone(self, rng) -> Job:
        d, entries = self._vector(rng, rng.randint(1, 2), False)

        def check(payload):
            _require(payload["contains_input"] is True and payload["certificate"], "cone")
            gens = [tuple(F(x) for x in g) for g in payload["generators"]]
            _check_certificate(gens, payload["certificate"], [{1: a, d: b} for a, b in entries])
        weights = ",".join(_scalar_text(a, b) for a, b in entries)
        return self._job("cone", ["cone", "--weights", weights, "--field", f"quad:{d}",
                                  "--N", "4"], check)

    def _decompose(self, rng) -> Job:
        weights = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        w = rng.randint(1, 4)
        exponents = [rng.randint(0, 12) for _ in range(len(weights) + 1)]

        def check(payload):
            total = list(payload["prefix"])
            for factor in payload["factors"]:
                _require(sum(e * wi for e, wi in zip(factor, weights)) == factor[-1] * w,
                         "factor is not invariant")
                total = [x + y for x, y in zip(total, factor)]
            _require(total == exponents, "factors do not multiply back")
            _require(all(x < c for x, c in zip(payload["prefix"], payload["bounds"]["C"]))
                     and payload["prefix"][-1] < payload["bounds"]["D"], "prefix bounds")
        return self._job("decompose", ["decompose", "--weights", ",".join(map(str, weights)),
                                       "--tweight", str(w),
                                       "--exponents", ",".join(map(str, exponents))], check)

    def _invariants(self, rng) -> Job:
        weights = [rng.randint(1, 3) for _ in range(2)]
        w = rng.randint(1, 3)

        def check(payload):
            gens = [tuple(g) for g in payload["generators"]]
            for g in gens:
                _require(any(g) and sum(e * wi for e, wi in zip(g, weights)) == g[-1] * w,
                         "generator is not invariant")
            for i, wi in enumerate(weights):
                prescribed = tuple(w if j == i else 0 for j in range(len(weights))) + (wi,)
                _require(prescribed in gens, "distinguished invariant missing")
        return self._job("invariants", ["invariants", "--weights", ",".join(map(str, weights)),
                                        "--tweight", str(w), "--cap", "4"], check)

    def _rotate(self, rng) -> Job:
        target = [round(rng.uniform(-4, 4), 6) for _ in range(3)]

        def check(payload):
            c, rot = payload["c"], payload["rotation"]
            image = [row[0] * c for row in rot]
            _require(math.dist(image, target) < 1e-9, "rotation misses the target")
        return self._job("rotate", ["rotate", "--target=" + ",".join(map(str, target))], check)


def _approximants_coincide(weights: list[float]) -> bool | None:
    """Whether the Dirichlet approximants at N = 16, 32 and 64 are one vector.

    Floats suffice: errors within 1e-9 of the threshold return None (redraw).
    """
    found = []
    for N in (16, 32, 64):
        for D in range(1, N ** len(weights) + 1):
            nearest = [round(D * w) for w in weights]
            errors = [abs(D * w - k) for w, k in zip(weights, nearest)]
            if any(abs(e - 1 / N) < 1e-9 for e in errors):
                return None
            if min(nearest) >= 1 and max(errors) < 1 / N:
                found.append(tuple(F(k, D) for k in nearest))
                break
    return found[0] == found[1] == found[2]


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


WORKLOADS = {cls.name: cls for cls in (DegenFamilies, ReebApprox, CliMix)}
