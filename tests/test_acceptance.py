"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import pi, sqrt

from conify import catalogue
from conify.cli import main as cli_main
from conify.degeneration import (
    build_test_configuration,
    central_fiber,
    flatness_witness,
    hilbert_function,
    weighted_initial_ideal,
)
from conify.diophantine import (
    ApproximantReport,
    ReebVector,
    affine_hull,
    approximant_cone,
    cone_contains,
    kronecker_corner_search,
    nice_approximant,
    one_in_span,
    verify_perturbation_bound,
)
from conify.exactnum import ExactScalar
from conify.groebner import IdealPresentation, reduced_basis
from conify.numerics import (
    ORTHO_TOL,
    RESULT_TOL,
    determinant,
    orthogonality_defect,
    rotation_defect,
    rotation_from_target,
    scaling_pullback_check,
)
from conify.poisson import (
    bracket_weight,
    decompose_semiinvariant,
    form_weight,
    jacobi_holds,
    preserves_ideal,
)
from conify.polyring import Polynomial, WeightData, term_weight

R2 = ExactScalar.root(2)


def _report(criterion: str, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"PASS  {criterion}{suffix}")


def _random_ideal(rng):
    nvars = rng.randint(1, 3)
    ring = ("x", "y", "z")[:nvars]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 4) for _ in range(nvars))
            while sum(mono) > 4:
                mono = tuple(rng.randint(0, 4) for _ in range(nvars))
            terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(Polynomial(ring, terms))
    weights = tuple(rng.randint(1, 5) for _ in range(nvars))
    return IdealPresentation(ring, tuple(gens)), weights


def _degeneration_cases():
    rng = random.Random(20260808)
    cases = []
    while len(cases) < 20:
        ideal, weights = _random_ideal(rng)
        if ideal.generators:
            cases.append((ideal, weights))
    return cases


def test_criterion_1_degeneration_oracle_agreement():
    start = time.monotonic()
    cases = _degeneration_cases()
    families = []
    for ideal, weights in cases:
        tc = build_test_configuration(ideal, weights)
        fiber = central_fiber(tc)
        wd = WeightData(tuple(ExactScalar.of(w) for w in weights))
        oracle = weighted_initial_ideal(ideal, wd)
        assert reduced_basis(fiber).elements == reduced_basis(oracle).elements
        families.append(tc)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    test_criterion_1_degeneration_oracle_agreement.families = families
    _report("1 degeneration oracle agreement", f"20 ideals in {elapsed:.2f}s")


def test_criterion_2_flatness_and_hilbert():
    start = time.monotonic()
    families = getattr(test_criterion_1_degeneration_oracle_agreement, "families", None)
    if families is None:
        families = [build_test_configuration(ideal, weights)
                    for ideal, weights in _degeneration_cases()]
    for tc in families:
        assert flatness_witness(tc)
    quadric = catalogue.ENTRIES["a1"].document()
    values = hilbert_function(quadric.ideal, quadric.weight_data, 8)
    assert values == {0: 1, 2: 3, 4: 5, 6: 7, 8: 9}
    _report("2 flatness and graded dimensions",
            f"20 families flat, quadric dims 1,3,5,7,9 in {time.monotonic()-start:.2f}s")


def test_criterion_3_diophantine_exactness():
    start = time.monotonic()
    v = ReebVector((R2, 2 - R2), n=2)
    report = nice_approximant(v, N=14)
    assert report.D == 5 and report.w_tilde == (7, 3)
    # the deciding comparison 5*sqrt(2) - 7 < 1/14, i.e. 70*sqrt(2) < 99
    assert 70 * 70 * 2 == 9800 and 99 * 99 == 9801 and 9800 < 9801
    assert report.errors[0] == 5 * R2 - 7 and report.errors[0] < Fraction(1, 14)
    assert report.D < 14 ** len(v)  # Dirichlet bound N^l = 196
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    test_criterion_3_diophantine_exactness.report = report
    _report("3 diophantine exactness", f"D=5, w~=(7,3), 9800<9801, {elapsed:.3f}s")


def test_criterion_4_approximant_cone():
    v = ReebVector((R2,), n=1)
    corners = kronecker_corner_search(v, 20)
    cone = approximant_cone(v, corners, N=14)
    assert cone.generators == ((Fraction(24, 17),), (Fraction(17, 12),))
    # bracketing certificates by cross-multiplication
    assert 24 * 24 == 576 and 2 * 17 * 17 == 578 and 576 < 578
    assert 2 * 12 * 12 == 288 and 17 * 17 == 289 and 288 < 289
    inside, certificate = cone_contains(cone, v)
    assert inside and certificate is not None and len(certificate) == 2
    # rational input degenerates to the ray through itself
    ray = approximant_cone(ReebVector((ExactScalar.of(2),) * 3, n=2))
    assert ray.generators == ((Fraction(2), Fraction(2), Fraction(2)),)
    assert cone_contains(ray, ReebVector((ExactScalar.of(2),) * 3))[0]
    test_criterion_4_approximant_cone.cone = (v, corners, cone)
    _report("4 cone correctness", "generators 24/17, 17/12 bracket sqrt(2); ray for rational")


def test_criterion_5_perturbation_bound():
    report = getattr(test_criterion_3_diophantine_exactness, "report", None)
    if report is None:
        report = nice_approximant(ReebVector((R2, 2 - R2), n=2), N=14)
    # p = 2, eps' = p/n = 1 for the n = 2 approximant
    assert verify_perturbation_bound(report, 2, Fraction(2, 2))
    stored = getattr(test_criterion_4_approximant_cone, "cone", None)
    if stored is None:
        v = ReebVector((R2,), n=1)
        corners = kronecker_corner_search(v, 20)
    else:
        v, corners, _ = stored
    hull = affine_hull(v)
    for hit in corners.hits:
        D = hull.m * hit.C
        w_tilde = tuple(hull.m * x for x in hit.v_tilde)
        errors = tuple(abs(w * D - t) for w, t in zip(v.entries, w_tilde))
        generated = ApproximantReport(D, w_tilde, 14, errors, nice=True, xi=v)
        assert all(e < Fraction(1, 14) for e in errors)
        # p = 2, eps' = p/n = 2 for the n = 1 vector
        assert verify_perturbation_bound(generated, 2, Fraction(2, 1))
    # the rational ray of criterion 4 is its own exact approximant
    rational = ReebVector((ExactScalar.of(2),) * 3, n=2)
    exact = ApproximantReport(1, (2, 2, 2), 4, (ExactScalar.of(0),) * 3, nice=True,
                              xi=rational)
    assert verify_perturbation_bound(exact, 2, Fraction(2, 2))
    _report("5 perturbation bound", "p=2, eps'=p/n on all criterion-3/4 approximants")


def test_criterion_6_poisson_catalogue():
    start = time.monotonic()
    for name in ("a1", "a2"):
        doc = catalogue.ENTRIES[name].document()
        table = doc.poisson_table()
        assert jacobi_holds(table)
        assert preserves_ideal(table, doc.ideal)
        assert bracket_weight(table, doc.weight_data) == ExactScalar.of(-2)
    for name in ("c2", "ogrady_weights"):
        doc = catalogue.ENTRIES[name].document()
        assert form_weight(doc.form, doc.weight_data) == ExactScalar.of(2)
    for name in catalogue.names():
        doc = catalogue.ENTRIES[name].document()
        assert one_in_span(ReebVector(doc.weight_data.weights))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("6 poisson catalogue",
            f"bracket weight -2, form weight 2, spans contain 1; {elapsed:.2f}s")


def test_criterion_7_semiinvariant_decomposition():
    start = time.monotonic()
    rng = random.Random(977)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        wvec = tuple(rng.randint(1, 5) for _ in range(nvars))
        w = rng.randint(1, 5)
        wd = WeightData(tuple(Fraction(x) for x in wvec), t_weight=Fraction(w))
        mono = tuple(rng.randint(0, 20) for _ in range(nvars)) + (rng.randint(0, 20),)
        prefix, factors, bounds = decompose_semiinvariant(mono, wd)
        rebuilt = list(prefix)
        for factor in factors:
            rebuilt = [a + b for a, b in zip(rebuilt, factor)]
            assert term_weight(factor, wd) == ExactScalar.of(0)
        assert tuple(rebuilt) == mono
        assert all(prefix[i] < bounds.C[i] for i in range(nvars))
        assert prefix[-1] < bounds.D
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("7 semi-invariant decomposition", f"200 monomials in {elapsed:.2f}s")


def test_criterion_8_rotations():
    rng = random.Random(983)
    for _ in range(1000):
        d, e, f = (rng.uniform(-4, 4) for _ in range(3))
        if d == 0 and e == 0 and f == 0:
            continue
        sol = rotation_from_target(d, e, f)
        assert rotation_defect(sol, d, e, f) < RESULT_TOL
        assert orthogonality_defect(sol.rotation) < ORTHO_TOL
        assert abs(determinant(sol.rotation) - 1.0) < ORTHO_TOL
    aligned = rotation_from_target(1, 0, 0)
    assert aligned.theta == 0.0 and rotation_defect(aligned, 1, 0, 0) < ORTHO_TOL
    diagonal = rotation_from_target(0, 1, 0)
    assert abs(diagonal.axis[0] - 1 / sqrt(2)) < ORTHO_TOL
    assert abs(diagonal.axis[1] - 1 / sqrt(2)) < ORTHO_TOL
    assert abs(diagonal.theta - pi) < ORTHO_TOL
    third = rotation_from_target(0, 0, 1)
    assert abs(third.axis[1] - 1.0) < ORTHO_TOL
    assert abs(third.theta - 3 * pi / 2) < ORTHO_TOL
    _report("8 rotations", "1000 random targets < 1e-9; worked examples < 1e-12")


def test_criterion_9_model_metric_scaling():
    rng = random.Random(991)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 4)
        z = tuple(complex(rng.uniform(0.2, 4), rng.uniform(-4, 4)) for _ in range(n))
        w = tuple(rng.uniform(0.1, 10) for _ in range(n))
        tau = rng.uniform(0.1, 6)
        worst = max(worst, scaling_pullback_check(z, w, tau))
    assert worst < RESULT_TOL
    _report("9 model metric scaling", f"worst relative defect {worst:.2e}")


def _cli_bytes(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    assert code == 0
    return out.getvalue()


def test_criterion_10_determinism(tmp_path):
    rng = random.Random(997)
    for _ in range(5):
        ideal, _ = _random_ideal(rng)
        if not ideal.generators:
            continue
        reference = reduced_basis(ideal)
        gens = list(ideal.generators)
        rng.shuffle(gens)
        again = reduced_basis(IdealPresentation(ideal.ring, tuple(gens)))
        assert reference.elements == again.elements
    path = tmp_path / "doc.txt"
    path.write_text(catalogue.A1_DEFORMED_TEXT)
    invocations = [
        ["initial-ideal", "--input", str(path)],
        ["rank", "--weights", "s, 2-s", "--field", "quad:2"],
        ["cone", "--weights", "s", "--field", "quad:2", "--resolution", "20"],
        ["demo", "a2"],
    ]
    for argv in invocations:
        first = _cli_bytes(argv)
        second = _cli_bytes(argv)
        assert first == second
        json.loads(first)  # well-formed JSON with sorted keys
    # permuting the ideal block must not change the JSON either
    base = "ring x y z\nweights 2 2 2\nideal\n"
    one = tmp_path / "one.txt"
    two = tmp_path / "two.txt"
    one.write_text(base + "x*y - z^2 - x^3\nx^2 - y*z\n")
    two.write_text(base + "x^2 - y*z\nx*y - z^2 - x^3\n")
    assert (_cli_bytes(["initial-ideal", "--input", str(one)])
            == _cli_bytes(["initial-ideal", "--input", str(two)]))
    _report("10 determinism", "permuted generators and repeated CLI runs byte-identical")
