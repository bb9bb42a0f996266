"""The exact route for irrational weights, against the two-sample route it replaced.

`initial-ideal` reads in_xi(I) off `weighted_initial_ideal`; `testconfig`,
`fiber` and `flatness` take the family along the first integer point of xi's
rational span in the Groebner cone of xi (`stable_initial_ideal`).  The
replaced route accepted any fiber two Dirichlet approximants agreed on; it is
kept here as the oracle of a differential test on central fibers and
flatness.  The families themselves differ from the oracle's by design: they
are along smaller weights.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from conify import degeneration
from conify.cli import main, render
from conify.degeneration import (
    build_test_configuration,
    central_fiber,
    flatness_witness,
    weighted_initial_ideal,
)
from conify.diophantine import ReebVector, default_box_cone, dirichlet_approximant
from conify.inputdoc import parse_input
from test_degeneration import in_rational_span, in_span_homogeneous

# (1/2 + 2 sqrt3, 2 + 3/5 sqrt3) ~ (3.964, 3.039): x^3 and y^4 nearly tie, and
# the N = 16 approximant (4, 3) ties them exactly.
NEAR_TIE = "field quad 3\nring x y\nweights 1/2+2*s 2+3/5*s\nideal\ny^4 - x^3 - x*y^5\n"
COMMANDS = ("initial-ideal", "testconfig", "fiber", "flatness")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TwoSamplesDisagree(Exception):
    pass


def two_sample_outputs(text, N=16, cap=10**6):
    """stdout of initial-ideal, fiber and flatness under the replaced route.

    Degenerate along the Dirichlet approximant at N and along a second one,
    doubling its threshold until the two differ; both must lie in the reference
    box around the weights, and their central fibers must agree.  The fiber
    and flatness printed are those of the first approximant's family."""
    doc = parse_input(text)
    ideal = doc.ideal()
    vector = ReebVector(doc.weights)
    first = second = dirichlet_approximant(vector, N, cap)
    while second.approximation() == first.approximation():
        N *= 2
        second = dirichlet_approximant(vector, N, cap)
    box = default_box_cone(vector)
    fibers = []
    for report in (first, second):
        fracs = report.approximation()
        if not box.contains(fracs)[0]:
            raise ValueError("approximant falls outside the reference cone around the weights")
        scale = math.lcm(*(a.denominator for a in fracs))
        tc = build_test_configuration(ideal, tuple(int(a * scale) for a in fracs))
        fibers.append(central_fiber(tc))
    if fibers[0].generators != fibers[1].generators:
        raise TwoSamplesDisagree(f"{fibers[0]} vs {fibers[1]}")
    tc = build_test_configuration(ideal, first.w_tilde)
    payloads = {
        "initial-ideal": {"central_fiber": [str(g) for g in fibers[0].generators]},
        "fiber": {"at": "0", "fiber": [str(g) for g in central_fiber(tc).generators]},
        "flatness": {"flat": flatness_witness(tc)},
    }
    return {command: render(payload, False) + "\n" for command, payload in payloads.items()}


def near_tie_documents(seed, count, radicands=((2,), (3,), (5,), (7,))):
    """Principal ideals in x, y of three terms: two terms whose weights lie
    within 3% of each other, and a third at least 20% heavier than both.

    Each document draws a tuple from `radicands`.  One radicand d gives both
    weights as a + b*s under `field quad d`; two give x's weight over the first
    and y's over the second, spelled a + b*sqrt(k), with no field line."""
    rng = random.Random(seed)
    monos = [(i, j) for i in range(6) for j in range(6) if 1 <= i + j <= 6]
    docs = []
    while len(docs) < count:
        ds = rng.choice(radicands)
        entries = [(Fraction(rng.randint(0, 6), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(2)]
        ks = ds * 2 if len(ds) == 1 else ds
        floats = [float(a) + float(b) * math.sqrt(k) for (a, b), k in zip(entries, ks)]

        def weight(m):
            return sum(e * w for e, w in zip(m, floats))

        m1, m2 = rng.sample(monos, 2)
        low, high = sorted((weight(m1), weight(m2)))
        heavy = [m for m in monos if weight(m) > 1.2 * high]
        if high - low > 0.03 * low or not heavy:
            continue
        terms = []
        for m in (m1, m2, rng.choice(heavy)):
            c = rng.choice((1, 2, 3, -1, -2))
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xy", m) if e]
            terms.append(("- " if c < 0 else "+ ") + "*".join([str(abs(c))] + factors))
        header, atoms = ((f"field quad {ds[0]}\n", ("s", "s")) if len(ds) == 1
                         else ("", tuple(f"sqrt({k})" for k in ds)))
        weights = " ".join(f"{a}+{b}*{atom}" if a else f"{b}*{atom}"
                           for (a, b), atom in zip(entries, atoms))
        docs.append(f"{header}ring x y\nweights {weights}\nideal\n"
                    + " ".join(terms).removeprefix("+ ") + "\n")
    return docs


def differential(docs, tmp_path):
    """Run the four family subcommands on each document.  Compare initial-ideal,
    fiber and flatness byte for byte with the two-sample route wherever its two
    samples agree; check that the testconfig weights lie in the rational span
    of the document's weights and that the central fiber is homogeneous for
    every vector of that span.  Returns the counts of documents where the
    two samples agreed and disagreed."""
    agreed = disagreed = 0
    for i, text in enumerate(docs):
        path = tmp_path / f"doc{i}.txt"
        path.write_text(text)
        outputs = {}
        for command in COMMANDS:
            code, out, err = run_cli(command, "--input", str(path))
            assert code == 0, (text, command, err)
            outputs[command] = out
        doc = parse_input(text)
        weights = tuple(int(w) for w in json.loads(outputs.pop("testconfig"))["weights"])
        assert in_rational_span(weights, doc.weights), text
        fiber = weighted_initial_ideal(doc.ideal(), doc.weight_data())
        assert in_span_homogeneous(fiber, doc.weights), text
        try:
            expected = two_sample_outputs(text)
        except TwoSamplesDisagree:
            disagreed += 1
            continue
        assert outputs == expected, text
        agreed += 1
    return agreed, disagreed


class TestNearTieDocument:
    def test_every_subcommand_finds_the_certified_family(self, tmp_path):
        # the N = 16 approximant (4, 3) ties x^3 and y^4; the Groebner cone of
        # xi holds (1, 1), where y^4 stays heavier than x^3
        path = tmp_path / "near_tie.txt"
        path.write_text(NEAR_TIE)
        code, out, err = run_cli("initial-ideal", "--input", str(path))
        assert (code, json.loads(out)["central_fiber"]) == (0, ["x^3"]), err
        code, out, err = run_cli("fiber", "--input", str(path), "--at", "0")
        assert (code, json.loads(out)["fiber"]) == (0, ["x^3"]), err
        code, out, err = run_cli("flatness", "--input", str(path))
        assert (code, json.loads(out)["flat"]) == (0, True), err
        code, out, err = run_cli("testconfig", "--input", str(path))
        assert code == 0, err
        assert json.loads(out)["weights"] == ["1", "1"]

    def test_removed_threshold_options_are_usage_errors(self, tmp_path):
        # the family subcommands search no approximants, so --N and --cap are gone
        path = tmp_path / "near_tie.txt"
        path.write_text(NEAR_TIE)
        for command in ("testconfig", "fiber", "flatness"):
            for option, value in (("--N", "16"), ("--cap", "100")):
                code, out, err = run_cli(command, "--input", str(path), option, value)
                assert (code, out) == (1, "")
                assert err.startswith(f"usage error: unrecognized arguments: {option} {value}\n")

    def test_exhausted_candidates_still_certify(self, tmp_path, monkeypatch):
        # (1, 3) is the fourth candidate: (1, 1), (1, 2), (2, 1), (1, 3); with
        # three, the rounded multiples of xi give the certified (15, 32)
        path = tmp_path / "tie.txt"
        path.write_text("ring x y\nweights sqrt(2) 3\nideal\ny - x^2 + y^2\n")
        monkeypatch.setattr(degeneration, "CONE_CANDIDATES", 3)
        code, out, err = run_cli("testconfig", "--input", str(path))
        assert (code, json.loads(out)["weights"]) == (0, ["15", "32"]), err
        assert run_cli("fiber", "--input", str(path)) == (0, '{"at":"0","fiber":["x^2"],"schema":"conify/1"}\n', "")
        assert run_cli("flatness", "--input", str(path)) == (0, '{"flat":true,"schema":"conify/1"}\n', "")


class TestThreeVariableNearTie:
    def test_every_subcommand_finds_the_certified_family(self, tmp_path):
        # y^4, x^5 and z^6, y^11 nearly tie along a rank-2 span; the fiber and
        # flatness are those of the replaced route
        path = tmp_path / "near_tie_3.txt"
        path.write_text("ring x y z\nweights sqrt(2) sqrt(3) sqrt(2)+sqrt(3)\n"
                        "ideal\ny^4 - x^5 + z^3\nz^6 - y^11 + x^14\n")
        expected = {"initial-ideal": '{"central_fiber":["y^4","z^6"],"schema":"conify/1"}\n',
                    "fiber": '{"at":"0","fiber":["y^4","z^6"],"schema":"conify/1"}\n',
                    "flatness": '{"flat":true,"schema":"conify/1"}\n'}
        for command, out in expected.items():
            assert run_cli(command, "--input", str(path)) == (0, out, "")
        code, out, err = run_cli("testconfig", "--input", str(path))
        assert (code, json.loads(out)["weights"]) == (0, ["22", "27", "49"]), err

class TestTwoSampleDifferential:
    def test_near_tie_documents(self, tmp_path):
        agreed, disagreed = differential(near_tie_documents(seed=7, count=120), tmp_path)
        # the documents reach both sides of the old route
        assert agreed >= 100 and disagreed >= 1, (agreed, disagreed)

    def test_two_radicand_documents(self, tmp_path):
        docs = near_tie_documents(seed=11, count=40, radicands=((2, 3), (3, 5)))
        assert all(len({w.terms[0][0] for w in parse_input(text).weights}) == 2 for text in docs)
        agreed, disagreed = differential(docs, tmp_path)
        assert agreed >= 30, (agreed, disagreed)
