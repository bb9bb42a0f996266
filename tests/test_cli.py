"""Input documents, CLI dispatch, exit codes, and byte-stable JSON."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conify import catalogue
from conify.cli import main
from conify.diophantine import ReebVector, dirichlet_approximant
from conify.errors import ParseError
from conify.inputdoc import parse_input

A1_DEFORMED = """\
field rational
ring x y z
weights 2 2 2
ideal
x*y - z^2 - x^3
"""


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestParseInput:
    def test_full_document(self):
        doc = parse_input(catalogue.A1_TEXT)
        assert doc.ring == ("x", "y", "z")
        assert [str(w) for w in doc.weights] == ["2", "2", "2"]
        assert len(doc.ideal_polys) == 1
        assert len(doc.brackets) == 3

    def test_quadratic_field_weights(self):
        doc = parse_input("field quad 2\nring x y\nweights s 2-s\nideal\nx - y\n")
        assert str(doc.weights[0]) == "sqrt(2)"
        assert str(doc.weights[1]) == "2-sqrt(2)"

    def test_missing_ring(self):
        with pytest.raises(ParseError, match="ring required"):
            parse_input("weights 1\n")

    def test_missing_weights(self):
        with pytest.raises(ParseError, match="weights required"):
            parse_input("ring x\n")

    def test_weight_arity(self):
        with pytest.raises(ParseError, match="2 weights for 1"):
            parse_input("ring x\nweights 1 2\n")

    def test_nonpositive_weight(self):
        with pytest.raises(ParseError, match="not positive"):
            parse_input("ring x\nweights 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_input("field rational\nring x\nweights 1\nx^^2\nideal\n")

    def test_bad_radicand_is_positioned(self):
        # rejected at the field line even though every weight is rational
        with pytest.raises(ParseError, match=r"squarefree.*\(line 2\)"):
            parse_input("# square radicand\nfield quad 4\nring x\nweights 1\n")
        with pytest.raises(ParseError, match=r"line 1\)"):
            parse_input("field quad 0\nring x\nweights 1\n")

    def test_bad_weight_is_positioned(self):
        with pytest.raises(ParseError, match=r"line 2\)"):
            parse_input("ring x\nweights sqrt(8)\n")

    def test_weights_mix_radicands(self):
        # with no field line, s stands for the first sqrt(k) of the list
        doc = parse_input("ring x y\nweights sqrt(2) 1+s\n")
        assert [str(w) for w in doc.weights] == ["sqrt(2)", "1+sqrt(2)"]
        doc = parse_input("ring x y\nweights sqrt(2) sqrt(3)\n")
        assert [str(w) for w in doc.weights] == ["sqrt(2)", "sqrt(3)"]
        doc = parse_input("field quad 2\nweights 1 sqrt(3)+s\nring x y\n")
        assert [str(w) for w in doc.weights] == ["1", "sqrt(2)+sqrt(3)"]
        with pytest.raises(ParseError, match=r"no quadratic field.*\(line 2\)"):
            parse_input("ring x y\nweights s+sqrt(2) 1\n")

    @pytest.mark.parametrize("line", ["field quad 3", "ring u v", "weights 2 3", "tweight 2",
                                      "sympweight 2"])
    def test_second_declaration_is_positioned(self, line):
        text = ("field rational\nring x y\nweights 1 1\ntweight 1\nsympweight 2\n"
                f"ideal\nx^3 - y^2\n{line}\n")
        with pytest.raises(ParseError, match=rf"second '{line.split()[0]}' declaration \(line 8\)"):
            parse_input(text)

    def test_bracket_reversal_is_antisymmetric(self):
        doc = parse_input("ring x y\nweights 1 1\nbracket\ny x : x\n")
        assert str(doc.brackets[(0, 1)]) == "-x"

    def test_comments_and_blank_lines(self):
        doc = parse_input("# header\nring x\n\nweights 1  # inline\n")
        assert doc.ring == ("x",)


class TestExitCodes:
    def test_usage_error_is_one(self):
        code, _, err = run_cli("no-such-command")
        assert code == 1

    def test_no_command_is_one(self):
        code, _, err = run_cli()
        assert code == 1
        assert "subcommands" in err

    def test_domain_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("weights 1\n")
        code, _, err = run_cli("initial-ideal", "--input", str(bad))
        assert code == 2
        assert "ring required" in err

    def test_missing_file_is_two(self):
        code, _, err = run_cli("initial-ideal", "--input", "/nonexistent.txt")
        assert code == 2

    def test_value_error_is_two(self):
        code, out, err = run_cli("invariants", "--weights", "1,1", "--tweight", "0")
        assert code == 2 and not out
        assert "t-weight must be positive" in err

    def test_bad_field_is_two(self):
        code, out, err = run_cli("rank", "--weights", "1, 2", "--field", "quad:4")
        assert code == 2 and not out
        assert "bad field 'quad:4'" in err

    def test_repeated_weights_line_is_two(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("ring x y\nweights 1 1\nweights 2 3\nideal\nx^3 - y^2\n")
        code, out, err = run_cli("initial-ideal", "--input", str(path))
        assert (code, out, err) == (2, "", "error: second 'weights' declaration (line 3)\n")

    def test_mixed_radicand_weights_succeed(self):
        weights = ("--weights", "sqrt(2), sqrt(3)")
        assert run_cli("rank", *weights) == (
            0, '{"one_in_span":false,"rank":2,"schema":"conify/1"}\n', "")
        code, out, err = run_cli("approximate", "--n", "2", *weights)
        assert code == 0, err
        assert json.loads(out)["approximant"]["errors_as_strings"] == ["10-7*sqrt(2)", "-12+7*sqrt(3)"]
        code, out, err = run_cli("cone", *weights)
        assert code == 0, err
        assert json.loads(out)["contains_input"] is True

    def test_success_is_zero(self):
        code, out, _ = run_cli("rank", "--weights", "1, s, 1+s", "--field", "quad:2")
        assert code == 0
        assert json.loads(out) == {"schema": "conify/1", "rank": 2, "one_in_span": True}


class TestSubcommands:
    def test_initial_ideal_document(self, tmp_path):
        path = tmp_path / "a1d.txt"
        path.write_text(A1_DEFORMED)
        code, out, _ = run_cli("initial-ideal", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"schema": "conify/1", "central_fiber": ["x*y - z^2"]}

    def test_initial_ideal_irrational_weights(self, tmp_path):
        path = tmp_path / "irr.txt"
        path.write_text("field quad 2\nring x y\nweights 3*s 2*s\nideal\nx^2 - y^3 - y^4\n")
        code, out, _ = run_cli("initial-ideal", "--input", str(path))
        assert code == 0
        assert json.loads(out)["central_fiber"] == ["y^3 - x^2"]

    def test_coinciding_approximants_need_no_second_one(self, tmp_path):
        text = "field quad 5\nring x y\nweights 1/2*s s\nideal\n3*y^4 - 3*y^3 - 2*x^3\n"
        # (sqrt5/2, sqrt5) has one Dirichlet approximant at N = 16, 32 and 64;
        # its central fiber is certified against in_xi(I), not against a
        # second approximant
        vector = ReebVector(parse_input(text).weights)
        assert len({dirichlet_approximant(vector, N, 10**6).approximation()
                    for N in (16, 32, 64)}) == 1
        path = tmp_path / "coincide.txt"
        path.write_text(text)
        code, out, err = run_cli("initial-ideal", "--input", str(path))
        assert code == 0, err
        assert json.loads(out)["central_fiber"] == ["x^3"]
        code, out, err = run_cli("fiber", "--input", str(path), "--at", "0")
        assert code == 0, err
        assert json.loads(out)["fiber"] == ["x^3"]

    def test_testconfig_and_fiber_and_flatness(self, tmp_path):
        path = tmp_path / "a1d.txt"
        path.write_text(A1_DEFORMED)
        code, out, _ = run_cli("testconfig", "--input", str(path))
        payload = json.loads(out)
        assert payload["family"] == ["x^3*t^2 - x*y + z^2"]
        assert payload["saturated"] is True
        code, out, _ = run_cli("fiber", "--input", str(path), "--at", "1")
        assert json.loads(out)["fiber"] == ["x^3 - x*y + z^2"]
        code, out, _ = run_cli("flatness", "--input", str(path))
        assert json.loads(out)["flat"] is True

    def test_hilbert(self, tmp_path):
        path = tmp_path / "a1.txt"
        path.write_text(catalogue.A1_TEXT)
        code, out, _ = run_cli("hilbert", "--input", str(path), "--degree-cap", "8")
        assert json.loads(out)["dimensions"] == {"0": 1, "2": 3, "4": 5, "6": 7, "8": 9}

    def test_hilbert_default_cap_on_fourteen_variables(self, tmp_path):
        # the default cap 8 spans about 6e10 monomials of the weight box
        path = tmp_path / "ogrady.txt"
        path.write_text(catalogue.OGRADY_WEIGHTS_TEXT)
        start = time.monotonic()
        code, out, _ = run_cli("hilbert", "--input", str(path))
        assert time.monotonic() - start < 10.0
        assert code == 0
        assert json.loads(out)["dimensions"] == {
            "0": 1, "1": 4, "2": 20, "3": 60, "4": 190, "5": 476, "6": 1204,
            "7": 2660, "8": 5845}

    def test_approximate(self):
        code, out, _ = run_cli("approximate", "--weights", "s, 2-s",
                               "--field", "quad:2", "--N", "14")
        payload = json.loads(out)["approximant"]
        assert payload["D"] == 5 and payload["w_tilde"] == [7, 3] and payload["nice"]

    def test_cone(self):
        code, out, _ = run_cli("cone", "--weights", "s", "--field", "quad:2",
                               "--resolution", "20")
        payload = json.loads(out)
        assert payload["generators"] == [["24/17"], ["17/12"]]
        assert payload["simplicial"] is True
        assert payload["contains_input"] is True
        assert payload["certificate"] is not None

    def test_poisson_check(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text(catalogue.C2_TEXT)
        code, out, _ = run_cli("poisson-check", "--input", str(path))
        payload = json.loads(out)
        assert payload["jacobi_holds"] and payload["preserves_ideal"]
        assert payload["bracket_weight"] == "-2"
        assert payload["form_weight"] == "2"
        assert payload["scaleup"]["all_pass"] is True

    def test_poisson_check_on_a_ring_with_a_t(self, tmp_path):
        # poisson-check builds no family, so a ring variable named t is fine
        path = tmp_path / "st.txt"
        path.write_text("field rational\nring s t\nweights 1 1\ntweight 1\nsympweight 2\n"
                        "ideal\nbracket\ns t : 1\nform\ns t : 1\n")
        code, out, err = run_cli("poisson-check", "--input", str(path))
        assert code == 0, err
        assert json.loads(out)["scaleup"]["all_pass"] is True

    def test_decompose(self):
        code, out, _ = run_cli("decompose", "--weights", "1,1", "--tweight", "1",
                               "--exponents", "2,0,1")
        payload = json.loads(out)
        assert payload["prefix"] == [1, 0, 0]
        assert payload["factors"] == [[1, 0, 1]]

    def test_invariants(self):
        code, out, _ = run_cli("invariants", "--weights", "1,1", "--tweight", "1",
                               "--cap", "3")
        assert json.loads(out)["generators"] == [[0, 1, 1], [1, 0, 1]]

    def test_rotate(self):
        code, out, _ = run_cli("rotate", "--target", "0,1,0")
        payload = json.loads(out)
        assert abs(payload["theta"] - 3.141592653589793) < 1e-12

    def test_demo_all_entries(self):
        for name in catalogue.names():
            code, out, _ = run_cli("demo", name)
            assert code == 0, name
            assert json.loads(out)["ok"] is True


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "a1d.txt"
        path.write_text(A1_DEFORMED)
        invocations = [
            ("initial-ideal", "--input", str(path)),
            ("testconfig", "--input", str(path)),
            ("rank", "--weights", "1, s, 1+s", "--field", "quad:2"),
            ("cone", "--weights", "s", "--field", "quad:2", "--resolution", "20"),
            ("demo", "a1"),
        ]
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second
            assert first[0] == 0

    def test_pretty_is_indented_variant(self):
        code, compact, _ = run_cli("rank", "--weights", "2,2")
        code, pretty, _ = run_cli("rank", "--weights", "2,2", "--pretty")
        assert json.loads(compact) == json.loads(pretty)
        assert "\n" in pretty and "\n" not in compact.strip()


# Three documents whose t-families need saturation: two with rational weights,
# one with quadratic-irrational weights (routed through approximants).
GOLDEN_DOCUMENTS = {
    "r1": "field rational\nring x y\nweights 1 1\nideal\ny - x^2\ny^2\n",
    "r2": "field rational\nring x y z\nweights 1 2 3\nideal\nx*y - z + x^3*z\ny^2 - x*z - y^3\n",
    "q1": "field quad 2\nring x y\nweights s 1\nideal\ny^2 - x^3 - x*y^2\nx*y^2 - y^4\n",
}
GOLDEN_TESTCONFIG = {
    "r1": (
        '{"family":["y^2","x^2*t - y","x^2*y","x^4"],"ring":["x","y","t"],'
        '"saturated":true,"schema":"conify/1","weights":["1","1"]}\n'
    ),
    "r2": (
        '{"family":["y^3*t^2 - y^2 + x*z","x^3*z*t^3 + x*y - z","x^3*y^2*z*t - '
        'x^4*z^2*t + x*y^4 - y^3*z","x^4*y*z^2*t^2 - x*y^5*t - x^3*y^2*z + x^4*z^2 + '
        'y^4*z*t","x*y^7*t + x^3*y^4*z - 2*x^4*y^2*z^2 + x^5*z^3 - y^6*z*t",'
        '"x^5*z^3*t^2 - x*y^6*t - x^2*y^4*z*t - x^3*y^3*z + x^4*y*z^2 + y^5*z*t + '
        'x*y^3*z^2*t","x^6*y*z^4*t + x^5*y^4*z^2 - 2*x^6*y^2*z^3 + x^7*z^4 - '
        'x^2*y^6*z^2*t - x*y^9 - x^2*y^7*z - x^3*y^5*z^2 + y^8*z + x*y^6*z^2 + '
        'x^2*y^4*z^3","x^7*z^5*t + x^5*y^5*z^2 - 2*x^6*y^3*z^3 + x^7*y*z^4 - x*y^10 - '
        'x^2*y^8*z - x^3*y^6*z^2 - 2*x^5*y^2*z^4 + x^6*z^5 - x*y^6*z^3*t + y^9*z + '
        'x*y^7*z^2 + x^2*y^5*z^3 + x^3*y^3*z^4","x^5*y^6*z^2 - 3*x^6*y^4*z^3 + '
        '3*x^7*y^2*z^4 - x^8*z^5 + x^6*z^6*t - x*y^11 + x^4*y^5*z^3 - 2*x^5*y^3*z^4 + '
        'x^6*y*z^5 + y^10*z - x*y^8*z^2 - x^2*y^6*z^3 - 2*x^4*y^2*z^5 + x^5*z^6 - '
        'y^6*z^4*t + y^7*z^3 + x*y^5*z^4 + x^2*y^3*z^5"],"ring":["x","y","z","t"],'
        '"saturated":true,"schema":"conify/1","weights":["1","2","3"]}\n'
    ),
    "q1": (
        '{"family":["y^4*t^7 - x*y^2","x^3*y^2*t^7 - x^4","x^6*t^6 + x^3*y^4*t^3 - '
        'y^8","x^3*y^6*t^4 - y^10*t + x^7","y^10*t^4 - x^7*t^3 - x^4*y^4","y^14*t - '
        'x^10*t^3 - 2*x^7*y^4","x^3*y^10*t^3 - 1/2*y^14 - 1/2*x^10*t^2","x^5*t^13 + '
        'x^3*y^2*t^3 - y^6","y^18 - 2*x^13*t^5 - 3*x^10*y^4*t^2","x^4*t^20 + '
        'x^2*y^2*t^10 - y^4","x^3*t^27 + x*y^2*t^17 - y^2"],"ring":["x","y","t"],'
        '"saturated":true,"schema":"conify/1","weights":["17","12"]}\n'
    ),
}


class TestGoldenFamilies:
    """testconfig and flatness stdout, pinned byte for byte: family order,
    normalization and printing must not move when the saturation route does."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
    def test_testconfig_and_flatness_stdout(self, name, tmp_path):
        path = tmp_path / f"{name}.txt"
        path.write_text(GOLDEN_DOCUMENTS[name])
        assert run_cli("testconfig", "--input", str(path)) == (0, GOLDEN_TESTCONFIG[name], "")
        assert run_cli("flatness", "--input", str(path)) == (0, '{"flat":true,"schema":"conify/1"}\n', "")


# Weight vectors over two and three radicands, with no field line: each
# sqrt(k) stands for itself.
MULTI_RADICAND_DOCUMENTS = {
    "sqrt2_sqrt3": "ring x y\nweights sqrt(2) sqrt(3)\nideal\ny^3 - x^2 + x*y^2\n",
    "sqrt2_1+sqrt3_sqrt5": "ring x y z\nweights sqrt(2) 1+sqrt(3) sqrt(5)\nideal\nx*y - z^2 + x^3\n",
}
MULTI_RADICAND_STDOUT = {
    "sqrt2_sqrt3": {
        "initial-ideal": '{"central_fiber":["x^2"],"schema":"conify/1"}\n',
        "testconfig": ('{"family":["y^3*t^97 + x*y^2*t^84 - x^2"],"ring":["x","y","t"],'
                       '"saturated":true,"schema":"conify/1","weights":["58","71"]}\n'),
        "fiber": '{"at":"0","fiber":["x^2"],"schema":"conify/1"}\n',
        "flatness": '{"flat":true,"schema":"conify/1"}\n',
    },
    "sqrt2_1+sqrt3_sqrt5": {
        "initial-ideal": '{"central_fiber":["x*y"],"schema":"conify/1"}\n',
        "testconfig": ('{"family":["z^2*t^40 - x^3*t^12 - x*y"],"ring":["x","y","z","t"],'
                       '"saturated":true,"schema":"conify/1","weights":["174","336","275"]}\n'),
        "fiber": '{"at":"0","fiber":["x*y"],"schema":"conify/1"}\n',
        "flatness": '{"flat":true,"schema":"conify/1"}\n',
    },
}


class TestMultiRadicandDocuments:
    @pytest.mark.parametrize("name", sorted(MULTI_RADICAND_DOCUMENTS))
    def test_family_subcommands_stdout(self, name, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text(MULTI_RADICAND_DOCUMENTS[name])
        for command, expected in MULTI_RADICAND_STDOUT[name].items():
            assert run_cli(command, "--input", str(path)) == (0, expected, ""), command


class TestCatalogue:
    def test_every_entry_verifies(self):
        for name in catalogue.names():
            facts = catalogue.verify_entry(catalogue.ENTRIES[name])
            assert facts["name"] == name

    def test_symplectic_entries_have_bracket_weight_minus_two(self):
        for name in ("a1", "a2", "c2"):
            facts = catalogue.verify_entry(catalogue.ENTRIES[name])
            assert facts["bracket_weight"] == "-2"

    def test_span_fact_for_all_entries(self):
        for name in catalogue.names():
            facts = catalogue.verify_entry(catalogue.ENTRIES[name])
            assert facts["one_in_span"] is True
