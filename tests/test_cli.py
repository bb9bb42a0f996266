"""Input documents, CLI dispatch, exit codes, and byte-stable JSON."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from conify import catalogue, cli
from conify.cli import build_parser, main
from conify.diophantine import ReebVector, dirichlet_approximant
from conify.errors import ParseError
from conify.exactnum import parse_scalars
from conify.groebner import IdealPresentation, reduced_basis
from conify.inputdoc import parse_input
from conify.poisson import FormTable, check_scaleup
from conify.polyring import WeightData, parse_polynomial

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
        assert doc.ideal.ring == ("x", "y", "z")
        assert [str(w) for w in doc.weight_data.weights] == ["2", "2", "2"]
        assert len(doc.ideal.generators) == 1
        assert len(doc.brackets) == 3

    def test_document_holds_its_objects(self):
        doc = parse_input(catalogue.C2_TEXT)
        assert [f.name for f in fields(doc)] == ["ideal", "weight_data", "brackets", "form"]
        assert doc.ideal == IdealPresentation(("u", "v"), ())
        assert doc.weight_data == WeightData((1, 1), t_weight=1, form_weight=2)
        assert doc.form == FormTable(("u", "v"), {(0, 1): parse_polynomial("1", ("u", "v"))})
        assert parse_input(catalogue.A1_TEXT).form is None

    @pytest.mark.parametrize("argv", [["poisson-check", "--input", "a1.txt"], ["demo", "a1"]])
    def test_one_ideal_per_run(self, argv, tmp_path, monkeypatch):
        # the bracket table, the ideal check and the Hilbert function share the parsed ideal
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a1.txt").write_text(catalogue.A1_TEXT)
        built = []
        real = IdealPresentation.__post_init__
        monkeypatch.setattr(IdealPresentation, "__post_init__", lambda self: built.append(self) or real(self))
        code, _, err = run_cli(*argv)
        assert (code, err, len(built)) == (0, "", 1)

    def test_quadratic_field_weights(self):
        doc = parse_input("field quad 2\nring x y\nweights s 2-s\nideal\nx - y\n")
        assert str(doc.weight_data.weights[0]) == "sqrt(2)"
        assert str(doc.weight_data.weights[1]) == "2-sqrt(2)"

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
        assert [str(w) for w in doc.weight_data.weights] == ["sqrt(2)", "1+sqrt(2)"]
        doc = parse_input("ring x y\nweights sqrt(2) sqrt(3)\n")
        assert [str(w) for w in doc.weight_data.weights] == ["sqrt(2)", "sqrt(3)"]
        doc = parse_input("field quad 2\nweights 1 sqrt(3)+s\nring x y\n")
        assert [str(w) for w in doc.weight_data.weights] == ["1", "sqrt(2)+sqrt(3)"]
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
        assert doc.ideal.ring == ("x",)


def _on_line_3(text):
    return parse_polynomial(text, ("x", "y"), line=3)


# (parser, input, line, column, message) of each parse error the CLI can print
PARSE_ERRORS = [
    (_on_line_3, "3/x", 3, 2, "missing denominator"),
    (_on_line_3, "x%y", 3, 2, "unexpected character '%'"),
    (_on_line_3, "", 3, None, "empty polynomial"),
    (_on_line_3, "x^-1", 3, 1, "exponent must be an integer"),
    (_on_line_3, "x^", 3, 1, "exponent must be an integer"),
    (_on_line_3, "y*x^1/2", 3, 3, "exponent must be an integer"),
    (_on_line_3, "x^y", 3, 1, "exponent must be an integer"),
    (_on_line_3, "*x", 3, 1, "unexpected token '*'"),
    (_on_line_3, "x*+y", 3, 3, "unexpected token '+'"),
    (_on_line_3, "x + 3/0*y", 3, 5, "zero denominator"),
    (_on_line_3, "x -", 3, 3, "dangling sign"),
    (_on_line_3, "x*", 3, None, "dangling '*'"),
    (_on_line_3, "2 x", 3, 3, "missing '*' between factors"),
    (_on_line_3, "x\t*\ty$", 3, 6, "unexpected character '$'"),
    (_on_line_3, "x·y", 3, 2, "unexpected character '·'"),
    # a lexical error anywhere in the line wins over an earlier syntax error
    (_on_line_3, "x y + 3/0", 3, 7, "zero denominator"),
    (_on_line_3, "x y %", 3, 5, "unexpected character '%'"),
    (parse_input, "ring x y\nweights 1 1\nideal\nx*w\n", 4, 3, "unknown variable 'w'"),
    # no weights line holds an empty entry, so this error is the library's alone
    (lambda text: parse_scalars([text]), "", None, None, "empty scalar"),
    (parse_input, "ring x\nweights 1+\n", 2, None, "dangling sign in scalar '1+'"),
    (parse_input, "ring x\nweights 1/0\n", 2, None, "bad number '1/0' in scalar '1/0'"),
    (parse_input, "ring x\nweights 1.5e\n", 2, None, "bad number '1.5e' in scalar '1.5e'"),
    (parse_input, "ring x\nweights sqrt(8)\n", 2, None,
     "bad radical 'sqrt(8)' in scalar 'sqrt(8)'; a radicand is a squarefree integer >= 2"),
    # past RADICAND_BOUND = 10^21 no squarefree check is tried
    (parse_input, "ring x\nweights sqrt(1000000000000000000117)\n", 2, None,
     "bad radical 'sqrt(1000000000000000000117)' in scalar 'sqrt(1000000000000000000117)'; "
     "radicand must be at most 10^21 for the squarefree check, got 1000000000000000000117"),
    (parse_input, "field quad 1000000000000000000117\n", 1, None,
     "radicand must be at most 10^21 for the squarefree check, got 1000000000000000000117"),
    (parse_input, "ring x\nweights s\n", 2, None, "s used in 's' but no quadratic field declared"),
    (parse_input, "ring x y\nweights 1 2-sqrt(5)\n", 2, None, "weight '2-sqrt(5)' is not positive"),
    (parse_input, "ring x\nweights 1 2\n", 2, None, "2 weights for 1 variables"),
    (parse_input, "field quad\n", 1, None, "bad field declaration 'quad'"),
    (parse_input, "ring\n", 1, None, "ring declaration needs variable names"),
    (parse_input, "ring x y x\n", 1, None, "duplicate ring variable"),
    (parse_input, "ring x\nweights\n", 2, None, "weights declaration is empty"),
    (parse_input, "ring x\nweights 1\nideal x\n", 3, None, "unexpected text after 'ideal'"),
    (parse_input, "weights 1\nideal\nx\n", 3, None, "ring required before the ideal block"),
    (parse_input, "weights 1\nform\nx y : 1\n", 3, None, "ring required before the form block"),
    (parse_input, "ring x y\nweights 1 1\nbracket\nx y : 1\ny x : 2\n", 5, None,
     "duplicate bracket entry for (0, 1)"),
    (parse_input, "ring x\nweights 1\nhessian 2\n", 3, None, "unknown declaration 'hessian'"),
    (parse_input, "ring x\nweights 1\ntweight 1/0\n", 3, None, "bad tweight value '1/0'"),
    (parse_input, "ring x\nsympweight -2\n", 2, None, "sympweight must be positive"),
    (parse_input, "ring x y\nweights 1 1\nbracket\nx y 1\n", 4, None,
     "expected `var var : polynomial`"),
    (parse_input, "ring x y\nweights 1 1\nbracket\nx : 1\n", 4, None,
     "expected exactly two variables before ':'"),
    (parse_input, "ring x y\nweights 1 1\nform\nx w : 1\n", 4, None, "unknown variable 'w'"),
    (parse_input, "ring x y\nweights 1 1\nbracket\ny y : 1\n", 4, None,
     "bracket pair must use two distinct variables"),
]

# (argv, input document or None, message) of each CLI-level input error
CLI_ERRORS = [
    (["rank", "--weights", "1,,2"], None, "empty entry in weight list"),
    (["approximate", "--weights", "sqrt(2), 1"], None,
     "give --N or --n to fix the approximation threshold"),
    (["poisson-check", "--input"], "ring x y\nweights 1 1\n", "input document has no bracket block"),
    (["rotate", "--target", "1,2"], None, "--target needs exactly three components"),
    (["rank", "--weights", "sqrt(1000000000000000000117)"], None,
     "bad radical 'sqrt(1000000000000000000117)' in scalar 'sqrt(1000000000000000000117)'; "
     "radicand must be at most 10^21 for the squarefree check, got 1000000000000000000117"),
    (["cone", "--weights", "1+2*sqrt(2), 2-sqrt(3)", "--N", "2", "--resolution", "2"], None,
     "corner approximant has a nonpositive entry; raise the resolution"),
    (["cone", "--weights", "sqrt(2), 1", "--N", "3", "--resolution", "2"], None,
     "corner approximant misses the 1/3 bound; raise the resolution"),
]


class TestInputErrors:
    """The message, line and column of every input error, as printed."""

    @pytest.mark.parametrize("parse, text, line, column, message", PARSE_ERRORS)
    def test_parse_error(self, parse, text, line, column, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        where = "" if line is None else f" (line {line})" if column is None else f" (line {line}, column {column})"
        assert (str(info.value), info.value.line, info.value.column) == (message + where, line, column)

    @pytest.mark.parametrize("argv, document, message", CLI_ERRORS)
    def test_cli_error(self, argv, document, message, tmp_path):
        if document is not None:
            path = tmp_path / "input.txt"
            path.write_text(document)
            argv = argv + [str(path)]
        assert run_cli(*argv) == (2, "", f"error: {message}\n")


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

    def test_zero_denominator_is_positioned(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("field rational\nring x y\nweights 1 1\nideal\n3/0*x + y\n")
        code, out, err = run_cli("initial-ideal", "--input", str(path))
        assert (code, out, err) == (2, "", "error: zero denominator (line 5, column 1)\n")

    def test_negative_exponent_is_two(self):
        code, out, err = run_cli("decompose", "--weights", "1,1", "--tweight", "1",
                                 "--exponents=0,0,-2")
        assert (code, out, err) == (2, "", "error: exponents must be nonnegative, got [0, 0, -2]\n")

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

    @pytest.mark.parametrize("resolution", ["0", "1", "-3"])
    def test_resolution_below_two_is_two(self, resolution):
        code, out, err = run_cli("cone", "--weights", "s", "--field", "quad:2",
                                 "--resolution", resolution)
        assert (code, out, err) == (2, "", "error: resolution must be at least 2\n")

    @pytest.mark.parametrize("argv, message", [
        (("approximate", "--n", "0"), "--n must be at least 1, not 0"),
        (("approximate", "--N", "1"), "--N must be at least 2, not 1"),
        (("approximate", "--n", "-2", "--N", "9"), "--n must be at least 1, not -2"),
        (("cone", "--N", "0"), "--N must be at least 2, not 0"),
        (("cone", "--N", "-5", "--resolution", "40"), "--N must be at least 2, not -5"),
        (("cone", "--n", "0"), "--n must be at least 1, not 0"),
    ])
    @pytest.mark.parametrize("weights", ["sqrt(2), 1", "1, 2"])
    def test_threshold_option_below_its_bound_is_named(self, argv, message, weights):
        # checked before N, n or the resolution derive anything, rational weights included
        assert run_cli(*argv, "--weights", weights) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, stdout", [
        ("approximate", '{"approximant":{"D":1,"N":2,"errors_as_strings":["-1+sqrt(2)"],"nice":true,'
                        '"w_tilde":[6]},"schema":"conify/1"}\n'),
        ("cone", '{"certificate":[[0,"9 - 6*sqrt(2)"],[1,"-8 + 6*sqrt(2)"]],"contains_input":true,'
                 '"generators":[["19/3"],["13/2"]],"schema":"conify/1","simplicial":true}\n'),
    ])
    def test_default_threshold_is_at_least_two(self, command, stdout):
        # ceil(4n / min w) = 1 here: both subcommands run at N = 2
        assert run_cli(command, "--weights", "5+sqrt(2)", "--n", "1") == (0, stdout, "")

    def test_closed_stdout_exits_as_on_sigpipe(self, tmp_path):
        # a reader that stops after 20 bytes of a large output: no traceback, exit 128 + SIGPIPE
        path = tmp_path / "a1.txt"
        path.write_text(catalogue.A1_TEXT)
        argv = [sys.executable, "-m", "conify.cli", "hilbert", "--input", str(path), "--degree-cap", "100000"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(20) == b'{"dimensions":{"0":1'
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_invariants_cap_below_one_is_two(self, cap):
        code, out, err = run_cli("invariants", "--weights", "1,2", "--tweight", "3", "--cap", cap)
        assert (code, out, err) == (2, "", f"error: cap must be at least 1, not {cap}\n")

    @pytest.mark.parametrize("argv, message", [
        (("decompose", "--weights", "1,a", "--tweight", "1", "--exponents", "2,0,1"),
         "--weights entry 'a' is not an integer"),
        (("decompose", "--weights", "1,1", "--tweight", "1", "--exponents", "2, 1.5,1"),
         "--exponents entry '1.5' is not an integer"),
        (("invariants", "--weights", "2,,1", "--tweight", "1"),
         "--weights entry '' is not an integer"),
    ])
    def test_bad_integer_list_entry_is_named(self, argv, message):
        assert run_cli(*argv) == (2, "", f"error: {message}\n")

    def test_success_is_zero(self):
        code, out, _ = run_cli("rank", "--weights", "1, s, 1+s", "--field", "quad:2")
        assert code == 0
        assert json.loads(out) == {"schema": "conify/1", "rank": 2, "one_in_span": True}

    @pytest.mark.parametrize("target", ["nan,1,1", "inf,1,1", "1e200,0,1", "1e-200,0,0"])
    def test_unrepresentable_rotate_target_is_two(self, target):
        code, out, err = run_cli("rotate", "--target", target)
        assert (code, out) == (2, "")
        assert err.startswith("error: target (") and "over- or underflows" in err

    def test_subcommand_list_matches_the_parser(self):
        # the subcommands line must list what argparse accepts, in order
        SUBCOMMANDS = ("initial-ideal", "testconfig", "fiber", "flatness", "hilbert", "rank", "approximate",
                       "cone", "poisson-check", "decompose", "invariants", "rotate", "demo")
        code, _, err = run_cli("nosuch")
        assert code == 1
        usage, listing = err.splitlines()
        choices = re.search(r"invalid choice: .*\(choose from (.*)\)$", usage).group(1)
        assert tuple(name.strip("'") for name in choices.split(", ")) == SUBCOMMANDS
        assert listing == "subcommands: " + ", ".join(SUBCOMMANDS)


def _reuse_sequence(tmp_path):
    """(argv, exit code) pairs: a success for every subcommand, usage errors
    and domain errors, with repeated subcommands so that parser state left
    behind by one call would show in a later one."""
    a1d = tmp_path / "a1d.txt"
    a1d.write_text(A1_DEFORMED)
    a1 = tmp_path / "a1.txt"
    a1.write_text(catalogue.A1_TEXT)
    c2 = tmp_path / "c2.txt"
    c2.write_text(catalogue.C2_TEXT)
    return [
        (("rank", "--weights", "1, s, 1+s", "--field", "quad:2", "--pretty"), 0),
        (("rank", "--weights", "sqrt(2), 1"), 0),
        (("initial-ideal", "--input", str(a1d)), 0),
        (("testconfig", "--input", str(a1d), "--pretty"), 0),
        (("fiber", "--input", str(a1d), "--at", "1"), 0),
        (("fiber", "--input", str(a1d)), 0),
        (("flatness", "--input", str(a1d)), 0),
        (("hilbert", "--input", str(a1), "--degree-cap", "4"), 0),
        (("approximate", "--weights", "s, 2-s", "--field", "quad:2", "--N", "14"), 0),
        (("cone", "--weights", "s", "--field", "quad:2", "--resolution", "20"), 0),
        (("poisson-check", "--input", str(c2)), 0),
        (("decompose", "--weights", "1,1", "--tweight", "1", "--exponents", "2,0,1"), 0),
        (("invariants", "--weights", "1,1", "--tweight", "1", "--cap", "3"), 0),
        (("rotate", "--target", "0,1,0", "--pretty"), 0),
        (("rotate", "--target", "1,2,3"), 0),
        (("demo", "a1"), 0),
        (("demo", "c2", "--pretty"), 0),
        (("nosuch",), 1),
        (("initial-ideal",), 1),
        (("fiber", "--input", str(a1d), "--at", "2"), 1),
        (("demo", "nosuch"), 1),
        (("hilbert", "--input", str(a1), "--degree-cap", "x"), 1),
        ((), 1),
        (("rotate", "--target", "nan,1,1"), 2),
        (("invariants", "--weights", "1,1", "--tweight", "0"), 2),
        (("rank", "--weights", "1, 2", "--field", "quad:4"), 2),
        (("initial-ideal", "--input", str(tmp_path / "missing.txt")), 2),
        (("cone", "--weights", "s", "--field", "quad:2", "--resolution", "0"), 2),
        (("invariants", "--weights", "1,2", "--tweight", "3", "--cap", "0"), 2),
        (("decompose", "--weights", "1,a", "--tweight", "1", "--exponents", "2,0,1"), 2),
        (("fiber", "--input", str(a1d), "--N", "16"), 1),
        (("rank", "--weights", "2,2"), 0),
        (("demo", "a1"), 0),
    ]


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_answers_like_a_fresh_one(self, tmp_path):
        sequence = _reuse_sequence(tmp_path)
        build_parser.cache_clear()
        reused = [run_cli(*argv) for argv, _ in sequence]
        assert [code for code, _, _ in reused] == [code for _, code in sequence]
        for (argv, _), result in zip(sequence, reused):
            build_parser.cache_clear()
            assert run_cli(*argv) == result, argv


class TestHelp:
    def test_help_describes_conify_and_not_the_parser(self):
        # the pyproject description and the exit codes; none of the module
        # docstring's notes on how the parser is kept
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        text = " ".join(out.getvalue().split())
        with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as f:
            description = tomllib.load(f)["project"]["description"]
        assert f"{description}. Exit codes: 0 success, 1 usage error, 2 domain error." in text
        for note in ("first `main` call", "`subcommands`", "Command-line interface", "canonical JSON"):
            assert note in " ".join(cli.__doc__.split()) and note not in text


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

    def test_exponent_past_two_to_the_31(self, tmp_path):
        # 2^31 needs a 34-bit field in the packed Buchberger kernel
        path = tmp_path / "big.txt"
        path.write_text("ring x y\nweights 1 1\nideal\nx^2147483648 - y\n")
        code, out, err = run_cli("initial-ideal", "--input", str(path))
        assert code == 0, err
        assert json.loads(out) == {"schema": "conify/1", "central_fiber": ["y"]}
        code, out, err = run_cli("testconfig", "--input", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["family"] == ["x^2147483648*t^2147483647 - y"]
        assert payload["ring"] == ["x", "y", "t"] and payload["saturated"] is True

    def test_coinciding_approximants_need_no_second_one(self, tmp_path):
        text = "field quad 5\nring x y\nweights 1/2*s s\nideal\n3*y^4 - 3*y^3 - 2*x^3\n"
        # (sqrt5/2, sqrt5) has one Dirichlet approximant at N = 16, 32 and 64;
        # its central fiber is certified against in_xi(I), not against a
        # second approximant
        vector = ReebVector(parse_input(text).weight_data.weights)
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

    def test_rational_cone_is_the_ray_of_the_vector(self):
        # a rational vector skips the corner search: its cone is its own ray
        assert run_cli("cone", "--weights", "3/2, 5/2") == (0, (
            '{"certificate":[[0,"1"]],"contains_input":true,"generators":[["3/2","5/2"]],'
            '"schema":"conify/1","simplicial":true}\n'), "")

    def test_poisson_check(self, tmp_path):
        path = tmp_path / "c2.txt"
        path.write_text(catalogue.C2_TEXT)
        code, out, _ = run_cli("poisson-check", "--input", str(path))
        payload = json.loads(out)
        assert payload["jacobi_holds"] and payload["preserves_ideal"]
        assert payload["bracket_weight"] == "-2"
        assert payload["form_weight"] == "2"
        assert payload["scaleup"]["all_pass"] is True

    @pytest.mark.parametrize("document, stdout", [
        ("field rational\nring x y z\nweights 2 2 2\ntweight 1\nsympweight 2\nideal\nx*y - z^2\n"
         "bracket\nx y : 4*z\nx z : 2*x\ny z : -2*y\n",
         '{"bracket_weight":"-2","jacobi_holds":true,"preserves_ideal":true,"scaleup":{"all_pass":true,'
         '"base_weight_negative":true,"bracket_weight":"-2","bracket_weight_matches":true,'
         '"expected_bracket_weight":"-2","section_condition":true},"schema":"conify/1"}\n'),
        ("field quad 2\nring x y\nweights 1+s 1\ntweight 3/2\nsympweight 1\nbracket\nx y : 1\n",
         '{"bracket_weight":"-2-sqrt(2)","jacobi_holds":true,"preserves_ideal":true,"scaleup":{"all_pass":false,'
         '"base_weight_negative":true,"bracket_weight":"-2-sqrt(2)","bracket_weight_matches":false,'
         '"expected_bracket_weight":"-1","section_condition":true},"schema":"conify/1"}\n'),
    ], ids=["sl2-passes", "irrational-bracket-weight-misses"])
    def test_poisson_check_prints_check_scaleup(self, document, stdout, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text(document)
        assert run_cli("poisson-check", "--input", str(path)) == (0, stdout, "")
        doc = parse_input(document)
        assert check_scaleup(doc.poisson_table(), doc.weight_data) == json.loads(stdout)["scaleup"]

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
# one with quadratic-irrational weights (routed through the Groebner cone of
# the weights, which gives the family along (3, 2)).
GOLDEN_DOCUMENTS = {
    "r1": "field rational\nring x y\nweights 1 1\nideal\ny - x^2\ny^2\n",
    "r2": "field rational\nring x y z\nweights 1 2 3\nideal\nx*y - z + x^3*z\ny^2 - x*z - y^3\n",
    "q1": "field quad 2\nring x y\nweights s 1\nideal\ny^2 - x^3 - x*y^2\nx*y^2 - y^4\n",
    # rational weights rescaled by the lcm 6 of their denominators to (9, 2, 12)
    "r3": "field rational\nring x y z\nweights 3/2 1/3 2\nideal\nx*y - z^2 + y^6\nx^2 - z*y^3\n",
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
        '{"family":["y^4*t - x*y^2","x^3*y^2*t - x^4","x^3*t^5 + x*y^2*t^3 - y^2",'
        '"x^4*t^4 + x^2*y^2*t^2 - y^4","x^5*t^3 - y^6 + x^4","y^8 - x^6*t^2 - x^4*y^2"],'
        '"ring":["x","y","t"],"saturated":true,"schema":"conify/1","weights":["3","2"]}\n'
    ),
    "r3": (
        '{"family":["y^3*z - x^2","z^2*t^13 - y^6*t - x*y","x^2*z*t^13 - y^9*t - x*y^4",'
        '"x^4*t^13 - y^12*t - x*y^7"],"ring":["x","y","z","t"],"saturated":true,'
        '"schema":"conify/1","weights":["9","2","12"]}\n'
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
    "sqrt2_1+sqrt3_sqrt5_two_generators": ("ring x y z\nweights sqrt(2) 1+sqrt(3) sqrt(5)\nideal\n"
                                           "x*y - z^2 + x^3\ny^2 - x*z\n"),
}
MULTI_RADICAND_STDOUT = {
    "sqrt2_sqrt3": {
        "initial-ideal": '{"central_fiber":["x^2"],"schema":"conify/1"}\n',
        "testconfig": ('{"family":["x*y^2*t + y^3*t - x^2"],"ring":["x","y","t"],'
                       '"saturated":true,"schema":"conify/1","weights":["1","1"]}\n'),
        "fiber": '{"at":"0","fiber":["x^2"],"schema":"conify/1"}\n',
        "flatness": '{"flat":true,"schema":"conify/1"}\n',
    },
    "sqrt2_1+sqrt3_sqrt5": {
        "initial-ideal": '{"central_fiber":["x*y"],"schema":"conify/1"}\n',
        "testconfig": ('{"family":["x^3*t - z^2*t^2 + x*y"],"ring":["x","y","z","t"],'
                       '"saturated":true,"schema":"conify/1","weights":["1","1","2"]}\n'),
        "fiber": '{"at":"0","fiber":["x*y"],"schema":"conify/1"}\n',
        "flatness": '{"flat":true,"schema":"conify/1"}\n',
    },
    "sqrt2_1+sqrt3_sqrt5_two_generators": {
        "initial-ideal": '{"central_fiber":["x*z","x*y","z^3"],"schema":"conify/1"}\n',
        "testconfig": ('{"family":["x^3*t - z^2*t + x*y","y^2*t^4 - x*z","y^3*t^3 + x^3*z - z^3",'
                       '"x^6*z - x*y^4*t^2 - 2*x^3*z^3 + z^5"],"ring":["x","y","z","t"],'
                       '"saturated":true,"schema":"conify/1","weights":["4","7","6"]}\n'),
        "fiber": '{"at":"0","fiber":["x*z","x*y","z^3"],"schema":"conify/1"}\n',
        "flatness": '{"flat":true,"schema":"conify/1"}\n',
    },
}


class TestMultiRadicandDocuments:
    @pytest.mark.parametrize("name", sorted(MULTI_RADICAND_DOCUMENTS))
    def test_family_subcommands_stdout(self, name, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text(MULTI_RADICAND_DOCUMENTS[name])
        start = time.monotonic()
        for command, expected in MULTI_RADICAND_STDOUT[name].items():
            assert run_cli(command, "--input", str(path)) == (0, expected, ""), command
        assert time.monotonic() - start < 10.0


IRRATIONAL_FAMILY = ("field quad 3\nring x y z\nweights 3 1+3/5*s 1-1/4*s\nideal\n"
                     "-2*x^2*y^2 + 3*z^3\ny^4 + y*z^2 + 3*y^2\nx*y^3 - x^3\n")
DRAW_78 = ("ring x y z w\nweights 1 5 2 2\nideal\n"
           "x^2*w - 3*y^2*w + 3*z\n3*y^2*w - y^2 + 2*y*w\n2*x^3 + y*z^2 + 2*z^3\n")


class TestFibersFromTheFlats:
    """`fiber` on the documents of the CI's flatness steps, whose family bases
    take seconds; both fibers come from the flats."""

    def test_irrational_family(self, tmp_path):
        path = tmp_path / "irrational_family.txt"
        path.write_text(IRRATIONAL_FAMILY)
        start = time.monotonic()
        assert run_cli("fiber", "--input", str(path), "--at", "0") == (
            0, '{"at":"0","fiber":["z^3","y*z^2","y^2*z","y^3","x^3"],"schema":"conify/1"}\n', "")
        code, out, err = run_cli("fiber", "--input", str(path), "--at", "1")
        assert time.monotonic() - start < 5.0
        assert code == 0, err
        basis = reduced_basis(parse_input(IRRATIONAL_FAMILY).ideal)
        assert json.loads(out) == {"at": "1", "fiber": [str(g) for g in basis], "schema": "conify/1"}
        # the CI pins this stdout, trailing newline dropped, by its sha256
        assert hashlib.sha256(out.rstrip("\n").encode()).hexdigest() == (
            "013b489edac9e04f80ce79eb364e76bd81600290637203f11499088860b69775")

    def test_skipped_draw_78(self, tmp_path):
        path = tmp_path / "draw_78.txt"
        path.write_text(DRAW_78)
        start = time.monotonic()
        assert run_cli("fiber", "--input", str(path)) == (
            0, '{"at":"0","fiber":["z","y*w","x^3"],"schema":"conify/1"}\n', "")
        assert time.monotonic() - start < 5.0


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
