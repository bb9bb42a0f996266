"""Command-line interface: subcommand dispatch and canonical JSON output.

Every successful run prints one JSON object with a top-level
`"schema": "conify/1"` key, keys sorted, exact scalars rendered as strings.
Exit codes: 0 success, 1 usage error, 2 domain error. The parser holds the one
list of subcommands (`subcommands`); it is built on the first `main` call and reused.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalogue
from .degeneration import (
    build_test_configuration,
    central_fiber,
    flatness_witness,
    general_fiber,
    hilbert_function,
    stable_initial_ideal,
    weighted_initial_ideal,
)
from .diophantine import (
    ReebVector,
    affine_hull,
    approximant_cone,
    cone_contains,
    default_corner_resolution,
    default_N,
    kronecker_corner_search,
    nice_approximant,
    one_in_span,
    rational_rank,
)
from .errors import ConifyError
from .exactnum import check_radicand, parse_scalars
from .inputdoc import InputDocument, parse_input
from .numerics import rotation_from_target
from .poisson import (
    bracket_weight,
    check_scaleup,
    decompose_semiinvariant,
    form_weight,
    invariant_generators,
    jacobi_holds,
    preserves_ideal,
)
from .polyring import WeightData, _grades

SCHEMA = "conify/1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="conify", description="Exact weighted degenerations, Diophantine approximants, and graded "
                     "Poisson checks for affine singularities. Exit codes: 0 success, 1 usage error, 2 domain error.")
    sub = parser.add_subparsers(dest="command")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--pretty", action="store_true", help="indented JSON")
        return p

    for name in ("initial-ideal", "testconfig", "fiber", "flatness"):
        p = add(name)
        p.add_argument("--input", required=True, help="input document file")
        if name == "fiber":
            p.add_argument("--at", choices=("0", "1"), default="0")

    p = add("hilbert")
    p.add_argument("--input", required=True)
    p.add_argument("--degree-cap", type=int, default=8)

    p = add("rank")
    p.add_argument("--weights", required=True, help="comma-separated scalar list")
    p.add_argument("--field", default="rational", help="rational | quad:D")

    p = add("approximate")
    p.add_argument("--weights", required=True)
    p.add_argument("--field", default="rational")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="ambient complex dimension")
    p.add_argument("--cap", type=int, default=10**6)

    p = add("cone")
    p.add_argument("--weights", required=True)
    p.add_argument("--field", default="rational")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--resolution", type=int, default=None, help="corner cube side is 1/resolution")
    p.add_argument("--cap", type=int, default=10**6)

    p = add("poisson-check")
    p.add_argument("--input", required=True)

    p = add("decompose")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--tweight", type=int, required=True)
    p.add_argument("--exponents", required=True,
                   help="comma-separated exponents, t exponent last")

    p = add("invariants")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--tweight", type=int, required=True)
    p.add_argument("--cap", type=int, default=6)

    p = add("rotate")
    p.add_argument("--target", required=True, help="comma-separated d,e,f")

    p = add("demo")
    p.add_argument("name", choices=catalogue.names())

    parser.subcommands = tuple(sub.choices)
    return parser


# -- shared helpers ----------------------------------------------------------------

def _parse_field(text: str) -> int:
    if text == "rational":
        return 0
    if text.startswith("quad:"):
        try:
            return check_radicand(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ConifyError(f"bad field {text!r} (use rational or quad:D)")


def _vector(args) -> ReebVector:
    """The weight vector of --weights over --field, with --n when the subcommand has it."""
    entries = [part.strip() for part in args.weights.split(",")]
    if not all(entries):
        raise ConifyError("empty entry in weight list")
    return ReebVector(parse_scalars(entries, _parse_field(args.field)), n=getattr(args, "n", None))


def _integers(args, name: str) -> tuple[int, ...]:
    """The comma-separated integers of option --name; a bad entry is named."""
    values = []
    for entry in getattr(args, name).split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise ConifyError(f"--{name} entry {entry.strip()!r} is not an integer") from None
    return tuple(values)


def _read_document(path: str) -> InputDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_input(handle.read())
    except OSError as exc:
        raise ConifyError(f"cannot read {path}: {exc.strerror}")


def _family_payload(doc: InputDocument):
    """The degeneration family; irrational weights take the certified
    weight vector of `stable_initial_ideal`."""
    ideal, (g, s) = doc.ideal(), _grades(doc.weights)
    return stable_initial_ideal(ideal, g) if s is None else build_test_configuration(ideal, g)


# -- dispatch ---------------------------------------------------------------------

def run(args) -> dict:
    command = args.command
    for option, low in (("n", 1), ("N", 2)):    # before anything is derived from them
        value = getattr(args, option, None)
        if value is not None and value < low:
            raise ConifyError(f"--{option} must be at least {low}, not {value}")
    doc = _read_document(args.input) if hasattr(args, "input") else None
    vector = _vector(args) if hasattr(args, "field") else None

    if command == "initial-ideal":
        fiber = weighted_initial_ideal(doc.ideal(), doc.weight_data())
        return {"central_fiber": [str(g) for g in fiber.generators]}

    if command in ("testconfig", "fiber", "flatness"):
        tc = _family_payload(doc)
        if command == "testconfig":
            return {
                "family": [str(g) for g in tc.family],
                "ring": list(tc.ring),
                "weights": [str(w) for w in tc.w],
                "saturated": True,
            }
        if command == "fiber":
            ideal = central_fiber(tc) if args.at == "0" else general_fiber(tc)
            return {"at": args.at, "fiber": [str(g) for g in ideal.generators]}
        return {"flat": flatness_witness(tc)}

    if command == "hilbert":
        wd = doc.weight_data()
        values = hilbert_function(doc.ideal(), wd, args.degree_cap)
        return {"dimensions": {str(k): v for k, v in values.items()}}

    if command == "rank":
        return {
            "rank": rational_rank(vector),
            "one_in_span": one_in_span(vector),
        }

    if command == "approximate":
        if args.N is None and args.n is None:
            raise ConifyError("give --N or --n to fix the approximation threshold")
        report = nice_approximant(vector, N=args.N, cap=args.cap)
        return {"approximant": report.to_json_dict()}

    if command == "cone":
        if vector.is_rational():
            cone = approximant_cone(vector)
        else:
            hull = affine_hull(vector)
            N = args.N
            if N is None:
                N = default_N(vector) if args.n is not None else 16
            resolution = default_corner_resolution(hull, N) if args.resolution is None else args.resolution
            corners = kronecker_corner_search(vector, resolution, args.cap, hull)
            cone = approximant_cone(vector, corners, N)
        inside, certificate = cone_contains(cone, vector)
        payload = cone.to_json_dict()
        payload["contains_input"] = inside
        payload["certificate"] = [[idx, text] for idx, text in certificate] if certificate else None
        return payload

    if command == "poisson-check":
        wd = doc.weight_data()
        table = doc.poisson_table()
        if table is None:
            raise ConifyError("input document has no bracket block")
        payload: dict = {
            "jacobi_holds": jacobi_holds(table),
            "preserves_ideal": preserves_ideal(table, doc.ideal()),
        }
        weight = bracket_weight(table, wd)
        payload["bracket_weight"] = None if weight is None else str(weight)
        form = doc.form_table()
        if form is not None:
            fw = form_weight(form, wd)
            payload["form_weight"] = None if fw is None else str(fw)
        if wd.t_weight is not None:
            payload["scaleup"] = check_scaleup(table, wd)
        return payload

    if command in ("decompose", "invariants"):
        wd = WeightData(_integers(args, "weights"), t_weight=args.tweight)
        if command == "invariants":
            return {"generators": [list(g) for g in invariant_generators(wd, args.cap)]}
        prefix, factors, bounds = decompose_semiinvariant(_integers(args, "exponents"), wd)
        return {
            "prefix": list(prefix),
            "factors": [list(f) for f in factors],
            "bounds": {"C": list(bounds.C), "D": bounds.D, "m": bounds.m, "w": bounds.w},
        }

    if command == "rotate":
        parts = [float(x) for x in args.target.split(",")]
        if len(parts) != 3:
            raise ConifyError("--target needs exactly three components")
        sol = rotation_from_target(*parts)
        return {
            "c": sol.c,
            "axis": list(sol.axis),
            "theta": sol.theta,
            "rotation": [list(row) for row in sol.rotation],
        }

    if command == "demo":
        facts = catalogue.verify_entry(catalogue.ENTRIES[args.name])
        facts["ok"] = True
        return facts

    raise ConifyError(f"unknown subcommand {command!r}")


def render(payload: dict, pretty: bool) -> str:
    import json

    payload = {"schema": SCHEMA, **payload}
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        args = None
    if args is None or args.command is None:
        print(f"subcommands: {', '.join(parser.subcommands)}", file=sys.stderr)
        return 1
    try:
        payload = run(args)
    except (ConifyError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(payload, getattr(args, "pretty", False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
