"""Built-in example catalogue with machine-checked stored facts.

Each entry is its text in the input format (so loading exercises the parser)
and the facts `conify demo <name>` prints, less name and ok: always the
rational rank and whether 1 lies in the span of the weights, and optionally the
bracket weight, the form weight, graded dimensions up to the largest weight
listed, and the central fiber with its flatness.  verify_entry re-derives each
stored fact and compares the two dicts once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneration import build_test_configuration, central_fiber, flatness_witness, hilbert_function
from .diophantine import ReebVector, one_in_span, rational_rank
from .errors import ConifyError
from .inputdoc import InputDocument, parse_input
from .poisson import bracket_weight, form_weight, jacobi_holds, preserves_ideal

A1_TEXT = """\
# quadric cone surface with its rank-one torus
field rational
ring x y z
weights 2 2 2
sympweight 2
ideal
x*y - z^2
bracket
x y : 4*z
x z : 2*x
y z : -2*y
"""

A2_TEXT = """\
# cusp-type surface singularity
field rational
ring x y z
weights 3 3 2
sympweight 2
ideal
x*y - z^3
bracket
x y : 9*z^2
x z : 3*x
y z : -3*y
"""

C2_TEXT = """\
# flat two-plane with the standard symplectic structure
field rational
ring u v
weights 1 1
tweight 1
sympweight 2
ideal
bracket
u v : 1
form
u v : 1
"""

A1_DEFORMED_TEXT = """\
# one-parameter deformation of the quadric cone, for degeneration demos
field rational
ring x y z
weights 2 2 2
ideal
x*y - z^2 - x^3
"""

OGRADY_WEIGHTS_TEXT = """\
# weight bookkeeping for a 10-fold moduli singularity: a 10-plane of
# weight-2 coordinates times a 4-plane of weight-1 coordinates
field rational
ring a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 b1 b2 b3 b4
weights 2 2 2 2 2 2 2 2 2 2 1 1 1 1
sympweight 2
ideal
form
b1 b2 : 1
b3 b4 : 1
"""


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    text: str
    facts: dict    # what `conify demo <name>` prints, less name and ok

    def document(self) -> InputDocument:
        return parse_input(self.text)


ENTRIES: dict[str, CatalogueEntry] = {entry.name: entry for entry in (
    CatalogueEntry("c2", C2_TEXT, {
        "rank": 1, "one_in_span": True, "bracket_weight": "-2", "form_weight": "2",
        "hilbert": {"0": 1, "1": 2, "2": 3, "3": 4}}),
    CatalogueEntry("a1", A1_TEXT, {
        "rank": 1, "one_in_span": True, "bracket_weight": "-2",
        "hilbert": {"0": 1, "2": 3, "4": 5, "6": 7, "8": 9}}),
    CatalogueEntry("a2", A2_TEXT, {"rank": 1, "one_in_span": True, "bracket_weight": "-2"}),
    # the central fiber is the a1 cone, as reduced_basis writes it
    CatalogueEntry("a1_deformed", A1_DEFORMED_TEXT, {
        "rank": 1, "one_in_span": True, "central_fiber": ["x*y - z^2"], "flat": True}),
    # coefficients of 1 / ((1 - t^2)^10 (1 - t)^4)
    CatalogueEntry("ogrady_weights", OGRADY_WEIGHTS_TEXT, {
        "rank": 1, "one_in_span": True, "form_weight": "2",
        "hilbert": {"0": 1, "1": 4, "2": 20, "3": 60, "4": 190, "5": 476, "6": 1204, "7": 2660,
                    "8": 5845}}),
)}


def names() -> list[str]:
    return sorted(ENTRIES)


def verify_entry(entry: CatalogueEntry) -> dict:
    """Re-derive the rank, the span fact and every other fact the entry stores;
    raises ConifyError unless the derived facts equal the stored ones."""
    doc = entry.document()
    wd = doc.weight_data
    vector = ReebVector(wd.weights)
    facts: dict = {"rank": rational_rank(vector), "one_in_span": one_in_span(vector)}
    if "bracket_weight" in entry.facts:
        table = doc.poisson_table()
        if table is None or not jacobi_holds(table) or not preserves_ideal(table, doc.ideal):
            raise ConifyError(f"{entry.name}: needs a bracket that satisfies the Jacobi identity"
                              " and preserves the ideal")
        facts["bracket_weight"] = str(bracket_weight(table, wd))
    if "form_weight" in entry.facts:
        facts["form_weight"] = None if doc.form is None else str(form_weight(doc.form, wd))
    if "hilbert" in entry.facts:
        values = hilbert_function(doc.ideal, wd, max(map(int, entry.facts["hilbert"])))
        facts["hilbert"] = {str(k): v for k, v in sorted(values.items())}
    if "central_fiber" in entry.facts:
        tc = build_test_configuration(doc.ideal, wd.integer_weights())
        facts["central_fiber"] = [str(g) for g in central_fiber(tc).generators]
        facts["flat"] = flatness_witness(tc)
    if facts != entry.facts:
        raise ConifyError(f"{entry.name}: derived facts {facts} differ from stored {entry.facts}")
    return {"name": entry.name, **facts}
