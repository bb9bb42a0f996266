"""Built-in example catalogue with machine-checked expected facts.

Each entry is stored in the text input format (so loading exercises the
parser) together with the facts the library must reproduce: bracket weight,
form weight, rational rank, whether 1 lies in the span of the weights, and
low-degree graded dimensions.  verify_entry re-derives everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degeneration import build_test_configuration, central_fiber, flatness_witness, hilbert_function
from .diophantine import ReebVector, one_in_span, rational_rank
from .errors import ConifyError
from .exactnum import ExactScalar
from .groebner import ideals_equal
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
    bracket_weight: Fraction | None
    form_weight: Fraction | None
    rank: int
    one_in_span: bool
    hilbert: dict[int, int] | None = None    # weight -> dimension, checked up to max key
    degenerates_to: str | None = None        # catalogue name of the central fiber

    def document(self) -> InputDocument:
        return parse_input(self.text)


ENTRIES: dict[str, CatalogueEntry] = {
    "c2": CatalogueEntry(
        name="c2", text=C2_TEXT,
        bracket_weight=Fraction(-2), form_weight=Fraction(2),
        rank=1, one_in_span=True,
        hilbert={0: 1, 1: 2, 2: 3, 3: 4},
    ),
    "a1": CatalogueEntry(
        name="a1", text=A1_TEXT,
        bracket_weight=Fraction(-2), form_weight=None,
        rank=1, one_in_span=True,
        hilbert={0: 1, 2: 3, 4: 5, 6: 7, 8: 9},
    ),
    "a2": CatalogueEntry(
        name="a2", text=A2_TEXT,
        bracket_weight=Fraction(-2), form_weight=None,
        rank=1, one_in_span=True,
    ),
    "a1_deformed": CatalogueEntry(
        name="a1_deformed", text=A1_DEFORMED_TEXT,
        bracket_weight=None, form_weight=None,
        rank=1, one_in_span=True,
        degenerates_to="a1",
    ),
    "ogrady_weights": CatalogueEntry(
        name="ogrady_weights", text=OGRADY_WEIGHTS_TEXT,
        bracket_weight=None, form_weight=Fraction(2),
        rank=1, one_in_span=True,
        # coefficients of 1 / ((1 - t^2)^10 (1 - t)^4)
        hilbert={0: 1, 1: 4, 2: 20, 3: 60, 4: 190, 5: 476, 6: 1204, 7: 2660, 8: 5845},
    ),
}


def names() -> list[str]:
    return sorted(ENTRIES)


def verify_entry(entry: CatalogueEntry) -> dict:
    """Re-derive every expected fact; raises ConifyError on any mismatch."""
    doc = entry.document()
    wd = doc.weight_data()
    facts: dict = {"name": entry.name}

    vector = ReebVector(doc.weights)
    facts["rank"] = rational_rank(vector)
    if facts["rank"] != entry.rank:
        raise ConifyError(f"{entry.name}: rank {facts['rank']} != expected {entry.rank}")
    facts["one_in_span"] = one_in_span(vector)
    if facts["one_in_span"] != entry.one_in_span:
        raise ConifyError(f"{entry.name}: span fact mismatch")

    table = doc.poisson_table()
    if entry.bracket_weight is not None:
        if table is None:
            raise ConifyError(f"{entry.name}: expected a bracket table")
        if not jacobi_holds(table):
            raise ConifyError(f"{entry.name}: Jacobi identity fails")
        if not preserves_ideal(table, doc.ideal()):
            raise ConifyError(f"{entry.name}: bracket does not preserve the ideal")
        weight = bracket_weight(table, wd)
        if weight is None or weight != ExactScalar.of(entry.bracket_weight):
            raise ConifyError(f"{entry.name}: bracket weight {weight} != {entry.bracket_weight}")
        facts["bracket_weight"] = str(weight)

    if entry.form_weight is not None:
        form = doc.form_table()
        if form is None:
            raise ConifyError(f"{entry.name}: expected a form table")
        weight = form_weight(form, wd)
        if weight is None or weight != ExactScalar.of(entry.form_weight):
            raise ConifyError(f"{entry.name}: form weight {weight} != {entry.form_weight}")
        facts["form_weight"] = str(weight)

    if entry.hilbert:
        cap = max(entry.hilbert)
        values = hilbert_function(doc.ideal(), wd, cap)
        for key, expected in entry.hilbert.items():
            if values.get(key, 0) != expected:
                raise ConifyError(
                    f"{entry.name}: graded dimension at {key} is {values.get(key, 0)},"
                    f" expected {expected}")
        facts["hilbert"] = {str(k): v for k, v in sorted(values.items())}

    if entry.degenerates_to is not None:
        target = ENTRIES[entry.degenerates_to].document()
        tc = build_test_configuration(doc.ideal(), wd.integer_weights())
        fiber = central_fiber(tc)
        if not ideals_equal(fiber, target.ideal()):
            raise ConifyError(f"{entry.name}: central fiber differs from {entry.degenerates_to}")
        flatness_witness(tc)
        facts["central_fiber"] = [str(g) for g in fiber.generators]
        facts["flat"] = True

    return facts
