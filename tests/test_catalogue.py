"""verify_entry against wrong stored facts, and the a1 link of a1_deformed."""

from dataclasses import replace

import pytest

from conify.catalogue import A1_TEXT, ENTRIES, names, verify_entry
from conify.errors import ConifyError
from conify.groebner import reduced_basis


def wrong(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "/3"
    if isinstance(value, list):
        return value + ["x"]
    key = next(iter(value))
    return {**value, key: value[key] + 1}


FACTS = [(name, key) for name in names() for key in ENTRIES[name].facts]


def test_every_kind_of_fact_is_stored_somewhere():
    keys = {key for _, key in FACTS}
    assert keys == {"rank", "one_in_span", "bracket_weight", "form_weight", "hilbert",
                    "central_fiber", "flat"}


@pytest.mark.parametrize("name,key", FACTS)
def test_a_wrong_fact_is_rejected(name, key):
    entry = ENTRIES[name]
    tampered = replace(entry, facts={**entry.facts, key: wrong(entry.facts[key])})
    with pytest.raises(ConifyError, match=f"^{name}: derived facts .* differ from stored "):
        verify_entry(tampered)


@pytest.mark.parametrize("name", names())
def test_a_missing_always_derived_fact_is_rejected(name):
    entry = ENTRIES[name]
    for key in ("rank", "one_in_span"):
        facts = {k: v for k, v in entry.facts.items() if k != key}
        with pytest.raises(ConifyError, match="differ from stored"):
            verify_entry(replace(entry, facts=facts))


@pytest.mark.parametrize("name", [n for n in names() if "hilbert" in ENTRIES[n].facts])
def test_an_extra_hilbert_weight_is_rejected(name):
    entry = ENTRIES[name]
    hilbert = entry.facts["hilbert"]
    extra = {**hilbert, str(max(map(int, hilbert)) + 1): 0}
    with pytest.raises(ConifyError, match="differ from stored"):
        verify_entry(replace(entry, facts={**entry.facts, "hilbert": extra}))


def test_a_bracket_weight_needs_a_bracket():
    text = A1_TEXT[:A1_TEXT.index("bracket\n")]
    with pytest.raises(ConifyError, match="^a1: needs a bracket that satisfies the Jacobi identity"):
        verify_entry(replace(ENTRIES["a1"], text=text))


@pytest.mark.parametrize("line,bad", [
    ("y z : -2*y", "y z : -2*y + x"),    # Jacobi holds, the ideal is not preserved
    ("x y : 4*z", "x y : 4*z + x"),      # Jacobi fails
])
def test_a_bad_bracket_is_rejected(line, bad):
    text = A1_TEXT.replace(line, bad)
    with pytest.raises(ConifyError, match="^a1: needs a bracket"):
        verify_entry(replace(ENTRIES["a1"], text=text))


def test_verify_entry_returns_a_fresh_dict():
    for name in names():
        facts = verify_entry(ENTRIES[name])
        assert facts == {"name": name, **ENTRIES[name].facts}
        facts["ok"] = True
        assert "ok" not in ENTRIES[name].facts


def test_a1_deformed_degenerates_to_a1():
    a1 = [str(g) for g in reduced_basis(ENTRIES["a1"].document().ideal)]
    assert ENTRIES["a1_deformed"].facts["central_fiber"] == a1 == ["x*y - z^2"]
