"""Session documents: naming, referential integrity, lossless JSON."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfield.algebra import monomial
from nlfield.coeffs import GaussRat
from nlfield.errors import SessionError
from nlfield.galois import group_from_family
from nlfield.numberfield import (
    NumberField,
    cyclotomic_field,
    define_field,
    quadratic_field,
    rationals,
)
from nlfield.parser import parse_algebra
from nlfield.polys import Poly
from nlfield.session import Session, field_to_json, rat_from_str, rat_to_str


def make_session():
    s = Session()
    s.add_field("K", quadratic_field(2))
    s.add_field("Q", rationals())
    s.add_field("Ki", cyclotomic_field(4))
    s.add_element("u", s.get_field("K").element([1, 1]))
    s.add_algebra("f", parse_algebra("2*z^{0}+z^{3}", s.get_field("Q")))
    s.add_algebra("g", parse_algebra("(1+1i)*z^{a}", s.get_field("Ki")))
    s.add_group("G", group_from_family(s.get_field("K"), "quadratic"))
    return s


def test_round_trip_is_bit_exact():
    s = make_session()
    text = s.dumps()
    text2 = Session.loads(text).dumps()
    assert text == text2


def test_round_trip_preserves_objects():
    s = make_session()
    s2 = Session.loads(s.dumps())
    assert s2.get_field("K") == s.get_field("K")
    assert s2.elements["u"][1] == s.elements["u"][1]
    assert s2.algebra["f"][1] == s.algebra["f"][1]
    assert s2.algebra["g"][1] == s.algebra["g"][1]
    assert s2.groups["G"][1].order == 2


def test_save_load_file(tmp_path):
    p = tmp_path / "sess.json"
    s = make_session()
    s.save(p)
    assert Session.load(p).dumps() == s.dumps()


def test_indented_session_loads_and_saves_compact(tmp_path):
    # the indented form that earlier versions wrote
    s = make_session()
    old = json.dumps(s.to_json(), sort_keys=True, indent=2) + "\n"
    p = tmp_path / "old.json"
    p.write_text(old)
    text = Session.load(p).dumps()
    assert text != old and "\n" not in text[:-1] and ", " not in text
    assert json.loads(text) == json.loads(old)
    assert text == s.dumps() == Session.loads(text).dumps()


def test_duplicate_names_rejected():
    s = make_session()
    with pytest.raises(SessionError):
        s.add_field("K", rationals())
    with pytest.raises(SessionError):
        s.add_element("u", s.get_field("K").element([0, 2]))


def test_unregistered_field_rejected():
    s = Session()
    with pytest.raises(SessionError):
        s.add_element("x", quadratic_field(3).gen)


def test_remove_field_with_dependents_refused():
    s = make_session()
    with pytest.raises(SessionError):
        s.remove_field("K")  # element "u" and group "G" point at it
    with pytest.raises(SessionError):
        s.remove_field("Ki")  # algebra "g" still points at it


def test_broken_reference_on_load():
    doc = {
        "fields": {},
        "elements": {"x": {"field": "missing", "coords": ["1"]}},
    }
    with pytest.raises(SessionError):
        Session.from_json(doc)


def test_inconsistent_signature_rejected():
    doc = {
        "fields": {"K": {"minpoly": ["-2", "0", "1"], "signature": [0, 1]}},
    }
    with pytest.raises(SessionError):
        Session.from_json(doc)


def test_load_save_and_list_isolate_no_roots():
    # loading builds every field afresh, so none has places yet
    s = Session.loads(make_session().dumps())
    s.add_field("L", define_field(Poly([1, -3, 0, 1])))
    assert s.to_json()["fields"]["L"]["signature"] == [3, 0]
    s2 = Session.loads(s.dumps())
    for sess in (s, s2):
        for name, field in sess.fields.items():
            field_to_json(field)
            assert field._places is None, name


def test_malformed_text_rejected():
    with pytest.raises(SessionError):
        Session.loads("{not json")
    with pytest.raises(SessionError):
        Session.loads(json.dumps([1, 2, 3]))


def test_deeply_nested_text_rejected():
    # json.loads recurses once per level of nesting
    with pytest.raises(SessionError, match="malformed session file"):
        Session.loads("[" * 2000 + "]" * 2000)


@pytest.mark.parametrize("doc", [
    {"fields": {"K": {}}},
    {"fields": {"K": 5}},
    {"fields": {"K": {"minpoly": ["-2", "0", "1"]}}, "elements": {"e": {"field": "K"}}},
])
def test_missing_or_mistyped_entries_rejected(doc):
    with pytest.raises(SessionError, match="malformed session file"):
        Session.loads(json.dumps(doc))


def test_terms_serialized_sorted_by_index():
    s = Session()
    Q = rationals()
    s.add_field("Q", Q)
    f = monomial(Q.from_rational(5)) + monomial(Q.from_rational(2)).scale(
        GaussRat(Fraction(1, 3))
    )
    s.add_algebra("f", f)
    doc = s.to_json()
    idx = [t["index"] for t in doc["algebra"]["f"]["terms"]]
    assert idx == [["2"], ["5"]]


@pytest.mark.parametrize("text", [
    "3", " 3 ", "-7", "+4", "4/2", "-6/4", " 1/3", "0.5", "-1.25", "1e3", "2.5E-2",
    "1_000", ".5",
])
def test_rat_from_str_reads_what_fraction_reads(text):
    q = rat_from_str(text)
    assert q == Fraction(text)
    assert type(q) is (int if q.denominator == 1 else Fraction)


def test_rat_from_str_past_the_str_digit_limit():
    # 5000 and 4400 digits, past the 4300 that int(str) allows
    assert rat_from_str("1" * 5000) == (10 ** 5000 - 1) // 9
    q = rat_from_str("-" + "6" * 4400 + "/" + "3" * 4400)
    assert q == -2 and type(q) is int
    q = rat_from_str("1" * 4400 + "/" + "3" * 4399)
    assert q == Fraction(10 ** 4400 - 1, 3 * (10 ** 4399 - 1))


@pytest.mark.parametrize("text", ["", "1/", "/2", "1/-2", "1 / 2", "a", "1/2/3", "--1"])
def test_rat_from_str_refuses_what_fraction_refuses(text):
    with pytest.raises(ValueError):
        Fraction(text)
    with pytest.raises(ValueError):
        rat_from_str(text)


@given(st.fractions(), st.sampled_from(["", " ", "\t"]))
@settings(max_examples=200, deadline=None)
def test_rat_from_str_inverts_str(q, pad):
    assert rat_from_str(pad + str(q) + pad) == q


@pytest.mark.parametrize("q", [0, -7, 10 ** 30, Fraction(-6, 4), Fraction(1, 3), "2/4", 0.5])
def test_rat_to_str_writes_lowest_terms(q):
    assert rat_to_str(q) == str(Fraction(q))


def test_rat_to_str_past_the_str_digit_limit():
    # 5000 and 4401 digits, past the 4300 that str(int) allows
    assert rat_to_str(10 ** 5000) == "1" + "0" * 5000
    assert rat_to_str(Fraction(10 ** 4400 + 1, 3)) == "1" + "0" * 4399 + "1/3"
    assert rat_from_str(rat_to_str(-(10 ** 5000))) == -(10 ** 5000)


def test_load_compares_no_two_fields(monkeypatch):
    # each entry is decoded over the registered field its name gives, and
    # that very object is found again without comparing fields by value; the
    # field checks of AlgebraElement and Automorphism compare a field with itself
    s = Session()
    for i, n in enumerate([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]):
        K = quadratic_field(n)
        s.add_field(f"K{i}", K)
        s.add_element(f"e{i}", K.element([i, 1]))
        s.add_algebra(f"f{i}", parse_algebra(f"2*z^{{a}}+z^{{{i}}}-1/3*z^{{0}}", K))
        s.add_group(f"G{i}", group_from_family(K, "quadratic"))
    text = s.dumps()
    eq, calls = NumberField.__eq__, []

    def counting_eq(a, b):
        if a is not b:
            calls.append((a, b))
        return eq(a, b)

    monkeypatch.setattr(NumberField, "__eq__", counting_eq)
    assert Session.loads(text).dumps() == text
    assert calls == []


def test_load_files_entries_under_the_field_they_name():
    # A and B are one field under two names: what the file gives to B stays B's
    x2m2 = {"minpoly": ["-2", "0", "1"], "signature": [2, 0]}
    doc = {
        "fields": {"A": x2m2, "B": x2m2},
        "elements": {"e": {"field": "B", "coords": ["0", "1"]}},
        "algebra": {"f": {"field": "B", "mode": "exact",
                          "terms": [{"index": ["0", "1"], "re": "1", "im": "0"}]}},
        "groups": {"G": {"field": "B", "images": [["0", "1"], ["0", "-1"]]}},
    }
    s = Session.from_json(doc)
    assert [s.elements["e"][0], s.algebra["f"][0], s.groups["G"][0]] == ["B"] * 3
    with pytest.raises(SessionError, match="still referenced"):
        s.remove_field("B")
    s.remove_field("A")
    assert s.to_json() == {**doc, "fields": {"B": x2m2}}
