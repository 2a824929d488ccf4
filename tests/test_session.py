"""Session documents: naming, referential integrity, lossless JSON."""

import hashlib
import json
import random
import re
import sys
import time
from fractions import Fraction
from math import log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlfield.algebra import monomial
from nlfield.coeffs import GaussRat, _gauss
from nlfield.errors import SessionError
from nlfield.galois import group_from_family
from nlfield.numberfield import (
    NumberField,
    cyclotomic_field,
    define_field,
    quadratic_field,
    rationals,
)
from nlfield.parser import MAX_POWER_BITS, parse_algebra
from nlfield.polys import Poly
from nlfield.session import (
    _MAX_EXPONENT,
    Session,
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    field_to_json,
    nums_over_lcm,
    rat_from_str,
    rat_to_str,
)


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


@pytest.mark.parametrize("text", ["1e10", "-2.5e-3", "3E+2", f"1e{_MAX_EXPONENT}",
                                  f"1e-{_MAX_EXPONENT}", "1e1_0"])
def test_exponent_notation_within_the_bound_reads_as_fraction(text):
    assert rat_from_str(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e999999999", f"1e{_MAX_EXPONENT + 1}", "-2.5E-1_000_000",
                                  "1e99999999999999999999", " 7e400000 "])
def test_exponent_notation_past_the_bound_is_refused_at_once(text):
    """Fraction would build 10^|e| in full: 10^999999999 takes hours and
    about 415 MB, so the refusal must come before it."""
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exponent above 131072 bits"):
        nums_over_lcm(["1/2", text])
    assert time.perf_counter() - t0 < 5
    assert (10 ** _MAX_EXPONENT).bit_length() <= MAX_POWER_BITS
    assert (10 ** (_MAX_EXPONENT + 1)).bit_length() > MAX_POWER_BITS


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



# -- the integer codec ------------------------------------------------


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # the decoder must fail as the reference fails
        return type(exc), str(exc)


def _bounded_fraction(s: str) -> Fraction:
    """Fraction(s), except that a string ending in an exponent e with
    10^|e| longer than MAX_POWER_BITS bits is refused with a ValueError."""
    m = re.search(r"[eE][-+]?(\d[\d_]*)\s*\Z", s)
    if m and int(m[1].replace("_", "")) * log2(10) > MAX_POWER_BITS:
        raise ValueError(f"exponent above {MAX_POWER_BITS} bits: {s!r}")
    return Fraction(s)


rat_texts = st.one_of(
    st.fractions().map(str),
    st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 6)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"),
    st.text(alphabet=" +-/_.e0123456789\u0663", max_size=8),
)


@given(st.sampled_from([rationals(), quadratic_field(2), cyclotomic_field(5)]),
       st.lists(rat_texts, max_size=5))
@settings(max_examples=400, deadline=None)
@example(quadratic_field(2), ["+3", "-1/6"])
@example(quadratic_field(2), [" 7 ", "-1/6"])
@example(quadratic_field(2), ["2/4", "-1/6"])
@example(quadratic_field(2), ["-0", "-1/6"])
@example(quadratic_field(2), ["1_000", "-1/6"])
@example(quadratic_field(2), ["0.5", "-1/6"])
@example(quadratic_field(2), ["1e3", "-1/6"])
@example(quadratic_field(2), ["3/-4", "-1/6"])
@example(quadratic_field(2), ["1/0", "-1/6"])
@example(quadratic_field(2), ["", "-1/6"])
@example(quadratic_field(2), ["\u0663", "-1/6"])  # ARABIC-INDIC DIGIT THREE
@example(quadratic_field(2), ["12"])
@example(quadratic_field(2), ["+3", "\u0663"])
@example(rationals(), [])
def test_integer_decoder_matches_field_element(K, strs):
    # the value, or the exception type and message, of the Fraction reading
    # (of the bounded one, for exponents: see _bounded_fraction)
    want = _outcome(lambda: K.element([_bounded_fraction(s) for s in strs]))
    assert _outcome(lambda: K.element([rat_from_str(s) for s in strs])) == want
    assert _outcome(lambda: K.from_integers(*nums_over_lcm(strs))) == want
    if len(strs) == 2:  # an exact coefficient re + im i
        def coefficient():
            (x, y), den = nums_over_lcm(strs)
            return _gauss(x, y, den)

        assert _outcome(coefficient) == _outcome(lambda: GaussRat(*map(Fraction, strs)))


def _odd_form(rng, q: Fraction) -> str:
    """q written as a person might edit it: canonical, unreduced, signed,
    padded, with digit separators or in decimal or exponent notation."""
    n, d = q.numerator, q.denominator
    forms = [str(q), f"{3 * n}/{3 * d}", f" {q}\t", f"{1000 * n:_}/{1000 * d:_}"]
    if n >= 0:
        forms.append(f"+{q}")
    if d == 1:
        forms += [f"{n}e0", f"{10 * n}e-1", f"{n}.0" if n else "-0"]
    if d in (2, 4, 5, 8):
        forms.append(repr(n / d))
    return rng.choice(forms)


# (minimal polynomial, signature)
CORPUS_FIELDS = [(["-2", "0", "1"], [2, 0]), (["1", "0", "1"], [0, 1]),
                 (["-1/3", "0", "1"], [2, 0]), (["3", "1", "1"], [0, 1]), (["0", "1"], [1, 0]),
                 (["-5/2", "1"], [1, 0]), (["1", "-1", "0", "1"], [1, 1]),
                 (["1", "1", "1", "1", "1"], [0, 2]), (["1/5", "-1/3", "0", "1"], [1, 1])]


def _corpus_texts():
    """Seeded session files: canonical and hand-edited entries over fields of
    degree 1 to 4 with integer and rational minimal polynomials, exact and
    approx algebra entries, Galois groups, and both JSON layouts."""
    rng = random.Random(22)

    def rat(edit):
        q = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 1, 2, 3, 4, 5, 6, 8, 12]))
        return _odd_form(rng, q) if edit and rng.random() < 0.5 else str(q)

    for _ in range(40):
        edit = rng.random() < 0.6
        names = rng.sample(range(len(CORPUS_FIELDS)), rng.randint(1, 4))
        doc = {"fields": {}, "elements": {}, "algebra": {}, "groups": {}}
        for i in names:
            mp, signature = CORPUS_FIELDS[i]
            field = {"minpoly": [_odd_form(rng, Fraction(c)) if edit else c for c in mp]}
            if not edit or rng.random() < 0.7:
                field["signature"] = signature
            doc["fields"][f"K{i}"] = field
        for j in range(rng.randint(0, 4)):
            i = rng.choice(names)
            d = len(CORPUS_FIELDS[i][0]) - 1
            doc["elements"][f"e{j}"] = {"field": f"K{i}", "coords": [rat(edit) for _ in range(d)]}
        for j in range(rng.randint(0, 4)):
            i = rng.choice(names)
            d = len(CORPUS_FIELDS[i][0]) - 1
            mode = rng.choice(["exact", "exact", "approx"])
            terms = []
            for _ in range(rng.randint(0, 12)):
                if mode == "exact":
                    re, im = rat(edit), rat(edit) if rng.random() < 0.4 else "0"
                else:
                    re, im = (repr(rng.uniform(-5, 5)) if rng.random() < 0.8 else
                              rng.choice(["1e3", "0.1", "-0.0", "2"]) for _ in range(2))
                terms.append({"index": [rat(edit) for _ in range(d)], "re": re, "im": im})
            doc["algebra"][f"f{j}"] = {"field": f"K{i}", "mode": mode, "terms": terms}
        for i in names:
            if CORPUS_FIELDS[i][0][1:] == ["0", "1"]:  # x^2 + c
                images = [["0", "1"], ["0", "-1"]]
                if edit:
                    images = [[_odd_form(rng, Fraction(c)) for c in im] for im in images]
                doc["groups"][f"G{i}"] = {"field": f"K{i}", "images": images}
        indent = 2 if rng.random() < 0.3 else None
        yield json.dumps(doc, indent=indent, sort_keys=rng.random() < 0.5)


def test_session_corpus_hash():
    # the hash of the canonical rewrites was taken with the Fraction codec
    # that the integer codec replaced, and a byte-identical dumps keeps it
    h = hashlib.sha256()
    for text in _corpus_texts():
        out = Session.loads(text).dumps()
        assert Session.loads(out).dumps() == out
        h.update(out.encode())
    assert h.hexdigest() == "a2f7ac9fc12ce594af810475e6f046a5bdbea5559e1836a46000668d1aa96f59"


def test_codec_builds_no_fraction(monkeypatch):
    # "p" and "p/q" entries, of any length, go between text and FieldElement
    # or GaussRat as integers alone
    K = define_field(Poly([Fraction(-1, 3), 0, 1]))
    big = "-" + "7" * 5000
    e_doc = {"field": "K", "coords": ["2/4", big + "/3"]}
    f_doc = {"field": "K", "mode": "exact", "terms": [
        {"index": ["1/6", "-5"], "re": "7/3", "im": "-1/2"},
        {"index": ["0", "1/9"], "re": big, "im": "0"},
        {"index": ["12", "0"], "re": "1", "im": big + "/3"}]}
    e, f = element_from_json(e_doc, K), algebra_from_json(f_doc, K)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert element_from_json(e_doc, K) == e and algebra_from_json(f_doc, K) == f
    e_out, f_out = element_to_json(e, "K"), algebra_to_json(f, "K")
    assert built == []
    Fraction(1, 2)
    assert built == [(1, 2)]  # the wrapper counts
    monkeypatch.undo()
    assert e_out == {"field": "K", "coords": ["1/2", big + "/3"]}
    assert [t["index"] for t in f_out["terms"]] == [["0", "1/9"], ["1/6", "-5"], ["12", "0"]]
    assert f_out["terms"][1]["re"] == "7/3" and f_out["terms"][2]["im"] == big + "/3"


def _digits(k: int, seed: int) -> int:
    """A k-digit integer, its digits drawn from a seeded generator."""
    rng = random.Random(seed)
    return rng.randint(1, 9) * 10 ** (k - 1) + rng.randrange(10 ** (k - 1))


@given(st.integers(1, 9000), st.integers(0, 9000), st.integers(0, 99), st.booleans())
@settings(max_examples=60, deadline=None)
@example(4299, 0, 1, False)
@example(4300, 4299, 2, False)
@example(4301, 4301, 3, True)
@example(140000, 0, 4, True)
def test_rat_str_round_trip_at_any_length(k, j, seed, negative):
    # q = +-(k digits) / (j digits), an integer where j = 0
    q = Fraction(_digits(k, seed), _digits(j, seed + 1) if j else 1) * (-1 if negative else 1)
    text = rat_to_str(q)
    assert rat_from_str(text) == q
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # str(Fraction) is the reference
    try:
        want = str(q)
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == want


@pytest.mark.parametrize("entry", [
    {"elements": {"e": {"field": "K", "coords": [1, 2]}}},
    {"elements": {"e": {"field": "K", "coords": ["1", True]}}},
    {"algebra": {"f": {"field": "K", "mode": "exact",
                       "terms": [{"index": ["0", 1.5], "re": "1", "im": "0"}]}}},
    {"algebra": {"f": {"field": "K", "mode": "exact",
                       "terms": [{"index": ["0", "1"], "re": 2, "im": "0"}]}}},
])
def test_numbers_in_place_of_rational_strings_rejected(entry):
    # JSON numbers are not read as coordinates, though int() would take them
    doc = {"fields": {"K": {"minpoly": ["-2", "0", "1"]}}, **entry}
    with pytest.raises(SessionError, match="malformed session file: expected string"):
        Session.loads(json.dumps(doc))
