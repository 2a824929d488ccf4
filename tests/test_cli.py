"""Command-line surface: exit codes, JSON output, CSV plumbing."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfield.cli import _read_series, main
from nlfield.session import Session, _int, _str, rat_to_str


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_field_new_and_list_with_session(tmp_path, capsys):
    sess = str(tmp_path / "s.json")
    code, doc, _ = run(capsys, "--session", sess, "field", "new",
                       "--name", "K", "--quadratic", "2")
    assert code == 0
    assert doc["field"]["signature"] == [2, 0]
    code, doc, _ = run(capsys, "--session", sess, "field", "list")
    assert code == 0
    assert list(doc["fields"]) == ["K"]


def test_elem_eval_fixture(capsys):
    code, doc, _ = run(capsys, "elem", "eval", "(1+a)^2", "--quadratic", "2")
    assert code == 0
    assert doc["element"]["coords"] == ["3", "2"]


def test_elem_sign(capsys):
    code, doc, _ = run(capsys, "elem", "sign", "a", "--cyclotomic", "4")
    assert code == 0
    assert doc["sign"] == ["sqrt-"]


def test_sign_over_a_cubic_with_close_roots(capsys):
    """x^3 - 2(10^20 x - 1)^2 has two real roots about 10^-50 apart and a
    third near 2 10^40, all positive, as x^3 = 2(10^20 x - 1)^2 > 0 there."""
    code, doc, _ = run(capsys, "--json", "elem", "sign", "a",
                       f"--minpoly=-2,{4 * 10**20},{-2 * 10**40},1")
    assert code == 0
    assert doc["sign"] == ["+", "+", "+"]


def test_alg_dirichlet_constant_term(capsys):
    code, doc, _ = run(capsys, "alg", "dirichlet", "2*z^{0}+z^{3}",
                       "z^{0}+5*z^{2}", "--minpoly", "0,1")
    assert code == 0
    consts = {tuple(t["index"]): t["re"] for t in doc["result"]["terms"]}
    assert consts[("0",)] == "13"
    assert consts[("6",)] == "5"


def test_galois_verify_exit_codes(capsys):
    code, doc, _ = run(capsys, "galois", "verify", "--cyclotomic", "4",
                       "--family", "cyclotomic(4)", "--samples", "3")
    assert code == 0
    assert doc["passed"]


def test_galois_verify_checks_an_explicit_image(capsys):
    """--image goes through the checked Automorphism constructor: the
    conjugation of Q(sqrt2) verifies, and a non-root exits 2."""
    code, doc, _ = run(capsys, "galois", "verify", "--quadratic", "2", "--image=-a")
    assert code == 0 and doc["passed"]
    assert len(doc["reports"]) == 1 and doc["reports"][0]["passed"]
    code, doc, err = run(capsys, "galois", "verify", "--quadratic", "2", "--image=a+1")
    assert code == 2 and doc is None
    assert err == "error: generator image does not satisfy the defining polynomial\n"


def test_galois_group_closes_under_unchecked_compositions(capsys):
    """The closure check composes through the unchecked constructor."""
    code, doc, _ = run(capsys, "galois", "group", "--cyclotomic", "8",
                       "--family", "cyclotomic(8)")
    assert code == 0 and doc["group"]["order"] == 4


def test_dirichlet_csv_pipeline(tmp_path, capsys):
    src = tmp_path / "ones.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "re", "im"])
        for n in range(1, 21):
            w.writerow([n, 1, 0])
    out = tmp_path / "mu.csv"
    code, doc, _ = run(capsys, "dirichlet", "invert", "--in", str(src),
                       "--N", "20", "--out", str(out))
    assert code == 0
    rows = {int(r["n"]): r["re"] for r in csv.DictReader(open(out))}
    assert rows[1] == "1" and rows[2] == "-1" and rows[6] == "1"
    assert 4 not in rows  # mu(4) = 0 is not written


def test_dirichlet_csv_reads_any_rational(tmp_path, capsys):
    big = Fraction(10 ** 4400 + 1, 3)  # 4,401 digits over 3: past the 4,300 of int(str)
    (tmp_path / "f.csv").write_text(
        f"n,re,im\n1,0.5, 3 \n2,1e3,-1/4\n3,{_decimal_digits(big.numerator)}/3,0\n")
    (tmp_path / "one.csv").write_text("n,re,im\n1,1,0\n")
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "dirichlet", "conv", "--in", str(tmp_path / "f.csv"),
                       "--in2", str(tmp_path / "one.csv"), "--N", "3", "--out", str(out))
    assert code == 0, err
    rows = {r["n"]: (r["re"], r["im"]) for r in csv.DictReader(open(out))}
    assert rows["1"] == ("1/2", "3") and rows["2"] == ("1000", "-1/4")
    assert rows["3"] == (f"{_decimal_digits(big.numerator)}/3", "0")

    (tmp_path / "zero.csv").write_text("n,re,im\n1,1/0,0\n")
    code, doc, err = run(capsys, "dirichlet", "invert", "--in", str(tmp_path / "zero.csv"),
                         "--N", "3")
    assert code == 2 and doc is None and "Traceback" not in err


@pytest.mark.parametrize("action", ["invert", "conv", "mellin"])
def test_dirichlet_csv_row_without_real_part_exits_2(tmp_path, capsys, action):
    src = tmp_path / "short.csv"
    src.write_text("n,re,im\n1,1,0\n3\n")
    extra = {"conv": ["--in2", str(src)], "mellin": ["--y", "0.5"]}.get(action, [])
    code, doc, err = run(capsys, "dirichlet", action, "--in", str(src), "--N", "4", *extra)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and "Traceback" not in err


def test_hardy_eval_ladder(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    code, doc, _ = run(capsys, "hardy", "eval", "z^{1}", "--minpoly", "0,1",
                       "--ladder", "3", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert [float(r["t"]) for r in rows] == [1.0, 0.5, 0.25, 0.125]


def test_hardy_eval_ladder_of_one_rung(capsys):
    code, doc, _ = run(capsys, "hardy", "eval", "z^{1}", "--minpoly=0,1", "--ladder", "0",
                       "--t", "0.5")
    assert code == 0
    assert [row["t"] for row in doc["ladder"]] == [1.0]


def test_hardy_eval_negative_ladder_exits_2(capsys):
    code, doc, err = run(capsys, "hardy", "eval", "z^{1}", "--minpoly=0,1", "--ladder", "-1")
    assert code == 2 and doc is None
    assert err.startswith("error: ") and "--ladder" in err and "Traceback" not in err


def test_verify_exit_codes(capsys):
    code, doc, _ = run(capsys, "verify", "dirichlet", "--samples", "2")
    assert code == 0
    assert doc["passed"]
    code, doc, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err
    code, doc, err = run(capsys, "verify", "flows")
    assert code == 2 and doc is None
    assert err.startswith("error: ") and "unknown suite" in err


def test_config_error_exit_code(capsys):
    code, _, err = run(capsys, "elem", "eval", "a")
    assert code == 2
    assert "no field" in err


@pytest.mark.parametrize("argv, operand", [
    (["alg", "cauchy", "z^{1}", "--minpoly", "0,1"], "expr2"),
    (["alg", "dirichlet", "z^{1}", "--minpoly", "0,1"], "expr2"),
    (["hardy", "eval", "--minpoly", "0,1"], "expr"),
    (["hardy", "norm", "--minpoly", "0,1"], "expr"),
    (["dirichlet", "conv", "--in", "ones.csv", "--N", "10"], "--in2"),
    (["dirichlet", "mellin", "--in", "ones.csv", "--N", "10"], "--y"),
    (["galois", "flow", "--cyclotomic", "4", "--expr", "z^{1}"], "--r"),
    (["galois", "flow", "--cyclotomic", "4", "--r", "0.5"], "--expr"),
])
def test_missing_operand_exit_code(capsys, argv, operand):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and operand in err
    assert "Traceback" not in err


def test_elem_eval_power_below_the_size_bound(capsys):
    code, doc, _ = run(capsys, "elem", "eval", "2^100", "--quadratic", "2")
    assert code == 0
    assert doc["element"]["coords"] == [str(2**100), "0"]


def _decimal_digits(n: int) -> str:
    """Decimal digits of n >= 0 in chunks of 1000, each below the
    interpreter's limit on int-to-str conversion."""
    chunks = []
    while n:
        n, r = divmod(n, 10 ** 1000)
        chunks.append(r)
    head, *rest = reversed(chunks or [0])
    return str(head) + "".join(str(c).zfill(1000) for c in rest)


def test_elem_eval_beyond_the_str_digit_limit(tmp_path, capsys):
    # 2^20000 has 6021 digits, past the 4300 that str(int) allows
    code, doc, err = run(capsys, "elem", "eval", "2^20000", "--quadratic", "2")
    assert code == 0, err
    assert doc["element"]["coords"] == [_decimal_digits(2 ** 20000), "0"]

    sess = str(tmp_path / "s.json")
    run(capsys, "--session", sess, "field", "new", "--name", "K", "--quadratic", "2")
    code, _, _ = run(capsys, "--session", sess, "elem", "eval", "2^20000/3^9000",
                     "--field", "K", "--name", "big")
    assert code == 0
    from nlfield.session import Session

    loaded = Session.load(sess)
    assert loaded.elements["big"][1].coords == (Fraction(2 ** 20000, 3 ** 9000), 0)
    assert Session.loads(loaded.dumps()).dumps() == loaded.dumps()


def test_huge_exponent_of_a_root_of_unity_evaluates(capsys):
    # the bound is on the size of the products, not on the exponent
    code, doc, _ = run(capsys, "elem", "eval", "a^1000000000000", "--cyclotomic", "8")
    assert code == 0
    assert doc["element"]["coords"] == ["1", "0", "0", "0"]


@pytest.mark.parametrize("argv", [
    ["elem", "eval", "2^1000000000", "--quadratic", "2"],
    ["alg", "trace", "2^1000000000*z^{a}", "--quadratic", "2"],
    ["elem", "eval", "(2^10000)^10000", "--quadratic", "2"],
    ["elem", "eval", "((2^10000)^10000)^10000", "--quadratic", "2"],
    ["elem", "eval", "((1+a)^-10000)^10000", "--cyclotomic", "5"],
    ["alg", "trace", "(2^10000)^10000*z^{a}", "--quadratic", "2"],
    ["alg", "trace", "z^{(2^10000)^10000}", "--quadratic", "2"],
])
def test_huge_exponent_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: power above")
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_json_flag_suppresses_summary(capsys):
    code, doc, err = run(capsys, "--json", "elem", "eval", "1+a",
                         "--quadratic", "2")
    assert code == 0
    assert err == ""
    assert doc["element"]["coords"] == ["1", "1"]


def test_session_save_load_round_trip(tmp_path, capsys):
    sess = str(tmp_path / "s.json")
    run(capsys, "--session", sess, "field", "new", "--name", "K",
        "--quadratic", "2")
    other = str(tmp_path / "copy.json")
    code, _, _ = run(capsys, "--session", sess, "session", "save", other)
    assert code == 0
    assert open(sess).read() == open(other).read()
    code, doc, _ = run(capsys, "session", "load", other)
    assert code == 0
    assert doc["counts"]["fields"] == 1


def test_session_load_decodes_the_session_file_once(tmp_path, capsys, monkeypatch):
    sess = str(tmp_path / "s.json")
    run(capsys, "--session", sess, "field", "new", "--name", "K", "--quadratic", "2")
    run(capsys, "--session", sess, "elem", "eval", "1+a", "--field", "K", "--name", "e")
    calls = []
    loads = Session.loads.__func__
    monkeypatch.setattr(Session, "loads",
                        classmethod(lambda cls, text: calls.append(1) or loads(cls, text)))
    code, doc, err = run(capsys, "--session", sess, "session", "load")
    assert code == 0 and len(calls) == 1
    assert doc == {"command": "session load", "path": sess,
                   "counts": {"fields": 1, "elements": 1, "algebra": 0, "groups": 0}}
    assert err == "1 fields, 1 elements, 0 algebra, 0 groups\n"
    code, doc, _ = run(capsys, "session", "load", sess)
    assert code == 0 and len(calls) == 2 and doc["counts"]["elements"] == 1
    missing = str(tmp_path / "missing.json")
    code, doc, err = run(capsys, "--session", missing, "session", "load")
    assert code == 2 and doc is None
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_field_option_files_under_its_name(tmp_path, capsys):
    # A and B are one field under two names: what --field B names stays B's
    sess = str(tmp_path / "s.json")
    run(capsys, "--session", sess, "field", "new", "--name", "A", "--quadratic", "2")
    run(capsys, "--session", sess, "field", "new", "--name", "B", "--minpoly=-2,0,1")
    for argv in (["elem", "eval", "a"], ["alg", "cauchy", "z^{a}", "z^{1}"],
                 ["galois", "group", "--family", "quadratic"]):
        code, _, err = run(capsys, "--session", sess, *argv, "--field", "B", "--name", argv[0])
        assert code == 0, err
    doc = json.loads(open(sess).read())
    assert [doc[k][n]["field"] for k, n in
            [("elements", "elem"), ("algebra", "alg"), ("groups", "galois")]] == ["B"] * 3


@pytest.mark.parametrize("field, message", [
    ({"minpoly": ["-4", "0", "1"], "signature": [2, 0]}, "reducible"),
    ({"minpoly": ["-5", "0", "1"], "signature": [0, 1]}, "signature"),
])
def test_hand_edited_session_field_exits_2(tmp_path, capsys, field, message):
    sess = tmp_path / "s.json"
    sess.write_text(json.dumps({"fields": {"K": field}}))
    code, doc, err = run(capsys, "--session", str(sess), "field", "list")
    assert code == 2 and doc is None
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


MALFORMED_SESSIONS = [
    {"fields": {"K": {}}},
    {"fields": {"K": 5}},
    {"fields": {"K": {"minpoly": ["-2", "0", "1"]}}, "elements": {"e": {"field": "K"}}},
]


@pytest.mark.parametrize("doc", MALFORMED_SESSIONS)
def test_malformed_session_exits_2(tmp_path, capsys, doc):
    sess = tmp_path / "s.json"
    sess.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--session", str(sess), "field", "list")
    assert code == 2 and out is None
    assert err.startswith("error: malformed session file") and "Traceback" not in err


def test_minpoly_coefficient_past_the_str_digit_limit(capsys):
    # x^2 - 2*10^5000: a 5001-digit coefficient, past the 4300 that int(str) allows
    code, doc, err = run(capsys, "elem", "trace", "a", "--minpoly=-2" + "0" * 5000 + ",0,1")
    assert code == 0, err
    assert doc["trace"] == "0"
    # x^2 - 10^5000 = (x - 10^2500)(x + 10^2500) is refused as reducible
    code, _, err = run(capsys, "elem", "trace", "a", "--minpoly=-1" + "0" * 5000 + ",0,1")
    assert code == 2
    assert "reducible" in err and "Exceeds" not in err


@pytest.mark.parametrize("argv", [
    ["elem", "eval", "(" * 10000 + "1" + ")" * 10000, "--quadratic", "2"],
    ["elem", "eval", "(" + "-" * 10000 + "1)", "--quadratic", "2"],
    ["alg", "trace", "z^{" * 10000 + "1" + "}" * 10000, "--quadratic", "2"],
    # a flat product parses to a left-deep tree: the evaluation recurses
    # (a flat sum is walked in a loop: test_long_sums_evaluate)
    ["elem", "eval", "1*" * 10000 + "1", "--quadratic", "2"],
    ["alg", "trace", "2*" * 10000 + "z^{1}", "--quadratic", "2"],
])
def test_deep_nesting_exits_2(capsys, argv):
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc is None
    assert err.startswith("error: expression tree too deep") and "Traceback" not in err


def test_long_sums_evaluate(capsys):
    code, doc, err = run(capsys, "elem", "eval", "1+" * 10000 + "a", "--quadratic", "2")
    assert code == 0, err
    assert doc["element"]["coords"] == ["10000", "1"]
    code, doc, err = run(capsys, "alg", "trace", "+".join(["z^{1}"] * 10000), "--quadratic", "2")
    assert code == 0, err
    assert (doc["re"], doc["im"]) == (10000.0, 0.0)


def test_moderate_nesting_evaluates(capsys):
    code, doc, err = run(capsys, "elem", "eval", "(" * 200 + "1+a" + ")" * 200, "--quadratic", "2")
    assert code == 0, err
    assert doc["element"]["coords"] == ["1", "1"]


def test_deeply_nested_session_file_exits_2(tmp_path, capsys):
    sess = tmp_path / "s.json"
    sess.write_text("[" * 2000 + "]" * 2000)
    code, doc, err = run(capsys, "--session", str(sess), "field", "list")
    assert code == 2 and doc is None
    assert err.startswith("error: malformed session file") and "Traceback" not in err


def test_dirichlet_csv_coefficient_past_the_csv_field_limit(tmp_path, capsys):
    # 140,000 digits: past csv's default limit of 131,072 characters a field
    digits = "7" * 140000
    (tmp_path / "f.csv").write_text(f"n,re,im\n1,1,0\n2,{digits},0\n")
    (tmp_path / "one.csv").write_text("n,re,im\n1,1,0\n")
    out = tmp_path / "out.csv"
    limit = csv.field_size_limit()
    code, _, err = run(capsys, "dirichlet", "conv", "--in", str(tmp_path / "f.csv"),
                       "--in2", str(tmp_path / "one.csv"), "--N", "3", "--out", str(out))
    assert code == 0, err
    back = _read_series(str(out), 3)
    assert rat_to_str(back[2].re) == digits
    assert back == _read_series(str(tmp_path / "f.csv"), 3)
    assert csv.field_size_limit() == limit


def test_dirichlet_csv_error_exits_2(tmp_path, capsys, monkeypatch):
    (tmp_path / "f.csv").write_text("n,re,im\n1,1,0\n")
    limit = csv.field_size_limit()

    def broken(fh):
        raise csv.Error("malformed CSV")

    monkeypatch.setattr(csv, "reader", broken)
    code, doc, err = run(capsys, "dirichlet", "invert", "--in", str(tmp_path / "f.csv"),
                         "--N", "3")
    assert code == 2 and doc is None
    assert err == "error: malformed CSV\n"
    assert csv.field_size_limit() == limit


def test_exponent_notation_past_the_bound_exits_2(tmp_path, capsys):
    """--minpoly, a session file and a dirichlet CSV refuse 1e999999999 at
    once, where Fraction would build 10^999999999."""
    big = "1e999999999"
    sess = tmp_path / "s.json"
    assert run(capsys, "--session", str(sess), "field", "new", "--name", "K",
               "--quadratic", "2")[0] == 0
    doc = json.loads(sess.read_text())
    doc["fields"]["K"]["minpoly"][0] = big
    sess.write_text(json.dumps(doc))
    (tmp_path / "f.csv").write_text(f"n,re,im\n1,1,0\n2,{big},0\n")
    t0 = time.perf_counter()
    for argv in (["elem", "eval", "a", f"--minpoly={big},0,1"],
                 ["--session", str(sess), "field", "list"],
                 ["dirichlet", "invert", "--in", str(tmp_path / "f.csv"), "--N", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None
        assert err == f"error: exponent above 131072 bits: {big!r}\n"
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("opts, message", [
    (["--quadratic", "0"], "reducible"),
    (["--quadratic", "0", "--cyclotomic", "4"], "reducible"),
    (["--cyclotomic", "0"], "within desk scale"),
    (["--cyclotomic", "4", "--cyclotomic", "0"], "within desk scale"),
])
def test_zero_field_option_is_a_field_option(capsys, opts, message):
    code, doc, err = run(capsys, "elem", "eval", "a", *opts)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_precision_option_is_gone():
    code, err = _exit_code(["--precision", "3", "verify", "algebra"])
    assert code == 2
    assert "error:" in err and "Traceback" not in err


# -- exit-code contract on arbitrary argv --------------------------------


def _groups(*groups, max_size=3):
    """Any few of the option groups, flattened into one argv fragment."""
    return st.lists(st.sampled_from(groups), max_size=max_size).map(
        lambda gs: [arg for g in gs for arg in g])


_FIELD_GROUPS = [
    *(["--quadratic", n] for n in ["2", "-1", "-7", "0", "1", "4", "x", ""]),
    *(["--cyclotomic", n] for n in ["4", "5", "8", "1", "2", "0", "-3", "100"]),
    *(["--minpoly", p] for p in ["0,1", "1,0,1", "-2,0,1", "1,0,2", "0,0,1", "1", "", ",",
                                 "a,b", "1/0,1", "-1/2,0,1"]),
    ["--field", "K"], ["--field", "nope"]]
_FIELD_OPTS = _groups(*_FIELD_GROUPS, max_size=2)

_GALOIS_GROUPS = [
    *(["--family", f] for f in ["quadratic", "cyclotomic(4)", "cyclotomic(x)", "bogus"]),
    ["--image=-a"], *(["--image", e] for e in ["a^3", "z", ""]),
    *(["--samples", n] for n in ["2", "0", "-1"]),
    *(["--kmax", n] for n in ["3", "1", "-2"]),
    *(["--r", r] for r in ["0.5", "0.5,0.25", "x", ""]),
    ["--kind", "psi"], ["--expr", "z^{1}"], ["--expr", "z^{"]]

_HARDY_GROUPS = [
    ["--t", "0.5"], ["--t", "0"], ["--t", "-1"], ["--t", "nan"], ["--x", "inf"],
    ["--ladder", "3"], ["--ladder", "-1"], ["--grid", "8"], ["--grid", "0"],
    ["--height", "1"], ["--height", "-1"]]


def _global_groups(out_path):
    return [["--json"], ["--seed", "3"], ["--session", out_path + ".session"]]

_EXPRS = st.one_of(st.sampled_from([
    "a", "1+a", "(1+a)^2", "a^-1", "1/a", "a/0", "1/0", "0", "0^-1", "2^100",
    "z^{1}", "z^{0}+2*z^{a}", "3*z^{1/2}-z^{0}", "z^{0}", "z^{", "z^{1", "(", "a^^2",
    "", "  ", "a^(1/2)", "1e400", "z^{1}/z^{0}", "i*z^{1}", "2^1000000000",
]), st.text(max_size=12))


@st.composite
def cli_argv(draw, csv_paths, out_path):
    """Global options, a subcommand with one of its actions, then operands
    and options drawn from valid and malformed values ("verify" is left
    out: it runs whole suites)."""
    def one(*xs):
        return draw(st.sampled_from(xs))

    argv = draw(_groups(*_global_groups(out_path), max_size=2))
    field = draw(_FIELD_OPTS)
    cmd = one("field", "elem", "alg", "galois", "dirichlet", "hardy", "session")
    if cmd == "field":
        rest = [one("new", "list", "bogus")] + field + one([], ["--name", "K"])
    elif cmd == "elem":
        rest = [one("eval", "trace", "minpoly", "sign", "cone"), draw(_EXPRS)] + field
    elif cmd == "alg":
        rest = [one("cauchy", "dirichlet", "trace", "grade", "proj")] + draw(
            st.lists(_EXPRS, min_size=1, max_size=2)) + field + one([], ["--approx"])
    elif cmd == "galois":
        rest = [one("group", "verify", "trace-collapse", "flow")] + field + draw(
            _groups(*_GALOIS_GROUPS, max_size=4))
    elif cmd == "dirichlet":
        rest = [one("conv", "invert", "mellin"), "--in", one(*csv_paths),
                "--N", one("12", "1", "0", "-3", "x")] + draw(_groups(
                    ["--in2", one(*csv_paths)], ["--y", "0.5,1"], ["--y", "x"], ["--y", ""],
                    ["--out", out_path + ".csv"]))
    elif cmd == "hardy":
        action = one("eval", "norm", "ortho")
        opts = draw(_groups(*_HARDY_GROUPS, ["--out", out_path + ".ladder.csv"]))
        if action == "ortho" and "--grid" not in opts:
            opts += ["--grid", "8", "--height", "1"]  # the default grid is slow
        rest = [action] + draw(st.lists(_EXPRS, max_size=1)) + field + opts
    else:
        rest = [one("save", "load")] + one([], [out_path + ".saved"], [csv_paths[0]],
                                           [out_path + ".none"])
    return argv + [cmd] + rest


@pytest.fixture  # fresh per test: "session save" may overwrite ok.csv
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rows = {"ok.csv": "n,re,im\n1,1,0\n2,-1,0\n3,1/2,1\n",
            "zero.csv": "n,re,im\n2,1,0\n",
            "bad.csv": "n,re,im\nx,1,0\n",
            "range.csv": "n,re,im\n99,1,0\n",
            "frac.csv": "n,re,im\n1,1/0,0\n",
            "empty.csv": ""}
    for name, text in rows.items():
        (d / name).write_text(text)
    return [str(d / name) for name in rows] + [str(d / "missing.csv")], str(d / "out")


def _exit_code(argv):
    """main's exit code on argv (argparse usage errors included) and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def test_exit_code_contract_fuzz(fuzz_files):
    """Any argv exits 0, 1 or 2 and never prints a traceback."""
    csv_paths, out_path = fuzz_files

    @given(cli_argv(csv_paths, out_path))
    @settings(max_examples=300, deadline=5000, derandomize=True)
    def check(argv):
        code, err = _exit_code(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv

    check()


def test_exit_code_contract_option_sweep(fuzz_files):
    """Every option value that cli_argv draws from, added one at a time to
    a working argv of each action (global options before the subcommand,
    the rest after), exits 0, 1 or 2 without a traceback.  The working
    field is Q(i) by --cyclotomic, the option _resolve_field reads last,
    so each added field option is the one that takes effect."""
    csv_paths, out_path = fuzz_files
    ok_csv, field = csv_paths[0], ["--cyclotomic", "4"]
    dirichlet_groups = [*(["--in", p] for p in csv_paths), *(["--in2", p] for p in csv_paths),
                        *(["--N", n] for n in ["12", "1", "0", "-3", "x"]),
                        ["--y", "0.5,1"], ["--y", "x"], ["--y", ""], ["--out", out_path + ".csv"]]
    working = [(["field", "new"] + field, _FIELD_GROUPS + [["--name", "K"]]),
               (["field", "list"], [])]
    working += [(["elem", a, "1+a"] + field, _FIELD_GROUPS)
                for a in ["eval", "trace", "minpoly", "sign", "cone"]]
    working += [(["alg", a, "z^{1}", "z^{0}+2*z^{a}"] + field, _FIELD_GROUPS + [["--approx"]])
                for a in ["cauchy", "dirichlet"]]
    working += [(["alg", a, "z^{0}+2*z^{a}"] + field, _FIELD_GROUPS + [["--approx"]])
                for a in ["trace", "grade", "proj"]]
    working += [(["galois"] + a + field, _FIELD_GROUPS + _GALOIS_GROUPS)
                for a in [["group", "--family", "cyclotomic(4)"], ["verify", "--image=-a"],
                          ["trace-collapse", "--kmax", "3"],
                          ["flow", "--r", "0.5", "--expr", "z^{1}"]]]
    working += [(["dirichlet", a, "--in", ok_csv, "--N", "12"] + extra, dirichlet_groups)
                for a, extra in [("conv", ["--in2", ok_csv]), ("invert", []),
                                 ("mellin", ["--y", "0.5,1"])]]
    working += [(["hardy", a, "z^{1}"] + field + extra,
                 _FIELD_GROUPS + _HARDY_GROUPS + [["--out", out_path + ".ladder.csv"]])
                for a, extra in [("eval", []), ("norm", []),
                                 ("ortho", ["--grid", "8", "--height", "1"])]]
    working += [(["session", "save", out_path + ".saved"], []),
                (["session", "load", out_path + ".saved"], [])]
    for argv, groups in working:
        code, err = _exit_code(argv)
        assert code == 0, (argv, err)
        variants = [argv + g for g in groups] + [g + argv for g in _global_groups(out_path)]
        for variant in variants:
            code, err = _exit_code(variant)
            assert code in (0, 1, 2), (variant, code)
            assert "Traceback" not in err, variant


_IMPORT_GATE = """
import json, sys
import nlfield.cli as cli
loaded = lambda: [m for m in ("sympy", "numpy", "mpmath") if m in sys.modules]
bare = loaded()
codes = [cli.main(["--json", "elem", "sign", "1+a", "--quadratic", "2"]),
         cli.main(["--json", "elem", "sign", "1+a", "--cyclotomic", "8"])]
print(json.dumps({"bare": bare, "codes": codes, "after": loaded()}))
"""


def test_cli_runs_without_sympy_or_numpy():
    """In a fresh interpreter, `import nlfield.cli` loads none of sympy,
    numpy and mpmath, and neither does a command over Q(sqrt2) or one over
    Q(zeta_8), which isolate roots by Aberth's iteration in integers."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GATE], env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc == {"bare": [], "codes": [0, 0], "after": []}


_IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import nlfield
added = set(sys.modules) - before
import json
out = {"layers": sorted(m for m in added if m.split(".")[-1] in
                        ("parser", "session", "suites", "cli", "dataclasses", "json"))}
try:
    nlfield.no_such_name
except AttributeError as exc:
    out["missing"] = str(exc)
out["same"] = nlfield.Session is nlfield.session.Session
ns = {}
exec("from nlfield import *", ns)
out["tour"] = sorted(n for n in ("quadratic_field", "parse_element", "sign_of", "rationals",
                                 "parse_algebra", "grade", "series_eval_hyper",
                                 "HyperPoint", "dinvert", "IntegerSeries") if n not in ns)
out["star"] = ns["parse_algebra"] is nlfield.parser.parse_algebra
print(json.dumps(out))
"""


def test_import_loads_only_the_library():
    """In a fresh interpreter, `import nlfield` loads no CLI layer and
    neither dataclasses nor json; the CLI layers' names load on first use,
    `from nlfield import *` binds every name of the README tour, and an
    unknown name raises an AttributeError that names it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc == {"layers": [], "missing": "module 'nlfield' has no attribute 'no_such_name'",
                   "same": True, "tour": [], "star": True}


_CLI_IMPORT = """
import sys
before = set(sys.modules)
import nlfield.cli
added = set(sys.modules) - before
print(sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in added))
"""


def test_cli_import_loads_no_dataclasses():
    """In a fresh interpreter, `import nlfield.cli` loads none of dataclasses
    and the modules it brings in (inspect, ast, dis, tokenize)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CLI_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def _series_csv(rng, N, lead):
    """A seeded series over 1..N as CSV rows n,re,im: p/q values, some of them
    unreduced or padded, some entries absent and some imaginary parts blank."""
    rows = ["n,re,im", f"1,{lead}"]
    for n in range(2, N + 1):
        if rng.random() < 0.3:
            continue
        re = Fraction(rng.randint(-30, 30), rng.randint(1, 16))
        form = rng.choice([str(re), f"{2 * re.numerator}/{2 * re.denominator}", f" {re} "])
        im = str(Fraction(rng.randint(-9, 9), rng.randint(1, 6))) if rng.random() < 0.4 else ""
        rows.append(f"{n},{form},{im}")
    return "\n".join(rows) + "\n"


def test_dirichlet_out_csv_bytes_are_pinned(tmp_path, capsys):
    # the hash was taken with the Fraction reader and writer that the integer
    # helpers replaced; --out must keep writing the same bytes
    rng = random.Random(2222)
    h = hashlib.sha256()
    f, g, out = (str(tmp_path / name) for name in ("f.csv", "g.csv", "out.csv"))
    for lead in ["1/2,0", "2,1", "-3/4,1/3", "1,"]:
        N = rng.randint(40, 90)
        with open(f, "w") as fh:
            fh.write(_series_csv(rng, N, lead))
        with open(g, "w") as fh:
            fh.write(_series_csv(rng, N, "5/6,-1"))
        for argv in (["invert", "--in", f], ["conv", "--in", f, "--in2", g]):
            code, _, err = run(capsys, "--json", "dirichlet", *argv, "--N", str(N), "--out", out)
            assert code == 0, err
            with open(out, "rb") as fh:
                h.update(fh.read())
    assert h.hexdigest() == "f4e52b67adbd6e6d7955f70cc90e297bfec557d1d641bf6639d7d5ddccc5c1dc"


def test_dirichlet_conv_of_a_140000_digit_coefficient_is_fast(tmp_path, capsys):
    rng = random.Random(140)
    digits = "-" + str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=139999))
    (tmp_path / "f.csv").write_text(f"n,re,im\n1,1,0\n2,{digits},0\n")
    (tmp_path / "g.csv").write_text("n,re,im\n1,1,0\n")
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "dirichlet", "conv", "--in", str(tmp_path / "f.csv"),
                       "--in2", str(tmp_path / "g.csv"), "--N", "2", "--out", str(out))
    assert code == 0, err
    assert out.read_text() == f"n,re,im\n1,1,0\n2,{digits},0\n"
    # reading and writing the coefficient take time subquadratic in its length
    t = time.perf_counter()
    assert _str(_int(digits)) == digits
    elapsed = time.perf_counter() - t
    assert elapsed < 1, elapsed
