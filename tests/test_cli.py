"""Command-line surface: exit codes, JSON output, CSV plumbing."""

import csv
import json

import pytest

from nlfield.cli import main


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


def test_hardy_eval_ladder(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    code, doc, _ = run(capsys, "hardy", "eval", "z^{1}", "--minpoly", "0,1",
                       "--ladder", "3", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert [float(r["t"]) for r in rows] == [1.0, 0.5, 0.25, 0.125]


def test_verify_exit_codes(capsys):
    code, doc, _ = run(capsys, "verify", "dirichlet", "--samples", "2")
    assert code == 0
    assert doc["passed"]
    code, doc, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


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
