"""Tests for the benchmark's reference checkers.

Run with:  python3 -m pytest perfbench/tests
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ALL_SIGNS = {"+", "sqrt-", "-", "-sqrt-", "+e", "sqrt-e", "-e", "-sqrt-e"}


def test_sign_oracle_cube_root_of_two_in_degree_six_field():
    roots = ref.places(workloads.MINPOLYS["deg6"])
    assert (len(roots[0]), len(roots[1])) == (0, 3)
    v = ref.sign_vector(workloads.CBRT2, roots)
    # the fixture of acceptance criterion 6: cbrt2 -> (+, sqrt-e, -e)
    assert sorted(v) == sorted(["+", "sqrt-e", "-e"])
    # real under one of the three complex places: an axis case
    assert ref.axis_margin(workloads.CBRT2, roots) < 1e-20


def test_sign_oracle_realizes_all_eight_signs_in_gaussian_field():
    roots = ref.places(workloads.MINPOLYS["Q(i)"])
    realized = {
        ref.sign_vector((a, b), roots)[0]
        for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)
    }
    assert realized == ALL_SIGNS
    assert ref.sign_vector((0, 1), roots) == ["sqrt-"]
    assert ref.sign_vector((1, -1), roots) == ["-sqrt-e"]


def test_place_order_real_ascending_then_complex_by_real_part():
    reals, cplx = ref.places([-2, 0, 1])
    assert float(reals[0]) < 0 < float(reals[1]) and not cplx
    reals, cplx = ref.places(workloads.MINPOLYS["Q(zeta5)"])
    assert not reals and [float(z.real) for z in cplx] == sorted(float(z.real) for z in cplx)
    assert all(z.imag > 0 for z in cplx)


def test_axis_construction_by_conjugation():
    name = "Q(zeta12)"
    roots = ref.places(workloads.MINPOLYS[name])
    a = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3))
    abar = workloads._conjugate_coords(a, name)
    real = tuple(x + y for x, y in zip(a, abar))
    imag = tuple(x - y for x, y in zip(a, abar))
    assert all(s in ("+", "-") for s in ref.sign_vector(real, roots))
    assert all(s in ("sqrt-", "-sqrt-") for s in ref.sign_vector(imag, roots))


MOEBIUS_1_TO_30 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
                   0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]


def test_moebius_oracle_up_to_30():
    assert [ref.mobius(n) for n in range(1, 31)] == MOEBIUS_1_TO_30


def test_dirichlet_delta_check_accepts_inverse_and_rejects_a_wrong_one():
    ones = [(1, 0)] * 30
    mu = [(m, 0) for m in MOEBIUS_1_TO_30]
    assert ref.is_delta_exact(ones, mu)
    wrong = list(mu)
    wrong[29] = (0, 0)
    assert not ref.is_delta_exact(ones, wrong)
    assert ref.is_delta_approx([1 + 0j] * 30, [complex(m) for m in MOEBIUS_1_TO_30], 1e-12)


def test_index_arithmetic_and_traces():
    mp = [-2, 0, 1]
    assert ref.index_product((0, 1), (0, 1), mp) == (2, 0)
    assert ref.index_image((3, 5), (0, -1), mp) == (3, -5)
    assert ref.generator_power(7, workloads.MINPOLYS["Q(zeta8)"]) == (0, 0, 0, -1)
    assert ref.power_traces([1, 0, 1], 3) == [2, 0, -2]
    assert ref.trace((1, 1, 1, 1), workloads.MINPOLYS["Q(zeta5)"]) == 4 - 1 - 1 - 1


def test_dirichlet_product_reference_constant_term_rule():
    z, f, g = (Fraction(0),), {(0,): (2, 0), (3,): (1, 0)}, {(0,): (1, 0), (2,): (5, 0)}
    h = ref.dirichlet(f, g, [0, 1])
    assert h == {z: (13, 0), (6,): (5, 0)}
    assert ref.coeff_sum(h) == (18, 0) == (3 * 6, 0)


def test_cli_exit_code_checks():
    ok2 = workloads._cli_check(2)
    assert ok2((2, "", "error: no field given\n"))
    assert not ok2((1, "", "error"))
    assert not ok2((2, "", "Traceback (most recent call last):\n"))
    assert not ok2((2, '{"x": 1}', ""))
    ok0 = workloads._cli_check(0, lambda d: d["trace"] == "4")
    assert ok0((0, '{"trace": "4"}\n', ""))
    assert not ok0((0, '{"trace": "5"}\n', ""))
    assert not ok0((0, "not json", ""))
    assert not ok0((2, "", "error"))


def test_invalid_argv_kinds():
    assert set(workloads.CLI_INVALID) == {"missing-expr2", "hardy-no-expr", "no-field"}
    assert "expr2" not in workloads.CLI_INVALID["missing-expr2"]
    assert not any(a.startswith("--minpoly") or a.startswith("--quadratic")
                   for a in workloads.CLI_INVALID["no-field"])


def test_run_lists_every_workload():
    assert run.WORKLOADS == list(workloads.WORKLOADS)


def test_hyper_series_reference_decays_by_the_component_sign():
    import math

    roots = ref.places(workloads.MINPOLYS["Q(i)"])
    # z^{i}: sign sqrt- (e = 1), so the term is exp(-4 pi t) at x = 0
    assert abs(ref.hyper_series_value({(0, 1): (1, 0)}, roots, 0.0, 1.0)
               - math.exp(-4 * math.pi)) < 1e-15
    assert ref.hyper_series_value({(0, 0): (3, -2)}, roots, 0.25, 0.5) == 3 - 2j
