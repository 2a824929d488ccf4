"""Expression grammar: fixtures, error reporting, print/parse round trip."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfield.algebra import AlgebraElement
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield.errors import ParseError
from nlfield.numberfield import cyclotomic_field, quadratic_field, rationals
from nlfield.parser import (
    BinOp,
    Gen,
    Imag,
    Mono,
    Neg,
    Num,
    Pow,
    eval_algebra,
    parse_algebra,
    parse_element,
    parse_expression,
)

from helpers import print_ast


def test_element_fixtures():
    K = quadratic_field(2)
    assert parse_element("1 + a", K).coords == (Fraction(1), Fraction(1))
    assert parse_element("(1+a)^2", K).coords == (Fraction(3), Fraction(2))
    assert parse_element("1/(1+a)", K).coords == (Fraction(-1), Fraction(1))


def test_whitespace_insensitive():
    K = quadratic_field(2)
    assert parse_element("  1 +   a ", K) == parse_element("1+a", K)


def test_rational_literal_binds_tighter_than_division():
    Q = rationals()
    # "1/2" is a literal; "1/2/2" is the literal 1/2 divided by 2
    assert parse_element("1/2/2", Q) == Q.from_rational(Fraction(1, 4))


def test_algebra_fixtures():
    Q = rationals()
    f = parse_algebra("2*z^{0}+z^{3}", Q)
    assert f.constant == GaussRat(Fraction(2))
    assert f.coeff(Q.from_rational(3)) == GaussRat(Fraction(1))
    identity_cauchy = parse_algebra("z^{0}", Q)
    identity_dirichlet = parse_algebra("z^{1}", Q)
    assert f.cauchy(identity_cauchy) == f
    g = parse_algebra("z^{2}+z^{3}", Q)
    assert g.dirichlet(identity_dirichlet) == g


def test_algebra_with_field_index_and_imaginary_coefficient():
    K = cyclotomic_field(4)
    f = parse_algebra("(1+1i)*z^{a/2}", K)
    idx = K.element([0, Fraction(1, 2)])
    assert f.coeff(idx) == GaussRat(Fraction(1), Fraction(1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + + 2")
    assert err.value.position is not None
    with pytest.raises(ParseError) as err:
        parse_expression("1 + q")
    assert err.value.position == 4


def test_deep_trees_raise_parse_error():
    K = quadratic_field(2)
    deep = 10000
    for src in ["(" * deep + "1" + ")" * deep, "-" * deep + "1",
                "z^{" * deep + "1" + "}" * deep]:
        with pytest.raises(ParseError, match="too deep"):
            parse_expression(src)
    # these parse in a loop to a left-deep tree, which evaluation recurses
    # along for products (sums are walked in a loop)
    with pytest.raises(ParseError, match="too deep"):
        parse_element("1*" * deep + "1", K)
    with pytest.raises(ParseError, match="too deep"):
        parse_algebra("2*" * deep + "z^{1}", K)


def test_division_by_zero_element():
    K = quadratic_field(2)
    with pytest.raises(ParseError):
        parse_element("1/(a*a - 2)", K)


def test_ambiguous_monomial_product_rejected():
    Q = rationals()
    with pytest.raises(ParseError):
        parse_algebra("z^{1} * z^{2}", Q)


def test_round_trip_fixtures():
    for s in ("1/2", "-a^3", "z^{a+1}*(2-1i)", "((1+a)/(1-a))^2", "3i"):
        ast = parse_expression(s)
        assert parse_expression(print_ast(ast)) == ast


# random expression generator for the round-trip corpus


def _random_ast(rng, depth):
    if depth == 0:
        return rng.choice([
            Num(Fraction(rng.randint(0, 30), rng.randint(1, 9))),
            Gen(),
            Imag(),
        ])
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 1:
        return BinOp(rng.choice("+-*/"),
                     _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        return Pow(_random_ast(rng, depth - 1), rng.randint(0, 5))
    return Mono(_random_ast(rng, depth - 1))


def test_round_trip_random_corpus():
    rng = random.Random(20)
    for _ in range(1000):
        ast = _random_ast(rng, rng.randint(1, 4))
        text = print_ast(ast)
        assert parse_expression(text) == ast


@given(st.fractions(min_value=-100, max_value=100, max_denominator=50))
@settings(max_examples=100, deadline=None)
def test_rational_literals_round_trip(q):
    Q = rationals()
    src = f"{q.numerator}/{q.denominator}" if q >= 0 else (
        f"-{-q.numerator}/{q.denominator}"
    )
    assert parse_element(src, Q) == Q.from_rational(q)


def test_long_sums_evaluate():
    # a flat sum is walked in a loop, so its length is not bounded by the
    # recursion limit and its cost is linear
    K = quadratic_field(2)
    t = time.perf_counter()
    assert parse_element("+".join(["a", "1/2"] * 2500), K) == K.element([1250, 2500])
    assert time.perf_counter() - t < 1
    t = time.perf_counter()
    f = parse_algebra("+".join(f"{i}*z^{{{i}*a}}" for i in range(1, 5001)), K)
    assert time.perf_counter() - t < 1
    assert f == AlgebraElement(K, EXACT, {K.element([0, i]): i for i in range(1, 5001)})
    # a deeply parenthesised term of a long sum is still too deep
    for parse in (parse_element, parse_algebra):
        with pytest.raises(ParseError, match="too deep"):
            parse("1+" * 5000 + "(" * 10000 + "1" + ")" * 10000, K)


SUM_TERMS = ["z^{1}", "2*z^{a}", "1/3", "1i", "(1/3)*z^{0}", "z^{0}", "-z^{1}",
             "3/7*z^{1}", "(2-1i)*z^{a-1}"]


@given(st.sampled_from(SUM_TERMS), st.lists(st.tuples(st.sampled_from("+-"),
                                                      st.sampled_from(SUM_TERMS))),
       st.sampled_from([EXACT, APPROX]))
@settings(max_examples=150, deadline=None)
def test_sum_matches_the_binary_left_fold(first, rest, mode):
    # the sum of the terms one binary + or - at a time, a scalar meeting an
    # algebra element as its multiple of z^{0}: the same coefficients, added
    # in the same order, and the same order of terms
    K = quadratic_field(2)

    def promote(v):
        return v if isinstance(v, AlgebraElement) else AlgebraElement(K, mode, {K.zero: v})

    want = eval_algebra(parse_expression(first), K, mode)
    for op, src in rest:
        v = eval_algebra(parse_expression(src), K, mode)
        if isinstance(want, AlgebraElement) or isinstance(v, AlgebraElement):
            want, v = promote(want), promote(v)
        want = want + v if op == "+" else want - v
    got = parse_algebra(first + "".join(op + src for op, src in rest), K, mode)
    assert list(got.terms.items()) == list(promote(want).terms.items())
