"""Exact field arithmetic, places, traces, and the inverse different."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlfield import numberfield
from nlfield.errors import NotMonicError, ReduciblePolynomialError, UndecidedNumericallyError
from nlfield.numberfield import (
    DEFAULT_START_WIDTH,
    FieldElement,
    _roots_between,
    _sturm_sequence,
    absolute_trace,
    cyclotomic_field,
    define_field,
    embed,
    embed_value,
    is_in_inverse_different,
    is_in_power_order,
    isolate_roots,
    minimal_polynomial_of,
    quadratic_field,
    rationals,
    refine,
)
from nlfield.polys import Poly

small_rats = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


def test_define_field_rejects_non_monic():
    with pytest.raises(NotMonicError):
        define_field(Poly([1, 0, 2]))


def test_define_field_rejects_reducible():
    with pytest.raises(ReduciblePolynomialError) as err:
        define_field(Poly([-1, 0, 1]))  # x^2 - 1 = (x-1)(x+1)
    assert "factor" in str(err.value)


# (c, b) of x^2 + bx + c: any coefficients, or the product of two linear factors
monic_quadratics = st.one_of(
    st.tuples(small_rats, small_rats),
    st.tuples(small_rats, small_rats).map(lambda r: (r[0] * r[1], -r[0] - r[1])),
)


@settings(max_examples=300, deadline=None)
@given(monic_quadratics)
@example((Fraction(-9, 4), 0))  # x^2 - 9/4 = (x - 3/2)(x + 3/2)
@example((1, 2))  # x^2 + 2x + 1: zero discriminant
@example((-2, 0))  # x^2 - 2
@example((1, 0))  # x^2 + 1
def test_quadratic_irreducibility_agrees_with_sympy(cb):
    c, b = cb
    p = Poly([c, b, 1])
    _, factors = sympy.Poly([1, b, c], sympy.Symbol("x"), domain="QQ").factor_list()
    irreducible = len(factors) == 1 and factors[0][1] == 1
    try:
        define_field(p)
    except ReduciblePolynomialError as err:
        assert not irreducible
        factor = err.factor
        assert factor.degree == 1 and factor.is_monic
        assert p.divmod(factor)[1].is_zero
    else:
        assert irreducible


def test_low_degrees_need_no_sympy(monkeypatch):
    def no_sympy(p):
        raise AssertionError("define_field called sympy")
    monkeypatch.setattr(numberfield, "_to_sympoly", no_sympy)
    for n in (2, -1, 5, -163):
        K = quadratic_field.__wrapped__(n)  # past the cache, so define_field runs
        assert K.degree == 2
    assert define_field(Poly([Fraction(-1, 3), 1])).degree == 1
    with pytest.raises(ReduciblePolynomialError):
        define_field(Poly([-4, 0, 1]))


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_polynomials_match_sympy(n):
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(numberfield._cyclotomic(n)) == want


def test_cyclotomic_fields_need_no_sympy(monkeypatch):
    """Phi_n is irreducible by theorem, so define_field factors none of
    those within desk scale, by whichever route it is given."""
    def no_sympy(p):
        raise AssertionError("define_field called sympy")
    monkeypatch.setattr(numberfield, "_to_sympoly", no_sympy)
    degrees = {}
    for n in range(1, 61):
        phi = numberfield._cyclotomic(n)
        if len(phi) - 1 <= numberfield.MAX_DESK_DEGREE:
            assert define_field(Poly(phi)).degree == len(phi) - 1
            assert cyclotomic_field.__wrapped__(n).minpoly == Poly(phi)
            degrees[n] = len(phi) - 1
    assert degrees == {n: sympy.totient(n) for n in range(1, 61) if sympy.totient(n) <= 16}
    for n in (0, -3, 61, 10**6 + 3):
        with pytest.raises(ValueError):
            cyclotomic_field(n)


def test_signatures():
    assert quadratic_field(2).signature == (2, 0)
    assert quadratic_field(-1).signature == (0, 1)
    assert cyclotomic_field(5).signature == (0, 2)
    assert rationals().signature == (1, 0)


def test_place_ordering_real_roots_ascending():
    K = quadratic_field(2)
    b0 = embed(K.gen, K.places[0], Fraction(1, 2 ** 30))
    b1 = embed(K.gen, K.places[1], Fraction(1, 2 ** 30))
    # the first place carries the smaller root, here -sqrt(2)
    assert b0.re.hi < 0 < b1.re.lo


def test_inverse_fixture():
    # (1 + sqrt2)^(-1) = -1 + sqrt2
    K = quadratic_field(2)
    e = (K.one + K.gen).inverse()
    assert e.coords == (Fraction(-1), Fraction(1))
    assert (e * (K.one + K.gen)) == K.one


def test_trace_fixtures():
    K = quadratic_field(2)
    assert absolute_trace(K.gen) == 0
    assert absolute_trace(K.one + K.gen) == 2
    z5 = cyclotomic_field(5)
    assert absolute_trace(z5.gen) == -1


def test_minimal_polynomial_of_generator_and_rational():
    K = quadratic_field(2)
    assert minimal_polynomial_of(K.gen) == Poly([-2, 0, 1])
    assert minimal_polynomial_of(K.from_rational(Fraction(3, 4))) == Poly(
        [Fraction(-3, 4), 1]
    )


def test_minimal_polynomial_of_non_generator():
    # 1 + sqrt2 has minpoly x^2 - 2x - 1
    K = quadratic_field(2)
    assert minimal_polynomial_of(K.one + K.gen) == Poly([-1, -2, 1])


def test_embed_value_accuracy():
    K = quadratic_field(2)
    v = embed_value(K.one + K.gen, K.places[1])
    assert abs(v - (1 + 2 ** 0.5)) < 1e-12


def test_inverse_different_quadratic():
    # d^-1 of Z[sqrt2] is (1 / 2 sqrt2) Z[sqrt2]
    K = quadratic_field(2)
    half_over = K.gen.inverse() * K.from_rational(Fraction(1, 2))
    assert is_in_inverse_different(half_over)
    assert not is_in_inverse_different(K.from_rational(Fraction(1, 3)))
    assert is_in_inverse_different(K.one)


def test_power_order_membership():
    K = quadratic_field(2)
    assert is_in_power_order(K.one + K.gen)
    assert not is_in_power_order(K.from_rational(Fraction(1, 2)))


@given(a=small_rats, b=small_rats, c=small_rats, d=small_rats)
@settings(max_examples=60, deadline=None)
def test_field_arithmetic_is_a_homomorphism_to_floats(a, b, c, d):
    K = quadratic_field(2)
    x = K.element([a, b])
    y = K.element([c, d])
    p = K.places[1]
    lhs = embed_value(x * y, p)
    rhs = embed_value(x, p) * embed_value(y, p)
    assert abs(lhs - rhs) < 1e-9


@given(a=small_rats, b=small_rats)
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(a, b):
    K = quadratic_field(2)
    x = K.element([a, b])
    if x.is_zero:
        return
    assert x * x.inverse() == K.one


@given(a=small_rats, b=small_rats, c=small_rats, d=small_rats)
@settings(max_examples=40, deadline=None)
def test_trace_is_additive(a, b, c, d):
    K = cyclotomic_field(4)
    x, y = K.element([a, b]), K.element([c, d])
    assert absolute_trace(x + y) == absolute_trace(x) + absolute_trace(y)


# -- integer-backed elements: laws, canonical form, the reduction table --

# Q, Q(sqrt2), Q(zeta5), Q(zeta8), the degree-6 field of criterion 6, and
# two fields with rational coefficients, so the table denominator is not 1
ARITH_FIELDS = {
    "Q": [0, 1],
    "Q(sqrt2)": [-2, 0, 1],
    "Q(zeta5)": [1, 1, 1, 1, 1],
    "Q(zeta8)": [1, 0, 0, 0, 1],
    "deg6": [100, 120, 84, 52, 24, 6, 1],
    "x^2-1/2": [Fraction(-1, 2), 0, 1],
    "x^3-x/3+1/5": [Fraction(1, 5), Fraction(-1, 3), 0, 1],
}


@lru_cache(maxsize=None)
def arith_field(name):
    return define_field(Poly(ARITH_FIELDS[name]))


@st.composite
def field_and_elements(draw, n):
    K = arith_field(draw(st.sampled_from(sorted(ARITH_FIELDS))))
    coords = st.lists(small_rats, min_size=K.degree, max_size=K.degree)
    return (K, *(K.element(draw(coords)) for _ in range(n)))


@given(field_and_elements(3))
@settings(max_examples=150, deadline=None)
def test_field_element_ring_laws(kabc):
    K, a, b, c = kabc
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if not a.is_zero:
        assert a * a.inverse() == K.one


@given(field_and_elements(1), st.integers(1, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_field_element_canonical_form(ka, m):
    K, a = ka
    unreduced = FieldElement(K, [m * c for c in a.num], m * a.den)
    assert (unreduced.num, unreduced.den) == (a.num, a.den)
    assert unreduced == a and hash(unreduced) == hash(a)
    assert K.element(a.coords) == a
    assert a.coords == tuple(Fraction(c, a.den) for c in a.num)


@given(field_and_elements(2))
@settings(max_examples=150, deadline=None)
def test_multiply_matches_polynomial_remainder(kab):
    K, a, b = kab
    rem = (Poly(a.coords) * Poly(b.coords)) % K.minpoly
    want = rem.coeffs + (Fraction(0),) * (K.degree - len(rem.coeffs))
    assert (a * b).coords == want


@given(field_and_elements(1))
@settings(max_examples=100, deadline=None)
def test_trace_is_the_trace_of_multiplication(ka):
    K, a = ka
    assert absolute_trace(a) == sum((a * b).coords[j] for j, b in enumerate(K.power_basis()))


def _isolated_signature(p: Poly) -> tuple[int, int]:
    places = isolate_roots(p)
    r = sum(q.is_real for q in places)
    return r, (len(places) - r) // 2


@st.composite
def irreducible_monic(draw):
    n = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    assume(sympy.Poly(coeffs[::-1], sympy.Symbol("x")).is_irreducible)
    return coeffs


@settings(max_examples=60, deadline=None)
@given(irreducible_monic())
@example([2, 0, -4, 0, 1])  # four real roots, +-sqrt(2 +- sqrt 2)
@example([1, -4, -10, 10, 15, -6, -7, 1, 1])  # totally real: Q(zeta17 + 1/zeta17)
def test_signature_is_the_isolated_real_root_count(coeffs):
    p = Poly(coeffs)
    K = define_field(p)
    assert K.signature == _isolated_signature(p)
    assert K._places is None  # the count isolated no roots


# cyclotomic fields, monic polynomials with non-integer rational coefficients,
# and the fields of tests/test_roots.py with places of equal real part
SIGNATURE_FIELDS = [Poly([Fraction(-1, 2), 1]), Poly([Fraction(-1, 2), 0, 1]),
                    Poly([Fraction(1, 5), Fraction(-1, 3), 0, 1]),
                    Poly([Fraction(-1, 7), Fraction(5, 3), 0, Fraction(-9, 4), 0, 1]),
                    Poly([100, 120, 84, 52, 24, 6, 1]), Poly([1, 0, 3, 0, 1])]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20])
def test_cyclotomic_signature(n):
    K = cyclotomic_field(n)
    want = (1, 0) if n <= 2 else (0, K.degree // 2)
    assert K.signature == want == _isolated_signature(K.minpoly)


@pytest.mark.parametrize("p", SIGNATURE_FIELDS, ids=str)
def test_signature_of_rational_and_tied_fields(p):
    assert define_field(p).signature == _isolated_signature(p)


def test_places_follow_the_signature():
    K = define_field(Poly([2, 0, -4, 0, 1]))
    assert K.signature == (4, 0)
    assert [q.is_real for q in K.places] == [True] * 4
    K = define_field(Poly([1, 0, 3, 0, 1]))
    assert [q.is_real for q in K.places] == [False] * 2


# -- the precision ladder ----------------------------------------------


def test_refine_raises_after_the_last_rung_below_the_cap():
    widths = []
    with pytest.raises(UndecidedNumericallyError):
        refine(widths.append)
    assert widths == [Fraction(1, 2**b) for b in (53, 106, 212, 424, 848, 1696, 3392)]


def test_refine_returns_the_first_decision():
    widths = []

    def decide(w):
        widths.append(w)
        return 0 if len(widths) == 3 else None  # 0 is a decision, not None
    assert refine(decide) == 0
    assert widths == [Fraction(1, 2**b) for b in (53, 106, 212)]


def test_refine_capped_at_the_start_width_runs_two_rungs():
    widths = []
    with pytest.raises(UndecidedNumericallyError):
        refine(widths.append, DEFAULT_START_WIDTH)
    assert widths == [Fraction(1, 2**53), Fraction(1, 2**106)]


# -- Sturm counts on a closed interval ---------------------------------


@st.composite
def squarefree_and_interval(draw):
    n = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    coeffs.append(draw(st.integers(-3, 3).filter(bool)))
    assume(sympy.Poly(coeffs[::-1], sympy.Symbol("x")).is_sqf)
    lo = draw(st.integers(-200, 200))
    return coeffs, lo, lo + draw(st.integers(0, 200)), draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(squarefree_and_interval())
@example(([0, -1, 0, 1], 0, 1, 0))  # x^3 - x on [0, 1]: both endpoints are roots
@example(([0, -1, 0, 1], -1, 0, 0))  # x^3 - x on [-1, 0]
@example(([0, -1, 0, 1], 0, 0, 3))  # a point interval on a root
@example(([-1, 0, 4], -2, 2, 2))  # 4x^2 - 1 on [-1/2, 1/2]
def test_sturm_count_matches_sympy_on_a_closed_interval(case):
    coeffs, lo, hi, k = case
    want = sympy.Poly(coeffs[::-1], sympy.Symbol("x")).count_roots(
        sympy.Rational(lo, 2**k), sympy.Rational(hi, 2**k))
    assert _roots_between(_sturm_sequence(coeffs), lo, hi, k) == want


# -- minimal polynomials and inverses against sympy ---------------------

# degrees 1-8: Q(1/2), Q(i), x^3 - x/3 + 1/5, Q(zeta5), x^6 - 2, Q(zeta7),
# Q(zeta8) and Q(zeta15)
ORACLE_FIELDS = [Poly([Fraction(-1, 2), 1]), Poly([1, 0, 1]),
                 Poly([Fraction(1, 5), Fraction(-1, 3), 0, 1]),
                 cyclotomic_field(5).minpoly, Poly([-2, 0, 0, 0, 0, 0, 1]),
                 cyclotomic_field(7).minpoly, cyclotomic_field(8).minpoly,
                 cyclotomic_field(15).minpoly]


def _oracle_minpoly(a: FieldElement) -> Poly:
    """The one irreducible factor of sympy's characteristic polynomial of
    multiplication by a, made monic."""
    d = a.field.degree
    cols = [(a * b).coords for b in a.field.power_basis()]
    m = sympy.Matrix(d, d, lambda i, j: sympy.Rational(cols[j][i].numerator,
                                                       cols[j][i].denominator))
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(m.charpoly(x).as_expr(), x).factor_list()
    assert len(factors) == 1  # chi_a is a power of the minimal polynomial
    return Poly([Fraction(c.p, c.q) for c in reversed(factors[0][0].monic().all_coeffs())])


def _oracle_corpus(K, rng):
    g = K.gen
    d = K.degree
    # subfield elements, where the divisor loop stops below d
    els = [K.from_rational(Fraction(-3, 7)), K.one, g * g, g ** max(d // 2, 1),
           g + g ** (d - 1), g + g.inverse(), g]
    for _ in range(12):
        els.append(K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              if rng.random() < 0.7 else 0 for _ in range(d)]))
    return [a for a in els if not a.is_zero]


@pytest.mark.parametrize("p", ORACLE_FIELDS, ids=str)
def test_minimal_polynomial_and_inverse_match_sympy(p):
    K = define_field(p)
    for a in _oracle_corpus(K, random.Random(11 * K.degree)):
        K._minpoly_cache.clear()
        assert minimal_polynomial_of(a) == _oracle_minpoly(a)
        assert a * a.inverse() == K.one


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        quadratic_field(2).zero.inverse()


# -- mixed rational / element arithmetic ---------------------------------


@given(field_and_elements(1), st.one_of(st.integers(-50, 50), small_rats))
@settings(max_examples=100, deadline=None)
@example((quadratic_field(-1), quadratic_field(-1).gen), 1)  # 1 + i, 1 - i, 1 / i
def test_mixed_rational_element_laws(ka, q):
    K, a = ka
    assert q + a == a + q
    assert q - a == -(a - q)
    if not a.is_zero:
        assert q / a * a == K.from_rational(q)


@st.composite
def monic_rational_polys(draw):
    d = draw(st.integers(1, 6))
    return Poly(draw(st.lists(small_rats, min_size=d, max_size=d)) + [1])


@given(monic_rational_polys())
@settings(max_examples=100, deadline=None)
@example(Poly([Fraction(1, 5), Fraction(-1, 3), 0, 1]))
@example(Poly([Fraction(-1, 2), 0, 1]))
def test_reduction_table_is_the_powers_of_x_mod_p_over_their_lcm(p):
    # the table is built in integers; Poly's remainder in Fractions is the reference
    d = p.degree
    den, rows = numberfield._reduction_table(numberfield._over_common_denominator(p.coeffs)[0])
    want = [(Poly([0] * k + [1]) % p).coeffs for k in range(d, 2 * d - 1)]
    assert rows == [[c * den for c in r + (0,) * (d - len(r))] for r in want]
    assert math.gcd(den, *(c for r in rows for c in r)) == 1
