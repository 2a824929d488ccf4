"""Gaussian rationals: field laws, the canonical integer form, and agreement
with a plain two-Fraction implementation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfield.coeffs import GaussRat
from nlfield.dirichlet import IntegerSeries, dconv, dinvert


class RefGauss:
    """a + b*i with Fraction parts, by the textbook formulas."""

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return RefGauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefGauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return RefGauss(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return RefGauss((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def conjugate(self):
        return RefGauss(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def parts(self):
        return (self.re, self.im)


rats = st.fractions(min_value=-50, max_value=50, max_denominator=60)
pairs = st.tuples(rats, rats)
gauss = pairs.map(lambda p: GaussRat(*p))
nonzero = gauss.filter(lambda q: not q.is_zero)


def parts(q: GaussRat):
    return (q.re, q.im)


# -- ring and field laws ---------------------------------------------


@given(gauss, gauss, gauss)
@settings(max_examples=150, deadline=None)
def test_ring_laws(a, b, c):
    zero, one = GaussRat(), GaussRat(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero
    assert a - b == a + (-b) and (a - a).is_zero


@given(gauss, nonzero)
@settings(max_examples=150, deadline=None)
def test_division_undoes_multiplication(a, b):
    assert (a / b) * b == a
    assert (a * b) / b == a
    assert b / b == GaussRat(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1, 2) / GaussRat()


# -- canonical form --------------------------------------------------


def _canonical(q: GaussRat) -> bool:
    return (type(q.x) is int and type(q.y) is int and type(q.den) is int
            and q.den > 0 and gcd(q.x, q.y, q.den) == 1)


@given(gauss, nonzero)
@settings(max_examples=150, deadline=None)
def test_results_are_canonical(a, b):
    for q in (a, -a, a.conjugate(), a + b, a - b, a * b, a / b):
        assert _canonical(q)


@given(pairs, st.integers(min_value=1, max_value=30))
@settings(max_examples=150, deadline=None)
def test_equal_values_share_one_form(p, k):
    # the same value reached by several routes
    a = GaussRat(*p)
    e = GaussRat(Fraction(1, k), k)
    for b in ((a * GaussRat(k)) / GaussRat(k), (a + e) - e, (a * e) / e,
              GaussRat(p[0]) + GaussRat(0, 1) * GaussRat(p[1])):
        assert (a.x, a.y, a.den) == (b.x, b.y, b.den)
        assert a == b and hash(a) == hash(b)


@given(gauss)
@settings(max_examples=150, deadline=None)
def test_number_protocol(q):
    assert bool(q) == (not q.is_zero)
    assert complex(q) == q.to_complex()


@given(gauss)
@settings(max_examples=150, deadline=None)
def test_parts_round_trip(q):
    assert GaussRat(q.re, q.im) == q
    assert isinstance(q.re, Fraction) and isinstance(q.im, Fraction)


def test_constructor_accepts_ints_and_fractions():
    assert GaussRat() == GaussRat(0, 0) == GaussRat(Fraction(0))
    assert GaussRat(3) == GaussRat(Fraction(3), Fraction(0))
    q = GaussRat(Fraction(1, 2), Fraction(-1, 3))
    assert (q.x, q.y, q.den) == (3, -2, 6)
    assert parts(q) == (Fraction(1, 2), Fraction(-1, 3))
    assert GaussRat(2) != 2  # no mixing with plain numbers


def test_repr():
    assert repr(GaussRat(Fraction(-3, 4))) == "-3/4"
    assert repr(GaussRat(1, -2)) == "(1-2i)"
    assert repr(GaussRat(Fraction(1, 2), Fraction(1, 3))) == "(1/2+1/3i)"


# -- agreement with the two-Fraction formulas -------------------------


@given(pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_matches_fraction_reference(p, q):
    a, b = GaussRat(*p), GaussRat(*q)
    ra, rb = RefGauss(*p), RefGauss(*q)
    assert parts(a + b) == (ra + rb).parts()
    assert parts(a - b) == (ra - rb).parts()
    assert parts(a * b) == (ra * rb).parts()
    assert parts(a.conjugate()) == ra.conjugate().parts()
    assert a.abs2() == ra.abs2()
    assert a.to_complex() == complex(ra.re) + 1j * complex(ra.im)
    if not b.is_zero:
        assert parts(a / b) == (ra / rb).parts()


# -- Dirichlet inverse with a non-unit Gaussian leading coefficient ----


def test_dinvert_non_unit_gaussian_leading_coefficient():
    N = 60
    vals = [(2, 1)] + [((n * 7) % 5 - 2, (n * 3) % 4 - 1) for n in range(2, N + 1)]
    f = IntegerSeries(N, [GaussRat(*v) for v in vals])
    b = dinvert(f)

    # the recursion b_n = -(1/a_1) sum_{d | n, d > 1} a_d b_{n/d}, on
    # Fraction pairs
    ra = [None] + [RefGauss(*v) for v in vals]
    rb = [None, RefGauss(1) / ra[1]]
    for n in range(2, N + 1):
        acc = RefGauss(0)
        for d in range(2, n + 1):
            if n % d == 0:
                acc = acc + ra[d] * rb[n // d]
        rb.append(RefGauss(0) - acc / ra[1])

    assert parts(b[1]) == (Fraction(2, 5), Fraction(-1, 5))
    assert all(parts(b[n]) == rb[n].parts() for n in range(1, N + 1))
    assert max(b[n].den for n in range(1, N + 1)) > 5
    assert dconv(f, b) == IntegerSeries.delta(N)
