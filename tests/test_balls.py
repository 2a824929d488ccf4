"""Integer midpoint-radius balls: the evaluator encloses the image of the
whole input ball, and `embed` encloses the embedding at every place.

The evaluator is checked exactly, in rationals, on points of the input
ball's boundary.  `embed` is checked against an 80-digit mpmath value: the
finest requested width, 2^-200, lies below the resolution of 60 digits.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlfield.intervals import Ball, eval_poly_box
from nlfield.numberfield import cyclotomic_field, define_field, embed, quadratic_field
from nlfield.polys import Poly

FIELDS = {
    "Q(i)": lambda: cyclotomic_field(4),
    "Q(sqrt2)": lambda: quadratic_field(2),
    "Q(zeta5)": lambda: cyclotomic_field(5),
    "Q(zeta8)": lambda: cyclotomic_field(8),
    "Q(zeta12)": lambda: cyclotomic_field(12),
    # criterion 6: two places share the real part -1.6299...
    "deg6": lambda: define_field(Poly([100, 120, 84, 52, 24, 6, 1])),
}

# the directions u of the boundary points c + rho u, all with |u| = 1
UNIT = [(1, 0), (-1, 0), (0, 1), (0, -1)] + [
    (Fraction(a, 5), Fraction(b, 5)) for a in (3, -3) for b in (4, -4)]


def _value_at(num, den, re, im):
    """a(w) = sum num[j] w^j / den at w = re + im i, in rationals."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(num):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re / den, acc_im / den


@settings(max_examples=200, deadline=None)
@given(num=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
       den=st.integers(1, 1000), x=st.integers(-2**12, 2**12), y=st.integers(-2**12, 2**12),
       s=st.integers(0, 2**6), k=st.integers(0, 12), real=st.booleans())
@example(num=[0, 0, 0, 0, 1], den=1, x=2**10, y=0, s=1, k=10, real=True)  # w^4 at 1
@example(num=[0, 0, 0, 1], den=1, x=2**10, y=2**10, s=1, k=10, real=False)  # w^3 at 1 + i
def test_evaluator_encloses_the_image_of_the_ball(num, den, x, y, s, k, real):
    if real:
        y = 0
    ball = Ball(x, y, s, 1 << k, real)
    out = eval_poly_box(num, den, ball)
    assert out.den > 0 and out.rad >= 0 and out.real == real
    c = Fraction(x, 1 << k), Fraction(y, 1 << k)
    assert (Fraction(out.x, out.den), Fraction(out.y, out.den)) == _value_at(num, den, *c)
    rho = Fraction(s, 1 << k)
    for u in UNIT[:2] if real else UNIT:
        re, im = _value_at(num, den, c[0] + rho * u[0], c[1] + rho * u[1])
        dre, dim = re - Fraction(out.x, out.den), im - Fraction(out.y, out.den)
        assert dre * dre + dim * dim <= Fraction(out.rad, out.den) ** 2



def test_evaluator_refuses_a_ball_off_the_dyadic_grid():
    with pytest.raises(ValueError, match="power of two"):
        eval_poly_box([0, 1], 1, Ball(1, 0, 1, 3, True))

_REFERENCE = {}


def _reference_roots(name):
    """The 80-digit root at each place of the field, matched to the place."""
    if name not in _REFERENCE:
        field = FIELDS[name]()
        coeffs = [int(c) for c in reversed(field.minpoly.coeffs)]
        with mpmath.workdps(80):
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=300)
        near = [min(roots, key=lambda z: abs(z - p.box(Fraction(1, 2**60)).mid))
                for p in field.places]
        _REFERENCE[name] = field, near
    return _REFERENCE[name]


@st.composite
def elements(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    field, roots = _reference_roots(name)
    d = field.degree
    num = draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d))
    top = draw(st.integers(0, d - 1))  # zero leading numerators
    num = num[:d - top] + [0] * top
    den = draw(st.integers(1, 10**4))
    return name, num, den, draw(st.integers(0, len(field.places) - 1))


@settings(max_examples=150, deadline=None)
@given(elements(), st.sampled_from([53, 106, 200]))
def test_embed_ball_encloses_the_embedding(element, bits):
    name, num, den, i = element
    field, roots = _reference_roots(name)
    a = field.element([Fraction(c, den) for c in num])
    width = Fraction(1, 2**bits)
    ball = embed(a, field.places[i], width)
    assert ball.fits(width) and ball.width <= width
    with mpmath.workdps(80):
        value = sum(mpmath.mpf(c) / a.den * roots[i] ** j for j, c in enumerate(a.num))
        slack = mpmath.mpf(10) ** -75 * (1 + abs(value))
        mid = mpmath.mpc(mpmath.mpf(ball.x) / ball.den, mpmath.mpf(ball.y) / ball.den)
        rad = mpmath.mpf(ball.rad) / ball.den
        if ball.real:
            assert abs(value.imag) <= slack
            assert abs(value.real - mid.real) <= rad + slack
        else:
            assert abs(value - mid) <= rad + slack
        for got, part in ((ball.re_sign(), value.real), (ball.im_sign(), value.imag)):
            if got is not None:
                assert abs(part) > slack and got == (1 if part > 0 else -1)

