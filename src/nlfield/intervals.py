"""Integer midpoint-radius balls, and the one evaluator of a rational
polynomial on a ball.

A ball is the closed disk |w - (x + y i)/den| <= rad/den with integers
x, y, rad >= 0 and den > 0 (F. Johansson, "Arb: efficient
arbitrary-precision midpoint-radius interval arithmetic", IEEE Trans.
Computers 66, 2017).  A real ball is pinned to R: it stands for the
segment [x - rad, x + rad]/den.  Signs, overlaps, containment and widths
are decided on integers by cross-multiplication, never by division.  The
rational endpoints of the enclosing square (`re`, `im`, `width`) and the
float midpoint (`mid`) are built only when asked for.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

Interval = namedtuple("Interval", "lo hi")


def horner(coeffs, re: int, im: int, k: int) -> tuple[int, int]:
    """2^(k deg) p(c) at c = (re + im i) / 2^k, as a Gaussian integer."""
    acc_re, acc_im, scale = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        scale <<= k
        acc_re, acc_im = acc_re * re - acc_im * im + c * scale, acc_re * im + acc_im * re
    return acc_re, acc_im


class Ball:
    """The disk |w - (x + y i)/den| <= rad/den, or its trace on R if real.
    Comparisons use the enclosing square, whose imaginary side has length 0
    for a real ball."""

    __slots__ = ("x", "y", "rad", "den", "real")

    def __init__(self, x: int, y: int, rad: int, den: int, real: bool = False):
        self.x, self.y, self.rad, self.den, self.real = x, y, rad, den, real

    def re_sign(self) -> int | None:
        """+1/-1 if the ball lies strictly right/left of the imaginary axis."""
        if self.x > self.rad:
            return 1
        return -1 if self.x < -self.rad else None

    def im_sign(self) -> int | None:
        """+1/-1 if the ball lies strictly above/below the real axis."""
        if self.real:
            return None
        if self.y > self.rad:
            return 1
        return -1 if self.y < -self.rad else None

    def fits(self, width: Fraction) -> bool:
        """Whether the enclosing square is no wider than width."""
        return 2 * self.rad * width.denominator <= width.numerator * self.den

    def overlaps(self, other: "Ball") -> bool:
        """Whether the enclosing squares meet."""
        d, e = self.den, other.den
        if abs(self.x * e - other.x * d) > self.rad * e + other.rad * d:
            return False
        rad = (0 if self.real else self.rad * e) + (0 if other.real else other.rad * d)
        return abs(self.y * e - other.y * d) <= rad

    def inside(self, other: "Ball") -> bool:
        """Whether the enclosing square lies in the enclosing square of other."""
        d, e = self.den, other.den
        rad = 0 if self.real else self.rad * e
        other_rad = 0 if other.real else other.rad * d
        return (abs(self.x * e - other.x * d) + self.rad * e <= other.rad * d
                and abs(self.y * e - other.y * d) + rad <= other_rad)

    def conjugate(self) -> "Ball":
        return Ball(self.x, -self.y, self.rad, self.den, self.real)

    @property
    def re(self) -> Interval:
        return Interval(Fraction(self.x - self.rad, self.den), Fraction(self.x + self.rad, self.den))

    @property
    def im(self) -> Interval:
        if self.real:
            return Interval(Fraction(0), Fraction(0))
        return Interval(Fraction(self.y - self.rad, self.den), Fraction(self.y + self.rad, self.den))

    @property
    def width(self) -> Fraction:
        return Fraction(2 * self.rad, self.den)

    @property
    def mid(self) -> complex:
        """The centre, each part correctly rounded to a float."""
        return complex(self.x / self.den, self.y / self.den)

    def __repr__(self):
        return f"Ball({self.mid}, rad={float(Fraction(self.rad, self.den)):.3g})"


def eval_poly_box(num, den: int, ball: Ball) -> Ball:
    """A ball holding a(w) = sum_j num[j] w^j / den for every w in a ball on
    the 2^-k grid (ball.den = 2^k).  For c the centre and rho the radius,
    the midpoint a(c) is exact and the radius is
    rho sum_j j |a_j| (|c| + rho)^(j-1), as |w^j - c^j| <= j rho (|c| + rho)^(j-1);
    |c| + rho is bounded by M = (|x| + |y| + rad) / 2^k.  Both are integers
    over den 2^(k n), n the degree of a."""
    if ball.den & (ball.den - 1):
        raise ValueError(f"ball denominator {ball.den} is not a power of two")
    n = len(num) - 1
    while n and not num[n]:
        n -= 1
    k = ball.den.bit_length() - 1
    x, y = horner(num[:n + 1], ball.x, ball.y, k)
    rad = 0
    if n:
        m = abs(ball.x) + abs(ball.y) + ball.rad
        rad = ball.rad * horner([j * abs(num[j]) for j in range(1, n + 1)], m, 0, k)[0]
    return Ball(x, y, rad, den << (k * n), ball.real)
