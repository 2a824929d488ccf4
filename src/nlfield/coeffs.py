"""Coefficient arithmetic for the field algebra.

A coefficient is a `GaussRat` or a python `complex`, one per mode, and
the two modes never mix inside one element:

  exact  -- Gaussian rationals (x + y*i)/den over integers; never rounds.
  approx -- python complex at double precision, for flows and Hardy numerics.

Both answer Python's number protocol: `bool(c)` is False exactly at zero
and `complex(c)` is the double-precision value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

EXACT = "exact"
APPROX = "approx"


class GaussRat:
    """Gaussian rational (x + y*i)/den: integers x, y over one positive
    denominator den, with gcd(x, y, den) = 1.  The form is canonical, so
    equality compares the integers.  `re` and `im` are the rational parts.
    Values are immutable: x, y and den are never reassigned."""

    __slots__ = ("x", "y", "den")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self.x, self.y, self.den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        den = p * q // gcd(p, q)
        # lcm of reduced denominators: gcd(x, y, den) = 1 already
        self.x = re.numerator * (den // p)
        self.y = im.numerator * (den // q)
        self.den = den

    @property
    def re(self) -> Fraction:
        return Fraction(self.x) if self.den == 1 else Fraction(self.x, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y) if self.den == 1 else Fraction(self.y, self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.den))

    def __add__(self, other: "GaussRat") -> "GaussRat":
        d, e = self.den, other.den
        if d == e:
            return _gauss(self.x + other.x, self.y + other.y, d)
        return _gauss(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return self + (-other)

    def __neg__(self) -> "GaussRat":
        return _gauss(-self.x, -self.y, self.den)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        a, b, c, d = self.x, self.y, other.x, other.y
        return _gauss(a * c - b * d, a * d + b * c, self.den * other.den)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        a, b, c, d = self.x, self.y, other.x, other.y
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        e = other.den
        return _gauss((a * c + b * d) * e, (b * c - a * d) * e, self.den * n)

    def conjugate(self) -> "GaussRat":
        return _gauss(self.x, -self.y, self.den)

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def abs2(self) -> Fraction:
        return Fraction(self.x * self.x + self.y * self.y, self.den * self.den)

    def to_complex(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.x / self.den, self.y / self.den)

    __complex__ = to_complex

    def __repr__(self):
        if self.y == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.y >= 0 else ''}{self.im}i)"


_new = object.__new__


def _gauss(x: int, y: int, den: int) -> GaussRat:
    """(x + y*i)/den for den > 0, reduced by the gcd unless den is 1."""
    if den != 1:
        g = gcd(x, y, den)
        if g != 1:
            x, y, den = x // g, y // g, den // g
    q = _new(GaussRat)
    q.x, q.y, q.den = x, y, den
    return q


_ZERO = GaussRat()


def coerce(value, mode: str):
    """Bring a raw value into the arithmetic of the given mode."""
    if mode == EXACT:
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, complex):
            raise TypeError("complex floats are approx-mode values")
        return GaussRat(value)
    if mode == APPROX:
        return complex(value)
    raise ValueError(f"unknown mode {mode!r}")


def zero(mode: str):
    return _ZERO if mode == EXACT else 0j
