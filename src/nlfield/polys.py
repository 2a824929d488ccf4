"""Univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first, and the zero polynomial is
the empty tuple.  A Poly is the value type of defining and minimal
polynomials; its arithmetic is the reference for field arithmetic in tests.
Only `define_field` factors one, through sympy, at degree >= 3 and not Phi_n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class _Frozen:
    """Base of the immutable value classes: equality by class and fields, a
    hash of the field tuple, a Cls(f=...) repr, and assignment that raises.
    The fields are the parameters of a subclass's `__init__`, which sets
    them with `_set`; it keeps their tuple for `==` and hash."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values), _values=values)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Poly(_Frozen):
    """Immutable polynomial over Q, coefficients lowest degree first."""

    def __init__(self, coeffs: Sequence = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._set(tuple(cs))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            q = Fraction(other)
            return Poly([c * q for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading
        while rem and len(rem) >= len(other.coeffs):
            k = len(rem) - len(other.coeffs)
            c = rem[-1] / lead
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quo), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"
