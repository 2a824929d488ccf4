"""The field algebra C[K]: finitely supported sums over field elements.

An element is a finite map from Fourier indices (elements of K) to
coefficients, carrying the Cauchy product (additive convolution of
indices), the Dirichlet product (multiplicative convolution with a
special constant-term rule), the trace functional T = coefficient sum,
and trace-normalized projectivization.  The two products do not
distribute over one another; T is multiplicative under both.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import add, mul

from . import coeffs
from .coeffs import APPROX, EXACT, _gauss
from .errors import (
    FieldMismatchError,
    ModeMismatchError,
    NotProjectivizableError,
)
from .numberfield import FieldElement, NumberField
from .polys import _Frozen

_new = object.__new__


def _element(field: NumberField, mode: str, terms: dict) -> "AlgebraElement":
    """An element from terms already checked against field and mode, as the
    output of an operation on elements is: only the zero coefficients drop."""
    out = _new(AlgebraElement)
    out.field, out.mode = field, mode
    out.terms = {i: c for i, c in terms.items() if c}
    return out


class AlgebraElement:
    __slots__ = ("field", "mode", "terms")

    def __init__(self, field: NumberField, mode: str, terms: dict | None = None):
        if mode not in (EXACT, APPROX):
            raise ValueError(f"unknown mode {mode!r}")
        self.field = field
        self.mode = mode
        clean = {}
        for idx, c in (terms or {}).items():
            if idx.field != field:
                raise FieldMismatchError("index from a different field")
            c = coeffs.coerce(c, mode)
            if c:
                clean[idx] = c
        self.terms = clean

    # -- basics ------------------------------------------------------

    @property
    def support(self):
        return set(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, idx: FieldElement):
        return self.terms.get(idx, coeffs.zero(self.mode))

    @property
    def constant(self):
        return self.coeff(self.field.zero)

    def _check(self, other: "AlgebraElement"):
        if self.field != other.field:
            raise FieldMismatchError("elements over different fields")
        if self.mode != other.mode:
            raise ModeMismatchError(f"cannot mix {self.mode} and {other.mode}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.field == other.field
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.mode, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "AlgebraElement(0)"
        parts = [f"{c!r}*z^{list(i.coords)}" for i, c in self.terms.items()]
        return "AlgebraElement(" + " + ".join(parts) + ")"

    # -- linear structure (plain coefficient addition) ---------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return _element(self.field, self.mode, self.terms)._iadd(other)

    def _iadd(self, other: "AlgebraElement") -> "AlgebraElement":
        """self += other, zero sums dropping as they arise; self must be fresh."""
        t, zero = self.terms, coeffs.zero(self.mode)
        for idx, c in other.terms.items():
            t[idx] = t.get(idx, zero) + c
            if not t[idx]:
                del t[idx]
        return self

    def __neg__(self) -> "AlgebraElement":
        return _element(self.field, self.mode, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, scalar) -> "AlgebraElement":
        s = coeffs.coerce(scalar, self.mode)
        return _element(self.field, self.mode, {i: c * s for i, c in self.terms.items()})

    # -- the two products --------------------------------------------

    def cauchy(self, other: "AlgebraElement") -> "AlgebraElement":
        """Cauchy product: additive convolution of indices."""
        return _convolve(self, other, False)

    def dirichlet(self, other: "AlgebraElement") -> "AlgebraElement":
        """Dirichlet product: multiplicative convolution of nonzero indices,
        with constant term a0*sum(b) + b0*sum(a) + a0*b0 over nonzero
        indices of the partner."""
        out = _convolve(self, other, True)
        zero_idx, zero = self.field.zero, coeffs.zero(self.mode)
        sum_a, sum_b = (reduce(add, (c for i, c in h.terms.items() if any(i.num)), zero)
                        for h in (self, other))
        a0, b0 = self.terms.get(zero_idx, zero), other.terms.get(zero_idx, zero)
        d0 = a0 * sum_b + b0 * sum_a + a0 * b0
        if d0:  # no product of nonzero indices is zero
            out.terms[zero_idx] = zero + d0
        return out

    # -- trace, ideal, projectivization ------------------------------

    def trace(self):
        t = coeffs.zero(self.mode)
        for c in self.terms.values():
            t = t + c
        return t

    def is_in_ideal(self) -> bool:
        t = self.trace()
        if self.mode == EXACT:
            return not t
        return abs(t) <= 1e-12

    def projectivize(self) -> "ProjectiveClass":
        t = self.trace()
        if not t:
            raise NotProjectivizableError("zero-trace element is not projectivizable")
        return ProjectiveClass(self.scale(coeffs.coerce(1, self.mode) / t))


def _convolve(f: AlgebraElement, g: AlgebraElement, dirichlet: bool) -> AlgebraElement:
    """The element of the nonzero sums of c1*c2 over index pairs at i1+i2
    (Cauchy) or at i1*i2 over nonzero indices (Dirichlet), in the order in
    which the pairs first reach each index.  It runs on integers: indices
    as numerators over one denominator, coefficients as (x, y, den), approx
    ones as float (re, im) over 1, and each sum as a list [x, y, den] that
    starts at 0 and takes a term over another den over the lcm of the two.
    A Dirichlet index is multiplied by the matrix of the left one."""
    f._check(g)
    field, exact = f.field, f.mode == EXACT
    den = lcm(*(i.den for i in f.terms), *(i.den for i in g.terms))
    left, right = ([(i.num if i.den == den else tuple([n * (den // i.den) for n in i.num]),
                     *((c.x, c.y, c.den) if exact else (c.real, c.imag, 1)))
                    for i, c in h.terms.items()] for h in (f, g))
    if dirichlet:
        left, right = ([t for t in side if any(t[0])] for side in (left, right))
        table = field._mul_table
    nums = [t[0] for t in right]
    acc: dict = {}
    for n1, x1, y1, d1 in left:
        if dirichlet:
            rows = [[sum(map(mul, n1, t)) for t in tr] for tr in table]
            keys = [tuple([sum(map(mul, r, n2)) for r in rows]) for n2 in nums]
        else:
            keys = [tuple(map(add, n1, n2)) for n2 in nums]
        for key, (_, x2, y2, d2) in zip(keys, right):
            x, y, e = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2
            s = acc.get(key)
            if s is None:
                acc[key] = [0 + x, 0 + y, e]
            elif s[2] == e:
                s[0] += x
                s[1] += y
            else:
                m = lcm(s[2], e)
                s[0], s[1], s[2] = (s[0] * (m // s[2]) + x * (m // e),
                                    s[1] * (m // s[2]) + y * (m // e), m)
    make = _gauss if exact else lambda x, y, _: complex(x, y)
    index_den = field._reduction[0] * den * den if dirichlet else den
    out = _new(AlgebraElement)
    out.field, out.mode = field, f.mode
    out.terms = {FieldElement(field, key, index_den): make(x, y, e)
                 for key, (x, y, e) in acc.items() if x or y}
    return out


class ProjectiveClass(_Frozen):
    """A projective class represented by its trace-one element, which is
    canonical: two classes are equal iff their representatives are, exactly
    in exact mode and coefficientwise within 1e-12 * max(1, max|c|) in
    approx mode."""

    def __init__(self, representative: AlgebraElement):
        # equality reads the representative, so it must be the canonical one
        t = representative.trace()
        if representative.mode == EXACT:
            canonical = t == coeffs.coerce(1, EXACT)
        else:
            canonical = abs(t - 1.0) < 1e-9
        if not canonical:
            raise NotProjectivizableError(f"representative has trace {t!r}, not 1")
        self._set(representative)

    def __eq__(self, other):
        if not isinstance(other, ProjectiveClass):
            return False
        f, g = self.representative, other.representative
        if f.mode == EXACT:
            return f == g
        if f.field != g.field or g.mode != APPROX or f.terms.keys() != g.terms.keys():
            return False
        tol = 1e-12 * max(1.0, *map(abs, f.terms.values()), *map(abs, g.terms.values()))
        return all(abs(c - g.terms[k]) <= tol for k, c in f.terms.items())

    def __hash__(self):
        return hash(frozenset(self.representative.terms))


# -- constructors ----------------------------------------------------


def monomial(alpha: FieldElement, coeff=1, mode: str = EXACT) -> AlgebraElement:
    return AlgebraElement(alpha.field, mode, {alpha: coeff})

