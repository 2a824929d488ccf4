"""Analytic evaluation: characters, hyperbolic series, Hardy membership.

A character of the Minkowski torus is z -> exp(2 pi i Tr(alpha z)) for
alpha in the inverse different.  On the hyperbolization each real place
contributes exp(2 pi i a tau) and each complex pair contributes
exp(4 pi i Re(w z)) exp(-4 pi Im(w b)), with b in the open quarter
plane.  Graded components are evaluated after conjugating the point so
that every term of the component decays; see the note at c_inverse
below for why the conjugation uses the inverse quarter turn.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import coeffs
from .algebra import AlgebraElement
from .coeffs import GaussRat
from .errors import BandwidthError, FieldMismatchError
from .numberfield import (
    FieldElement,
    NumberField,
    dual_vector,
    embed_vector,
    trace_on_infinity,
)
from .polys import _Frozen
from .signs import grade, quadrant, sign_of

EPS = 2.0 ** -52


class EvalResult(_Frozen):
    def __init__(self, value: complex, bound: float):
        self._set(value, bound)

    def __repr__(self):
        return f"EvalResult({self.value!r}, bound={self.bound:.3e})"


class HyperPoint(_Frozen):
    """A point of the hyperbolization: one upper-half-plane coordinate
    tau per real place, one (z, b) pair per complex place with b in the
    open quarter plane Re b > 0, Im b > 0."""

    def __init__(self, reals: tuple, complexes: tuple):
        for tau in reals:
            if not complex(tau).imag > 0:
                raise ValueError("real-place coordinate must have Im > 0")
        for _, b in complexes:
            b = complex(b)
            if not (b.real > 0 and b.imag > 0):
                raise ValueError("quarter-plane coordinate must have Re, Im > 0")
        self._set(reals, complexes)

    @staticmethod
    def uniform(field: NumberField, x=0.0, t=1.0) -> "HyperPoint":
        """The point with every tau = x + it and every pair (x, t + it)."""
        r, s = field.signature
        return HyperPoint(
            tuple(complex(x, t) for _ in range(r)),
            tuple((complex(x), complex(t, t)) for _ in range(s)),
        )


class TorusPoint(_Frozen):
    """A point of the Minkowski torus in power-basis coordinates, each
    reduced to the fundamental domain [0, 1)."""

    def __init__(self, coords: tuple):
        self._set(tuple(Fraction(c) % 1 for c in coords))


def character_eval(alpha: FieldElement, z) -> EvalResult:
    """exp(2 pi i Tr(alpha * z)) for a K-infinity vector z (one entry
    per place, complex entries at complex places)."""
    emb = embed_vector(alpha)
    if len(z) != len(emb):
        raise ValueError("vector length must equal the number of places")
    prod = [a * complex(w) for a, w in zip(emb, z)]
    tr = trace_on_infinity(alpha.field, prod)
    value = cmath.exp(2j * math.pi * tr)
    bound = (2 * math.pi * abs(tr) + 2) * EPS
    return EvalResult(value, bound)


def character_eval_torus(alpha: FieldElement, p: TorusPoint) -> EvalResult:
    """Character at a torus point: exp(2 pi i c . n(alpha)) where
    n_j(alpha) = Tr(alpha a^j) is the pairing of alpha with the power
    basis (integer for alpha in the inverse different)."""
    n = dual_vector(alpha)
    arg = sum(Fraction(c) * nj for c, nj in zip(p.coords, n))
    value = cmath.exp(2j * math.pi * float(arg))
    return EvalResult(value, (2 * math.pi * abs(float(arg)) + 2) * EPS)


# -- hyperbolic series evaluation ------------------------------------


def c_inverse(e_exp: int) -> complex:
    """Quarter-turn factor applied to b when evaluating a component of
    singular exponent e_exp.  The inverse turn i^(-e) is used rather
    than the direct turn i^e: with the direct turn the sqrt- and
    -sqrt- components acquire growing factors (Im(i a i b) = -Im(ab) < 0
    for a, b in the quarter plane), while the inverse turn makes every
    term of every component decay, which is what the grading is for."""
    return 1j ** (-e_exp % 4)


def series_eval_hyper(f: AlgebraElement, p: HyperPoint) -> EvalResult:
    """Evaluate a finitely supported series at a hyperbolization point,
    component by component with the component's own conjugation."""
    r, s = f.field.signature
    if len(p.reals) != r or len(p.complexes) != s:
        raise FieldMismatchError("point shape does not match the field signature")
    graded = grade(f)
    total = complex(graded.constant)
    bound = 2 * EPS
    for v, part in graded.components.items():
        for idx, c in part.terms.items():
            emb = embed_vector(idx)
            term = complex(c)
            phase_size = 0.0
            for j in range(r):
                a = emb[j].real
                tau = complex(p.reals[j])
                theta = v.reals[j]
                # exp(2 pi i a (x + theta i t)): modulus exp(-2 pi |a| t)
                term *= cmath.exp(2j * math.pi * a * complex(tau.real, theta * tau.imag))
                phase_size += 2 * math.pi * abs(a) * (abs(tau.real) + tau.imag)
            for j in range(s):
                w = complex(emb[r + j])
                z, b = (complex(p.complexes[j][0]), complex(p.complexes[j][1]))
                e_inv = c_inverse(v.complexes[j].e)
                term *= cmath.exp(4j * math.pi * (w * z).real)
                term *= math.exp(-4 * math.pi * (w * e_inv * b).imag)
                phase_size += 4 * math.pi * abs(w) * (abs(z) + abs(b))
            total += term
            bound += abs(term) * (phase_size + 4) * EPS
    return EvalResult(total, bound)


def series_eval_boundary(f: AlgebraElement, x) -> EvalResult:
    """Boundary character sum at a K-infinity vector x (all t = 0)."""
    total = complex(f.constant)
    bound = 2 * EPS
    for idx, c in f.terms.items():
        if idx.is_zero:
            continue
        res = character_eval(idx, x)
        c = complex(c)
        total += c * res.value
        bound += abs(c) * (res.bound + 2 * EPS)
    return EvalResult(total, bound)


# -- positive cone and Hardy membership ------------------------------


def in_positive_cone(alpha: FieldElement) -> bool:
    """True iff all real embeddings are positive and every complex
    representative lies in the open first quadrant.  Axis cases are
    decided exactly through sign_of."""
    if alpha.is_zero:
        return False
    v = sign_of(alpha)
    return all(x > 0 for x in v.reals) and all(
        c == quadrant(0) for c in v.complexes
    )


def hardy_membership(f: AlgebraElement) -> bool:
    """Support condition for the Hardy space: every nonzero index lies
    in the positive cone."""
    return all(
        in_positive_cone(idx) for idx in f.terms if not idx.is_zero
    )


def l2_norm(f: AlgebraElement) -> float:
    """Coefficient l2 norm sqrt(sum |a_alpha|^2)."""
    if f.mode == coeffs.EXACT:
        total = sum((c.abs2() for c in f.terms.values()), Fraction(0))
        return math.sqrt(total)
    return math.sqrt(sum(abs(c) ** 2 for c in f.terms.values()))


# -- torus quadrature ------------------------------------------------


def torus_inner_product(f: AlgebraElement, g: AlgebraElement, grid: int) -> EvalResult:
    """Equal-weight tensor quadrature of f gbar over the grid^d points of
    the fundamental domain of the power-basis lattice, in closed form: for
    f = sum a_n e(n.x) and g = sum b_m e(m.x) over dual vectors n, m,
    discrete orthogonality makes it sum over n = m (mod grid) of
    a_n conj(b_m), which a grid of at least 2 band + 1 reduces to n = m.
    That sum is formed exactly; `bound` covers its one rounding to floats."""
    f._check(g)
    spectra = ({}, {})
    for h, spectrum in zip((f, g), spectra):
        for idx, c in h.terms.items():
            n = dual_vector(idx)
            if any(q.denominator != 1 for q in n):
                raise ValueError("indices must lie in the inverse different "
                                 "to define functions on the torus")
            n = tuple(q.numerator for q in n)
            spectrum[n] = c if c.__class__ is GaussRat else GaussRat(c.real, c.imag)
    band = max((abs(k) for spectrum in spectra for n in spectrum for k in n), default=0)
    if grid < 2 * band + 1:
        raise BandwidthError(f"grid {grid} per dimension cannot resolve bandwidth "
                             f"{band}; need at least {2 * band + 1}")
    a, b = spectra
    value = complex(sum((c * b[n].conjugate() for n, c in a.items() if n in b), GaussRat()))
    # each part rounds once: by at most EPS / 2 of it, or 2^-1075 below the normal range
    return EvalResult(value, EPS * abs(value) + 2.0 ** -1074)
