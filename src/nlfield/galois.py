"""Verified automorphisms, Galois groups, relative traces, and flows.

An automorphism is specified by the image of the power-basis generator
and verified at construction: the image must satisfy the defining
polynomial exactly.  Groups are assembled from the quadratic and
cyclotomic families; their elements are checked to be distinct and
closed under composition, and the group axioms follow.  The flows Phi
and Psi act coefficientwise by unimodular phases and are the
artifact's handle on the one-parameter structure of the projectivized
algebra.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import cached_property

from . import coeffs
from .algebra import AlgebraElement, _element, monomial
from .errors import FieldMismatchError, NotAnAutomorphismError
from .numberfield import (
    FieldElement,
    NumberField,
    PowerMap,
    absolute_trace,
    cyclotomic_field,
    embed_vector,
    poly_at,
    trace_on_infinity,
)
from .polys import _Frozen
from .signs import sign_of


class Automorphism(_Frozen):
    """A field automorphism determined by the image of the generator."""

    def __init__(self, field: NumberField, image: FieldElement):
        if image.field != field:
            raise NotAnAutomorphismError("image lives in a different field")
        # p(image) = 0 with p irreducible makes p the minimal polynomial of image
        if not poly_at(field.minpoly, image).is_zero:
            raise NotAnAutomorphismError(
                "generator image does not satisfy the defining polynomial"
            )
        self._set(field, image)

    @classmethod
    def _of_root(cls, field: NumberField, image: FieldElement) -> "Automorphism":
        """Unchecked: for an image of `field` that is a root by construction."""
        sigma = object.__new__(cls)
        sigma._set(field, image)
        return sigma

    @cached_property
    def _matrix(self) -> PowerMap:
        return PowerMap(self.image, self.field.degree)

    def apply(self, a: FieldElement) -> FieldElement:
        """Evaluate the coordinate polynomial of a at the generator image,
        as the matrix whose columns are the images of the power basis."""
        if a.field != self.field:
            raise FieldMismatchError("element of a different field")
        return self._matrix(a.num, a.den)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        return Automorphism._of_root(self.field, self.apply(other.image))

    @property
    def is_identity(self) -> bool:
        return self.image == self.field.gen

    def order(self) -> int:
        power = self
        for k in range(1, self.field.degree + 1):
            if power.is_identity:
                return k
            power = power.compose(self)
        raise NotAnAutomorphismError("order exceeds the field degree")

    def __repr__(self):
        return f"Automorphism(a -> {list(self.image.coords)})"


def identity_automorphism(field: NumberField) -> Automorphism:
    return Automorphism._of_root(field, field.gen)


def make_automorphism(field: NumberField, image: FieldElement) -> Automorphism:
    return Automorphism(field, image)


class GaloisGroup(_Frozen):
    def __init__(self, field: NumberField, elements: list):
        # Distinct and closed suffices: each sigma's powers stay in the
        # finite set, so one of them is the identity and the one before
        # it is sigma's inverse; composition of maps is associative.
        images = {sig.image for sig in elements}
        if not images or len(images) != len(elements):
            raise NotAnAutomorphismError("group elements must be nonempty and distinct")
        for si in elements:
            for sj in elements:
                if si.compose(sj).image not in images:
                    raise NotAnAutomorphismError("group not closed under composition")
        self._set(field, elements)  # unhashable, as elements is a list

    @property
    def order(self) -> int:
        return len(self.elements)

    def exponent(self) -> int:
        exp = 1
        for s in self.elements:
            o = s.order()
            exp = exp * o // math.gcd(exp, o)
        return exp


def group_from_family(field: NumberField, family: str) -> GaloisGroup:
    """Assemble the Galois group from a named family.

    family is "quadratic" or "cyclotomic(n)"."""
    if family == "quadratic":
        if field.degree != 2:
            raise NotAnAutomorphismError("quadratic family needs a degree-2 field")
        b = field.minpoly.coeffs[1]
        conj = field.element([-b, Fraction(-1)])  # the other root -b - a
        return GaloisGroup(field, [identity_automorphism(field),
                                   Automorphism(field, conj)])
    if family.startswith("cyclotomic(") and family.endswith(")"):
        n = int(family[len("cyclotomic("):-1])
        if field != cyclotomic_field(n):
            raise NotAnAutomorphismError(
                f"field is not defined by the {n}-th cyclotomic polynomial"
            )
        elements = []
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                elements.append(Automorphism(field, field.gen ** k))
        return GaloisGroup(field, elements)
    raise NotAnAutomorphismError(f"unknown family {family!r}")


# -- action on the algebra -------------------------------------------


def apply_to_algebra(sigma: Automorphism, f: AlgebraElement) -> AlgebraElement:
    """Reindex by sigma; coefficients are untouched."""
    if f.field != sigma.field:
        raise NotAnAutomorphismError("automorphism of a different field")
    return _element(f.field, f.mode, {sigma.apply(i): c for i, c in f.terms.items()})


def _random_exact_element(field: NumberField, rng, nterms=4, height=5):
    terms = {}
    for _ in range(nterms):
        idx = field.element(
            [Fraction(rng.randint(-height, height)) for _ in range(field.degree)]
        )
        terms[idx] = coeffs.GaussRat(
            rng.randint(-height, height), rng.randint(-height, height)
        )
    return AlgebraElement(field, coeffs.EXACT, terms)


def verify_nonlinear_automorphism(sigma: Automorphism, samples: int = 100,
                                  seed: int = 0) -> dict:
    """Check on random exact pairs that the induced map on the algebra
    is a homomorphism for both products, preserves the trace, and
    permutes the sign grading by one consistent permutation iota."""
    rng = random.Random(seed)
    field = sigma.field
    failures = []
    iota = {}
    for trial in range(samples):
        f = _random_exact_element(field, rng)
        g = _random_exact_element(field, rng)
        sf, sg = apply_to_algebra(sigma, f), apply_to_algebra(sigma, g)
        for name, lhs, rhs in [
            ("cauchy", apply_to_algebra(sigma, f.cauchy(g)), sf.cauchy(sg)),
            ("dirichlet", apply_to_algebra(sigma, f.dirichlet(g)), sf.dirichlet(sg)),
        ]:
            if lhs != rhs:
                failures.append(
                    {"check": name, "trial": trial, "lhs": repr(lhs), "rhs": repr(rhs)}
                )
        if apply_to_algebra(sigma, f).trace() != f.trace():
            failures.append({"check": "trace", "trial": trial})
        for idx in f.terms:
            if idx.is_zero:
                continue
            key = tuple(sign_of(idx).serialize())
            val = tuple(sign_of(sigma.apply(idx)).serialize())
            if key in iota and iota[key] != val:
                failures.append(
                    {"check": "grading-permutation", "trial": trial,
                     "sign": list(key), "images": [list(iota[key]), list(val)]}
                )
            iota[key] = val
    image_signs = set(iota.values())
    if len(image_signs) != len(iota):
        failures.append({"check": "grading-permutation-injective"})
    return {
        "check": "nonlinear_automorphism",
        "samples": samples,
        "failures": failures,
        "passed": not failures,
        "iota": {" ".join(k): " ".join(v) for k, v in iota.items()},
    }


# -- towers ----------------------------------------------------------


class TowerEmbedding(_Frozen):
    """An inclusion of a base field into an extension, given by the
    image of the base generator; verified to satisfy the base minimal
    polynomial exactly."""

    def __init__(self, base: NumberField, extension: NumberField,
                 generator_image: FieldElement):
        if generator_image.field != extension:
            raise NotAnAutomorphismError("image must live in the extension")
        if not poly_at(base.minpoly, generator_image).is_zero:
            raise NotAnAutomorphismError(
                "image does not satisfy the base minimal polynomial"
            )
        self._set(base, extension, generator_image)

    @cached_property
    def _matrix(self) -> PowerMap:
        return PowerMap(self.generator_image, self.base.degree)

    def embed_element(self, a: FieldElement) -> FieldElement:
        assert a.field == self.base
        return self._matrix(a.num, a.den)


def fixed_field_check(sigma: Automorphism, tower: TowerEmbedding,
                      samples: int = 50, seed: int = 0) -> dict:
    """Forward direction of the relative Galois correspondence: sigma
    (an automorphism of the extension) fixes the embedded base field
    pointwise iff it fixes the embedded generator; sampled monomials
    with embedded indices must be fixed and the induced algebra map must
    verify as a nonlinear automorphism."""
    if sigma.field != tower.extension:
        raise NotAnAutomorphismError("sigma must act on the extension field")
    rng = random.Random(seed)
    report = {"check": "fixed_field", "samples": samples, "failures": []}
    gen_img = tower.generator_image
    if sigma.apply(gen_img) != gen_img:
        report["failures"].append(
            {"check": "generator-moved",
             "image": repr(sigma.apply(gen_img).coords)}
        )
        report["fixes_base"] = False
        report["passed"] = False
        return report
    for trial in range(samples):
        a = tower.base.element(
            [Fraction(rng.randint(-5, 5)) for _ in range(tower.base.degree)]
        )
        emb = tower.embed_element(a)
        if sigma.apply(emb) != emb:
            report["failures"].append({"check": "monomial-moved", "trial": trial})
        m = monomial(emb)
        if apply_to_algebra(sigma, m) != m:
            report["failures"].append({"check": "algebra-monomial-moved",
                                       "trial": trial})
    sub = verify_nonlinear_automorphism(sigma, samples=max(10, samples // 5),
                                        seed=seed)
    report["automorphism_report"] = sub
    report["fixes_base"] = True
    report["passed"] = not report["failures"] and sub["passed"]
    return report


def relative_trace(alpha: FieldElement, automorphisms) -> FieldElement:
    """Galois sum over the supplied relative group (or coset list)."""
    total = alpha.field.zero
    for sigma in automorphisms:
        total = total + sigma.apply(alpha)
    return total


def cyclotomic_trace_collapse(k_max: int) -> dict:
    """For Q(zeta_{2^k}), k = 2..k_max: every nontrivial power-basis
    element has trace zero and Tr(1) = d, so the trace image of the
    power-basis order is exactly (d)Z."""
    levels = []
    ok = True
    for k in range(2, k_max + 1):
        field = cyclotomic_field(2 ** k)
        d = field.degree
        traces = [absolute_trace(b) for b in field.power_basis()]
        collapsed = all(t == 0 for t in traces[1:]) and traces[0] == d
        ok = ok and collapsed and d == 2 ** (k - 1)
        levels.append(
            {"k": k, "d": d, "trace_of_one": str(traces[0]),
             "nontrivial_traces_zero": all(t == 0 for t in traces[1:]),
             "trace_image": f"({d})Z", "passed": collapsed}
        )
    return {"check": "cyclotomic_trace_collapse", "levels": levels, "passed": ok}


# -- flows -----------------------------------------------------------


class FlowParameter(_Frozen):
    """A K-infinity vector: one real entry per real place, one complex
    entry per complex pair."""

    def __init__(self, coords: tuple):
        self._set(coords)

    @staticmethod
    def of(field: NumberField, values) -> "FlowParameter":
        r, s = field.signature
        vals = [complex(v) for v in values]
        if len(vals) != r + s:
            raise ValueError(f"expected {r}+{s} coordinates")
        return FlowParameter(tuple(vals))


def _phase_flow(f: AlgebraElement, phase) -> AlgebraElement:
    """Multiply each coefficient by exp(2 pi i phase(index)); a coefficient
    whose index has phase None is kept as it is."""
    out = {}
    for idx, c in f.terms.items():
        tr = phase(idx)
        out[idx] = complex(c) if tr is None else complex(c) * cmath.exp(2j * math.pi * tr)
    return _element(f.field, coeffs.APPROX, out)


def flow_phi(r: FlowParameter, f: AlgebraElement) -> AlgebraElement:
    """Coefficientwise phase exp(2 pi i Tr(alpha r)); an additive
    (Cauchy) homomorphism with unimodular multipliers."""
    return _phase_flow(f, lambda idx: trace_on_infinity(
        f.field, [a * b for a, b in zip(embed_vector(idx), r.coords)]))


def flow_psi(r: FlowParameter, f: AlgebraElement) -> AlgebraElement:
    """Coefficientwise phase exp(2 pi i Tr(r log|alpha|)); a Dirichlet
    homomorphism on zero-constant elements.  The constant coefficient,
    whose index has no logarithm, is left unchanged."""
    def phase(idx):
        if idx.is_zero:
            return None
        logs = [math.log(abs(v)) for v in embed_vector(idx)]
        return trace_on_infinity(f.field, [b * a for a, b in zip(logs, r.coords)])
    return _phase_flow(f, phase)
