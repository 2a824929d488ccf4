"""Sign gradings of field elements and of algebra elements.

Real places carry the usual {+,-} grading.  Each complex pair carries a
member of the eight-element sign set: four singular signs (on the real
or imaginary axis, forming Z/4 generated by the quarter turn) and four
quadrant signs (open quadrants, written with a trailing epsilon).  The
product of two quadrant signs is genuinely set-valued: it can overflow
into the neighbouring singular sign and quadrant.

Axis membership is decided exactly, never by thresholding: the embedded
value is matched to a root of its own minimal polynomial, whose isolating
box among the unordered numberfield.root_enclosures certifies whether it
is real, and the purely-imaginary test reduces to realness of the square
with certified negative sign.
"""

from __future__ import annotations

from contextlib import suppress
from functools import partial

from .algebra import AlgebraElement, _element
from .errors import SignlessError, UndecidedNumericallyError
from .intervals import Ball
from .numberfield import (
    DEFAULT_START_WIDTH,
    FieldElement,
    NumberField,
    Place,
    embed,
    minimal_polynomial_of,
    refine,
    root_enclosures,
)
from .polys import _Frozen

# -- complex signs ---------------------------------------------------

_SINGULAR_NAMES = {0: "+", 1: "sqrt-", 2: "-", 3: "-sqrt-"}
_QUADRANT_NAMES = {0: "+e", 1: "sqrt-e", 2: "-e", 3: "-sqrt-e"}


class ComplexSign(_Frozen):
    """e is the exponent of the quarter turn (0..3); eps marks a quadrant
    sign, its absence a singular (axis) sign."""

    def __init__(self, e: int, eps: bool):
        assert e in (0, 1, 2, 3)
        self._set(e, eps)

    @property
    def name(self) -> str:
        return (_QUADRANT_NAMES if self.eps else _SINGULAR_NAMES)[self.e]

    def __repr__(self):
        return self.name


# the eight signs, built once: singular(e) and quadrant(e) are entries of
# these tables, never fresh objects
_SINGULAR = tuple(ComplexSign(e, False) for e in range(4))
_QUADRANT = tuple(ComplexSign(e, True) for e in range(4))
ALL_COMPLEX_SIGNS = _SINGULAR + _QUADRANT
_NAME_TO_SIGN = {s.name: s for s in ALL_COMPLEX_SIGNS}
# the open quadrant of (sign Re, sign Im)
_QUADRANT_OF = {(1, 1): _QUADRANT[0], (-1, 1): _QUADRANT[1],
                (-1, -1): _QUADRANT[2], (1, -1): _QUADRANT[3]}


def singular(e: int) -> ComplexSign:
    return _SINGULAR[e % 4]


def quadrant(e: int) -> ComplexSign:
    return _QUADRANT[e % 4]


def complex_sign_from_name(name: str) -> ComplexSign:
    return _NAME_TO_SIGN[name]


def sign_product(v1: ComplexSign, v2: ComplexSign) -> frozenset:
    """Set-valued product on the eight complex signs."""
    e = (v1.e + v2.e) % 4
    if not (v1.eps and v2.eps):
        return frozenset({(_QUADRANT if v1.eps or v2.eps else _SINGULAR)[e]})
    # quadrant times quadrant overflows into the turned singular sign and
    # the turned quadrant
    return frozenset({_QUADRANT[e], _SINGULAR[(e + 1) % 4], _QUADRANT[(e + 1) % 4]})


# -- sign vectors ----------------------------------------------------


class SignVector(_Frozen):
    """One real sign (+1/-1) per real place, one ComplexSign per pair.
    Every uncached sign_of builds one, so its methods are written out."""

    def __init__(self, reals: tuple, complexes: tuple):
        self.__dict__.update(reals=reals, complexes=complexes)

    def __eq__(self, other):
        if other.__class__ is not SignVector:
            return NotImplemented
        return self.reals == other.reals and self.complexes == other.complexes

    def __hash__(self):
        return hash((self.reals, self.complexes))

    def serialize(self) -> list[str]:
        return ["+" if r > 0 else "-" for r in self.reals] + [
            s.name for s in self.complexes
        ]

    @staticmethod
    def deserialize(names: list[str], signature: tuple[int, int]) -> "SignVector":
        r, s = signature
        assert len(names) == r + s
        return SignVector(
            tuple(1 if n == "+" else -1 for n in names[:r]),
            tuple(complex_sign_from_name(n) for n in names[r:]),
        )

    def __repr__(self):
        return "(" + ", ".join(self.serialize()) + ")"


def sign_vector_product(v1: SignVector, v2: SignVector) -> frozenset:
    """Componentwise product; set-valued through the complex components."""
    reals = tuple(a * b for a, b in zip(v1.reals, v2.reals))
    options = [sign_product(a, b) for a, b in zip(v1.complexes, v2.complexes)]
    out = {SignVector(reals, ())}
    for opts in options:
        out = {
            SignVector(reals, v.complexes + (o,)) for v in out for o in opts
        }
    return frozenset(out)


# -- exact sign determination ----------------------------------------


def _matched_root(alpha: FieldElement, place: Place) -> Place:
    """The root of minpoly(alpha) equal to the embedding of alpha at the
    place: the one candidate left once the balls are narrow enough."""
    m = minimal_polynomial_of(alpha)
    cache = alpha.field._root_cache
    if m not in cache:
        cache[m] = root_enclosures(m)

    def match(width):
        target = embed(alpha, place, width)
        cands = [r for r in cache[m] if r.box(width).overlaps(target)]
        return cands[0] if len(cands) == 1 else None
    return refine(match)


def _certified_sign(alpha: FieldElement, place: Place, part) -> int:
    """part(ball), Ball.re_sign or Ball.im_sign, of a refined ball of the value."""
    return refine(lambda width: part(embed(alpha, place, width)))


def _ball_quadrant(alpha: FieldElement, place: Place, width) -> ComplexSign | None:
    """The open quadrant that the embedded value's ball lies in, if any."""
    ball = embed(alpha, place, width)
    return _QUADRANT_OF.get((ball.re_sign(), ball.im_sign()))


def _complex_sign_at(alpha: FieldElement, place: Place) -> ComplexSign:
    # Fast path: two rounds of ball refinement, at 2^-53 and 2^-106, settle
    # any value off both axes without touching its minimal polynomial.  The
    # widths stay moderate: squeezing complex root balls much below 2^-40
    # costs more than the exact fallback it would save.
    with suppress(UndecidedNumericallyError):
        return refine(partial(_ball_quadrant, alpha, place), DEFAULT_START_WIDTH)
    # Near (or on) an axis: decide exactly through root matching.
    if _matched_root(alpha, place).is_real:
        return singular(0) if _certified_sign(alpha, place, Ball.re_sign) > 0 else singular(2)
    if _matched_root(alpha * alpha, place).is_real:
        # square is real and alpha is not: alpha lies on the imaginary axis
        assert _certified_sign(alpha * alpha, place, Ball.re_sign) < 0
        return singular(1) if _certified_sign(alpha, place, Ball.im_sign) > 0 else singular(3)
    # off both axes: the quadrant is readable from a refined ball
    return refine(partial(_ball_quadrant, alpha, place))


def sign_of(alpha: FieldElement) -> SignVector:
    """Certified sign vector of a nonzero field element."""
    if alpha.is_zero:
        raise SignlessError("the zero element has no sign")
    cache = alpha.field._sign_cache
    if alpha.coords in cache:
        return cache[alpha.coords]
    r, s = alpha.field.signature
    places = alpha.field.places
    v = SignVector(tuple(_certified_sign(alpha, p, Ball.re_sign) for p in places[:r]),
                   tuple(_complex_sign_at(alpha, p) for p in places[r:]))
    cache[alpha.coords] = v
    return v


# -- graded decomposition --------------------------------------------


class GradedDecomposition(_Frozen):
    """components maps SignVector -> AlgebraElement; constant is the
    coefficient of the zero index."""

    def __init__(self, field: NumberField, mode: str, components: dict, constant):
        self._set(field, mode, components, constant)

    def reassemble(self) -> AlgebraElement:
        return sum(self.components.values(),
                   AlgebraElement(self.field, self.mode, {self.field.zero: self.constant}))


def grade(f: AlgebraElement) -> GradedDecomposition:
    """Split an element by the sign vectors of its nonzero indices.
    Components are keyed lazily by the signs actually observed."""
    comps: dict = {}
    for idx, c in f.terms.items():
        if not idx.is_zero:
            comps.setdefault(sign_of(idx), {})[idx] = c
    return GradedDecomposition(
        f.field, f.mode, {v: _element(f.field, f.mode, t) for v, t in comps.items()},
        f.constant)


def restrict(f: AlgebraElement, v: SignVector) -> AlgebraElement:
    """Sub-sum of terms whose index carries the sign vector v."""
    return _element(f.field, f.mode,
                    {i: c for i, c in f.terms.items() if not i.is_zero and sign_of(i) == v})


def check_graded_dirichlet_law(f: AlgebraElement, g: AlgebraElement) -> dict:
    """Verify the graded decomposition law of the Dirichlet product:
    each sign component of f (x) g equals the sum over sign factorizations,
    restricted along the set-valued complex sign product.  The constant
    term is compared against both the convolution rule and the printed
    closed formula T(f)T(g) - f0*g0 (which disagree in general; the
    convolution rule is normative)."""
    h = f.dirichlet(g)
    gh = grade(h)
    gf, gg = grade(f), grade(g)
    rhs: dict = {}
    zero = _element(f.field, f.mode, {})
    for v1, f1 in gf.components.items():
        for v2, g2 in gg.components.items():
            prod = f1.dirichlet(g2)
            for v in sign_vector_product(v1, v2):
                part = restrict(prod, v)
                if not part.is_zero:
                    rhs[v] = rhs.get(v, zero) + part
    mismatches = []
    for v in set(gh.components) | set(rhs):
        lhs_c, rhs_c = gh.components.get(v, zero), rhs.get(v, zero)
        if lhs_c != rhs_c:
            mismatches.append(
                {"sign": v.serialize(), "lhs": repr(lhs_c), "rhs": repr(rhs_c)}
            )
    d0 = h.constant
    printed = (complex(f.trace()) * complex(g.trace())
               - complex(f.constant) * complex(g.constant))
    return {
        "check": "graded_dirichlet_law",
        "component_mismatches": mismatches,
        "matches": not mismatches,
        "d0_rule": complex(d0),
        "d0_printed_formula": printed,
    }
