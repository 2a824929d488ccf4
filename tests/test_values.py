"""The value classes of the library and the parser's AST nodes: equality,
hashing, reprs, immutability, pickling and copying, and the checks their
constructors make."""

import copy
import pickle
from fractions import Fraction

import pytest

from nlfield.algebra import ProjectiveClass
from nlfield.errors import NotAnAutomorphismError, NotProjectivizableError
from nlfield.galois import (
    Automorphism,
    FlowParameter,
    GaloisGroup,
    TowerEmbedding,
    group_from_family,
    identity_automorphism,
)
from nlfield.hardy import EvalResult, HyperPoint, TorusPoint
from nlfield.numberfield import cyclotomic_field, quadratic_field
from nlfield.parser import BinOp, Gen, Num, parse_algebra, parse_expression
from nlfield.polys import Poly
from nlfield.signs import (
    ComplexSign,
    GradedDecomposition,
    SignVector,
    grade,
    quadrant,
    sign_of,
    singular,
)

K = quadratic_field(2)
L = cyclotomic_field(8)
K_REPR = "NumberField(deg=2, minpoly=Poly(-2 + x^2))"
FIRST_FIELD = {"ProjectiveClass": "representative", "TowerEmbedding": "base",
               "FlowParameter": "coords", "EvalResult": "value", "HyperPoint": "reals",
               "TorusPoint": "coords", "ComplexSign": "e", "SignVector": "reals",
               "Poly": "coeffs", "Automorphism": "field", "Num": "value", "BinOp": "op",
               "GaloisGroup": "field"}


def _instances():
    """Fixed instances of every class with a field tuple, as (value, an equal
    value built apart, a different value, the field tuple, the repr)."""
    f = parse_algebra("2*z^{1}+z^{a}", K)
    proj = f.projectivize()
    w = L.gen + L.gen ** 7
    tower = TowerEmbedding(K, L, w)
    hyper = HyperPoint.uniform(L, x=0.25, t=1.0)
    svec = sign_of(L.gen)
    return {
        "ProjectiveClass": (
            proj, f.scale(2).projectivize(), parse_algebra("z^{1}", K).projectivize(),
            None,
            "ProjectiveClass(representative=AlgebraElement(2/3*z^[Fraction(1, 1), "
            "Fraction(0, 1)] + 1/3*z^[Fraction(0, 1), Fraction(1, 1)]))"),
        "TowerEmbedding": (
            tower, TowerEmbedding(K, L, L.gen - L.gen ** 3), TowerEmbedding(K, L, -w),
            (K, L, w),
            f"TowerEmbedding(base={K_REPR}, extension=NumberField(deg=4, "
            "minpoly=Poly(1 + x^4)), generator_image=FieldElement([Fraction(0, 1), "
            "Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)]))"),
        "FlowParameter": (
            FlowParameter.of(K, [0.5, 1.5]), FlowParameter((0.5 + 0j, 1.5 + 0j)),
            FlowParameter.of(K, [0.5, 2]), ((0.5 + 0j, 1.5 + 0j),),
            "FlowParameter(coords=((0.5+0j), (1.5+0j)))"),
        "EvalResult": (
            EvalResult(1j, 0.5), EvalResult(1j, 0.5), EvalResult(1j, 0.25), (1j, 0.5),
            "EvalResult(1j, bound=5.000e-01)"),
        "HyperPoint": (
            hyper, HyperPoint((), hyper.complexes), HyperPoint.uniform(L, x=0.5),
            ((), ((0.25 + 0j, 1 + 1j), (0.25 + 0j, 1 + 1j))),
            "HyperPoint(reals=(), complexes=(((0.25+0j), (1+1j)), ((0.25+0j), (1+1j))))"),
        "TorusPoint": (
            TorusPoint((Fraction(3, 2), -1, Fraction(-1, 3))),
            TorusPoint((Fraction(1, 2), 0, Fraction(2, 3))), TorusPoint((0, 0, 0)),
            ((Fraction(1, 2), Fraction(0), Fraction(2, 3)),),
            "TorusPoint(coords=(Fraction(1, 2), Fraction(0, 1), Fraction(2, 3)))"),
        "ComplexSign": (
            singular(1), ComplexSign(1, False), quadrant(1), (1, False), "sqrt-"),
        "SignVector": (
            svec, SignVector(svec.reals, tuple(svec.complexes)),
            SignVector((), (quadrant(0), quadrant(0))), ((), svec.complexes),
            "(sqrt-e, +e)"),
        "Poly": (  # no field tuple: the hash is not that of the coefficients
            Poly([-2, 0, 1]), Poly([Fraction(-2), 0, 1, 0]), Poly([-3, 0, 1]), None,
            "Poly(-2 + x^2)"),
        "Automorphism": (
            Automorphism(K, -K.gen), group_from_family(K, "quadratic").elements[1],
            identity_automorphism(K), (K, -K.gen),
            "Automorphism(a -> [Fraction(0, 1), Fraction(-1, 1)])"),
        "Num": (
            Num(Fraction(1, 2)), Num(Fraction(2, 4)), Num(Fraction(1)), (Fraction(1, 2),),
            "Num(value=Fraction(1, 2))"),
        "BinOp": (
            BinOp("+", Gen(), Num(Fraction(1, 2))), parse_expression("a+1/2"),
            BinOp("-", Gen(), Num(Fraction(1, 2))), ("+", Gen(), Num(Fraction(1, 2))),
            "BinOp(op='+', left=Gen(), right=Num(value=Fraction(1, 2)))"),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_equality_hash_and_repr(name):
    value, same, other, fields, text = _instances()[name]
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != fields and value != object()
    assert hash(value) == hash(same)
    if fields is not None:
        assert hash(value) == hash(fields)
    assert repr(value) == text


def test_projective_class_hashes_its_support():
    proj = parse_algebra("2*z^{1}+z^{a}", K).projectivize()
    assert hash(proj) == hash(frozenset(proj.representative.terms))


@pytest.mark.parametrize("name", sorted(FIRST_FIELD))
def test_fields_cannot_be_assigned(name):
    if name == "GaloisGroup":
        value = group_from_family(K, "quadratic")
    else:
        value = _instances()[name][0]
    field = FIRST_FIELD[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_constructors_check_their_arguments():
    with pytest.raises(AssertionError):
        ComplexSign(4, False)
    with pytest.raises(ValueError):
        HyperPoint((complex(0.5, 0),), ())
    with pytest.raises(ValueError):
        HyperPoint((), ((0.0, complex(1, -1)),))
    with pytest.raises(NotAnAutomorphismError):
        TowerEmbedding(K, L, L.gen)  # zeta_8 is not a square root of 2
    with pytest.raises(NotAnAutomorphismError):
        TowerEmbedding(K, L, K.gen)  # the image must live in the extension
    with pytest.raises(NotProjectivizableError):
        ProjectiveClass(parse_algebra("2*z^{1}+z^{a}", K))


def test_torus_point_reduces_mod_one():
    p = TorusPoint((Fraction(7, 3), -2, Fraction(-1, 4)))
    assert p.coords == (Fraction(1, 3), Fraction(0), Fraction(3, 4))
    assert all(type(c) is Fraction for c in p.coords)


def test_tower_embedding_still_embeds():
    tower = TowerEmbedding(K, L, L.gen + L.gen ** 7)
    image = tower.embed_element(K.gen)
    assert image == L.gen + L.gen ** 7 and image * image == L.element([2, 0, 0, 0])


def test_galois_group_is_unhashable_and_compares_by_fields():
    g = group_from_family(K, "quadratic")
    assert g == GaloisGroup(K, list(g.elements))
    assert g != GaloisGroup(K, g.elements[:1])
    assert repr(g) == (
        f"GaloisGroup(field={K_REPR}, elements=[Automorphism(a -> [Fraction(0, 1), "
        "Fraction(1, 1)]), Automorphism(a -> [Fraction(0, 1), Fraction(-1, 1)])])")
    with pytest.raises(TypeError):
        hash(g)


def test_graded_decomposition_is_unhashable_and_compares_by_fields():
    f = parse_algebra("z^{1}+z^{a}+3*z^{-a}+2*z^{0}", K)
    d = grade(f)
    assert d == grade(f) and d != grade(f.scale(2))
    assert d == GradedDecomposition(K, d.mode, dict(d.components), d.constant)
    assert repr(d) == (
        f"GradedDecomposition(field={K_REPR}, mode='exact', components={{"
        "(+, +): AlgebraElement(1*z^[Fraction(1, 1), Fraction(0, 1)]), "
        "(-, +): AlgebraElement(1*z^[Fraction(0, 1), Fraction(1, 1)]), "
        "(+, -): AlgebraElement(3*z^[Fraction(0, 1), Fraction(-1, 1)])}, constant=2)")
    with pytest.raises(TypeError):
        hash(d)
    with pytest.raises(AttributeError):
        d.constant = 0


def test_values_pickle_and_deep_copy():
    """Every value holding a Poly, and the field itself with its places
    isolated and a sign cached, comes back equal from deepcopy and from a
    pickle round trip; an element of the copied field multiplies with one
    of the original."""
    assert len(K.places) == 2
    sign_of(K.gen)
    f = parse_algebra("2*z^{1}+z^{a}", K)
    values = [K.minpoly, K, K.gen + 1, f, f.projectivize(),
              TowerEmbedding(K, L, L.gen + L.gen ** 7), Automorphism(K, -K.gen),
              group_from_family(K, "quadratic"), grade(f), parse_expression("(1+a)^2")]
    for value in values:
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    product = K.element([1, 1]) * K.gen
    for field in (copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
        assert field.element([1, 1]) * K.gen == product
