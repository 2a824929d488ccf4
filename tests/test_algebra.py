"""The field algebra: two products, trace, ideal, projectivization."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import oracle_cauchy, oracle_dirichlet
from nlfield.algebra import AlgebraElement, ProjectiveClass, monomial
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield.errors import FieldMismatchError, ModeMismatchError, NotProjectivizableError
from nlfield.numberfield import cyclotomic_field, define_field, quadratic_field, rationals
from nlfield.polys import Poly


def zeta(n):
    """Monomial z^{n} over Q."""
    return monomial(rationals().from_rational(n))


def rand_alg(draw_terms):
    Q = rationals()
    terms = {
        Q.from_rational(Fraction(n)): GaussRat(Fraction(c))
        for n, c in draw_terms
    }
    return AlgebraElement(Q, EXACT, terms)


term_lists = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-5, 5)),
    min_size=1, max_size=5,
)


def test_cauchy_adds_indices():
    f = zeta(2).cauchy(zeta(3))
    assert f == zeta(5)


def test_cauchy_identity():
    f = zeta(2) + zeta(5).scale(3)
    assert f.cauchy(zeta(0)) == f


def test_dirichlet_identity_on_nonconstant():
    f = zeta(2) + zeta(5).scale(3)
    assert f.dirichlet(zeta(1)) == f


def test_constant_term_rule_beats_closed_formula():
    """f = 2 z^0 + z^3, g = z^0 + 5 z^2: the convolution rule gives a
    constant coefficient of 13, while the tempting closed formula
    T(f)T(g) - f0 g0 gives 16; only 13 is consistent with trace
    multiplicativity (13 + 5 = 3 * 6)."""
    f = zeta(0).scale(2) + zeta(3)
    g = zeta(0) + zeta(2).scale(5)
    h = f.dirichlet(g)
    assert h.constant == GaussRat(Fraction(13))
    assert h.coeff(rationals().from_rational(6)) == GaussRat(Fraction(5))
    printed = f.trace() * g.trace() - f.constant * g.constant
    assert printed == GaussRat(Fraction(16))
    assert h.trace() == f.trace() * g.trace()


def test_dirichlet_not_distributive_over_cauchy():
    f = zeta(1) + zeta(2)
    g = h = zeta(1)
    lhs = f.dirichlet(g.cauchy(h))      # f x z^2
    rhs = f.dirichlet(g).cauchy(f.dirichlet(h))
    assert lhs == zeta(2) + zeta(4)
    assert rhs == zeta(2) + zeta(3).scale(2) + zeta(4)
    assert lhs != rhs


@given(term_lists, term_lists)
@settings(max_examples=80, deadline=None)
def test_products_commute(ta, tb):
    f, g = rand_alg(ta), rand_alg(tb)
    assert f.cauchy(g) == g.cauchy(f)
    assert f.dirichlet(g) == g.dirichlet(f)


@given(term_lists, term_lists, term_lists)
@settings(max_examples=60, deadline=None)
def test_cauchy_associative_and_distributive(ta, tb, tc):
    f, g, h = rand_alg(ta), rand_alg(tb), rand_alg(tc)
    assert f.cauchy(g.cauchy(h)) == f.cauchy(g).cauchy(h)
    assert f.cauchy(g + h) == f.cauchy(g) + f.cauchy(h)


@given(term_lists, term_lists)
@settings(max_examples=80, deadline=None)
def test_trace_multiplicative_for_both_products(ta, tb):
    f, g = rand_alg(ta), rand_alg(tb)
    assert f.cauchy(g).trace() == f.trace() * g.trace()
    assert f.dirichlet(g).trace() == f.trace() * g.trace()


@given(term_lists, term_lists)
@settings(max_examples=60, deadline=None)
def test_trace_kernel_is_an_ideal_for_both_products(ta, tb):
    f, g = rand_alg(ta), rand_alg(tb)
    k = f - zeta(0).scale(f.trace())  # trace-zero projection
    assert k.is_in_ideal()
    assert k.cauchy(g).is_in_ideal()
    assert k.dirichlet(g).is_in_ideal()


def test_projectivize_normalizes_trace():
    f = zeta(0).scale(2) + zeta(3)
    p = f.projectivize()
    assert p.representative.trace() == GaussRat(Fraction(1))
    assert p == f.scale(GaussRat(Fraction(7, 2))).projectivize()


exact_scalars = st.tuples(
    st.fractions(-20, 20, max_denominator=30), st.fractions(-20, 20, max_denominator=30)
).map(lambda p: GaussRat(*p)).filter(bool)
complex_parts = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
complex_scalars = st.builds(complex, complex_parts, complex_parts).filter(
    lambda z: abs(z) > 0.1)


def rand_approx(draw_terms):
    Q = rationals()
    return AlgebraElement(Q, APPROX, {Q.from_rational(n): c for n, c in draw_terms})


@given(term_lists, exact_scalars)
@settings(max_examples=80, deadline=None)
def test_exact_class_is_scale_invariant(ta, lam):
    f = rand_alg(ta)
    assume(f.trace())
    p, q = f.projectivize(), f.scale(lam).projectivize()
    assert p == q and hash(p) == hash(q)


@given(st.lists(st.tuples(st.integers(-6, 6), complex_scalars), min_size=1, max_size=5),
       complex_scalars)
@settings(max_examples=80, deadline=None)
def test_approx_class_is_scale_invariant(ta, lam):
    f = rand_approx(ta)
    # a trace far below the coefficients amplifies rounding past any fixed tolerance
    assume(f.terms and abs(f.trace()) > max(map(abs, f.terms.values())) / 4)
    p, q = f.projectivize(), f.scale(lam).projectivize()
    assert p == q and hash(p) == hash(q)


@given(term_lists, st.integers(7, 12), st.sampled_from([EXACT, APPROX]))
@settings(max_examples=80, deadline=None)
def test_classes_with_different_supports_differ(ta, extra, mode):
    f = rand_alg(ta)
    if mode == APPROX:
        f = rand_approx((i.as_rational(), complex(c)) for i, c in f.terms.items())
    assume(f.trace())
    # two new indices whose coefficients cancel: same trace, same shared coefficients
    Q = rationals()
    g = f + monomial(Q.from_rational(extra), 1, mode) - monomial(Q.from_rational(-extra), 1, mode)
    p, q = f.projectivize(), g.projectivize()
    assert p != q and q != p


@pytest.mark.parametrize("mode", [EXACT, APPROX])
def test_class_needs_a_trace_one_representative(mode):
    f = monomial(rationals().one, 2, mode)
    with pytest.raises(NotProjectivizableError):
        ProjectiveClass(f)
    assert ProjectiveClass(f.scale(Fraction(1, 2))) == f.projectivize()


def test_projectivize_rejects_trace_zero():
    f = zeta(1) - zeta(2)
    with pytest.raises(NotProjectivizableError):
        f.projectivize()


def test_cauchy_identity_annihilates_in_projectivization():
    """z^0 x f collapses to T(f) z^0, so the class of z^0 absorbs any
    Dirichlet product it enters."""
    f = zeta(2).scale(3) + zeta(5)
    collapsed = zeta(0).dirichlet(f)
    assert collapsed == zeta(0).scale(f.trace())
    assert collapsed.projectivize() == zeta(0).projectivize()


def test_quadratic_field_indices():
    K = quadratic_field(2)
    f = monomial(K.gen)
    g = monomial(K.one + K.gen)
    prod = f.dirichlet(g)
    assert list(prod.terms) == [K.gen * (K.one + K.gen)]


# terms over Q(sqrt2): index coordinates and an integer coefficient; small
# ranges, so that products collide on indices and cancel to zero
quad_terms = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3)),
    min_size=0, max_size=4,
)


@given(quad_terms, quad_terms, st.sampled_from([EXACT, APPROX]), st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_operations_build_what_the_public_constructor_builds(ta, tb, mode, lam):
    """Products, sums, negation and scaling skip the public constructor's
    checks; their results must still equal its result on their own terms,
    and the Cauchy product, the sum and the scaling its result on terms
    computed here."""
    K = quadratic_field(2)
    f, g = (AlgebraElement(K, mode, {K.element(list(i)): c for i, c in t}) for t in (ta, tb))
    kind = GaussRat if mode == EXACT else complex
    cauchy, plus, scaled = {}, dict(f.terms), {}
    for i, a in f.terms.items():
        scaled[i] = a * kind(lam)
        for j, b in g.terms.items():
            cauchy[i + j] = cauchy.get(i + j, kind(0)) + a * b
    for j, b in g.terms.items():
        plus[j] = plus.get(j, kind(0)) + b
    assert f.cauchy(g) == AlgebraElement(K, mode, cauchy)
    assert f + g == AlgebraElement(K, mode, plus)
    assert f.scale(lam) == AlgebraElement(K, mode, scaled)
    for h in (f.cauchy(g), f.dirichlet(g), f + g, f - g, -f, f.scale(lam)):
        assert h == AlgebraElement(K, mode, h.terms)
        assert all(c and type(c) is kind for c in h.terms.values())


# -- the integer product kernel against the loops it replaced ------------

# a sextic with a rational minimal polynomial, so its reduction table has
# a denominator (18)
SEXTIC = Poly([Fraction(1, 2), 0, -3, Fraction(5, 3), 0, 0, 1])
PRODUCT_FIELDS = {
    "Q": rationals(), "Q(sqrt2)": quadratic_field(2), "Q(zeta5)": cyclotomic_field(5),
    "sextic": define_field(SEXTIC),
}


def raw_algebra(K, mode, raw):
    """An element from raw terms (six index coordinates, of which the
    first K.degree are read, and (p, q, r, s) for the coefficient p/q +
    (r/s)i).  An approx part p = 0 is -0.0 where q is odd."""
    terms = {}
    for idx, (p, q, r, s) in raw:
        if mode == EXACT:
            c = GaussRat(Fraction(p, q), Fraction(r, s))
        else:
            c = complex(p / q if p else (-0.0 if q % 2 else 0.0), r / s)
        terms[K.element(list(idx[:K.degree]))] = c
    return AlgebraElement(K, mode, terms)


def coprime_terms(n, seed):
    """n terms whose coefficient denominators are distinct primes."""
    rng = random.Random(seed)
    primes = [q for q in range(2, 2000) if all(q % k for k in range(2, int(q ** 0.5) + 1))]
    rng.shuffle(primes)
    return [(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)),
             (rng.randint(-9, 9) or 1, primes[2 * j], rng.randint(-9, 9), primes[2 * j + 1]))
            for j in range(n)]


small_fracs = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 6))
raw_terms = st.lists(
    st.tuples(st.tuples(*[small_fracs] * 6),
              st.tuples(st.integers(-9, 9), st.integers(1, 12),
                        st.integers(-9, 9), st.integers(1, 12))),
    max_size=7,
)
HALF, THIRD, ZERO = (Fraction(1, 2),) * 6, (Fraction(1, 3),) * 6, (Fraction(0),) * 6


@given(st.sampled_from(sorted(PRODUCT_FIELDS)), st.sampled_from([EXACT, APPROX]),
       raw_terms, raw_terms)
@settings(max_examples=300, deadline=None)
@example("sextic", EXACT, [(HALF, (1, 2, 3, 4))], [(THIRD, (5, 6, -7, 8)), (HALF, (1, 1, 0, 1))])
@example("Q(zeta5)", APPROX, [(HALF, (1, 2, 3, 4))], [(THIRD, (0, 3, -7, 8))])
@example("Q(sqrt2)", EXACT, [(ZERO, (2, 1, 0, 1)), (HALF, (1, 3, 1, 5))], [(THIRD, (3, 1, 1, 1))])
@example("Q(sqrt2)", APPROX, [(HALF, (1, 3, 1, 5))], [(ZERO, (0, 1, 1, 1)), (THIRD, (3, 1, 0, 2))])
@example("Q", EXACT, [(ZERO, (2, 1, 0, 1)), (HALF, (1, 1, 0, 1))], [(ZERO, (3, 5, 1, 7))])
@example("Q", APPROX, [(ZERO, (2, 1, 0, 1))], [(ZERO, (0, 5, 1, 7)), (THIRD, (1, 1, 1, 1))])
@example("Q(zeta5)", EXACT, [], [(HALF, (1, 2, 3, 4))])
@example("sextic", APPROX, [(ZERO, (1, 1, 1, 1))], [])
@example("Q(sqrt2)", EXACT, coprime_terms(120, 1), coprime_terms(120, 2))
@example("Q(zeta5)", APPROX, coprime_terms(120, 3), coprime_terms(120, 4))
def test_products_match_the_loop_oracle(name, mode, tf, tg):
    """Both products give the terms of the FieldElement and coefficient
    loops they replaced, in the same order, and approx values of the same
    repr, signed zeros included."""
    K = PRODUCT_FIELDS[name]
    f, g = raw_algebra(K, mode, tf), raw_algebra(K, mode, tg)
    for got, want in ((f.cauchy(g), oracle_cauchy(f, g)), (f.dirichlet(g), oracle_dirichlet(f, g))):
        assert list(got.terms.items()) == list(want.items())
        assert list(map(repr, got.terms.values())) == list(map(repr, want.values()))


def product_corpus():
    """Seeded exact and approx operand pairs over the four fields above,
    with coefficient denominators 1-12 and index denominators 1-6."""
    rng = random.Random(2303)
    for name in sorted(PRODUCT_FIELDS):
        K = PRODUCT_FIELDS[name]
        for mode in (EXACT, APPROX):
            for n in range(24):
                f, g = (raw_algebra(K, mode, [
                    (tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(6)),
                     (rng.randint(-9, 9), rng.randint(1, 12), rng.randint(-9, 9), rng.randint(1, 12)))
                    for _ in range(rng.randint(0, 3 + n % 8))]) for _ in "fg")
                yield f, g


def test_product_corpus_hash():
    """The terms, in order, of every Cauchy and Dirichlet product of the
    corpus; the hash was taken with the loops the integer kernel replaced."""
    h = hashlib.sha256()
    for f, g in product_corpus():
        for prod in (f.cauchy(g), f.dirichlet(g)):
            for i, c in prod.terms.items():
                h.update(repr((i.num, i.den, (c.x, c.y, c.den) if f.mode == EXACT else c)).encode())
            h.update(b";")
    assert h.hexdigest() == "cb0e1291e3242aea8b429a55d9df33b0b5a20c7e37a958c9a019277ba9c660d5"


def test_products_refuse_mixed_fields_and_modes():
    f = monomial(quadratic_field(2).gen)
    for g, error in ((monomial(quadratic_field(3).gen), FieldMismatchError),
                     (monomial(quadratic_field(2).gen, 1, APPROX), ModeMismatchError)):
        for op in (f.cauchy, f.dirichlet, g.cauchy, g.dirichlet):
            with pytest.raises(error):
                op(g if op.__self__ is f else f)
