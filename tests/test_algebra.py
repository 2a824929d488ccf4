"""The field algebra: two products, trace, ideal, projectivization."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlfield.algebra import AlgebraElement, ProjectiveClass, monomial
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield.errors import NotProjectivizableError
from nlfield.numberfield import quadratic_field, rationals


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
