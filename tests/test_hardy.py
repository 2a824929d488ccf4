"""Characters, hyperbolic evaluation, the positive cone, quadrature."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from nlfield.algebra import AlgebraElement, monomial
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield import hardy
from nlfield.errors import BandwidthError
from nlfield.hardy import (
    HyperPoint,
    TorusPoint,
    character_eval,
    character_eval_torus,
    hardy_membership,
    in_positive_cone,
    l2_norm,
    series_eval_boundary,
    series_eval_hyper,
    torus_inner_product,
)
from nlfield.numberfield import (
    cyclotomic_field,
    dual_vector,
    poly_at,
    quadratic_field,
    rationals,
)


def test_character_is_unimodular():
    K = quadratic_field(2)
    alpha = K.element([Fraction(1, 2), Fraction(1, 4)])
    res = character_eval(alpha, [0.3, -1.7])
    assert abs(abs(res.value) - 1.0) < 1e-14


def test_character_trivial_on_integer_lattice():
    # alpha in d^-1 pairs integrally with O_K, so the character is 1 at
    # every lattice point of the torus
    K = quadratic_field(2)
    alpha = K.gen.inverse() * K.from_rational(Fraction(1, 2))  # 1/(2 sqrt2)
    for coords in [(0, 0), (1, 0), (2, 3), (-1, 4)]:
        res = character_eval_torus(alpha, TorusPoint(coords))
        assert abs(res.value - 1.0) < 1e-12


def test_monomial_fixture_e_minus_two_pi():
    Q = rationals()
    f = monomial(Q.one)
    res = series_eval_hyper(f, HyperPoint.uniform(Q, x=0.0, t=1.0))
    assert abs(res.value - math.exp(-2 * math.pi)) < 1e-12


def test_negative_index_uses_opposite_conjugation():
    # z^{-1} lives in the "-" component; its conjugated evaluation
    # decays identically
    Q = rationals()
    f = monomial(Q.from_rational(-1))
    res = series_eval_hyper(f, HyperPoint.uniform(Q, x=0.0, t=1.0))
    assert abs(res.value - math.exp(-2 * math.pi)) < 1e-12


def test_hyper_point_validation():
    with pytest.raises(ValueError):
        HyperPoint((complex(0, -1),), ())
    with pytest.raises(ValueError):
        HyperPoint((), ((0.0, complex(-1, 1)),))


def test_positive_cone_quadratic():
    K = quadratic_field(2)
    assert in_positive_cone(K.element([2, 1]))      # 2 + sqrt2 > 0 both ways
    assert not in_positive_cone(K.one + K.gen)      # 1 - sqrt2 < 0
    assert not in_positive_cone(K.zero)


def test_positive_cone_complex_quadrant():
    K = cyclotomic_field(4)
    assert in_positive_cone(K.element([1, 1]))
    assert not in_positive_cone(K.one)              # on the axis: singular
    assert not in_positive_cone(K.element([-1, 1]))


def test_hardy_membership_ignores_constant():
    K = cyclotomic_field(4)
    f = monomial(K.zero).scale(5) + monomial(K.element([1, 1]))
    assert hardy_membership(f)
    g = f + monomial(K.element([0, 1]))
    assert not hardy_membership(g)


def test_l2_norm_exact():
    Q = rationals()
    f = monomial(Q.one).scale(GaussRat(Fraction(3), Fraction(4)))
    assert abs(l2_norm(f) - 5.0) < 1e-15


def test_decay_bound_for_cone_monomials():
    K = cyclotomic_field(4)
    p = HyperPoint.uniform(K, x=0.2, t=0.9)
    for coords in [(1, 1), (2, 1), (1, 3)]:
        f = monomial(K.element(list(coords)))
        res = series_eval_hyper(f, p)
        assert abs(res.value) <= 1.0


def test_boundary_evaluation_is_character_sum():
    Q = rationals()
    f = monomial(Q.one) + monomial(Q.from_rational(2)).scale(2)
    x = [0.3]
    want = cmath.exp(2j * math.pi * 0.3) + 2 * cmath.exp(2j * math.pi * 0.6)
    got = series_eval_boundary(f, x)
    assert abs(got.value - want) < 1e-12


def test_torus_orthonormality_rationals():
    Q = rationals()
    chars = [Q.from_rational(n) for n in range(-4, 5)]
    for a in chars:
        for b in chars:
            ip = torus_inner_product(monomial(a), monomial(b), 32)
            want = 1.0 if a == b else 0.0
            assert abs(ip.value - want) < 1e-10


def test_torus_orthonormality_quadratic():
    K = quadratic_field(2)
    scale = K.gen.inverse() * K.from_rational(Fraction(1, 2))
    chars = [K.element([a, b]) * scale for a in range(-2, 3) for b in range(-2, 3)]
    f = monomial(chars[0])
    for b in chars[:8]:
        ip = torus_inner_product(f, monomial(b), 16)
        want = 1.0 if chars[0] == b else 0.0
        assert abs(ip.value - want) < 1e-9


def test_bandwidth_guard():
    Q = rationals()
    with pytest.raises(BandwidthError):
        torus_inner_product(
            monomial(Q.from_rational(10)), monomial(Q.from_rational(10)), 12
        )


def test_inverse_different_checked_before_bandwidth():
    Q = rationals()
    f = monomial(Q.from_rational(10))  # bandwidth 10 needs a grid of 21
    g = monomial(Q.from_rational(Fraction(1, 2)))  # Tr(1/2) is not an integer
    with pytest.raises(ValueError, match="inverse different"):
        torus_inner_product(f, g, 4)


def test_torus_pairs_each_index_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return dual_vector(a)

    monkeypatch.setattr(hardy, "dual_vector", counted)
    K = quadratic_field(2)
    scale = K.gen.inverse() * K.from_rational(Fraction(1, 2))
    f = monomial(K.one * scale) + monomial(K.gen * scale) + monomial(K.zero)
    torus_inner_product(f, monomial(K.gen * scale), 16)
    assert len(calls) == 4


def test_parseval_on_a_small_series():
    Q = rationals()
    f = monomial(Q.one).scale(2) + monomial(Q.from_rational(3)).scale(
        GaussRat(Fraction(0), Fraction(1))
    )
    ip = torus_inner_product(f, f, 16)
    assert abs(ip.value - l2_norm(f) ** 2) < 1e-10


def _grid_sum(f, g, grid):
    """(1/grid^d) sum over the grid points x of f(x) conj(g(x)), with
    f(x) conj(g(x)) expanded into a_n conj(b_m) e((n - m).x) and every term
    of every point kept: the roots of unity come from cmath, indexed by the
    exact integer (n - m).x mod grid, and fsum adds the terms exactly."""
    unit = [cmath.exp(2j * math.pi * k / grid) for k in range(grid)]

    def spectrum(h):
        return [([int(q) for q in dual_vector(i)], complex(c)) for i, c in h.terms.items()]
    terms = [a * b.conjugate() * unit[sum((p - q) * k for p, q, k in zip(n, m, x)) % grid]
             for x in itertools.product(range(grid), repeat=f.field.degree)
             for n, a in spectrum(f) for m, b in spectrum(g)]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms)) / grid ** f.field.degree


def test_torus_closed_form_matches_the_grid_sum():
    """Seeded trigonometric polynomials over Q, Q(sqrt2) and Q(i), indices
    in the inverse different (1/p'(a)) Z[a], at grids 2 band + 1 to
    2 band + 4.  The coefficients have parts in {0, +-1/2, +-1}, so that
    the grid sum's own rounding stays below the 1e-15 slack of the bound
    check."""
    rng = random.Random(1515)
    checked = 0
    for K in (rationals(), quadratic_field(2), cyclotomic_field(4)):
        scale = poly_at(K.minpoly.derivative(), K.gen).inverse()
        for mode in (EXACT, APPROX) * 6:
            def draw():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    idx = K.element([rng.randint(-2, 2) for _ in range(K.degree)]) * scale
                    c = GaussRat(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 2))
                    terms[idx] = c if mode == EXACT else complex(c)
                return AlgebraElement(K, mode, terms)
            f, g = draw(), draw()
            band = max((abs(int(q)) for h in (f, g) for i in h.terms for q in dual_vector(i)),
                       default=0)
            for grid in range(2 * band + 1, 2 * band + 5):
                got = torus_inner_product(f, g, grid)
                diff = abs(got.value - _grid_sum(f, g, grid))
                assert diff < 1e-12
                assert got.bound >= diff - 1e-15
                checked += 1
    assert checked == 3 * 12 * 4


def test_torus_bound_covers_its_rounding():
    """The closed form is an exact sum rounded once to a complex float;
    `bound` must cover that rounding, checked here in exact arithmetic on
    coefficients whose products do not round to themselves."""
    rng = random.Random(15)
    K = quadratic_field(2)
    scale = poly_at(K.minpoly.derivative(), K.gen).inverse()
    rounded = 0
    for mode in (EXACT, APPROX) * 20:
        f, g = (AlgebraElement(K, mode, {
            K.element([rng.randint(-1, 1), rng.randint(-1, 1)]) * scale:
            GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(3)}) for _ in range(2))
        got = torus_inner_product(f, g, 3)
        exact = GaussRat()
        for i, a in f.terms.items():
            for j, b in g.terms.items():
                if dual_vector(i) == dual_vector(j):
                    a, b = (GaussRat(c.real, c.imag) if mode == APPROX else c for c in (a, b))
                    exact = exact + a * b.conjugate()
        err2 = (Fraction(got.value.real) - exact.re) ** 2 + (Fraction(got.value.imag) - exact.im) ** 2
        assert err2 <= Fraction(got.bound) ** 2
        rounded += err2 > 0
    assert rounded > 10
