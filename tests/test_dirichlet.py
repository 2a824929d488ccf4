"""Integer Dirichlet series: convolution, inversion, Mellin sums."""

import hashlib
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlfield import dirichlet
from nlfield.algebra import monomial
from nlfield.coeffs import APPROX, EXACT, GaussRat
from nlfield.dirichlet import (
    IntegerSeries,
    dconv,
    dinvert,
    divisors_of,
    from_algebra,
    mellin_eval,
    to_algebra,
)
from nlfield.errors import NotInvertibleError
from nlfield.numberfield import rationals


def test_divisor_enumeration():
    assert divisors_of(1, 60) == [1]
    assert divisors_of(12, 60) == [1, 2, 3, 4, 6, 12]
    assert divisors_of(49, 60) == [1, 7, 49]


def test_delta_is_identity():
    f = IntegerSeries(20, [random.Random(0).randint(-5, 5) for _ in range(20)])
    assert dconv(f, IntegerSeries.delta(20)) == f


def test_ones_squared_counts_divisors():
    tau = dconv(IntegerSeries.ones(24), IntegerSeries.ones(24))
    assert [int(tau[n].re) for n in range(1, 13)] == [
        1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6
    ]


def test_moebius_head():
    mu = dinvert(IntegerSeries.ones(50))
    assert [int(mu[n].re) for n in range(1, 11)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1
    ]
    assert all(int(mu[n].re) in (-1, 0, 1) for n in range(1, 51))


def test_non_invertible():
    with pytest.raises(NotInvertibleError):
        dinvert(IntegerSeries(5, [0, 1, 1, 1, 1]))


series_values = st.lists(st.integers(-6, 6), min_size=16, max_size=16)


@given(series_values, series_values)
@settings(max_examples=40, deadline=None)
def test_dconv_commutative_associative(a, b):
    f = IntegerSeries(16, a)
    g = IntegerSeries(16, b)
    assert dconv(f, g) == dconv(g, f)
    h = IntegerSeries.ones(16)
    assert dconv(dconv(f, g), h) == dconv(f, dconv(g, h))


@given(series_values)
@settings(max_examples=30, deadline=None)
def test_inverse_really_inverts(a):
    if a[0] == 0:
        a = [1] + a[1:]
    f = IntegerSeries(16, a)
    assert dconv(f, dinvert(f)) == IntegerSeries.delta(16)


def test_algebra_round_trip():
    Q = rationals()
    f = monomial(Q.from_rational(3)).scale(2) + monomial(Q.from_rational(7))
    s = from_algebra(f, 10)
    assert s.support() == [3, 7]
    assert to_algebra(s) == f


def test_from_algebra_rejects_bad_support():
    Q = rationals()
    with pytest.raises(ValueError):
        from_algebra(monomial(Q.from_rational(-2)), 10)
    from fractions import Fraction

    with pytest.raises(ValueError):
        from_algebra(monomial(Q.from_rational(Fraction(1, 2))), 10)


def test_mellin_bridge_small():
    rng = random.Random(9)
    N = 144
    a = [rng.randint(-3, 3) if n <= 12 else 0 for n in range(1, N + 1)]
    b = [rng.randint(-3, 3) if n <= 12 else 0 for n in range(1, N + 1)]
    f, g = IntegerSeries(N, a), IntegerSeries(N, b)
    for _ in range(10):
        y = rng.uniform(-3, 3)
        lhs = mellin_eval(dconv(f, g), y)
        rhs = mellin_eval(f, y) * mellin_eval(g, y)
        assert abs(lhs - rhs) < 1e-9


def test_mellin_at_zero_is_coefficient_sum():
    f = IntegerSeries(10, [1, 2, 0, 0, 3, 0, 0, 0, 0, 0])
    assert abs(mellin_eval(f, 0.0) - 6) < 1e-12


def _divisor_sum_conv(a, b, zero):
    """c_n = sum over d | n of a_d b_(n/d), by trial division; the lists
    hold a_1..a_N."""
    return [sum((a[d - 1] * b[n // d - 1] for d in range(1, n + 1) if n % d == 0), zero)
            for n in range(1, len(a) + 1)]


def _divisor_sum_inverse(a, zero, one):
    """b_1 = 1/a_1 and b_n = -(sum over d | n, d < n of b_d a_(n/d)) / a_1."""
    b = [one / a[0]]
    for n in range(2, len(a) + 1):
        acc = sum((b[d - 1] * a[n // d - 1] for d in range(1, n) if n % d == 0), zero)
        b.append(-(acc / a[0]))
    return b


# sparse Gaussian-integer coefficients (a third of them zero), N <= 60
gauss_pairs = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda t: t if t[0] % 3 else (0, 0)),
    min_size=1, max_size=60)


def _close(got, want):
    scale = 1 + max(abs(w) for w in want)
    return all(abs(x - w) <= 1e-9 * scale for x, w in zip(got, want))


@given(gauss_pairs, gauss_pairs, st.sampled_from([EXACT, APPROX]))
@settings(max_examples=80, deadline=None)
def test_dconv_dinvert_match_divisor_sums(a, b, mode):
    N = min(len(a), len(b))
    if mode == EXACT:
        zero, one = GaussRat(), GaussRat(Fraction(1))
        a, b = ([GaussRat(Fraction(re), Fraction(im)) for re, im in v[:N]] for v in (a, b))
    else:
        zero, one = 0j, 1 + 0j
        a, b = ([complex(re, im) for re, im in v[:N]] for v in (a, b))
    f, g = IntegerSeries(N, a, mode), IntegerSeries(N, b, mode)
    want = _divisor_sum_conv(a, b, zero)
    assert dconv(f, g).a == want if mode == EXACT else _close(dconv(f, g).a, want)
    if a[0] != zero:
        want = _divisor_sum_inverse(a, zero, one)
        assert dinvert(f).a == want if mode == EXACT else _close(dinvert(f).a, want)


class _QI(tuple):
    """(re, im) as Fractions: the arithmetic of Q(i) for the oracles, apart
    from GaussRat's."""

    def __add__(self, o):
        return _QI((self[0] + o[0], self[1] + o[1]))

    def __neg__(self):
        return _QI((-self[0], -self[1]))

    def __mul__(self, o):
        return _QI((self[0] * o[0] - self[1] * o[1], self[0] * o[1] + self[1] * o[0]))

    def __truediv__(self, o):
        n = o[0] * o[0] + o[1] * o[1]
        return _QI(((self[0] * o[0] + self[1] * o[1]) / n, (self[1] * o[0] - self[0] * o[1]) / n))


# rationals with denominators 1..12, zero half the time; a_1 a non-unit,
# Gaussian or not, over a denominator or not
rationals12 = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
qi_pair = st.one_of(st.just((0, 0)), st.tuples(rationals12, rationals12),
                    st.tuples(rationals12, st.just(0)))
leading = st.sampled_from([(Fraction(1, 2), 0), (3, 0), (1, 1), (2, Fraction(-3, 5))])
# N = 1024 = 2^10: Omega(1024) + 1 = 11 = 1024.bit_length(), the scale dinvert
# needs exactly; a_2 = 1 makes b_1024 carry 1/a_1^11
pow2 = [(Fraction(1, (n % 12) + 1), 0) if n & (n - 1) else (0, 0) for n in range(3, 1025)]


# every input through each path: MAX_SCALE = inf takes the integer kernels
# at any scale, MAX_SCALE = 0 the GaussRat loops
@pytest.mark.parametrize("max_scale", [math.inf, 0], ids=["kernel", "loop"])
@given(leading, st.lists(qi_pair, max_size=59), st.lists(qi_pair, min_size=1, max_size=60))
@example((2, Fraction(-3, 5)), [], [(Fraction(5, 7), 1)])
@example((3, 0), [(1, 0)] + pow2, [(0, Fraction(1, 12))] * 1024)
@example((2, Fraction(-3, 5)), [(1, 0)] + pow2, [(Fraction(-1, 2), 0)] * 1024)
@settings(max_examples=60, deadline=None)
def test_exact_paths_match_oracles_in_canonical_form(max_scale, a1, rest, b):
    N = min(1 + len(rest), len(b))
    a = [_QI(map(Fraction, v)) for v in [a1] + rest[:N - 1]]
    b = [_QI(map(Fraction, v)) for v in b[:N]]
    f, g = (IntegerSeries(N, [GaussRat(*c) for c in v]) for v in (a, b))
    zero = _QI((Fraction(0), Fraction(0)))
    with mock.patch.object(dirichlet, "MAX_SCALE", max_scale):
        pairs = ((dconv(f, g), _divisor_sum_conv(a, b, zero)),
                 (dinvert(f), _divisor_sum_inverse(a, zero, _QI((Fraction(1), Fraction(0))))))
    for got, want in pairs:
        want = [GaussRat(*c) for c in want]
        assert [(c.x, c.y, c.den) for c in got.a] == [(c.x, c.y, c.den) for c in want]
        assert list(map(hash, got.a)) == list(map(hash, want))


def test_large_denominators_take_the_loop():
    # a_n = 1/n has the inverse mu(n)/n; its scale lcm(1..N)^(2L) is far past
    # MAX_SCALE, where the integer kernel would work on numbers of ~10^5 bits
    N = 3000
    f = IntegerSeries(N, [GaussRat(Fraction(1, n)) for n in range(1, N + 1)])
    t = time.perf_counter()
    b = dinvert(f)
    assert dconv(f, b) == IntegerSeries.delta(N)
    assert time.perf_counter() - t < 1
    mu = dinvert(IntegerSeries.ones(N))
    assert b.a == [GaussRat(c.re / n) for n, c in enumerate(mu.a, 1)]


def test_exact_corpus_hash():
    # a seeded corpus over mixed denominators, a_1 among units, non-units and
    # Gaussian values; the hash was taken with the GaussRat loops that the
    # integer kernel replaced, and canonical outputs keep it
    rng = random.Random(20)
    leads = [GaussRat(Fraction(1, 2)), GaussRat(3), GaussRat(1, 1), GaussRat(2, Fraction(-3, 5)),
             GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)]

    def coeff():
        if rng.random() < 0.35:
            return GaussRat()
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.5 else 0
        return GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 12)), im)

    h = hashlib.sha256()
    for _ in range(120):
        N = rng.randint(1, 90)
        f = IntegerSeries(N, [rng.choice(leads)] + [coeff() for _ in range(N - 1)])
        g = IntegerSeries(N, [coeff() for _ in range(N)])
        for s in (dconv(f, g), dinvert(f)):
            h.update(repr([(c.x, c.y, c.den) for c in s.a]).encode())
    assert h.hexdigest() == "d51baf0e5e5d26077a5642c8397b13a4ff48a3a26dd552b309b461340f8a78f2"
