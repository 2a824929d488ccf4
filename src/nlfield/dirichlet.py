"""Integer-indexed Dirichlet series: convolution, inversion, Mellin sums.

The rational field's algebra restricted to positive integer indices is
the classical setting: c_n = sum_{d|n} a_d b_{n/d}, Moebius-style
inversion by the standard recursion, and the finite Mellin evaluation
D_f(y) = sum a_n n^(-2 pi i y).  Convolution and inversion run in
sieve order, over the multiples of each nonzero coefficient's index;
`divisors_of` enumerates divisors through a smallest-prime-factor sieve.
Below MAX_SCALE, exact mode runs on Gaussian integers over a common
denominator and divides by a_1 exactly in Z[i]; past it, on `GaussRat`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from . import coeffs
from .algebra import AlgebraElement, _element
from .coeffs import EXACT, _gauss
from .errors import NotInvertibleError
from .numberfield import rationals


@lru_cache(maxsize=8)
def _spf_sieve(n: int) -> tuple:
    """Smallest prime factor for every integer up to n."""
    spf = list(range(n + 1))
    i = 2
    while i * i <= n:
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return tuple(spf)


def divisors_of(n: int, bound: int) -> list[int]:
    """All divisors of n, via the shared sieve."""
    spf = _spf_sieve(bound)
    divs = [1]
    while n > 1:
        p = spf[n]
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divs = [d * p ** e for d in divs for e in range(k + 1)]
    return sorted(divs)


class IntegerSeries:
    """Coefficients a_1..a_N of a Dirichlet series truncated at N."""

    __slots__ = ("N", "mode", "a", "_terms")

    def __init__(self, N: int, values, mode: str = EXACT):
        if N < 1:
            raise ValueError("truncation bound must be at least 1")
        self.N = N
        self.mode = mode
        vals = list(values)
        if len(vals) != N:
            raise ValueError(f"need {N} coefficients, got {len(vals)}")
        self.a = [coeffs.coerce(v, mode) for v in vals]
        self._terms = None

    def __getitem__(self, n: int):
        if not 1 <= n <= self.N:
            raise IndexError(f"index {n} outside 1..{self.N}")
        return self.a[n - 1]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerSeries)
            and self.N == other.N
            and self.mode == other.mode
            and self.a == other.a
        )

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.a[:6])
        tail = ", ..." if self.N > 6 else ""
        return f"IntegerSeries(N={self.N}, [{head}{tail}])"

    @staticmethod
    def delta(N: int, mode: str = EXACT) -> "IntegerSeries":
        """The Dirichlet identity: 1 at n=1, zero elsewhere."""
        return IntegerSeries(N, [1] + [0] * (N - 1), mode)

    @staticmethod
    def ones(N: int, mode: str = EXACT) -> "IntegerSeries":
        return IntegerSeries(N, [1] * N, mode)

    def support(self) -> list[int]:
        return [n for n, c in enumerate(self.a, 1) if c]

    def log_terms(self) -> list[tuple]:
        """(log n, complex a_n) for every nonzero a_n, built on first use;
        series are values, so `a` is never changed."""
        if self._terms is None:
            self._terms = [(math.log(n), complex(c))
                           for n, c in enumerate(self.a, 1) if c]
        return self._terms


def from_algebra(f: AlgebraElement, N: int) -> IntegerSeries:
    """Copy an algebra element over Q with positive-integer support."""
    if f.field != rationals():
        raise ValueError("integer series require the rational field")
    vals = [coeffs.zero(f.mode)] * N
    for idx, c in f.terms.items():
        q = idx.as_rational()
        if q.denominator != 1 or q <= 0:
            raise ValueError(f"index {q} is not a positive integer")
        if q > N:
            raise ValueError(f"index {q} exceeds the truncation bound {N}")
        vals[int(q) - 1] = c
    return IntegerSeries(N, vals, f.mode)


def to_algebra(s: IntegerSeries) -> AlgebraElement:
    Q = rationals()
    return _element(Q, s.mode, {Q.from_rational(n): s[n] for n in s.support()})


# Past this scale (D_f D_g in dconv, |D a_1|^(2L) in dinvert) the integer
# kernels can lose to the GaussRat loop, which reduces at every step; below
# it they took 0.2-1.0x the loop's time on every input measured.
MAX_SCALE = 2 ** 64


def _den_below(s: IntegerSeries, bound) -> int:
    """The lcm of the dens if it is below bound, else 0, found before the
    lcm grows large."""
    D = 1
    for d in {c.den for c in s.a}:
        D = math.lcm(D, d)
        if D >= bound:
            return 0
    return D


def _scaled(s: IntegerSeries, D: int) -> list:
    """(n, x, y) with x + iy = D a_n for each a_n != 0; every den divides D."""
    return [(n, c.x * (D // c.den), c.y * (D // c.den)) for n, c in enumerate(s.a, 1) if c]


def _push(re, im, n, x, y, terms, N):
    """Add (x + iy)(u + iv) into index n k for each (k, u, v) of terms, k <= N/n."""
    top = N // n
    for k, u, v in terms:
        if k > top:
            break
        re[n * k] += x * u - y * v
        im[n * k] += x * v + y * u


def dconv(f: IntegerSeries, g: IntegerSeries) -> IntegerSeries:
    """Dirichlet convolution c_n = sum_{d|n} a_d b_{n/d}, truncated, in sieve
    order: each nonzero a_d meets each nonzero b_k with dk <= N."""
    if f.N != g.N or f.mode != g.mode:
        raise ValueError("series must share bound and mode")
    N = f.N
    if f.mode == EXACT:
        Df, Dg = _den_below(f, MAX_SCALE), _den_below(g, MAX_SCALE)
        if 0 < Df * Dg < MAX_SCALE:
            re, im, gs = [0] * (N + 1), [0] * (N + 1), _scaled(g, Dg)
            for d, x, y in _scaled(f, Df):
                _push(re, im, d, x, y, gs, N)
            return IntegerSeries(N, [_gauss(x, y, Df * Dg) for x, y in zip(re[1:], im[1:])])
    out = [coeffs.zero(f.mode)] * (N + 1)
    bs = [(k, c) for k, c in enumerate(g.a, 1) if c]
    for d, ad in enumerate(f.a, 1):
        if not ad:
            continue
        top = N // d
        for k, bk in bs:
            if k > top:
                break
            out[d * k] = out[d * k] + ad * bk
    return IntegerSeries(N, out[1:], f.mode)


def dinvert(f: IntegerSeries) -> IntegerSeries:
    """Dirichlet inverse: dconv(f, result) = delta_1 up to N.  Each b_d, once
    final, is pushed forward into the sums of its multiples.

    Below MAX_SCALE, exact mode finds the Gaussian integers B_n = b_n |u|^(2L)/D
    for F = D a, u = F_1 and L = N.bit_length() > Omega(n), dividing exactly in
    Z[i]: u B_n = |u|^(2L) [n = 1] - sum_{d|n, d<n} F_{n/d} B_d."""
    if not f[1]:
        raise NotInvertibleError("leading coefficient a_1 is zero")
    N = f.N
    if f.mode == EXACT:
        D, a1 = _den_below(f, MAX_SCALE), f[1]
        ux, uy = a1.x * (D // a1.den), a1.y * (D // a1.den)
        n2 = ux * ux + uy * uy
        scale = n2 ** N.bit_length()
        if 0 < scale < MAX_SCALE:
            tail = _scaled(f, D)[1:]
            # s holds -u B_n, and B_n from step n on
            sx, sy = [0] * (N + 1), [0] * (N + 1)
            sx[1] = -scale
            for n in range(1, N + 1):
                x, y = sx[n], sy[n]
                x, y = sx[n], sy[n] = -(x * ux + y * uy) // n2, (x * uy - y * ux) // n2
                if x or y:
                    _push(sx, sy, n, x, y, tail, N)
            return IntegerSeries(N, [_gauss(D * x, D * y, scale) for x, y in zip(sx[1:], sy[1:])])
    inv_a1 = coeffs.coerce(1, f.mode) / f[1]
    acc = [coeffs.zero(f.mode)] * (N + 1)
    b = [coeffs.zero(f.mode)] * (N + 1)
    b[1] = inv_a1
    tail = [(k, c) for k, c in enumerate(f.a[1:], 2) if c]
    for n in range(1, N + 1):
        if n > 1:
            b[n] = -(acc[n] * inv_a1)
        if not b[n]:
            continue
        top = N // n
        for k, ak in tail:
            if k > top:
                break
            acc[n * k] = acc[n * k] + b[n] * ak
    return IntegerSeries(N, b[1:], f.mode)


def mellin_eval(f: IntegerSeries, y: float) -> complex:
    """D_f(y) = sum a_n n^(-2 pi i y), a finite unitary-character sum."""
    total = 0j
    for logn, c in f.log_terms():
        total += c * cmath.exp(-2j * math.pi * y * logn)
    return total
