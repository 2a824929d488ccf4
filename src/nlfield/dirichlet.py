"""Integer-indexed Dirichlet series: convolution, inversion, Mellin sums.

The rational field's algebra restricted to positive integer indices is
the classical setting: c_n = sum_{d|n} a_d b_{n/d}, Moebius-style
inversion by the standard recursion, and the finite Mellin evaluation
D_f(y) = sum a_n n^(-2 pi i y).  Convolution and inversion run in
sieve order, over the multiples of each nonzero coefficient's index, and
enumerate no divisors: only its test and the benchmark tracer keep
`divisors_of`.  Below MAX_SCALE, exact mode runs on a series' integer
form and divides by a_1 exactly in Z[i]; past it, on `GaussRat`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import count

from . import coeffs
from .algebra import AlgebraElement, _element
from .coeffs import _ZERO, EXACT, _gauss, _new
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
    """Coefficients a_1..a_N of a Dirichlet series truncated at N.

    An exact series also has one integer form (xs, ys, den), a_n =
    (xs[n-1] + i ys[n-1])/den with gcd(*xs, *ys, den) = 1, or none where
    den reaches MAX_SCALE; the kernels read and write it."""

    __slots__ = ("N", "mode", "a", "_int", "_terms")

    def __init__(self, N: int, values, mode: str = EXACT):
        if N < 1:
            raise ValueError("truncation bound must be at least 1")
        vals = list(values)
        if len(vals) != N:
            raise ValueError(f"need {N} coefficients, got {len(vals)}")
        self.N, self.mode, self.a, self._int, self._terms = (
            N, mode, [coeffs.coerce(v, mode) for v in vals], None, None)

    def _int_form(self) -> tuple:
        """The integer form, found on first use; () in approx mode or past MAX_SCALE."""
        if self._int is None:
            a = self.a
            den = _lcm_below({c.den for c in a}) if self.mode == EXACT else 0
            self._int = ([c.x * (den // c.den) for c in a], [c.y * (den // c.den) for c in a],
                         den) if den else ()
        return self._int

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


def _lcm_below(dens) -> int:
    """The lcm of dens, or 0 once it reaches MAX_SCALE, before it grows large."""
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den >= MAX_SCALE:
            return 0
    return den


def _series(N: int, mode: str, a=None, form=None) -> IntegerSeries:
    """A kernel output that skips `coerce`: its coefficients `a`, or an
    integer form, reduced here by one gcd, with `a` built from it."""
    if form:
        xs, ys, den = form
        if (g := math.gcd(*xs, *ys, den)) != 1:
            xs, ys, den = form = [x // g for x in xs], [y // g for y in ys], den // g
        a = [_gauss(x, y, den) if x or y else _ZERO for x, y in zip(xs, ys)]
    s = _new(IntegerSeries)
    s.N, s.mode, s.a, s._int, s._terms = N, mode, a, form, None
    return s


def _nonzero(xs, ys, start: int = 1) -> list:
    """(n, x, y) for each x + iy != 0, n counting from start."""
    return [(n, x, y) for n, x, y in zip(count(start), xs, ys) if x or y]


def _push(re, im, n, x, y, terms, N):
    """Add (x + iy)(u + iv) into index n k for each (k, u, v) of terms, k <= N/n;
    im is None where every y and v is 0."""
    top = N // n
    if im is None:
        for k, u, _ in terms:
            if k > top:
                break
            re[n * k] += x * u
        return
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
    F, G = f._int_form(), g._int_form()
    if F and G and F[2] * G[2] < MAX_SCALE:
        re, im, gs = [0] * (N + 1), [0] * (N + 1), _nonzero(*G[:2])
        sink = im if any(F[1]) or any(G[1]) else None
        for d, x, y in _nonzero(*F[:2]):
            _push(re, sink, d, x, y, gs, N)
        return _series(N, EXACT, form=(re[1:], im[1:], F[2] * G[2]))
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
    return _series(N, f.mode, out[1:])


def dinvert(f: IntegerSeries) -> IntegerSeries:
    """Dirichlet inverse: dconv(f, result) = delta_1 up to N.  Each b_d, once
    final, is pushed forward into the sums of its multiples.

    Below MAX_SCALE, exact mode finds the Gaussian integers B_n = b_n |u|^(2L)/D
    for F = D a, u = F_1 and L = N.bit_length() > Omega(n), dividing exactly in
    Z[i]: u B_n = |u|^(2L) [n = 1] - sum_{d|n, d<n} F_{n/d} B_d."""
    if not f[1]:
        raise NotInvertibleError("leading coefficient a_1 is zero")
    N, F = f.N, f._int_form()
    if F:
        xs, ys, D = F
        ux, uy = xs[0], ys[0]
        n2 = ux * ux + uy * uy
        scale = n2 ** N.bit_length()
        if scale < MAX_SCALE:
            tail = _nonzero(xs[1:], ys[1:], 2)
            # s holds -u B_n, and B_n from step n on
            sx, sy = [0] * (N + 1), [0] * (N + 1)
            sx[1], sink = -scale, sy if any(ys) else None
            for n in range(1, N + 1):
                x, y = sx[n], sy[n]
                x, y = sx[n], sy[n] = -(x * ux + y * uy) // n2, (x * uy - y * ux) // n2
                if x or y:
                    _push(sx, sink, n, x, y, tail, N)
            return _series(N, EXACT,
                           form=([D * x for x in sx[1:]], [D * y for y in sy[1:]], scale))
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
    return _series(N, f.mode, b[1:])


def mellin_eval(f: IntegerSeries, y: float) -> complex:
    """D_f(y) = sum a_n n^(-2 pi i y), a finite unitary-character sum."""
    total = 0j
    for logn, c in f.log_terms():
        total += c * cmath.exp(-2j * math.pi * y * logn)
    return total
